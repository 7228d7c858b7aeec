"""Synchronous (parallel) one-step update rules and orbit iteration.

Every rule is a pure function from a lattice state to the next state, applied
to all cells at once.  The rule families:

* ``gk``          -- vertical toppling: a column passes one granule rightward
                     across any jump of at least two.  Conserves the total.
* ``fp``          -- threshold redistribution: a cell at or above the
                     threshold sheds it and collects payouts from unstable
                     neighbours.  Non-negative, but not conservative.
* ``height``      -- the same threshold form acting on signed height
                     differences between adjacent columns.
* ``sm1``         -- gated two-sided vertical rule (both directions at once).
* ``gen1g`` / ``gen1g-prime`` / ``const-g1``
                  -- generalized neighborhood rules whose images may go
                     negative; they return signed height profiles so the
                     caller can inspect exactly where.

All seven are evaluated by one stencil kernel, ``_stencil``; the public step
functions check their inputs and wrap its output in the right state type.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .pile import Configuration, HeightProfile, NegativeValue, _LatticeState


def heaviside(r: int) -> int:
    """Unit step with H(0) = 1."""
    return 1 if r >= 0 else 0


class RuleKind(Enum):
    GK = "gk"
    FP = "fp"
    HEIGHT_DIFF = "height"
    SYMMETRIC_SM1 = "sm1"
    GEN_1G = "gen1g"
    GEN_1G_PRIME = "gen1g-prime"
    CONSTANT_G1 = "const-g1"


_FIXED_NEIGHBORHOOD_KINDS = (
    RuleKind.GK,
    RuleKind.HEIGHT_DIFF,
    RuleKind.SYMMETRIC_SM1,
)

_GENERALIZED_KINDS = (RuleKind.GEN_1G, RuleKind.GEN_1G_PRIME, RuleKind.CONSTANT_G1)

_THRESHOLD_KINDS = (RuleKind.FP, RuleKind.HEIGHT_DIFF, RuleKind.CONSTANT_G1)


@dataclass(frozen=True)
class RuleSpec:
    """Parallel-rule descriptor: kind, neighborhood offsets, per-offset payout.

    ``distribution`` is aligned with ``neighborhood`` (both sorted by offset).
    For ``gen1g`` the distribution is the signed weight function; for the
    other parametric kinds it must be strictly positive (``const-g1``: all 1).
    """

    kind: RuleKind
    neighborhood: tuple[int, ...] = (-1, 1)
    distribution: tuple[int, ...] | None = None

    def __post_init__(self):
        hood = tuple(int(y) for y in self.neighborhood)
        if not hood:
            raise ValueError("neighborhood must be nonempty")
        if 0 in hood:
            raise ValueError("neighborhood must not contain 0")
        if len(set(hood)) != len(hood):
            raise ValueError("duplicate neighborhood offsets")
        dist = self.distribution
        if dist is None:
            if self.kind is RuleKind.GEN_1G:
                dist = hood  # identity weights
            else:
                dist = tuple(1 for _ in hood)
        else:
            dist = tuple(int(d) for d in dist)
            if len(dist) != len(hood):
                raise ValueError("distribution must align with the neighborhood")
        pairs = sorted(zip(hood, dist))
        hood = tuple(y for y, _ in pairs)
        dist = tuple(d for _, d in pairs)
        if self.kind in _FIXED_NEIGHBORHOOD_KINDS:
            if hood != (-1, 1) or dist != (1, 1):
                raise ValueError(
                    f"rule kind {self.kind.value!r} is fixed to neighborhood "
                    "(-1, 1) with unit distribution"
                )
        elif self.kind in (RuleKind.FP, RuleKind.GEN_1G_PRIME):
            if any(d < 1 for d in dist):
                raise ValueError(
                    f"rule kind {self.kind.value!r} needs a strictly positive distribution"
                )
        elif self.kind is RuleKind.CONSTANT_G1:
            if any(d != 1 for d in dist):
                raise ValueError("const-g1 uses the constant unit distribution")
        object.__setattr__(self, "neighborhood", hood)
        object.__setattr__(self, "distribution", dist)

    @property
    def theta(self) -> int:
        """Stability threshold of the rule."""
        if self.kind in (RuleKind.FP, RuleKind.CONSTANT_G1):
            return sum(self.distribution)
        if self.kind is RuleKind.GEN_1G:
            return sum(abs(g) for g in self.distribution)
        if self.kind is RuleKind.GEN_1G_PRIME:
            return sum(abs(d * y) for y, d in zip(self.neighborhood, self.distribution))
        return 2

    @property
    def radius(self) -> int:
        return max(abs(y) for y in self.neighborhood)

    def payout(self) -> dict[int, int]:
        return dict(zip(self.neighborhood, self.distribution))


def gk_rule() -> RuleSpec:
    return RuleSpec(RuleKind.GK)


def fp_rule(neighborhood=(-1, 1), distribution=None) -> RuleSpec:
    return RuleSpec(RuleKind.FP, tuple(neighborhood), distribution)


def height_rule() -> RuleSpec:
    return RuleSpec(RuleKind.HEIGHT_DIFF)


def sm1_rule() -> RuleSpec:
    return RuleSpec(RuleKind.SYMMETRIC_SM1)


def gen1g_rule(neighborhood=(-1, 1), distribution=None) -> RuleSpec:
    return RuleSpec(RuleKind.GEN_1G, tuple(neighborhood), distribution)


def gen1g_prime_rule(neighborhood=(-1, 1), distribution=None) -> RuleSpec:
    return RuleSpec(RuleKind.GEN_1G_PRIME, tuple(neighborhood), distribution)


def const_g1_rule(neighborhood=(-1, 1)) -> RuleSpec:
    return RuleSpec(RuleKind.CONSTANT_G1, tuple(neighborhood))


_GK = gk_rule()
_SM1 = sm1_rule()


class NegativityWitness(ArithmeticError):
    """A rule that promises non-negative output produced a negative cell."""

    def __init__(self, state, cell: int, value: int):
        super().__init__(f"cell {cell} went negative ({value}) from {state}")
        self.state = state
        self.cell = cell
        self.value = value


def gk_step(c: Configuration) -> Configuration:
    """One synchronous vertical-rule update.

    c'(x) = c(x) + H(c(x-1) - c(x) - 2) - H(c(x) - c(x+1) - 2).
    The total number of granules is invariant and no cell left of the support
    ever becomes occupied.
    """
    if c.is_zero:
        return c
    return Configuration(*_stencil(c, _GK))


def fp_step(c: Configuration, rule: RuleSpec | None = None) -> Configuration:
    """One synchronous threshold-redistribution update.

    c'(x) = c(x) - th*H(c(x) - th) + sum_y D(y) * H(c(x+y) - th), with
    th = sum(D).  Output is provably non-negative for every configuration and
    every finite neighborhood; the total is in general not conserved.
    """
    if rule is None:
        rule = fp_rule()
    elif rule.kind is not RuleKind.FP:
        raise ValueError(f"fp_step needs an fp rule, got {rule.kind.value!r}")
    if c.is_zero:
        return c
    return Configuration(*_stencil(c, rule))


def height_step(h: HeightProfile, rule: RuleSpec | None = None) -> HeightProfile:
    """One synchronous update of the height-difference dynamics.

    h'(x) = h(x) - 2*H(h(x) - 2) + H(h(x-1) - 2) + H(h(x+1) - 2).
    Entries may be negative; the sum over the lattice is invariant.
    """
    if rule is None:
        rule = height_rule()
    elif rule.kind is not RuleKind.HEIGHT_DIFF:
        raise ValueError(f"height_step needs a height rule, got {rule.kind.value!r}")
    if h.is_zero:
        return h
    result = HeightProfile(*_stencil(h, rule))
    assert result.total() == h.total(), "height dynamics must preserve the sum"
    return result


def symmetric_step(c: Configuration) -> Configuration:
    """One synchronous update of the two-sided gated vertical rule.

    Each cell evaluates the rightward vertical exchange gated by
    H(c(x) - c(x+1)) and the leftward one gated by H(c(x) - c(x-1)); with
    H(0) = 1 a plateau activates both branches.  Non-negativity of the output
    is checked; a violation raises :class:`NegativityWitness`.
    """
    if c.is_zero:
        return c
    out, lo = _stencil(c, _SM1)
    for i, value in enumerate(out):
        if value < 0:
            raise NegativityWitness(c, lo + i, value)
    return Configuration(out, lo)


def gen1g_step(state: _LatticeState, rule: RuleSpec) -> HeightProfile:
    """One-step image of a generalized neighborhood rule.

    gen1g:       c'(x) = c(x) + sum_y G(y) * H(G(y)*(c(x-y) - c(x)) - th)
    gen1g-prime: c'(x) = c(x) + sum_y D(y)*y * H(D(y)*y*(c(x-y) - c(x)) - th)
    const-g1:    c'(x) = c(x) + sum_y H(c(x+y) - th)

    The image is a signed :class:`HeightProfile`: negative cells are data for
    the non-negativity searcher (see ``negative_cells``), not an error.
    """
    if rule.kind not in _GENERALIZED_KINDS:
        raise ValueError(f"gen1g_step cannot run rule kind {rule.kind.value!r}")
    return HeightProfile(*_stencil(state, rule))


def _stencil(state: _LatticeState, rule: RuleSpec) -> tuple[list[int], int]:
    """Next values of the cells within the rule radius of the support, and the first cell.

    Pads the values once and reads every neighbour as a shifted slice.  Gate forms:
    threshold (fp, height, const-g1), c + sum_y D(y)*H(c(x+y) - th) - shed*H(c - th)
    with shed = th, or 0 for const-g1; difference (gk, gen1g, gen1g-prime),
    c + sum_y w(y)*H(w(y)*(c(x-y) - c) - th) with w = G for gen1g and D*y otherwise
    (the identity for gk); and the product gate of sm1.
    """
    kind, r, th = rule.kind, rule.radius, rule.theta
    width = len(state.values) + 2 * r
    padded = [0] * (2 * r) + list(state.values) + [0] * (2 * r)
    # padded[r + y:] holds c(x + y) from the first cell on; zip stops at the width
    centre = padded[r : r + width]
    if kind in _THRESHOLD_KINDS:
        shed = 0 if kind is RuleKind.CONSTANT_G1 else th
        fires = [v >= th for v in padded]
        out = centre
        for y, d in ((0, -shed), *zip(rule.neighborhood, rule.distribution)):
            out = [v + d * f for v, f in zip(out, fires[r + y :])]
    elif kind is RuleKind.SYMMETRIC_SM1:
        out = [
            a + (a >= b) * ((left - a >= th) - (a - b >= th))
            + (a >= left) * ((b - a >= th) - (a - left >= th))
            for left, a, b in zip(padded[r - 1 :], centre, padded[r + 1 :])
        ]
    else:
        out = centre
        for y, d in zip(rule.neighborhood, rule.distribution):
            w = d if kind is RuleKind.GEN_1G else d * y
            out = [v + w * (w * (a - c) >= th) for v, a, c in zip(out, padded[r - y :], centre)]
    return out, state.offset - r


class GkTripletCase(Enum):
    """Local behaviour of the vertical rule on a cell and its two neighbours."""

    SPZ1 = "SPZ1"  # critical jumps on both sides: gain and loss cancel
    SPZ2 = "SPZ2"  # no critical jump: untouched
    SPZ3 = "SPZ3"  # critical jump on the right only: loses one granule
    SPZ4 = "SPZ4"  # critical jump on the left only: gains one granule

    @property
    def mid_delta(self) -> int:
        return {"SPZ1": 0, "SPZ2": 0, "SPZ3": -1, "SPZ4": 1}[self.value]


class FpTripletCase(Enum):
    """Local behaviour of the threshold rule on a cell and its two neighbours."""

    SFP1 = "SFP1"
    SFP2 = "SFP2"
    SFP3 = "SFP3"
    SFP4 = "SFP4"
    SFP5 = "SFP5"
    SFP6 = "SFP6"
    SFP7 = "SFP7"
    SFP8 = "SFP8"

    @property
    def mid_delta(self) -> int:
        return {
            "SFP1": 0,
            "SFP2": 1,
            "SFP3": 1,
            "SFP4": 2,
            "SFP5": -2,
            "SFP6": -1,
            "SFP7": -1,
            "SFP8": 0,
        }[self.value]


def classify_gk_triplet(left: int, mid: int, right: int) -> GkTripletCase:
    """Case tag for the vertical rule, determined by its two gate values."""
    if min(left, mid, right) < 0:
        raise NegativeValue(f"triplet entries must be non-negative: {(left, mid, right)}")
    gates = (heaviside(left - mid - 2), heaviside(mid - right - 2))
    return {
        (1, 1): GkTripletCase.SPZ1,
        (0, 0): GkTripletCase.SPZ2,
        (0, 1): GkTripletCase.SPZ3,
        (1, 0): GkTripletCase.SPZ4,
    }[gates]


def classify_fp_triplet(left: int, mid: int, right: int) -> FpTripletCase:
    """Case tag for the default threshold rule (theta = 2)."""
    if min(left, mid, right) < 0:
        raise NegativeValue(f"triplet entries must be non-negative: {(left, mid, right)}")
    gates = (heaviside(mid - 2), heaviside(left - 2), heaviside(right - 2))
    return {
        (0, 0, 0): FpTripletCase.SFP1,
        (0, 0, 1): FpTripletCase.SFP2,
        (0, 1, 0): FpTripletCase.SFP3,
        (0, 1, 1): FpTripletCase.SFP4,
        (1, 0, 0): FpTripletCase.SFP5,
        (1, 0, 1): FpTripletCase.SFP6,
        (1, 1, 0): FpTripletCase.SFP7,
        (1, 1, 1): FpTripletCase.SFP8,
    }[gates]


# names resolved at call time, so a wrapper bound to one (a tracer) sees every step
_ENTRY_POINTS = {
    RuleKind.GK: lambda state, rule: gk_step(state),
    RuleKind.FP: lambda state, rule: fp_step(state, rule),
    RuleKind.HEIGHT_DIFF: lambda state, rule: height_step(state, rule),
    RuleKind.SYMMETRIC_SM1: lambda state, rule: symmetric_step(state),
    **{kind: lambda state, rule: gen1g_step(state, rule) for kind in _GENERALIZED_KINDS},
}


def step(state: _LatticeState, rule: RuleSpec) -> _LatticeState:
    """Dispatch one synchronous update for any rule kind (canonical output)."""
    return _ENTRY_POINTS[rule.kind](state, rule)


@dataclass(frozen=True)
class OrbitTrace:
    """Time-indexed record of an orbit up to a fixed point or the step cap."""

    rule: RuleSpec
    states: tuple[_LatticeState, ...]
    totals: tuple[int, ...]
    reached_equilibrium: bool
    transient_time: int | None
    step_cap_reached: bool


def default_step_cap(state: _LatticeState) -> int:
    size = sum(abs(v) for v in state.values)
    return 10 * size * size + 100


def orbit(initial: _LatticeState, rule: RuleSpec, max_steps: int | None = None) -> OrbitTrace:
    """Iterate a rule until the state repeats (fixed point) or the cap hits.

    The trace records every state including the initial one;
    ``transient_time`` is the index of the first occurrence of the final
    (fixed-point) state, or None when the cap was reached first.
    """
    state = _coerce_initial(initial, rule)
    cap = default_step_cap(state) if max_steps is None else max_steps
    if cap < 0:
        raise ValueError("max_steps must be non-negative")
    states = [state]
    reached = False
    for _ in range(cap + 1):
        nxt = step(states[-1], rule)
        if nxt == states[-1]:
            reached = True
            break
        if len(states) > cap:
            break
        states.append(nxt)
    return OrbitTrace(
        rule=rule,
        states=tuple(states),
        totals=tuple(s.total() for s in states),
        reached_equilibrium=reached,
        transient_time=len(states) - 1 if reached else None,
        step_cap_reached=not reached,
    )


def _coerce_initial(initial: _LatticeState, rule: RuleSpec) -> _LatticeState:
    if rule.kind in (RuleKind.GK, RuleKind.FP, RuleKind.SYMMETRIC_SM1):
        if not isinstance(initial, Configuration):
            raise TypeError(f"rule {rule.kind.value!r} runs on Configuration states")
        return initial
    if rule.kind is RuleKind.HEIGHT_DIFF:
        if not isinstance(initial, HeightProfile):
            raise TypeError(
                "the height rule runs on HeightProfile states; apply height_profile() first"
            )
        return initial
    # generalized rules iterate on signed states so negative cells survive
    if isinstance(initial, Configuration):
        return HeightProfile(initial.values, initial.offset)
    return initial
