"""Synchronous (parallel) one-step update rules and orbit iteration.

Every rule is a pure function from a lattice state to the next state, applied
to all cells at once.  The rule families:

* ``gk``          -- vertical toppling: a column passes one granule rightward
                     across any jump of at least two.  Conserves the total.
* ``fp``          -- threshold redistribution: a cell at or above the
                     threshold sheds it and collects payouts from unstable
                     neighbours.  Non-negative and conservative: a firing
                     cell sheds th = sum(D) and pays sum(D) out.
* ``height``      -- the same threshold form acting on signed height
                     differences between adjacent columns.
* ``sm1``         -- gated two-sided vertical rule (both directions at once).
* ``gen1g`` / ``gen1g-prime`` / ``const-g1``
                  -- generalized neighborhood rules whose images may go
                     negative; they return signed height profiles so the
                     caller can inspect exactly where.

All seven are evaluated by one stencil kernel, ``_stencil``; the public step
functions check their inputs and wrap its output in the right state type.  The
threshold kinds touch only their firing cells, which shed and pay out; the
others read every neighbour as a shifted slice.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from enum import Enum

from .pile import Configuration, HeightProfile, _Frozen, _LatticeState


class RuleKind(Enum):
    GK = "gk"
    FP = "fp"
    HEIGHT_DIFF = "height"
    SYMMETRIC_SM1 = "sm1"
    GEN_1G = "gen1g"
    GEN_1G_PRIME = "gen1g-prime"
    CONSTANT_G1 = "const-g1"

    # the members are singletons, so identity hashes them; Enum's own hash runs in Python
    __hash__ = object.__hash__


# each RuleKind.X read goes through the enum's metaclass (about 155 ns on 3.11): read each once
_GK, _FP, _HEIGHT_DIFF, _SYMMETRIC_SM1, _GEN_1G, _GEN_1G_PRIME, _CONSTANT_G1 = RuleKind

_FIXED_NEIGHBORHOOD_KINDS = (_GK, _HEIGHT_DIFF, _SYMMETRIC_SM1)

_GENERALIZED_KINDS = (_GEN_1G, _GEN_1G_PRIME, _CONSTANT_G1)

_THRESHOLD_KINDS = (_FP, _HEIGHT_DIFF, _CONSTANT_G1)


class RuleSpec(_Frozen):
    """Parallel-rule descriptor: kind, neighborhood offsets, per-offset payout.

    ``distribution`` is aligned with ``neighborhood`` (both sorted by offset).
    For ``gen1g`` the distribution is the signed weight function; for the
    other parametric kinds it must be strictly positive (``const-g1``: all 1).
    """

    _fields = ("kind", "neighborhood", "distribution")
    # derived once here, not on every step: _stencil reads theta, radius and _weights
    __slots__ = (*_fields, "theta", "radius", "_weights")

    def __init__(self, kind: RuleKind, neighborhood=(-1, 1), distribution=None):
        if not isinstance(kind, RuleKind):
            raise TypeError(f"kind must be a RuleKind member, got {kind!r}")
        # operator.index accepts integers only: 1.7 raises instead of becoming 1
        hood = tuple(map(operator.index, neighborhood))
        if not hood:
            raise ValueError("neighborhood must be nonempty")
        if 0 in hood:
            raise ValueError("neighborhood must not contain 0")
        if len(set(hood)) != len(hood):
            raise ValueError("duplicate neighborhood offsets")
        if distribution is None:
            dist = hood if kind is _GEN_1G else (1,) * len(hood)  # gen1g: identity weights
        else:
            dist = tuple(map(operator.index, distribution))
            if len(dist) != len(hood):
                raise ValueError("distribution must align with the neighborhood")
        hood, dist = zip(*sorted(zip(hood, dist)))
        if kind in _FIXED_NEIGHBORHOOD_KINDS:
            if hood != (-1, 1) or dist != (1, 1):
                raise ValueError(
                    f"rule kind {kind.value!r} is fixed to neighborhood "
                    "(-1, 1) with unit distribution"
                )
        elif kind is _FP or kind is _GEN_1G_PRIME:
            if min(dist) < 1:
                raise ValueError(
                    f"rule kind {kind.value!r} needs a strictly positive distribution"
                )
        elif kind is _CONSTANT_G1:
            if dist.count(1) != len(dist):
                raise ValueError("const-g1 uses the constant unit distribution")
        # difference-gate weight w(y) per offset: G for gen1g, D*y otherwise (y for gk, sm1)
        weights = dist if kind is _GEN_1G else tuple(map(operator.mul, dist, hood))
        # stability threshold: sum of D for the threshold kinds, sum of |w| for the others
        theta = sum(dist) if kind in _THRESHOLD_KINDS else sum(map(abs, weights))
        self._init(kind, hood, dist, theta, max(-hood[0], hood[-1]), weights)  # hood is sorted


def gk_rule() -> RuleSpec:
    return RuleSpec(_GK)


def fp_rule(neighborhood=(-1, 1), distribution=None) -> RuleSpec:
    return RuleSpec(_FP, tuple(neighborhood), distribution)


def height_rule() -> RuleSpec:
    return RuleSpec(_HEIGHT_DIFF)


def sm1_rule() -> RuleSpec:
    return RuleSpec(_SYMMETRIC_SM1)


def gen1g_rule(neighborhood=(-1, 1), distribution=None) -> RuleSpec:
    return RuleSpec(_GEN_1G, tuple(neighborhood), distribution)


def gen1g_prime_rule(neighborhood=(-1, 1), distribution=None) -> RuleSpec:
    return RuleSpec(_GEN_1G_PRIME, tuple(neighborhood), distribution)


def const_g1_rule(neighborhood=(-1, 1)) -> RuleSpec:
    return RuleSpec(_CONSTANT_G1, tuple(neighborhood))


_GK_RULE = gk_rule()
_FP_RULE = fp_rule()
_HEIGHT_RULE = height_rule()
_SM1_RULE = sm1_rule()


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
    return c if c.is_zero else Configuration._of_ints(*_stencil(c, _GK_RULE))


def fp_step(c: Configuration, rule: RuleSpec | None = None) -> Configuration:
    """One synchronous threshold-redistribution update.

    c'(x) = c(x) - th*H(c(x) - th) + sum_y D(y) * H(c(x+y) - th), with
    th = sum(D).  Output is provably non-negative for every configuration and
    every finite neighborhood, and the total is conserved: a firing cell sheds
    th and pays th out.  The fixed points are the states with every cell
    below th, which are the Boolean ones only for th = 2.
    """
    if rule is None:
        rule = _FP_RULE
    elif rule.kind is not _FP:
        raise ValueError(f"fp_step needs an fp rule, got {rule.kind.value!r}")
    return c if c.is_zero else Configuration._of_ints(*_stencil(c, rule))


def height_step(h: HeightProfile, rule: RuleSpec | None = None) -> HeightProfile:
    """One synchronous update of the height-difference dynamics.

    h'(x) = h(x) - 2*H(h(x) - 2) + H(h(x-1) - 2) + H(h(x+1) - 2).
    Entries may be negative; the sum over the lattice is invariant.
    """
    if rule is None:
        rule = _HEIGHT_RULE
    elif rule.kind is not _HEIGHT_DIFF:
        raise ValueError(f"height_step needs a height rule, got {rule.kind.value!r}")
    if h.is_zero:
        return h
    result = HeightProfile._of_ints(*_stencil(h, rule))
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
    out, lo = _stencil(c, _SM1_RULE)
    for i, value in enumerate(out):
        if value < 0:
            raise NegativityWitness(c, lo + i, value)
    return Configuration._of_ints(out, lo)


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
    return HeightProfile._of_ints(*_stencil(state, rule))


def _stencil(state: _LatticeState, rule: RuleSpec) -> tuple[list[int], int]:
    """Next values of the cells within the rule radius of the support, and the first cell.

    Gate forms: threshold (fp, height, const-g1), c + sum_y D(y)*H(c(x+y) - th)
    - shed*H(c - th) with shed = th, or 0 for const-g1; difference (gk, gen1g,
    gen1g-prime), c + sum_y w(y)*H(w(y)*(c(x-y) - c) - th) with w from
    ``RuleSpec._weights``; and the product gate of sm1.  The threshold gate
    loops over the firing cells alone: each sheds ``shed`` and pays D(y) to the
    cell at offset -y from it.  The other two pad the values once and read every
    neighbour as a shifted slice.
    """
    kind, r, th = rule.kind, rule.radius, rule.theta
    pad = (0,) * r
    if kind in _THRESHOLD_KINDS:
        shed = 0 if kind is _CONSTANT_G1 else th
        out = [*pad, *state.values, *pad]
        # the firing cells, as indices of out
        hot = [j for j, v in enumerate(state.values, r) if v >= th]
        for y, d in ((0, -shed), *zip(rule.neighborhood, rule.distribution)):
            for j in hot:
                out[j - y] += d
        return out, state.offset - r
    width = len(state.values) + 2 * r
    padded = [*pad, *pad, *state.values, *pad, *pad]
    # padded[r + y:] holds c(x + y) from the first cell on; zip stops at the width
    centre = padded[r : r + width]
    if kind is _SYMMETRIC_SM1:
        out = [
            a + (a >= b) * ((left - a >= th) - (a - b >= th))
            + (a >= left) * ((b - a >= th) - (a - left >= th))
            for left, a, b in zip(padded[r - 1 :], centre, padded[r + 1 :])
        ]
    else:
        out = centre
        for y, w in zip(rule.neighborhood, rule._weights):
            out = [v + w * (w * (a - c) >= th) for v, a, c in zip(out, padded[r - y :], centre)]
    return out, state.offset - r


# names resolved at call time, so a wrapper bound to one (a tracer) sees every step
_ENTRY_POINTS = {
    _GK: lambda state, rule: gk_step(state),
    _FP: lambda state, rule: fp_step(state, rule),
    _HEIGHT_DIFF: lambda state, rule: height_step(state, rule),
    _SYMMETRIC_SM1: lambda state, rule: symmetric_step(state),
    **{kind: lambda state, rule: gen1g_step(state, rule) for kind in _GENERALIZED_KINDS},
}


def step(state: _LatticeState, rule: RuleSpec) -> _LatticeState:
    """Dispatch one synchronous update for any rule kind (canonical output)."""
    return _ENTRY_POINTS[rule.kind](state, rule)


def default_step_cap(state: _LatticeState) -> int:
    size = sum(abs(v) for v in state.values)
    return 10 * size * size + 100


def orbit_states(
    initial: _LatticeState, rule: RuleSpec, max_steps: int | None = None
) -> Iterator[tuple[_LatticeState, bool]]:
    """Iterate a rule from ``initial`` until the state repeats (fixed point) or the cap hits.

    Yields ``(state, fixed)`` from the initial state on, and stops after the
    first fixed point or after the state at index ``max_steps``; a False flag
    on the last state means the cap was reached.  Only the current state is held.
    The arguments are checked on the call, before any state is drawn.
    """
    state = _coerce_initial(initial, rule)
    # operator.index accepts integers only: 1.5 raises here, not at the first draw
    cap = default_step_cap(state) if max_steps is None else operator.index(max_steps)
    if cap < 0:
        raise ValueError("max_steps must be non-negative")
    return _walk(state, rule, cap)


def _walk(state: _LatticeState, rule: RuleSpec, cap: int) -> Iterator[tuple[_LatticeState, bool]]:
    for _ in range(cap + 1):
        nxt = step(state, rule)  # by module-level name, so a tracer bound to it sees every step
        fixed = nxt == state
        yield state, fixed
        if fixed:
            return
        state = nxt


def _coerce_initial(initial: _LatticeState, rule: RuleSpec) -> _LatticeState:
    if rule.kind in (_GK, _FP, _SYMMETRIC_SM1):
        if not isinstance(initial, Configuration):
            raise TypeError(f"rule {rule.kind.value!r} runs on Configuration states")
        return initial
    if rule.kind is _HEIGHT_DIFF:
        if not isinstance(initial, HeightProfile):
            raise TypeError(
                "the height rule runs on HeightProfile states; apply height_profile() first"
            )
        return initial
    # generalized rules iterate on signed states so negative cells survive
    if isinstance(initial, Configuration):
        return HeightProfile(initial.values, initial.offset)
    return initial
