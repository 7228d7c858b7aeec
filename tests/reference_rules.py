"""The parallel-rule step functions as five hand-written per-cell loops.

A differential oracle for the stencil kernel of ``sandlab.rules``: each
function below evaluates its rule cell by cell through ``value_at`` and shares
no arithmetic with the kernel; ``gen1g_step`` returns the raw untrimmed
:class:`SignedImage` window, which ``step`` trims.  ``heaviside`` (the unit
step, H(0) = 1), ``payout``, ``expand`` and ``cells`` are the helpers these
loops read; the engine itself needs none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from sandlab.pile import Configuration, HeightProfile, LatticeWindow, _LatticeState
from sandlab.rules import (
    NegativityWitness,
    RuleKind,
    RuleSpec,
    fp_rule,
    height_rule,
)

_GENERALIZED_KINDS = (RuleKind.GEN_1G, RuleKind.GEN_1G_PRIME, RuleKind.CONSTANT_G1)


def heaviside(r: int) -> int:
    """Unit step with H(0) = 1."""
    return 1 if r >= 0 else 0


@dataclass(frozen=True)
class SignedImage:
    """Raw, untrimmed signed output window of a generalized rule step."""

    values: tuple[int, ...]
    offset: int

    def value_at(self, x: int) -> int:
        i = x - self.offset
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def total(self) -> int:
        return sum(self.values)

    def negative_cells(self) -> tuple[tuple[int, int], ...]:
        """(cell, value) pairs where the image went negative."""
        return tuple(
            (self.offset + i, v) for i, v in enumerate(self.values) if v < 0
        )

    def trimmed(self) -> HeightProfile:
        return HeightProfile(self.values, self.offset)


def payout(rule: RuleSpec) -> dict[int, int]:
    return dict(zip(rule.neighborhood, rule.distribution))


def expand(window: LatticeWindow, margin: int) -> LatticeWindow:
    return LatticeWindow(window.lo - margin, window.hi + margin)


def cells(window: LatticeWindow) -> range:
    return range(window.lo, window.hi + 1)


def gk_step(c: Configuration) -> Configuration:
    """One synchronous vertical-rule update.

    c'(x) = c(x) + H(c(x-1) - c(x) - 2) - H(c(x) - c(x+1) - 2).
    The total number of granules is invariant and no cell left of the support
    ever becomes occupied.
    """
    if c.is_zero:
        return c
    lo, hi = c.support.lo, c.support.hi
    v = c.value_at
    out = [
        v(x) + heaviside(v(x - 1) - v(x) - 2) - heaviside(v(x) - v(x + 1) - 2)
        for x in range(lo - 1, hi + 2)
    ]
    return Configuration(out, lo - 1)


def fp_step(c: Configuration, rule: RuleSpec | None = None) -> Configuration:
    """One synchronous threshold-redistribution update.

    c'(x) = c(x) - th*H(c(x) - th) + sum_y D(y) * H(c(x+y) - th), with
    th = sum(D).  Output is provably non-negative for every configuration and
    every finite neighborhood, and the total is conserved.
    """
    if rule is None:
        rule = fp_rule()
    elif rule.kind is not RuleKind.FP:
        raise ValueError(f"fp_step needs an fp rule, got {rule.kind.value!r}")
    if c.is_zero:
        return c
    lo, hi = c.support.lo, c.support.hi
    r, th, pay = rule.radius, rule.theta, payout(rule)
    v = c.value_at
    out = [
        v(x)
        - th * heaviside(v(x) - th)
        + sum(d * heaviside(v(x + y) - th) for y, d in pay.items())
        for x in range(lo - r, hi + r + 1)
    ]
    return Configuration(out, lo - r)


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
    lo, hi = h.support.lo, h.support.hi
    v = h.value_at
    out = [
        v(x) - 2 * heaviside(v(x) - 2) + heaviside(v(x - 1) - 2) + heaviside(v(x + 1) - 2)
        for x in range(lo - 1, hi + 2)
    ]
    result = HeightProfile(out, lo - 1)
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
    lo, hi = c.support.lo, c.support.hi
    v = c.value_at
    cells = range(lo - 1, hi + 2)
    out = []
    for x in cells:
        a = v(x)
        nxt = (
            a
            + heaviside(a - v(x + 1))
            * (heaviside(v(x - 1) - a - 2) - heaviside(a - v(x + 1) - 2))
            + heaviside(a - v(x - 1))
            * (-heaviside(a - v(x - 1) - 2) + heaviside(v(x + 1) - a - 2))
        )
        out.append(nxt)
    for x, value in zip(cells, out):
        if value < 0:
            raise NegativityWitness(c, x, value)
    return Configuration(out, lo - 1)


def gen1g_step(state: _LatticeState, rule: RuleSpec) -> SignedImage:
    """Raw one-step image of a generalized neighborhood rule.

    gen1g:       c'(x) = c(x) + sum_y G(y) * H(G(y)*(c(x-y) - c(x)) - th)
    gen1g-prime: c'(x) = c(x) + sum_y D(y)*y * H(D(y)*y*(c(x-y) - c(x)) - th)
    const-g1:    c'(x) = c(x) + sum_y H(c(x+y) - th)

    The image is returned untrimmed and signed: negative cells are data for
    the non-negativity searcher, not an error.
    """
    if rule.kind not in _GENERALIZED_KINDS:
        raise ValueError(f"gen1g_step cannot run rule kind {rule.kind.value!r}")
    r, th, pay = rule.radius, rule.theta, payout(rule)
    if state.is_zero:
        window = LatticeWindow(-r, r)
    else:
        window = expand(state.support, r)
    v = state.value_at
    out = []
    for x in cells(window):
        cur = v(x)
        if rule.kind is RuleKind.CONSTANT_G1:
            nxt = cur + sum(heaviside(v(x + y) - th) for y in rule.neighborhood)
        elif rule.kind is RuleKind.GEN_1G:
            nxt = cur + sum(
                g * heaviside(g * (v(x - y) - cur) - th) for y, g in pay.items()
            )
        else:
            nxt = cur + sum(
                d * y * heaviside(d * y * (v(x - y) - cur) - th)
                for y, d in pay.items()
            )
        out.append(nxt)
    return SignedImage(tuple(out), window.lo)


def step(state: _LatticeState, rule: RuleSpec) -> _LatticeState:
    """Dispatch one synchronous update for any rule kind (canonical output)."""
    kind = rule.kind
    if kind is RuleKind.GK:
        return gk_step(state)
    if kind is RuleKind.FP:
        return fp_step(state, rule)
    if kind is RuleKind.HEIGHT_DIFF:
        return height_step(state, rule)
    if kind is RuleKind.SYMMETRIC_SM1:
        return symmetric_step(state)
    return gen1g_step(state, rule).trimmed()
