"""Closed-form predictors, counterexample searches, and verification suites.

The closed forms predict where the parallel engines must land (equilibrium
shapes, transient times); the searches hunt for non-negativity failures of
the generalized rules; and the ``verify`` suites play predictions and
invariants against the engines, so a mismatch surfaces as a FAIL line rather
than as a silent wrong answer.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from typing import Iterable, NamedTuple

from .pile import Configuration, NegativeValue, _Frozen, height_profile
from .rules import (
    RuleKind,
    RuleSpec,
    fp_rule,
    fp_step,
    gen1g_step,
    gk_rule,
    gk_step,
    height_step,
    orbit_states,
    step,
)
from .sequential import (
    ALL_RULES,
    RulesetPolicy,
    _images,
    sequential_spm_orbit,
)


class BoundExceeded(ValueError):
    """A combinatorial enumeration guard was exceeded."""


class TriangularDecomposition(_Frozen):
    """n = k(k+1)/2 + k' with 0 <= k' <= k; unique for every n >= 0."""

    __slots__ = _fields = ("n", "k", "k_prime")

    def __init__(self, n: int, k: int, k_prime: int):
        if n != k * (k + 1) // 2 + k_prime:
            raise ValueError("decomposition does not reconstruct n")
        if not 0 <= k_prime <= k:
            raise ValueError("k' must satisfy 0 <= k' <= k")
        self._init(n, k, k_prime)


def decompose_triangular(n: int) -> TriangularDecomposition:
    """The unique (k, k') with n = k(k+1)/2 + k' and 0 <= k' <= k."""
    if n < 0:
        raise ValueError("n must be non-negative")
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return TriangularDecomposition(n, k, n - k * (k + 1) // 2)


def gk_equilibrium_shape(n: int) -> Configuration:
    """Fixed point of the vertical-rule dynamics started from n granules at 0.

    The descending staircase k, k-1, ..., 2, 1 placed from cell 0, with the
    value k' doubled when k' > 0.
    """
    d = decompose_triangular(n)
    vals: list[int] = []
    for v in range(d.k, 0, -1):
        vals.append(v)
        if v == d.k_prime:
            vals.append(v)
    return Configuration(vals, 0)


def gk_transient_time(n: int) -> int:
    """Number of single vertical moves from n-at-origin to its fixed point."""
    d = decompose_triangular(n)
    return math.comb(d.k + 1, 3) + d.k * d.k_prime - math.comb(d.k_prime, 2)


def fp_equilibrium_shape(k: int) -> Configuration:
    """Fixed point of the threshold dynamics started from k granules at 0.

    Odd k = 2h+1: a run of 2h+1 ones centered at the origin.  Even k = 2h:
    h ones, an empty origin cell, h ones.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return Configuration()
    h, odd = divmod(k, 2)
    if odd:
        return Configuration((1,) * k, -h)
    return Configuration((1,) * h + (0,) + (1,) * h, -h)


class NNViolation(NamedTuple):
    """A configuration whose one-step image has a negative cell."""

    rule: RuleSpec
    witness: Configuration
    cell: int
    value: int


def nn_search(
    rule_family: Iterable[RuleSpec], window_radius: int, value_bound: int
) -> list[NNViolation]:
    """Exhaustive bounded hunt for negative cells in generalized-rule images.

    The image at a cell depends only on that cell and the cells its rule
    reads, so the scan enumerates all value assignments (up to the bound) on
    those cells within the window radius and inspects the image at the
    origin; any violation on any radius-bounded configuration is a translate
    of one found this way.  An empty result certifies non-negativity within
    these bounds only.
    """
    # operator.index accepts integers only: a radius of 3.5 raises instead of acting as 3
    if operator.index(window_radius) < 1:
        raise ValueError("window_radius must be positive")
    if value_bound < 1:
        raise ValueError("value_bound must be positive")
    violations: list[NNViolation] = []
    for rule in rule_family:
        if value_bound < rule.theta:
            raise ValueError(
                f"value_bound {value_bound} is below the rule threshold {rule.theta}"
            )
        cells = sorted(
            {0}
            | {y for y in rule.neighborhood if abs(y) <= window_radius}
            | {-y for y in rule.neighborhood if abs(y) <= window_radius}
        )
        lo = cells[0]
        span = cells[-1] - lo + 1
        for combo in itertools.product(range(value_bound + 1), repeat=len(cells)):
            vals = [0] * span
            for cell, value in zip(cells, combo):
                vals[cell - lo] = value
            config = Configuration(vals, lo)
            value = gen1g_step(config, rule).value_at(0)
            if value < 0:
                violations.append(NNViolation(rule, config, 0, value))
    return violations


class PartitionCounts(NamedTuple):
    ordered: int
    generalized: int


PARTITION_ENUMERATION_BOUND = 20


def _compositions(n: int):
    """All tuples of positive integers summing to n (the empty tuple for 0)."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def enumerate_partition_spaces(n: int) -> PartitionCounts:
    """Exhaustively count non-increasing vs. unconstrained positive splittings.

    ``ordered`` counts the non-increasing compositions of n; ``generalized``
    counts every composition (all parts positive, hence length at most n).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > PARTITION_ENUMERATION_BOUND:
        raise BoundExceeded(
            f"n={n} exceeds the enumeration guard ({PARTITION_ENUMERATION_BOUND})"
        )
    ordered = 0
    generalized = 0
    for comp in _compositions(n):
        generalized += 1
        if all(comp[i] >= comp[i + 1] for i in range(len(comp) - 1)):
            ordered += 1
    return PartitionCounts(ordered, generalized)


def _orbit_end(start: Configuration, rule: RuleSpec) -> tuple[Configuration, int | None]:
    """The last state of ``orbit(start, rule)`` and its transient time, holding one state at a time.

    The transient time is None when the step cap was reached first.
    """
    for t, (state, fixed) in enumerate(orbit_states(start, rule)):
        pass
    return state, t if fixed else None


# ---------------------------------------------------------------------------
# verification suites (driven by the CLI, reused by the acceptance tests)

class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _draws(getrandbits, bounds) -> list[int]:
    """CPython's draw under ``rng.randint(0, n - 1)`` for each n of ``bounds`` in turn.

    Each takes as many bits as n has until the value is below n: the same ints from the same
    stream, without ``randint``'s argument handling.  An empty range raises ValueError when its
    turn comes, after the earlier draws, as ``randint`` does.
    """
    out = []
    append = out.append
    for n in bounds:
        if n < 1:
            raise ValueError(f"empty range for a draw below {n}")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        append(r)
    return out


def random_configuration(
    rng: random.Random,
    max_support: int = 20,
    max_value: int = 9,
    offset_range: tuple[int, int] = (-8, 8),
) -> Configuration:
    """randint(1, max_support) cells of randint(0, max_value), from cell randint(*offset_range)."""
    bits = rng.getrandbits
    lo, hi = offset_range
    width = 1 + _draws(bits, (max_support,))[0]
    cells = _draws(bits, [max_value + 1] * width + [hi - lo + 1])
    offset = lo + cells.pop()
    return Configuration._of_ints(cells, offset)


def random_fp_rule(rng: random.Random, max_offset: int = 6, max_payout: int = 4) -> RuleSpec:
    """randint(1, 5) distinct nonzero offsets up to max_offset, paying randint(1, max_payout).

    The offsets are ``rng.sample``'s: for a population of at most 21 it keeps a pool and
    moves the last unchosen item into each chosen slot, as here; a larger population (a set
    of chosen indices) or one smaller than the sample is left to ``rng.sample`` itself.
    """
    bits = rng.getrandbits
    size = 1 + _draws(bits, (5,))[0]
    pool = [*range(-max_offset, 0), *range(1, max_offset + 1)]
    n = len(pool)
    left = range(n, n - size, -1) if size <= n <= 21 else ()  # items unchosen before each pick
    offsets = [] if left else rng.sample(pool, size)
    drawn = _draws(bits, [*left, *[max_payout] * size])
    for m, j in zip(left, drawn):
        offsets.append(pool[j])
        pool[j] = pool[m - 1]
    return fp_rule(offsets, [1 + r for r in drawn[len(left):]])


def verify_conservation(seed: int = 0, cases: int = 10_000) -> list[CheckResult]:
    """Vertical rule and all six moves conserve; const-g1 visibly does not.

    The move images are checked raw, as ``_images`` gives them to the BFS:
    an image passes only if it is canonical (non-empty, with nonzero end
    cells), has no negative cell and keeps the source's total.  No
    ``Configuration`` is built per image.
    """
    rng = random.Random(seed)
    checks = []
    bad_gk = 0
    bad_moves = 0
    move_uses = {rule: 0 for rule in ALL_RULES}
    policy = RulesetPolicy(hr_convention=False)  # widest move guards
    for _ in range(cases):
        c = random_configuration(rng)
        total = c.total()
        if gk_step(c).total() != total:
            bad_gk += 1
        # the images the BFS itself explores
        for move, values, _ in _images(c.values, c.offset, policy):
            move_uses[move.rule] += 1
            if not (
                values and values[0] and values[-1] and min(values) >= 0 and sum(values) == total
            ):
                bad_moves += 1
    checks.append(
        CheckResult("gk-conservation", bad_gk == 0, f"{cases} random configurations")
    )
    applications = sum(move_uses.values())
    all_used = all(count > 0 for count in move_uses.values())
    checks.append(
        CheckResult(
            "sequential-conservation",
            bad_moves == 0 and all_used,
            f"{applications} move applications, every rule exercised",
        )
    )
    witness = Configuration((4, 0, 4), -1)  # 0,4|0,4,0, total 8
    found = step(witness, RuleSpec(RuleKind.CONSTANT_G1)).total() == 12
    checks.append(
        CheckResult("const-g1-violation", found, "totals 8 -> 12 on 0,4|0,4,0")
    )
    return checks


def verify_nn(seed: int = 0, cases: int = 10_000) -> list[CheckResult]:
    """Threshold rule never goes negative; pair-neighborhood rules fail at y >= 3."""
    rng = random.Random(seed)
    checks = []
    negatives = 0
    for _ in range(cases):
        rule = random_fp_rule(rng)
        c = random_configuration(rng, max_support=12, max_value=3 * rule.theta)
        try:
            fp_step(c, rule)  # Configuration construction rejects negative cells
        except NegativeValue:
            negatives += 1
    checks.append(
        CheckResult("fp-non-negativity", negatives == 0, f"{cases} random rule/state pairs")
    )
    for y in (1, 2, 3, 4):
        rule = RuleSpec(RuleKind.GEN_1G, (-y, y))
        found = nn_search([rule], window_radius=4, value_bound=8)
        sound = all(
            gen1g_step(v.witness, v.rule).value_at(v.cell) == v.value for v in found
        )
        signatures = {(v.witness.value_at(v.cell), v.value) for v in found}
        if y in (1, 2):
            ok = not found
            detail = "no witness within radius 4, bound 8"
        elif y == 3:
            ok = sound and signatures == {(2, -1)}
            detail = "witnesses: value -1 at height 2"
        else:
            ok = sound and signatures == {(2, -2), (3, -1)}
            detail = "witnesses: -2 at height 2, -1 at height 3"
        checks.append(CheckResult(f"pair-rule-y{y}", ok, detail))
    return checks


def verify_shapes(n_max: int = 30) -> list[CheckResult]:
    """Closed-form equilibrium shapes and sequential transient times.

    Per n <= n_max, from n granules at the origin: the parallel vertical orbit
    ends at ``gk_equilibrium_shape(n)``; the parallel threshold orbit ends at
    ``fp_equilibrium_shape(n)``; and (for n <= 12) every maximal
    rightward-vertical sequential path has length ``gk_transient_time(n)``.
    Threshold transients are measured and recorded for n <= 8; no closed form
    is asserted for them.
    """
    gk, fp = gk_rule(), fp_rule()
    gk_ok = fp_ok = seq_ok = True
    transients = {}
    for n in range(n_max + 1):
        start = Configuration((n,)) if n else Configuration()
        end, t = _orbit_end(start, gk)
        gk_ok &= t is not None and end == gk_equilibrium_shape(n)
        end, t = _orbit_end(start, fp)
        fp_ok &= t is not None and end == fp_equilibrium_shape(n)
        if n <= 8:
            transients[n] = t
        if n <= 12:
            lengths = sequential_spm_orbit(start).path_lengths
            seq_ok &= lengths == frozenset({gk_transient_time(n)})
    return [
        CheckResult("gk-equilibrium-shapes", gk_ok, f"n <= {n_max}"),
        CheckResult("fp-equilibrium-shapes", fp_ok, f"n <= {n_max}"),
        CheckResult("sequential-transients", seq_ok, f"n <= {min(n_max, 12)}"),
        CheckResult(
            "fp-transients-recorded",
            True,
            f"measured, no closed form asserted: {transients}",
        ),
    ]


def verify_commutation(seed: int = 0, cases: int = 1000) -> list[CheckResult]:
    """Height transform intertwines the vertical and threshold dynamics."""
    rng = random.Random(seed)
    commutes = 0
    telescopes = 0
    preserved = 0
    for _ in range(cases):
        c = random_configuration(rng, max_support=30, max_value=40)
        h = height_profile(c)
        stepped = height_step(h)
        if height_profile(gk_step(c)) == stepped:
            commutes += 1
        if h.total() == 0:
            telescopes += 1
        if stepped.total() == h.total():
            preserved += 1
    return [
        CheckResult("transform-commutation", commutes == cases, f"{cases} configurations"),
        CheckResult("telescoping-sum", telescopes == cases, "sum of differences is 0"),
        CheckResult("height-sum-invariance", preserved == cases, "sum preserved per step"),
    ]


def _partition_count_recurrence(n: int) -> int:
    # independent of the explicit enumeration: classic count by max part
    table: dict[tuple[int, int], int] = {}

    def count(m: int, cap: int) -> int:
        if m == 0:
            return 1
        key = (m, cap)
        if key not in table:
            table[key] = sum(count(m - part, part) for part in range(1, min(m, cap) + 1))
        return table[key]

    return count(n, n)


def verify_partitions(n_max: int = 12) -> list[CheckResult]:
    """Enumerated splitting-space sizes against an independent recurrence."""
    checks = []
    ok_ordered = True
    ok_generalized = True
    ok_chain = True
    for n in range(n_max + 1):
        counts = enumerate_partition_spaces(n)
        if counts.ordered != _partition_count_recurrence(n):
            ok_ordered = False
        expected_generalized = 1 if n == 0 else 2 ** (n - 1)
        if counts.generalized != expected_generalized:
            ok_generalized = False
        if not counts.ordered <= counts.generalized <= (n + 1) ** n:
            ok_chain = False
    checks.append(
        CheckResult("ordered-counts", ok_ordered, f"recurrence cross-check, n <= {n_max}")
    )
    checks.append(
        CheckResult(
            "generalized-counts", ok_generalized, f"2^(n-1) cross-check, n <= {n_max}"
        )
    )
    checks.append(
        CheckResult(
            "inclusion-chain",
            ok_chain,
            "|ordered| <= |generalized| <= (n+1)^n verified by enumeration; "
            "no factorial shortcut is asserted for the ambient mapping space",
        )
    )
    return checks


VERIFY_SUITES = {
    "conservation": verify_conservation,
    "nn": verify_nn,
    "shapes": verify_shapes,
    "commutation": verify_commutation,
    "partitions": verify_partitions,
}
