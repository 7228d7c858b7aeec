import ast
import random

import pytest

from conftest import cfg
from sandlab import analysis
from sandlab.analysis import (
    BoundExceeded,
    decompose_triangular,
    enumerate_partition_spaces,
    fp_equilibrium_shape,
    gk_equilibrium_shape,
    gk_transient_time,
    nn_search,
    verify_commutation,
    verify_conservation,
    verify_nn,
    verify_partitions,
    verify_shapes,
)
from sandlab.pile import Configuration, is_fp_stable, is_gk_stable
from sandlab.rules import RuleKind, RuleSpec, const_g1_rule, gen1g_step, gen1g_rule, gk_rule, step


def brute_force_triangular(n):
    """Independent oracle: scan all candidate (k, k') pairs."""
    hits = [
        (k, n - k * (k + 1) // 2)
        for k in range(n + 2)
        if 0 <= n - k * (k + 1) // 2 <= k
    ]
    assert len(hits) == 1, n
    return hits[0]


class TestTriangularDecomposition:
    @pytest.mark.parametrize("n, expected", [(6, (3, 0)), (0, (0, 0)), (14, (4, 4))])
    def test_pinned_values(self, n, expected):
        d = decompose_triangular(n)
        assert (d.k, d.k_prime) == expected

    def test_matches_brute_force(self):
        for n in range(300):
            d = decompose_triangular(n)
            assert (d.k, d.k_prime) == brute_force_triangular(n)

    def test_roundtrip_to_a_million(self):
        for n in range(0, 1_000_001):
            d = decompose_triangular(n)
            assert d.k * (d.k + 1) // 2 + d.k_prime == n
            assert 0 <= d.k_prime <= d.k

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decompose_triangular(-1)


class TestGkEquilibriumShape:
    @pytest.mark.parametrize(
        "n, values",
        [(6, (3, 2, 1)), (14, (4, 4, 3, 2, 1)), (1, (1,)), (0, ())],
    )
    def test_pinned_shapes(self, n, values):
        shape = gk_equilibrium_shape(n)
        assert shape.values == values
        assert shape.offset == 0 or shape.is_zero

    def test_stable_and_totals_up_to_500(self):
        for n in range(501):
            shape = gk_equilibrium_shape(n)
            assert is_gk_stable(shape)
            assert shape.total() == n


class TestGkTransientTime:
    @pytest.mark.parametrize("n, t", [(6, 4), (1, 0), (10, 10), (0, 0)])
    def test_pinned_values(self, n, t):
        assert gk_transient_time(n) == t


class TestFpEquilibriumShape:
    @pytest.mark.parametrize(
        "k, values, offset",
        [
            (6, (1, 1, 1, 0, 1, 1, 1), -3),
            (3, (1, 1, 1), -1),
            (2, (1, 0, 1), -1),
            (0, (), 0),
        ],
    )
    def test_pinned_shapes(self, k, values, offset):
        shape = fp_equilibrium_shape(k)
        assert (shape.values, shape.offset) == (values, offset)

    def test_boolean_symmetric_totals_up_to_500(self):
        for k in range(501):
            shape = fp_equilibrium_shape(k)
            assert is_fp_stable(shape)
            assert shape.total() == k
            cells = range(-k, k + 1)
            assert all(shape.value_at(x) == shape.value_at(-x) for x in cells)


class TestNNSearch:
    def test_pair_rules_clean_below_three(self):
        for y in (1, 2):
            assert nn_search([gen1g_rule((-y, y))], 3, 6) == []

    def test_pair_rule_three_has_the_known_witness(self):
        found = nn_search([gen1g_rule((-3, 3))], 3, 6)
        assert found
        assert all(v.value == -1 and v.witness.value_at(0) == 2 for v in found)
        assert any(v.witness == cfg("2") for v in found)

    def test_witnesses_replay(self):
        for v in nn_search([gen1g_rule((-4, 4))], 4, 8):
            assert gen1g_step(v.witness, v.rule).value_at(v.cell) == v.value
            assert v.value < 0

    def test_const_g1_is_clean_on_symmetric_neighborhoods(self):
        assert nn_search([const_g1_rule()], 3, 6) == []

    def test_bound_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            nn_search([gen1g_rule((-3, 3))], 3, 4)

    def test_a_radius_that_is_not_an_integer_raises(self):
        # a radius of 3.5 once acted as 3
        with pytest.raises(TypeError):
            nn_search([gen1g_rule((-3, 3))], 3.5, 6)

    def test_a_bound_that_is_not_an_integer_raises_at_the_call(self):
        # an empty family once returned [] for a bound of 2.5
        with pytest.raises(TypeError):
            nn_search([], 4, 2.5)
        # with a rule, 8.5 once failed in range() after the family was read
        rules = iter([gen1g_rule((-3, 3))])
        with pytest.raises(TypeError):
            nn_search(rules, 3, 8.5)
        assert next(rules, None) is not None


class TestConservationAudit:
    """Totals before and after one parallel step."""

    def test_gk_is_clean_on_random_samples(self):
        rng = random.Random(11)
        for _ in range(1000):
            c = Configuration([rng.randint(0, 9) for _ in range(rng.randint(1, 15))])
            assert step(c, gk_rule()).total() == c.total()

    def test_const_g1_known_witness(self):
        witness = cfg("0,4|0,4,0")
        assert witness.total() == 8
        assert step(witness, RuleSpec(RuleKind.CONSTANT_G1)).total() == 12

    def test_zero_configuration_never_mismatches(self):
        assert step(Configuration(), RuleSpec(RuleKind.CONSTANT_G1)).total() == 0


def independent_composition_counts(n):
    """Second enumerator: compositions from bar placements in the n-1 gaps."""
    if n == 0:
        return 1, 1
    generalized = 0
    ordered = 0
    for mask in range(2 ** (n - 1)):
        parts = []
        run = 1
        for gap in range(n - 1):
            if mask >> gap & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        generalized += 1
        if all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)):
            ordered += 1
    return ordered, generalized


class TestPartitionSpaces:
    @pytest.mark.parametrize("n, counts", [(0, (1, 1)), (4, (5, 8)), (6, (11, 32))])
    def test_pinned_counts(self, n, counts):
        assert tuple(enumerate_partition_spaces(n)) == counts

    def test_against_independent_enumerator(self):
        for n in range(13):
            assert tuple(enumerate_partition_spaces(n)) == independent_composition_counts(n)

    def test_monotone_inclusion(self):
        for n in range(15):
            counts = enumerate_partition_spaces(n)
            assert counts.ordered <= counts.generalized

    def test_guard(self):
        with pytest.raises(BoundExceeded):
            enumerate_partition_spaces(21)


class TestPredictionCrosscheck:
    """``verify_shapes`` plays the closed forms against the engines."""

    def test_small_run_is_clean_and_records_fp_transients(self):
        checks = verify_shapes(6)
        assert all(c.passed for c in checks)
        recorded = {c.name: c.detail for c in checks}["fp-transients-recorded"]
        assert ast.literal_eval(recorded.partition("asserted: ")[2])[6] == 8

    def test_trivial_run(self):
        assert all(c.passed for c in verify_shapes(1))


class TestVerifySuites:
    @pytest.mark.parametrize(
        "suite, kwargs",
        [
            (verify_conservation, {"seed": 1, "cases": 500}),
            (verify_nn, {"seed": 1, "cases": 500}),
            (verify_shapes, {"n_max": 12}),
            (verify_commutation, {"seed": 1, "cases": 200}),
            (verify_partitions, {"n_max": 10}),
        ],
    )
    def test_all_pass(self, suite, kwargs):
        results = suite(**kwargs)
        assert results
        assert all(check.passed for check in results), [
            check for check in results if not check.passed
        ]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda values: (*values, 0),
            lambda values: (values[0] + values[-1] + 1, *values[1:-1], -1),
            lambda values: (values[0] + 1, *values[1:]),
        ],
        ids=["untrimmed", "negative-cell", "extra-granule"],
    )
    def test_sequential_conservation_fails_on_one_corrupt_image(self, monkeypatch, corrupt):
        real = analysis._images
        corrupted = []

        def images(values, offset, policy, back=False):
            out = real(values, offset, policy, back)
            if out and not corrupted and len(out[0][1]) >= 2:
                move, values, offset = out[0]
                out[0] = (move, corrupt(values), offset)
                corrupted.append(out[0])
            return out

        monkeypatch.setattr(analysis, "_images", images)
        results = {check.name: check.passed for check in verify_conservation(seed=0, cases=50)}
        assert len(corrupted) == 1
        assert results == {
            "gk-conservation": True,
            "sequential-conservation": False,
            "const-g1-violation": True,
        }

    def test_gk_conservation_fails_on_a_step_that_adds_a_granule(self, monkeypatch):
        monkeypatch.setattr(analysis, "gk_step", lambda c: Configuration((*c.values, 1), c.offset))
        results = {check.name: check.passed for check in verify_conservation(cases=50, seed=0)}
        assert results == {
            "gk-conservation": False,
            "sequential-conservation": True,
            "const-g1-violation": True,
        }

    @pytest.mark.parametrize(
        "fake, failing",
        [
            # one ordered count short: only the recurrence cross-check sees it
            (lambda n, c: (c.ordered - 1, c.generalized), {"ordered-counts"}),
            # one generalized count over, still below (n+1)^n, from n = 1 on
            (lambda n, c: (c.ordered, c.generalized + (n > 0)), {"generalized-counts"}),
            # no generalized splittings at all: fewer than the ordered ones
            (lambda n, c: (c.ordered, 0), {"generalized-counts", "inclusion-chain"}),
        ],
        ids=["ordered", "generalized", "inclusion-chain"],
    )
    def test_partitions_fail_on_wrong_counts(self, monkeypatch, fake, failing):
        real = analysis.enumerate_partition_spaces

        def counts(n):
            return analysis.PartitionCounts(*fake(n, real(n)))

        monkeypatch.setattr(analysis, "enumerate_partition_spaces", counts)
        results = {check.name: check.passed for check in verify_partitions(6)}
        assert {name for name, passed in results.items() if not passed} == failing
        assert set(results) == {"ordered-counts", "generalized-counts", "inclusion-chain"}

    def test_suites_are_deterministic_under_a_seed(self):
        assert verify_conservation(seed=3, cases=200) == verify_conservation(
            seed=3, cases=200
        )
