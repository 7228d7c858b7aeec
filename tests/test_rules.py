import itertools
import pickle
from enum import Enum

import pytest
from hypothesis import given, strategies as st

import reference_rules as ref
from conftest import (
    RECORDS,
    UNHASHABLE_RECORDS,
    boolean_configurations,
    cfg,
    configurations,
    height_profiles,
    hp,
    small_configurations,
)
from sandlab.analysis import random_fp_rule
from sandlab.pile import (
    Configuration,
    HeightProfile,
    height_profile,
    is_fp_stable,
    is_gk_stable,
)
from sandlab.rules import (
    NegativityWitness,
    RuleKind,
    RuleSpec,
    const_g1_rule,
    fp_rule,
    fp_step,
    gen1g_prime_rule,
    gen1g_rule,
    gen1g_step,
    gk_rule,
    gk_step,
    height_rule,
    height_step,
    orbit_states,
    sm1_rule,
    symmetric_step,
)

# reference orbits, frozen as (values, offset) rows
GK_815_ROWS = [
    ((8, 1, 5), 0),
    ((7, 2, 4, 1), 0),
    ((6, 3, 3, 2), 0),
    ((5, 4, 3, 1, 1), 0),
    ((5, 4, 2, 2, 1), 0),
    ((5, 3, 3, 2, 1), 0),
    ((4, 4, 3, 2, 1), 0),
]

FP_060_ROWS = [
    ((6,), 0),
    ((1, 4, 1), -1),
    ((2, 2, 2), -1),
    ((1, 1, 2, 1, 1), -2),
    ((1, 2, 0, 2, 1), -2),
    ((2, 0, 2, 0, 2), -2),
    ((1, 0, 2, 0, 2, 0, 1), -3),
    ((1, 1, 0, 2, 0, 1, 1), -3),
    ((1, 1, 1, 0, 1, 1, 1), -3),
]

FP_040_ROWS = [
    ((4,), 0),
    ((1, 2, 1), -1),
    ((2, 0, 2), -1),
    ((1, 0, 2, 0, 1), -2),
    ((1, 1, 0, 1, 1), -2),
]

HEIGHT_060_ROWS = [
    ((-6, 6), -1),
    ((-5, 4, 1), -1),
    ((-4, 2, 2), -1),
    ((-3, 1, 1, 1), -1),
]


def rows_of(rows):
    return [(s.values, s.offset) for s, _ in rows]


def pairwise_flow_oracle(c):
    """Move one granule across every adjacent pair with a jump of >= 2."""
    if c.is_zero:
        return c
    lo, hi = c.support.lo, c.support.hi
    out = {x: c.value_at(x) for x in range(lo - 1, hi + 2)}
    for x in range(lo - 1, hi + 1):
        if c.value_at(x) - c.value_at(x + 1) >= 2:
            out[x] -= 1
            out[x + 1] += 1
    return Configuration([out[x] for x in sorted(out)], lo - 1)


def threshold_flow_oracle(c, rule):
    """Every unstable cell sheds the threshold and pays d to cell s - y."""
    if c.is_zero:
        return c
    th = rule.theta
    r = rule.radius
    lo, hi = c.support.lo, c.support.hi
    out = {x: c.value_at(x) for x in range(lo - r, hi + r + 1)}
    for s in range(lo, hi + 1):
        if c.value_at(s) >= th:
            out[s] -= th
            for y, d in zip(rule.neighborhood, rule.distribution):
                out[s - y] = out.get(s - y, 0) + d
    cells = sorted(out)
    return Configuration([out[x] for x in cells], cells[0])


class TestGkStep:
    def test_815_orbit(self):
        rows = ref.orbit(cfg("8,1,5"), gk_rule())
        assert rows_of(rows) == GK_815_ROWS
        assert ref.transient_time(rows) == 6
        assert {s.total() for s, _ in rows} == {14}

    def test_multi_jump_row(self):
        assert gk_step(cfg("1,6,4,2,2,0")) == cfg("1,5,4,3,1,1")

    def test_single_jump(self):
        assert gk_step(cfg("5,4,3")) == cfg("5,4,2,1")

    def test_stable_point_is_fixed(self):
        c = cfg("4,4,3,2,1")
        assert gk_step(c) == c

    def test_zero(self):
        assert gk_step(Configuration()) == Configuration()

    def test_origin_orbit(self):
        rows = ref.orbit(cfg("6"), gk_rule())
        assert rows_of(rows) == [((6,), 0), ((5, 1), 0), ((4, 2), 0), ((3, 2, 1), 0)]
        assert ref.transient_time(rows) == 3

    @given(configurations)
    def test_conserves_total(self, c):
        assert gk_step(c).total() == c.total()

    @given(configurations)
    def test_fixed_point_iff_stable(self, c):
        assert (gk_step(c) == c) == is_gk_stable(c)

    @given(configurations, st.integers(-10, 10))
    def test_shift_equivariance(self, c, a):
        assert gk_step(c.shift(a)) == gk_step(c).shift(a)

    @given(configurations)
    def test_never_grows_left(self, c):
        # cells left of the support stay empty through the update
        out = gk_step(c)
        if not c.is_zero and not out.is_zero:
            assert out.support.lo >= c.support.lo

    @given(configurations)
    def test_agrees_with_the_pairwise_flow_oracle(self, c):
        assert gk_step(c) == pairwise_flow_oracle(c)


class _TripletCase(Enum):
    """A case of the paper's local analysis: a gate pattern and the change of the middle cell."""

    def __init__(self, gates, mid_delta):
        self.gates = gates
        self.mid_delta = mid_delta


class GkTripletCase(_TripletCase):
    """The SPZ cases of the vertical rule: (H(left - mid - 2), H(mid - right - 2))."""

    SPZ1 = (1, 1), 0  # critical jumps on both sides: gain and loss cancel
    SPZ2 = (0, 0), 0  # no critical jump: untouched
    SPZ3 = (0, 1), -1  # critical jump on the right only: loses one granule
    SPZ4 = (1, 0), 1  # critical jump on the left only: gains one granule

    @staticmethod
    def gates_at(left, mid, right):
        return left - mid >= 2, mid - right >= 2


class FpTripletCase(_TripletCase):
    """The SFP cases of the threshold rule, theta = 2: (H(mid - 2), H(left - 2), H(right - 2))."""

    SFP1 = (0, 0, 0), 0
    SFP2 = (0, 0, 1), 1
    SFP3 = (0, 1, 0), 1
    SFP4 = (0, 1, 1), 2
    SFP5 = (1, 0, 0), -2
    SFP6 = (1, 0, 1), -1
    SFP7 = (1, 1, 0), -1
    SFP8 = (1, 1, 1), 0

    @staticmethod
    def gates_at(left, mid, right):
        return mid >= 2, left >= 2, right >= 2


def assert_case(step, triplet, tag):
    """The triplet opens ``tag``'s gates, and ``step`` changes its middle cell by ``tag.mid_delta``."""
    assert type(tag).gates_at(*triplet) == tag.gates, triplet
    assert step(Configuration(triplet, -1)).value_at(0) == triplet[1] + tag.mid_delta, triplet


def assert_every_triplet_in_its_case(cases, step):
    """Every triple in 0..12, which opens every gate pattern, behaves as its case says."""
    by_gates = {case.gates: case for case in cases}
    seen = set()
    for triplet in itertools.product(range(13), repeat=3):
        case = by_gates[cases.gates_at(*triplet)]
        assert_case(step, triplet, case)
        seen.add(case)
    assert seen == set(cases)


class TestGkTriplets:
    @pytest.mark.parametrize(
        "triplet, tag",
        [
            ((6, 4, 2), GkTripletCase.SPZ1),
            ((0, 0, 1), GkTripletCase.SPZ2),
            ((0, 1, 6), GkTripletCase.SPZ2),
            ((1, 6, 4), GkTripletCase.SPZ3),
            ((2, 2, 0), GkTripletCase.SPZ3),
            ((4, 2, 2), GkTripletCase.SPZ4),
            ((2, 0, 0), GkTripletCase.SPZ4),
        ],
    )
    def test_pinned_cases(self, triplet, tag):
        assert_case(gk_step, triplet, tag)

    def test_exhaustive_agreement_with_step(self):
        assert_every_triplet_in_its_case(GkTripletCase, gk_step)


class TestFpStep:
    @pytest.mark.parametrize(
        "k, rows, transient",
        [
            (2, [((2,), 0), ((1, 0, 1), -1)], 1),
            (3, [((3,), 0), ((1, 1, 1), -1)], 1),
            (4, FP_040_ROWS, 4),
            (6, FP_060_ROWS, 8),
        ],
    )
    def test_origin_orbits(self, k, rows, transient):
        got = ref.orbit(cfg(str(k)), fp_rule())
        assert rows_of(got) == rows
        assert ref.transient_time(got) == transient

    @given(boolean_configurations)
    def test_boolean_states_are_fixed(self, c):
        assert fp_step(c) == c

    @given(configurations)
    def test_fixed_point_iff_boolean(self, c):
        assert (fp_step(c) == c) == is_fp_stable(c)

    @given(configurations, st.integers(-10, 10))
    def test_shift_equivariance(self, c, a):
        assert fp_step(c.shift(a)) == fp_step(c).shift(a)

    @given(st.lists(st.integers(0, 6), max_size=8), st.integers(0, 6))
    def test_preserves_origin_symmetry(self, half, middle):
        values = list(reversed(half)) + [middle] + half
        c = Configuration(values, -len(half))
        out = fp_step(c)
        lo, hi = (0, 0) if out.is_zero else (out.support.lo, out.support.hi)
        assert all(out.value_at(x) == out.value_at(-x) for x in range(min(lo, -hi), max(hi, -lo) + 1))

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            fp_step(cfg("6"), gk_rule())


@st.composite
def fp_rules(draw):
    offsets = draw(
        st.lists(
            st.integers(-6, 6).filter(lambda y: y != 0),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    payouts = draw(st.lists(st.integers(1, 4), min_size=len(offsets), max_size=len(offsets)))
    return fp_rule(tuple(offsets), tuple(payouts))


class TestFpGeneralized:
    @given(fp_rules(), st.data())
    def test_non_negative_for_any_rule(self, rule, data):
        values = data.draw(st.lists(st.integers(0, 3 * rule.theta), max_size=12))
        c = Configuration(values, data.draw(st.integers(-5, 5)))
        fp_step(c, rule)  # Configuration construction rejects negative cells

    @given(st.randoms(use_true_random=False), st.data())
    def test_conserves_the_total_under_random_fp_rule(self, rng, data):
        # a firing cell sheds theta = sum(D) and pays sum(D) out to its neighbours
        rule = random_fp_rule(rng)
        values = data.draw(st.lists(st.integers(0, 3 * rule.theta), max_size=12))
        c = Configuration(values, data.draw(st.integers(-5, 5)))
        assert fp_step(c, rule).total() == c.total()

    def test_default_equals_unit_pair_rule(self):
        c = cfg("0,1|2,1,0")
        assert fp_step(c) == fp_step(c, fp_rule((-1, 1), (1, 1)))

    @given(fp_rules(), st.data())
    def test_agrees_with_the_threshold_flow_oracle(self, rule, data):
        values = data.draw(st.lists(st.integers(0, 2 * rule.theta), max_size=10))
        c = Configuration(values, data.draw(st.integers(-5, 5)))
        assert fp_step(c, rule) == threshold_flow_oracle(c, rule)


class TestFpTriplets:
    @pytest.mark.parametrize(
        "triplet, tag",
        [
            ((0, 0, 3), FpTripletCase.SFP2),
            ((0, 3, 0), FpTripletCase.SFP5),
            ((3, 0, 0), FpTripletCase.SFP3),
            ((1, 4, 1), FpTripletCase.SFP5),
            ((0, 0, 0), FpTripletCase.SFP1),
            ((2, 1, 2), FpTripletCase.SFP4),
            ((2, 2, 2), FpTripletCase.SFP8),
            ((0, 2, 3), FpTripletCase.SFP6),
            ((3, 2, 0), FpTripletCase.SFP7),
        ],
    )
    def test_cases(self, triplet, tag):
        assert_case(fp_step, triplet, tag)

    def test_exhaustive_agreement_with_step(self):
        assert_every_triplet_in_its_case(FpTripletCase, fp_step)


class TestHeightStep:
    def test_single_column_difference_table(self):
        rows = ref.orbit(hp("-6|6"), height_rule())
        assert rows_of(rows) == HEIGHT_060_ROWS
        assert ref.transient_time(rows) == 3

    def test_zero(self):
        assert height_step(HeightProfile()) == HeightProfile()

    @given(height_profiles)
    def test_sum_invariance(self, h):
        assert height_step(h).total() == h.total()

    @given(height_profiles, st.integers(-10, 10))
    def test_shift_equivariance(self, h, a):
        assert height_step(h.shift(a)) == height_step(h).shift(a)

    @given(configurations)
    def test_intertwines_with_gk_dynamics(self, c):
        assert height_profile(gk_step(c)) == height_step(height_profile(c))


class TestSymmetricStep:
    def test_zero(self):
        assert symmetric_step(Configuration()) == Configuration()

    def test_two_granules_split(self):
        assert symmetric_step(cfg("2")) == cfg("1|0,1")

    @given(boolean_configurations)
    def test_boolean_states_are_fixed(self, c):
        assert symmetric_step(c) == c

    @given(small_configurations, st.integers(-10, 10))
    def test_shift_equivariance(self, c, a):
        try:
            expected = symmetric_step(c).shift(a)
        except NegativityWitness:
            with pytest.raises(NegativityWitness):
                symmetric_step(c.shift(a))
            return
        assert symmetric_step(c.shift(a)) == expected

    def test_orbit_via_the_dispatcher(self):
        rows = ref.orbit(cfg("2"), sm1_rule())
        assert [s for s, _ in rows] == [cfg("2"), cfg("1|0,1")]
        assert ref.transient_time(rows) == 1


class TestGeneralizedRules:
    def test_unit_pair_rule_matches_gk(self):
        for text in ("8,1,5", "1,6,4,2,2,0", "5,4,2,1", "2"):
            c = cfg(text)
            assert gen1g_step(c, gen1g_rule()).values == gk_step(c).values

    def test_pair_rule_witnesses(self):
        y3 = gen1g_step(cfg("2"), gen1g_rule((-3, 3)))
        assert y3.value_at(0) == -1
        assert y3.negative_cells() == ((0, -1),)
        assert gen1g_step(cfg("2"), gen1g_rule((-4, 4))).value_at(0) == -2
        assert gen1g_step(cfg("3"), gen1g_rule((-4, 4))).value_at(0) == -1

    def test_exhaustive_window_scan_for_small_offsets(self):
        # every (left, mid, right) pattern up to value 12: clean for y <= 2
        for y in (1, 2, 3, 4):
            rule = gen1g_rule((-y, y))
            negatives = []
            for a, m, b in itertools.product(range(13), repeat=3):
                vals = [0] * (2 * y + 1)
                vals[0], vals[y], vals[2 * y] = a, m, b
                image = gen1g_step(Configuration(vals, -y), rule)
                if image.value_at(0) < 0:
                    negatives.append((a, m, b))
            assert bool(negatives) == (y >= 3), y

    def test_const_g1_image_and_total(self):
        image = gen1g_step(cfg("0,4|0,4,0"), const_g1_rule())
        assert image.values == (1, 4, 2, 4, 1)
        assert image.offset == -2
        assert image.total() == 12

    @given(small_configurations)
    def test_const_g1_non_negative_on_symmetric_neighborhoods(self, c):
        for hood in ((-1, 1), (-2, 2), (-1, 1, -3, 3)):
            image = gen1g_step(c, const_g1_rule(hood))
            assert image.negative_cells() == ()

    def test_prime_variant_reduces_to_unit_pair_rule(self):
        rule = gen1g_prime_rule()
        assert rule.theta == 2
        for text in ("8,1,5", "6", "2,0,2"):
            c = cfg(text)
            assert gen1g_step(c, rule).values == gk_step(c).values

    def test_gen1g_orbit_runs_on_signed_states(self):
        rows = ref.orbit(cfg("2"), gen1g_rule((-3, 3)), max_steps=5)
        assert any(min(s.values) < 0 for s, _ in rows if not s.is_zero)


class TestRuleSpec:
    def test_thresholds(self):
        assert gk_rule().theta == 2
        assert fp_rule().theta == 2
        assert fp_rule((-1, 1, 2), (1, 2, 3)).theta == 6
        assert gen1g_rule((-3, 3)).theta == 6
        assert gen1g_prime_rule((-2, 2)).theta == 4
        assert const_g1_rule((-2, -1, 1, 2)).theta == 4
        # the stencil oracle reads rule.theta, so the thresholds are pinned here
        assert sm1_rule().theta == 2
        assert height_rule().theta == 2
        assert fp_rule((-2, -1, 1, 2), (1, 2, 2, 1)).theta == 6
        assert gen1g_rule((-2, 1), (5, -4)).theta == 9
        assert gen1g_prime_rule((-2, 1), (3, 4)).theta == 10
        assert const_g1_rule((-2, 1, 3)).theta == 3

    def test_derived_fields_follow_the_rule_and_stay_out_of_equality(self):
        rule = fp_rule((-2, 1, 3), (1, 2, 1))
        assert (rule.theta, rule.radius) == (4, 3)
        wider = fp_rule((-5, 1, 3), (1, 2, 1))
        assert (wider.theta, wider.radius) == (4, 5)
        assert fp_rule((-2, 1, 3), (1, 2, 1)) == rule
        assert hash(fp_rule((-2, 1, 3), (1, 2, 1))) == hash(rule)
        assert repr(gk_rule()) == (
            "RuleSpec(kind=<RuleKind.GK: 'gk'>, neighborhood=(-1, 1), distribution=(1, 1))"
        )

    def test_sorts_neighborhood_with_distribution(self):
        rule = fp_rule((2, -1), (5, 3))
        assert rule.neighborhood == (-1, 2)
        assert rule.distribution == (3, 5)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: fp_rule((), ()),
            lambda: fp_rule((0, 1)),
            lambda: fp_rule((1, 1)),
            lambda: fp_rule((-1, 1), (0, 1)),
            lambda: fp_rule((-1, 1), (1,)),
            lambda: RuleSpec(RuleKind.GK, (-2, 2)),
            lambda: RuleSpec(RuleKind.CONSTANT_G1, (-1, 1), (2, 2)),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: fp_rule((-1.7, 1.2), (1.9, 1)),
            lambda: RuleSpec(RuleKind.FP, ("-1", "1")),
        ],
        ids=["floats", "strings"],
    )
    def test_rejects_non_integers(self, bad):
        with pytest.raises(TypeError):
            bad()

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda: fp_rule((), ()), "neighborhood must be nonempty"),
            (lambda: fp_rule((0, 1)), "neighborhood must not contain 0"),
            (lambda: fp_rule((1, 1)), "duplicate neighborhood offsets"),
            (lambda: fp_rule((-1, 1), (1,)), "distribution must align with the neighborhood"),
            (
                lambda: RuleSpec(RuleKind.SYMMETRIC_SM1, (1, -1), (1, 2)),
                "rule kind 'sm1' is fixed to neighborhood (-1, 1) with unit distribution",
            ),
            (
                lambda: fp_rule((-1, 2), (1, 0)),
                "rule kind 'fp' needs a strictly positive distribution",
            ),
            (
                lambda: gen1g_prime_rule((-1, 1), (-2, 1)),
                "rule kind 'gen1g-prime' needs a strictly positive distribution",
            ),
            (
                lambda: RuleSpec(RuleKind.CONSTANT_G1, (-1, 1), (1, 2)),
                "const-g1 uses the constant unit distribution",
            ),
        ],
    )
    def test_each_check_names_its_fault(self, bad, message):
        with pytest.raises(ValueError) as caught:
            bad()
        assert type(caught.value) is ValueError
        assert str(caught.value) == message

    def test_gen1g_defaults_to_identity_weights_in_offset_order(self):
        rule = gen1g_rule((2, -3))
        assert (rule.neighborhood, rule.distribution, rule._weights) == ((-3, 2), (-3, 2), (-3, 2))
        assert (rule.theta, rule.radius) == (5, 3)
        prime = gen1g_prime_rule((2, -3), (4, 1))
        assert (prime.distribution, prime._weights, prime.theta) == ((1, 4), (-3, 8), 11)


class TestRuleKind:
    def test_equal_kinds_hash_equal(self):
        for kind in RuleKind:
            twins = (RuleKind(kind.value), RuleKind[kind.name], pickle.loads(pickle.dumps(kind)))
            for twin in twins:
                assert twin is kind and hash(twin) == hash(kind)
            assert hash(kind) == object.__hash__(kind)  # by identity, with no Python-level hash
        assert len({hash(kind) for kind in RuleKind}) == len(RuleKind)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_rule_keyed_dict_survives_pickle(self, protocol):
        table = {rule: rule.kind.value for rule in (gk_rule(), fp_rule((2, -1), (5, 3)), sm1_rule())}
        table[gen1g_rule((-3, 3))] = "gen1g"
        # the other hashable records key the same dict: moves, policies, windows and results
        table.update((r, name) for name, r in RECORDS.items() if name not in UNHASHABLE_RECORDS)
        copy = pickle.loads(pickle.dumps(table, protocol))
        assert copy == table
        for rule, name in table.items():
            assert copy[rule] == name
            assert copy[pickle.loads(pickle.dumps(rule, protocol))] == name
            assert hash(pickle.loads(pickle.dumps(rule, protocol))) == hash(rule)


class TestOrbit:
    """``orbit_states``'s own cap, flags and checks: the library's one orbit loop."""

    def test_step_cap_flag(self):
        rows = list(orbit_states(cfg("6"), gk_rule(), max_steps=1))
        assert not rows[-1][1]
        assert ref.transient_time(rows) is None
        assert len(rows) == 2

    def test_stable_start_is_immediate(self):
        rows = list(orbit_states(cfg("3,2,1"), gk_rule()))
        assert rows == [(cfg("3,2,1"), True)]
        assert ref.transient_time(rows) == 0

    def test_states_chain_by_the_rule(self):
        states = [s for s, _ in orbit_states(cfg("8,1,5"), gk_rule())]
        for a, b in zip(states, states[1:]):
            assert gk_step(a) == b

    def test_type_mismatches_rejected(self):
        with pytest.raises(TypeError):
            orbit_states(hp("-6|6"), gk_rule())
        with pytest.raises(TypeError):
            orbit_states(cfg("6"), height_rule())
