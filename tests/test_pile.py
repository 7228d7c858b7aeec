import pytest
from hypothesis import given, strategies as st

from conftest import boolean_configurations, cfg, configurations
from sandlab.pile import (
    Configuration,
    HeightProfile,
    LatticeWindow,
    MultipleOrigins,
    NegativeValue,
    ParseError,
    height_profile,
    is_fp_stable,
    is_gk_stable,
    is_perfect_support,
    normalize,
    parse_height_literal,
    parse_literal,
    shift,
    to_literal,
    total_granules,
    translation_equivalent,
)


class TestNormalize:
    def test_trims_zeros_and_adjusts_offset(self):
        c = normalize([0, 0, 6, 0], -2)
        assert c.values == (6,)
        assert c.offset == 0

    def test_already_canonical_is_unchanged(self):
        c = normalize([5, 4, 2, 1], 0)
        assert c.values == (5, 4, 2, 1)
        assert c.offset == 0

    def test_all_zero_collapses_to_the_zero_configuration(self):
        c = normalize([0], 7)
        assert c.is_zero
        assert c == Configuration()

    def test_rejects_negative_counts(self):
        with pytest.raises(NegativeValue):
            normalize([1, -2, 3], 0)

    @pytest.mark.parametrize("state_type", [Configuration, HeightProfile])
    @pytest.mark.parametrize(
        "values, offset", [((2.7, 1.2), 0), ((2, 1.0), 0), ((2, 1), 0.5), ((2, 1), "1")]
    )
    def test_rejects_non_integers(self, state_type, values, offset):
        with pytest.raises(TypeError):
            state_type(values, offset)

    @given(st.lists(st.integers(0, 9), max_size=15), st.integers(-5, 5))
    def test_idempotent(self, values, offset):
        once = normalize(values, offset)
        assert normalize(once.values, once.offset) == once


class TestLiterals:
    @pytest.mark.parametrize(
        "text, values, offset",
        [
            ("0,1|2,1,0", (1, 2, 1), -1),
            ("6", (6,), 0),
            ("|6", (6,), 0),
            ("5,4,2,1", (5, 4, 2, 1), 0),
            ("0", (), 0),
            ("0,0|0,0", (), 0),
            ("1,0|0,2", (1, 0, 0, 2), -2),
        ],
    )
    def test_parse(self, text, values, offset):
        c = parse_literal(text)
        assert (c.values, c.offset) == (values, offset)

    def test_missing_value_after_origin(self):
        with pytest.raises(ParseError) as err:
            parse_literal("1|")
        assert err.value.position == 2

    def test_two_origin_markers(self):
        with pytest.raises(MultipleOrigins):
            parse_literal("1|2|3")
        with pytest.raises(MultipleOrigins):
            parse_literal("1|2,3|4")

    def test_empty_and_garbage_tokens(self):
        with pytest.raises(ParseError):
            parse_literal("")
        with pytest.raises(ParseError):
            parse_literal("1,,2")
        with pytest.raises(ParseError):
            parse_literal("1,x,2")

    def test_negative_entries_rejected_for_configurations(self):
        with pytest.raises(NegativeValue):
            parse_literal("1,-2")

    def test_signed_literals_parse_into_height_profiles(self):
        h = parse_height_literal("-6|6")
        assert (h.values, h.offset) == ((-6, 6), -1)

    def test_render_zero(self):
        assert to_literal(Configuration()) == "0"

    def test_render_with_window(self):
        c = cfg("6")
        assert to_literal(c, LatticeWindow(-3, 3)) == "0,0,0|6,0,0,0"
        with pytest.raises(ValueError):
            to_literal(cfg("5,4,2,1"), LatticeWindow(0, 1))

    def test_render_offset_support(self):
        assert to_literal(Configuration((2,), 1)) == "0,2"
        assert to_literal(Configuration((1,), -2)) == "1,0|0"

    @given(configurations)
    def test_round_trip(self, c):
        assert parse_literal(to_literal(c)) == c

    @given(st.builds(HeightProfile, st.lists(st.integers(-9, 9), max_size=20), st.integers(-8, 8)))
    def test_signed_round_trip(self, h):
        assert parse_height_literal(to_literal(h)) == h


class TestTotals:
    def test_pinned_totals(self):
        assert total_granules(cfg("8,1,5")) == 14
        assert total_granules(cfg("5,4,2,1")) == 12
        assert total_granules(Configuration()) == 0


class TestHeightProfile:
    def test_single_column(self):
        h = height_profile(cfg("6"))
        assert (h.values, h.offset) == ((-6, 6), -1)

    def test_staircase(self):
        h = height_profile(cfg("3,2,1"))
        assert (h.values, h.offset) == ((-3, 1, 1, 1), -1)

    def test_zero(self):
        assert height_profile(Configuration()) == HeightProfile()

    def test_negative_cells_survive_trimming(self):
        h = HeightProfile((0, -1, 3, 0, -2, 0), -2)
        assert (h.values, h.offset) == ((-1, 3, 0, -2), -1)
        assert h.negative_cells() == ((-1, -1), (2, -2))
        assert HeightProfile().negative_cells() == ()

    @given(configurations)
    def test_telescoping_sum_is_zero(self, c):
        assert height_profile(c).total() == 0

    @given(configurations, st.integers(-10, 10))
    def test_commutes_with_shift(self, c, a):
        assert height_profile(shift(c, a)) == shift(height_profile(c), a)


class TestShift:
    def test_left_shift_moves_values_right(self):
        assert shift(cfg("0,1|0,1,0"), 1) == cfg("1,0|1,0,0")

    def test_identity(self):
        c = cfg("5,4,2,1")
        assert shift(c, 0) == c

    @given(configurations, st.integers(-10, 10), st.integers(-10, 10))
    def test_group_law(self, c, a, b):
        assert shift(shift(c, b), a) == shift(c, a + b)
        assert shift(shift(c, a), -a) == c


class TestTranslationEquivalence:
    def test_translates_with_equal_values_are_equivalent(self):
        assert translation_equivalent(cfg("1,1|1,0"), cfg("0,0|1,1,1"))

    def test_different_value_lists_are_not(self):
        assert not translation_equivalent(cfg("1,1"), cfg("1,0,1"))

    def test_zero_vs_zero(self):
        assert translation_equivalent(Configuration(), Configuration())

    @given(configurations, st.integers(-10, 10))
    def test_shifts_are_equivalent(self, c, a):
        assert translation_equivalent(c, shift(c, a))

    @given(configurations, configurations)
    def test_symmetric(self, c1, c2):
        assert translation_equivalent(c1, c2) == translation_equivalent(c2, c1)


class TestStabilityPredicates:
    def test_gk_stable_examples(self):
        assert is_gk_stable(cfg("1,3|5,4,3,3,3,2,1,1"))
        assert not is_gk_stable(cfg("5,4,3"))
        assert is_gk_stable(Configuration())

    @given(boolean_configurations)
    def test_every_boolean_configuration_is_gk_stable(self, c):
        assert is_gk_stable(c)

    def test_fp_stable_examples(self):
        assert is_fp_stable(cfg("0,1,1,0,0,0,0,1,0,1"))
        assert not is_fp_stable(cfg("2,0"))
        assert is_fp_stable(Configuration())

    def test_perfect_support(self):
        assert is_perfect_support(cfg("5,4,2,1"))
        assert not is_perfect_support(cfg("2,0,2"))
        assert not is_perfect_support(Configuration())


class TestLatticeWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeWindow(3, 2)

    def test_iteration_and_expansion(self):
        w = LatticeWindow(-1, 1)
        assert list(w) == [-1, 0, 1]
        assert len(w) == 3
        assert 0 in w and 2 not in w
        assert w.expand(2) == LatticeWindow(-3, 3)
