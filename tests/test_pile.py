import re

import pytest
from hypothesis import given, strategies as st

from conftest import (
    boolean_configurations,
    cfg,
    configurations,
    height_profiles,
    small_configurations,
)
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
    parse_height_literal,
    parse_literal,
    to_literal,
)


class TestNormalize:
    """Constructing a state canonicalizes it: zeros trimmed, offset adjusted."""

    def test_trims_zeros_and_adjusts_offset(self):
        c = Configuration((0, 0, 6, 0), -2)
        assert c.values == (6,)
        assert c.offset == 0

    def test_already_canonical_is_unchanged(self):
        c = Configuration((5, 4, 2, 1), 0)
        assert c.values == (5, 4, 2, 1)
        assert c.offset == 0

    def test_all_zero_collapses_to_the_zero_configuration(self):
        c = Configuration((0,), 7)
        assert c.is_zero
        assert c == Configuration()

    def test_rejects_negative_counts(self):
        with pytest.raises(NegativeValue):
            Configuration((1, -2, 3), 0)

    @pytest.mark.parametrize("state_type", [Configuration, HeightProfile])
    @pytest.mark.parametrize(
        "values, offset", [((2.7, 1.2), 0), ((2, 1.0), 0), ((2, 1), 0.5), ((2, 1), "1")]
    )
    def test_rejects_non_integers(self, state_type, values, offset):
        with pytest.raises(TypeError):
            state_type(values, offset)

    @given(st.lists(st.integers(0, 9), max_size=15), st.integers(-5, 5))
    def test_idempotent(self, values, offset):
        once = Configuration(values, offset)
        assert Configuration(once.values, once.offset) == once


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

    @given(st.one_of(configurations, height_profiles), st.integers(0, 4), st.integers(0, 4))
    def test_literals_hold_only_digits_signs_commas_and_the_origin(self, state, left, right):
        # DOT output quotes literals as node ids without escaping them
        stored = (state.offset, state.offset + max(len(state.values) - 1, 0))
        window = LatticeWindow(stored[0] - left, stored[1] + right)
        for text in (to_literal(state), to_literal(state, window)):
            assert re.fullmatch(r"[0-9,|-]+", text)

    @given(configurations)
    def test_round_trip(self, c):
        assert parse_literal(to_literal(c)) == c

    @given(st.builds(HeightProfile, st.lists(st.integers(-9, 9), max_size=20), st.integers(-8, 8)))
    def test_signed_round_trip(self, h):
        assert parse_height_literal(to_literal(h)) == h


class TestTotals:
    def test_pinned_totals(self):
        assert cfg("8,1,5").total() == 14
        assert cfg("5,4,2,1").total() == 12
        assert Configuration().total() == 0


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
        assert height_profile(c.shift(a)) == height_profile(c).shift(a)


class TestShift:
    def test_left_shift_moves_values_right(self):
        assert cfg("0,1|0,1,0").shift(1) == cfg("1,0|1,0,0")

    def test_identity(self):
        c = cfg("5,4,2,1")
        assert c.shift(0) == c

    @given(configurations, st.integers(-10, 10), st.integers(-10, 10))
    def test_group_law(self, c, a, b):
        assert c.shift(b).shift(a) == c.shift(a + b)
        assert c.shift(a).shift(-a) == c


class TestTranslationEquivalence:
    """Translates share their canonical values: the quotient digraph keys states by them."""

    def test_translates_with_equal_values_are_equivalent(self):
        assert cfg("1,1|1,0").values == cfg("0,0|1,1,1").values

    def test_different_value_lists_are_not(self):
        assert cfg("1,1").values != cfg("1,0,1").values

    @given(configurations, st.integers(-10, 10))
    def test_shifts_are_equivalent(self, c, a):
        assert c.shift(a).values == c.values


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


def _near(state, margin):
    """Cells from ``margin`` left of the stored window to ``margin`` right of it."""
    return range(state.offset - margin, state.offset + len(state.values) + margin)


def _literal_by_cells(state, window):
    """The literal written cell by cell: '|' before cell 0 when cells left of it are shown."""
    lo, hi = min(window.lo, 0), max(window.hi, 0)
    pieces = []
    for x in range(lo, hi + 1):
        if x > lo:
            pieces.append("|" if x == 0 else ",")
        pieces.append(str(state.value_at(x)))
    return "".join(pieces)


class TestSliceReads:
    """Slice-based cell reads against per-cell definitions over ``value_at``."""

    @pytest.mark.parametrize(
        "lo, hi, expected",
        [
            (-4, -2, [0, 0, 0]),  # left of the support
            (-1, 1, [0, 5, 0]),  # straddling its left end
            (1, 2, [0, 3]),  # inside it
            (0, 2, [5, 0, 3]),  # exactly the support
            (2, 4, [3, 0, 0]),  # straddling its right end
            (5, 6, [0, 0]),  # right of it
            (-1, 3, [0, 5, 0, 3, 0]),  # around it
        ],
    )
    def test_pinned_windows(self, lo, hi, expected):
        assert cfg("5,0,3").window_values(lo, hi) == expected

    @pytest.mark.parametrize("lo, hi", [(-3, -1), (-1, 1), (0, 0), (2, 5)])
    def test_zero_state_reads_zeros(self, lo, hi):
        assert Configuration().window_values(lo, hi) == [0] * (hi - lo + 1)

    @given(st.one_of(small_configurations, height_profiles))
    def test_window_values_matches_value_at(self, state):
        # every window with both ends within 4 cells of the stored window (empty ones too)
        cells = _near(state, 4)
        for lo in cells:
            for hi in range(lo - 1, cells.stop):
                assert state.window_values(lo, hi) == [state.value_at(x) for x in range(lo, hi + 1)]

    @given(small_configurations)
    def test_height_profile_matches_the_cell_differences(self, c):
        cells = _near(c, 3)
        diffs = [c.value_at(x) - c.value_at(x + 1) for x in cells]
        assert height_profile(c) == HeightProfile(diffs, cells.start)

    @given(small_configurations)
    def test_is_gk_stable_matches_the_cell_differences(self, c):
        assert is_gk_stable(c) == all(c.value_at(x) - c.value_at(x + 1) <= 1 for x in _near(c, 3))

    @given(st.one_of(small_configurations, height_profiles), st.integers(0, 4), st.integers(0, 4))
    def test_to_literal_matches_the_cells(self, state, left, right):
        stored = _near(state, 0)  # empty for the zero state
        window = LatticeWindow(stored.start - left, max(stored.stop - 1, stored.start) + right)
        assert to_literal(state, window) == _literal_by_cells(state, window)
        if state.values:
            assert to_literal(state) == _literal_by_cells(state, state.support)


class TestLatticeWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeWindow(3, 2)
