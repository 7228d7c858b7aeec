import copy
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from conftest import (
    RECORDS,
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


class TestStateContract:
    """States are slotted and immutable, and store the hash of (values, offset) at construction."""

    @given(st.one_of(configurations, height_profiles))
    def test_equal_states_hash_equal(self, state):
        twin = type(state)((0, *state.values, 0), state.offset - 1)
        assert twin == state and twin is not state
        assert hash(twin) == hash(state) == hash((state.values, state.offset))

    @given(st.lists(st.integers(0, 9), max_size=12), st.integers(-6, 6))
    def test_configurations_and_height_profiles_never_compare_equal(self, values, offset):
        c, h = Configuration(values, offset), HeightProfile(values, offset)
        assert (c.values, c.offset, hash(c)) == (h.values, h.offset, hash(h))
        assert c != h and h != c
        assert len({c, h}) == 2

    def test_keyword_construction(self):
        assert Configuration(values=(0, 2, 1), offset=-1) == Configuration((2, 1))
        assert HeightProfile(offset=3) == HeightProfile()
        assert HeightProfile(values=[-1, 0]).values == (-1,)

    @pytest.mark.parametrize("state_type", [Configuration, HeightProfile])
    def test_floats_are_rejected_by_operator_index(self, state_type):
        message = "'float' object cannot be interpreted as an integer"
        with pytest.raises(TypeError, match=f"^{message}$"):
            state_type((2, 1.0))
        with pytest.raises(TypeError, match=f"^{message}$"):
            state_type((2, 1), 0.5)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=12).filter(lambda v: min(v) < 0))
    def test_a_negative_count_names_the_first_negative_value(self, values):
        first = next(v for v in values if v < 0)
        with pytest.raises(NegativeValue, match=f"^granule count {first} is negative$"):
            Configuration(values)

    @given(st.one_of(configurations, height_profiles, st.sampled_from(list(RECORDS.values()))))
    def test_fields_cannot_be_assigned_or_deleted(self, state):
        # a state, or a rule, policy, move or result record: its fields and derived slots
        slots = [name for cls in type(state).__mro__ for name in getattr(cls, "__slots__", ())]
        before = {name: getattr(state, name) for name in (*state._fields, *slots)}
        for name in (*before, "extra"):
            with pytest.raises(AttributeError):
                setattr(state, name, ())
            with pytest.raises(AttributeError):
                delattr(state, name)
        assert all(getattr(state, name) is value for name, value in before.items())
        assert not hasattr(state, "__dict__")

    def test_repr_names_the_class_and_both_fields(self):
        assert repr(Configuration((0, 3, 1), -1)) == "Configuration(values=(3, 1), offset=0)"
        assert repr(HeightProfile((-6, 6), -1)) == "HeightProfile(values=(-6, 6), offset=-1)"
        assert repr(Configuration()) == "Configuration(values=(), offset=0)"

    @given(
        st.sampled_from([Configuration, HeightProfile]),
        st.lists(st.integers(0, 9), max_size=12),
        st.integers(-6, 6),
    )
    def test_the_int_trusting_constructor_canonicalizes_as_the_public_one(
        self, state_type, values, offset
    ):
        state, public = state_type._of_ints(values, offset), state_type(values, offset)
        assert type(state) is state_type and type(state.values) is tuple
        assert state == public and hash(state) == hash(public)

    @given(
        st.sampled_from([Configuration, HeightProfile]),
        st.lists(st.integers(0, 9), max_size=12),
        st.integers(-6, 6),
    )
    def test_both_constructors_set_frozen_hashed_picklable_slots(self, state_type, values, offset):
        # _of_ints sets the slots through _LatticeState's descriptors, __new__ through _of_ints
        for state in (state_type._of_ints(values, offset), state_type(values, offset)):
            for name in ("values", "offset", "_hash"):
                with pytest.raises(AttributeError):
                    setattr(state, name, 0)
                with pytest.raises(AttributeError):
                    delattr(state, name)
            assert hash(state) == state._hash == hash((state.values, state.offset))
            clone = pickle.loads(pickle.dumps(state))
            assert type(clone) is state_type and clone == state and hash(clone) == hash(state)

    def test_the_int_trusting_constructor_still_rejects_a_negative_count(self):
        with pytest.raises(NegativeValue, match="^granule count -1 is negative$"):
            Configuration._of_ints((1, -1), 0)
        assert HeightProfile._of_ints((1, -1), 0).values == (1, -1)

    @given(st.one_of(configurations, height_profiles))
    def test_pickle_and_copy_round_trip(self, state):
        pickled = [pickle.dumps(state, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in (*map(pickle.loads, pickled), copy.copy(state), copy.deepcopy(state)):
            assert type(clone) is type(state)
            assert clone == state and hash(clone) == hash(state)


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
        # the error names the second marker, not the last
        with pytest.raises(MultipleOrigins) as error:
            parse_literal("1|2|3|4")
        assert error.value.position == 3
        with pytest.raises(MultipleOrigins) as error:
            parse_literal("0,1|2|3|4")
        assert error.value.position == 5

    @pytest.mark.parametrize(
        "text, position",
        [("1_0", 0), ("2,1_0", 2), ("٣", 0), ("1,٣|2", 2), ("1|２", 2), ("+-1", 0), ("0x1", 0)],
    )
    @pytest.mark.parametrize("parse", [parse_literal, parse_height_literal])
    def test_only_ascii_digits_with_an_optional_sign_are_integers(self, parse, text, position):
        # int() alone reads "1_0" as 10 and "٣" as 3
        token = re.split("[,|]", text[position:])[0]
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"expected an integer, got {token!r} (byte {position})"
        assert err.value.position == position

    def test_a_sign_and_surrounding_whitespace_are_still_accepted(self):
        assert parse_literal(" +3 , 1| 2 ") == Configuration((3, 1, 2), -2)
        assert parse_height_literal("-2|+2\t") == HeightProfile((-2, 2), -1)

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

    @pytest.mark.parametrize("state", [cfg("2,1"), HeightProfile((-1, 1)), Configuration()])
    def test_a_shift_must_be_an_integer(self, state):
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            state.shift(1.0)


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


def _literal_by_window_values(state, window):
    """The literal from one ``window_values`` slice over the window extended to cell 0."""
    if window is None:  # the zero state
        return "0"
    lo = min(window.lo, 0)
    cells = [str(v) for v in state.window_values(lo, max(window.hi, 0))]
    if lo:
        return ",".join(cells[:-lo]) + "|" + ",".join(cells[-lo:])
    return ",".join(cells)


class TestRenderingWindow:
    """``to_literal`` against a renderer built on ``window_values``."""

    @given(
        st.one_of(small_configurations, height_profiles),
        st.sampled_from(["left", "across", "right"]),
        st.integers(0, 6),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    def test_default_window_is_the_support(self, state, placement, k, left, right):
        width = len(state.values)
        # move the support left of cell 0, across it or right of it
        first = {"left": -width - k, "across": -(k % max(width, 1)), "right": 1 + k}[placement]
        state = state.shift(state.offset - first)
        if state.values:
            lo, hi = state.support.lo, state.support.hi
            assert {"left": hi < 0, "across": lo <= 0 <= hi, "right": lo > 0}[placement]
        expected = _literal_by_window_values(state, state.support)
        assert to_literal(state) == to_literal(state, state.support) == expected
        wide = LatticeWindow(state.offset - left, state.offset + max(width - 1, 0) + right)
        assert to_literal(state, wide) == _literal_by_window_values(state, wide)

    @pytest.mark.parametrize(
        "zero", [Configuration(), HeightProfile()], ids=["configuration", "height-profile"]
    )
    @pytest.mark.parametrize("lo, hi", [(-3, -1), (-1, 1), (0, 0), (2, 5)])
    def test_the_zero_state(self, zero, lo, hi):
        assert to_literal(zero) == to_literal(zero, zero.support) == "0"
        window = LatticeWindow(lo, hi)
        assert to_literal(zero, window) == _literal_by_window_values(zero, window)


class TestLatticeWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeWindow(3, 2)
