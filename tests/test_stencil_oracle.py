"""The stencil kernel against the per-cell reference loops of ``reference_rules``.

Every comparison runs both sides to an outcome, a state or the exception
raised, so wrong-kind errors, ``NegativeValue`` on signed input and
``NegativityWitness`` from sm1 must match as well as the states.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_rules as ref
from sandlab.pile import Configuration, HeightProfile
from sandlab.rules import (
    NegativityWitness,
    RuleKind,
    RuleSpec,
    fp_step,
    gen1g_step,
    gk_step,
    height_step,
    step,
    symmetric_step,
)

FIXED_KINDS = (RuleKind.GK, RuleKind.HEIGHT_DIFF, RuleKind.SYMMETRIC_SM1)


@st.composite
def rules(draw):
    kind = draw(st.sampled_from(list(RuleKind)))
    if kind in FIXED_KINDS:
        return RuleSpec(kind)
    hood = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=4, unique=True))
    if kind is RuleKind.CONSTANT_G1:
        return RuleSpec(kind, tuple(hood))
    low = -3 if kind is RuleKind.GEN_1G else 1  # gen1g weights are signed
    dist = draw(st.lists(st.integers(low, 3), min_size=len(hood), max_size=len(hood)))
    return RuleSpec(kind, tuple(hood), tuple(dist))


states = st.one_of(
    st.builds(Configuration, st.lists(st.integers(0, 12), max_size=12), st.integers(-6, 6)),
    st.builds(HeightProfile, st.lists(st.integers(-8, 8), max_size=12), st.integers(-6, 6)),
)

ZERO_STATES = [Configuration(), HeightProfile()]

ALL_KINDS_RULES = [
    RuleSpec(RuleKind.GK),
    RuleSpec(RuleKind.FP, (-2, 1, 3), (1, 2, 1)),
    RuleSpec(RuleKind.HEIGHT_DIFF),
    RuleSpec(RuleKind.SYMMETRIC_SM1),
    RuleSpec(RuleKind.GEN_1G, (-3, 2), (2, -1)),
    RuleSpec(RuleKind.GEN_1G_PRIME, (-1, 2), (1, 2)),
    RuleSpec(RuleKind.CONSTANT_G1, (-2, -1, 1)),
]


def outcome(fn, *args):
    """The returned state, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (ValueError, NegativityWitness) as exc:
        return type(exc), str(exc)


def reference_gen1g(state, rule):
    return ref.gen1g_step(state, rule).trimmed()


def assert_entry_points_match(state, rule):
    assert outcome(step, state, rule) == outcome(ref.step, state, rule)
    assert outcome(gk_step, state) == outcome(ref.gk_step, state)
    assert outcome(symmetric_step, state) == outcome(ref.symmetric_step, state)
    assert outcome(fp_step, state, rule) == outcome(ref.fp_step, state, rule)
    assert outcome(height_step, state, rule) == outcome(ref.height_step, state, rule)
    image = outcome(gen1g_step, state, rule)
    assert image == outcome(reference_gen1g, state, rule)
    if isinstance(image, HeightProfile):
        assert image.negative_cells() == ref.gen1g_step(state, rule).negative_cells()


@settings(max_examples=400, deadline=None)
@given(states, rules())
def test_step_and_every_entry_point_match_the_reference(state, rule):
    assert_entry_points_match(state, rule)


@pytest.mark.parametrize("state", ZERO_STATES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("rule", ALL_KINDS_RULES, ids=lambda r: r.kind.value)
def test_zero_states_match_the_reference(state, rule):
    assert_entry_points_match(state, rule)
    assert step(state, rule).is_zero


def test_sm1_witness_parity():
    state = HeightProfile((-3, -3, -3))
    with pytest.raises(NegativityWitness) as ours:
        symmetric_step(state)
    with pytest.raises(NegativityWitness) as theirs:
        ref.symmetric_step(state)
    got, want = ours.value, theirs.value
    assert (got.state, got.cell, got.value) == (want.state, want.cell, want.value) == (
        state,
        -1,
        -1,
    )
