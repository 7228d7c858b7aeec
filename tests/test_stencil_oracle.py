"""The stencil kernel against the per-cell reference loops of ``reference_rules``.

Every comparison runs both sides to an outcome, a state or the exception
raised, so wrong-kind errors, ``NegativeValue`` on signed input and
``NegativityWitness`` from sm1 must match as well as the states.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_rules as ref
from sandlab.pile import Configuration, HeightProfile, parse_height_literal, parse_literal
from sandlab.rules import (
    NegativityWitness,
    RuleKind,
    RuleSpec,
    _stencil,
    const_g1_rule,
    fp_rule,
    fp_step,
    gen1g_step,
    gk_step,
    height_rule,
    height_step,
    orbit_states,
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


def exact_ints(state):
    return all(type(v) is int for v in state.values) and type(state.offset) is int


def assert_entry_points_match(state, rule):
    image = outcome(step, state, rule)
    assert image == outcome(ref.step, state, rule)
    # the kernels build their states without the index pass, so no other int type may leak in
    assert isinstance(image, tuple) or exact_ints(image)
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


@pytest.mark.parametrize("rule", ALL_KINDS_RULES, ids=lambda r: r.kind.value)
def test_every_kind_steps_to_exact_ints(rule):
    parse = parse_height_literal if rule.kind is RuleKind.HEIGHT_DIFF else parse_literal
    state = parse("3,9|12,0,7")
    image = step(state, rule)
    assert image.values and image != state and exact_ints(image)


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


@st.composite
def threshold_cases(draw):
    """A threshold rule with the offset and payout ranges of ``random_fp_rule``, and a hot state.

    Cells reach 3 theta, so most fire and some hold 2 theta or more; the end
    cells may be pinned to fire, so payouts land in the pads; and a
    ``HeightProfile`` may hold negative cells.
    """
    kind = draw(st.sampled_from([RuleKind.FP, RuleKind.HEIGHT_DIFF, RuleKind.CONSTANT_G1]))
    if kind is RuleKind.HEIGHT_DIFF:
        rule = RuleSpec(kind)
    else:
        hood = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=5, unique=True))
        payouts = st.integers(1, 1 if kind is RuleKind.CONSTANT_G1 else 4)
        dist = draw(st.lists(payouts, min_size=len(hood), max_size=len(hood)))
        rule = RuleSpec(kind, tuple(hood), tuple(dist))
    th = rule.theta
    signed = draw(st.booleans())
    cells = draw(st.lists(st.integers(-3 * th if signed else 0, 3 * th), min_size=1, max_size=12))
    hot = st.integers(th, 3 * th)
    if draw(st.booleans()):
        cells[0] = draw(hot)
    if draw(st.booleans()):
        cells[-1] = draw(hot)
    state = (HeightProfile if signed else Configuration)(cells, draw(st.integers(-6, 6)))
    return state, rule


@settings(max_examples=400, deadline=None)
@given(threshold_cases())
def test_threshold_kinds_on_hot_states_match_the_reference(case):
    state, rule = case
    assert_entry_points_match(state, rule)
    if rule.kind is RuleKind.CONSTANT_G1 and not state.is_zero:
        # the untrimmed window, pads included, against the reference's raw image
        image = ref.gen1g_step(state, rule)
        assert _stencil(state, rule) == (list(image.values), image.offset)


def reference_orbit(state, rule, max_steps):
    states = [state]
    while len(states) <= max_steps:
        nxt = ref.step(states[-1], rule)
        if nxt == states[-1]:
            break
        states.append(nxt)
    return states


@pytest.mark.parametrize(
    "state, rule, max_steps",
    [
        (parse_literal("40"), fp_rule(), 10**4),
        (parse_height_literal("-30|30"), height_rule(), 10**4),
        (parse_literal("25,4|40,0,17"), fp_rule((-3, 1, 2), (2, 1, 3)), 10**4),
        (parse_height_literal("3,-2|9,0,4"), const_g1_rule((-2, 1, 3)), 12),
    ],
    ids=["fp-40", "height-30", "fp-3-1-2", "const-g1-capped"],
)
def test_whole_orbits_match_the_reference_state_by_state(state, rule, max_steps):
    ours = [s for s, _ in orbit_states(state, rule, max_steps)]
    assert ours == reference_orbit(state, rule, max_steps)
    assert len(ours) > 10
