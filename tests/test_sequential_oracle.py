"""The sequential engine against the guard and searches of ``reference_sequential``.

Digraphs must agree in nodes, edges and their order, levels and their order,
equilibria and flags; the single-move API in its move lists, images and
``InapplicableMove`` raises; decompositions in everything but a
``budget_exceeded`` that the reference sets on a fully explored space.
"""

from hypothesis import given, settings, strategies as st

import reference_sequential as ref
from sandlab.pile import Configuration
from sandlab.sequential import (
    RULE_ORDER,
    InapplicableMove,
    RulesetPolicy,
    SequentialMove,
    _successors,
    applicable_moves,
    apply_move,
    decompose_parallel_transition,
    explore_digraph,
)

configurations = st.builds(
    Configuration, st.lists(st.integers(0, 4), max_size=5), st.integers(-3, 3)
)
# (hr_convention, hr_summary_strict): the strict freeze narrows the convention, so needs it on
hr_settings = st.sampled_from(((True, False), (True, True), (False, False)))
# hr_convention, hr_summary_strict, bt_height_floor: all a policy sets beside ``enabled``
conventions = st.builds(lambda hr, floor: (*hr, floor), hr_settings, st.sampled_from((1, 2, 3)))
policies = st.builds(
    lambda enabled, hr, floor: RulesetPolicy(enabled, *hr, floor),
    st.sets(st.sampled_from(RULE_ORDER), min_size=1),
    hr_settings,
    st.sampled_from((1, 2)),
)
node_caps = st.sampled_from((1, 3, 50, 400))
depth_caps = st.sampled_from((None, 0, 1, 2, 5))


def outcome(fn, *args):
    """The returned value, or the type and message of ``InapplicableMove``."""
    try:
        return fn(*args)
    except InapplicableMove as exc:
        return InapplicableMove, str(exc)


@settings(max_examples=300, deadline=None)
@given(configurations, policies, node_caps, depth_caps, st.booleans())
def test_explore_digraph_matches_the_reference(c, policy, node_cap, depth_cap, quotient):
    ours = explore_digraph(c, policy, node_cap, depth_cap, quotient)
    theirs = ref.explore_digraph(c, policy, node_cap, depth_cap, quotient)
    assert ours == theirs
    assert list(ours.levels.items()) == list(theirs.levels.items())


@settings(max_examples=300, deadline=None)
@given(configurations, policies)
def test_single_move_api_matches_the_reference(c, policy):
    assert applicable_moves(c, policy) == ref.applicable_moves(c, policy)
    lo, hi = (c.support.lo, c.support.hi) if c.values else (0, 0)
    for site in range(lo - 2, hi + 3):
        for rule in RULE_ORDER:
            move = SequentialMove(rule, site)
            for conventions in (None, policy):
                assert outcome(apply_move, c, move, conventions) == outcome(
                    ref.apply_move, c, move, conventions
                )


@settings(max_examples=300, deadline=None)
@given(st.data(), configurations, policies, node_caps, depth_caps, st.sampled_from((1, 2, 64)))
def test_decompose_matches_the_reference(data, source, policy, node_cap, depth_cap, max_paths):
    nearby = ref.explore_digraph(source, policy, node_cap=30, depth_cap=3).nodes
    target = data.draw(st.one_of(st.sampled_from(nearby), configurations), label="target")
    args = (source, target, policy, depth_cap, node_cap, max_paths)
    ours = decompose_parallel_transition(*args)
    theirs = ref.decompose_parallel_transition(*args)
    assert (ours.reachable, ours.paths, ours.explored_nodes, ours.depth) == (
        theirs.reachable,
        theirs.paths,
        theirs.explored_nodes,
        theirs.depth,
    )
    if ours.budget_exceeded != theirs.budget_exceeded:
        # the reference flags a depth-capped frontier of equilibria only
        assert theirs.budget_exceeded
        assert not explore_digraph(source, policy, node_cap=node_cap).node_cap_reached


@settings(max_examples=300, deadline=None)
@given(
    st.lists(configurations, min_size=1, max_size=4),
    st.sets(st.sampled_from(RULE_ORDER), min_size=1),
    st.lists(conventions, min_size=2, max_size=3, unique=True),
)
def test_policies_that_differ_in_conventions_alone_keep_their_own_moves(
    states, enabled, convention_sets
):
    """Policies that share ``enabled``, used in turn in one process, each match the reference."""
    policies = [RulesetPolicy(enabled, *conventions) for conventions in convention_sets]
    for c in states:
        lo, hi = (c.support.lo, c.support.hi) if c.values else (0, 0)
        for policy in policies:
            moves = ref.applicable_moves(c, policy)
            assert applicable_moves(c, policy) == moves
            images = [(m, Configuration(v, offset)) for m, v, offset in _successors(c, policy)]
            assert images == [(m, ref.apply_move(c, m, policy)) for m in moves]
            for site in range(lo - 1, hi + 2):
                for rule in RULE_ORDER:
                    move = SequentialMove(rule, site)
                    assert outcome(apply_move, c, move, policy) == outcome(
                        ref.apply_move, c, move, policy
                    )
