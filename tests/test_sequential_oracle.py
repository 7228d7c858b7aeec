"""The sequential engine against the guard and searches of ``reference_sequential``.

Digraphs must agree in nodes, edges and their order, levels and their order,
equilibria and flags; the single-move API in its move lists, images and
``InapplicableMove`` raises; the backward images in their moves, states and
order; path lists in their paths and order, under every
cut; decompositions, wherever both searches are conclusive, in their verdict,
depth, count and geodesics, which the two-sided search lists in move order;
and every shortest length is at least the reference's Φ, of its parity.
"""

import pytest
from hypothesis import given, settings, strategies as st

import reference_sequential as ref
from conftest import cfg
from sandlab.pile import Configuration
from sandlab.sequential import (
    HR_FAMILY,
    RULE_ORDER,
    VR_FAMILY,
    InapplicableMove,
    MoveRule,
    RulesetPolicy,
    SequentialMove,
    _images,
    applicable_moves,
    apply_move,
    count_paths,
    decompose_parallel_transition,
    enumerate_paths,
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
# every valid policy; ``policies`` stops at the floors the CLI accepts
all_policies = st.builds(
    lambda enabled, conventions: RulesetPolicy(enabled, *conventions),
    st.sets(st.sampled_from(RULE_ORDER), min_size=1),
    conventions,
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


# states of width 1 to 3, at a few offsets, whose moves reach the support's ends: a source at
# the first or last cell that empties, and a destination just off the support on either side
END_CASES = [
    Configuration(values, offset)
    for values in [
        (1,), (2,), (3,),
        (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (2, 2),
        (1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 0, 2), (3, 2, 1), (2, 0, 2), (1, 3, 1),
    ]
    for offset in (-2, 0, 3)
]


@pytest.mark.parametrize(
    "policy",
    [RulesetPolicy(hr_convention=False), RulesetPolicy()],
    ids=["no-hr-convention", "default"],
)
def test_successors_at_the_support_ends_match_the_reference(policy):
    reached = set()
    for c in END_CASES:
        images = [
            (move, ref.apply_move(c, move, policy)) for move in ref.applicable_moves(c, policy)
        ]
        assert _images(c.values, c.offset, policy) == [
            (move, image.values, image.offset) for move, image in images
        ]
        for _, image in images:
            lo, hi = image.offset, image.offset + len(image.values)
            reached.update(
                kind
                for kind, holds in (
                    ("off left", lo < c.offset),
                    ("first emptied", lo > c.offset),
                    ("off right", hi > c.offset + len(c.values)),
                    ("last emptied", hi < c.offset + len(c.values)),
                )
                if holds
            )
    assert reached == {"off left", "first emptied", "off right", "last emptied"}


def conclusive(result) -> bool:
    return result.reachable or not result.budget_exceeded


def in_move_order(paths):
    """The paths in lexicographic order of their moves by (site, rule order)."""
    return sorted(paths, key=lambda path: [(m.site, RULE_ORDER.index(m.rule)) for m in path])


@settings(max_examples=300, deadline=None)
@given(st.data(), configurations, policies, node_caps, depth_caps, st.sampled_from((1, 2, 64)))
def test_decompose_matches_the_reference(data, source, policy, node_cap, depth_cap, max_paths):
    nearby = ref.explore_digraph(source, policy, node_cap=30, depth_cap=3).nodes
    target = data.draw(st.one_of(st.sampled_from(nearby), configurations), label="target")
    if source.total() != target.total():
        # every move keeps the total: an exact "not reachable" with nothing searched
        ours = decompose_parallel_transition(source, target, policy, depth_cap, node_cap)
        assert (ours.reachable, ours.budget_exceeded, ours.explored_nodes) == (False, False, 0)
        return
    # the caps mean other things on the two sides (forward levels and states in the
    # reference), so the drawn caps are compared only where both verdicts are exact
    phi = ref.potential(source, target)
    for caps in ((None, 2_000), (depth_cap, node_cap)):
        ours = decompose_parallel_transition(source, target, policy, *caps, max_paths)
        theirs = ref.decompose_parallel_transition(source, target, policy, *caps, None)
        # every move changes Φ by one: a shortest length is at least Φ, of its parity
        for result in (ours, theirs):
            if result.depth is not None:
                assert result.depth >= phi and (result.depth - phi) % 2 == 0
        if conclusive(ours) and conclusive(theirs):
            assert (ours.reachable, ours.depth, ours.path_count) == (
                theirs.reachable,
                theirs.depth,
                theirs.path_count,
            )
            assert list(ours.paths) == in_move_order(theirs.paths)[:max_paths]


# paths listed per target: a drawn digraph with a cycle can have thousands of simple paths
# to one node, and listing them all for every node made the test's time depend on the draw
LISTED = 500


def assert_paths_match_the_reference(d):
    """Every node as target: each cut of the path list is the reference's, in its order.

    Both sides list at most ``LISTED`` paths per target; the full list and
    ``count_paths`` are compared wherever a target has fewer.
    """
    step = {(a, move): b for a, move, b in d.edges}
    try:
        counted = count_paths(d, d.root)
    except ValueError:
        counted = None  # a cycle: counting simple paths through it is #P-hard
    for target in d.nodes:
        paths = ref.enumerate_paths(d, target, LISTED)
        k = len(paths)
        complete = k < LISTED
        for max_paths in {None if complete else k, 0, 1, 2, k - 1, k} - {-1}:
            assert enumerate_paths(d, target, max_paths) == paths[:max_paths]
        for path in paths:  # each path is simple: it visits no state twice
            states = [d.root]
            for move in path:
                states.append(step[states[-1], move])
            assert states[-1] == target
            assert len(set(states)) == len(states)
        if counted is not None:
            count = count_paths(d, target)
            assert count == k if complete else count >= k


# roots of two to six granules, whose capped digraphs list every simple path to every node fast
path_roots = st.builds(
    Configuration,
    st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(lambda v: 2 <= sum(v) <= 6),
    st.integers(-2, 2),
)


@settings(max_examples=200, deadline=None)
@given(path_roots, policies, st.sampled_from((3, 8, 14, 20)), st.booleans())
def test_enumerate_paths_matches_the_reference(root, policy, node_cap, quotient):
    assert_paths_match_the_reference(explore_digraph(root, policy, node_cap, None, quotient))


@pytest.mark.parametrize("quotient", [False, True])
def test_enumerate_paths_matches_the_reference_through_cycles(quotient):
    # HRd and HRs undo each other without the convention: 2,1 -> 1,2 -> 2,1
    policy = RulesetPolicy(VR_FAMILY | HR_FAMILY, hr_convention=False)
    d = explore_digraph(cfg("3"), policy, node_cap=20, quotient_translations=quotient)
    with pytest.raises(ValueError, match="cycle"):
        count_paths(d, d.root)
    assert_paths_match_the_reference(d)


@settings(max_examples=300, deadline=None)
@given(configurations, all_policies)
def test_predecessors_invert_successors(c, policy):
    key = (c.values, c.offset)
    for _, values, offset in _images(c.values, c.offset, policy):
        assert key in [(v, o) for _, v, o in _images(values, offset, policy, back=True)]
    predecessors = [(v, o) for _, v, o in _images(c.values, c.offset, policy, back=True)]
    assert len(set(predecessors)) == len(predecessors)
    for values, offset in predecessors:
        p = Configuration(values, offset)
        assert (p.values, p.offset) == (values, offset)  # trimmed, as the search keys states
        assert key in [(v, o) for _, v, o in _images(values, offset, policy)]


def assert_predecessors_match_the_reference(c, policy):
    """The backward images of ``c`` are the reference's predecessors: moves, states and order."""
    expected = [(move, p.values, p.offset) for move, p in ref.predecessors(c, policy)]
    assert _images(c.values, c.offset, policy, back=True) == expected
    return expected


@settings(max_examples=300, deadline=None)
@given(configurations, all_policies)
def test_predecessors_match_the_reference(c, policy):
    assert_predecessors_match_the_reference(c, policy)


@pytest.mark.parametrize(
    "policy",
    [RulesetPolicy(hr_convention=False), RulesetPolicy()],
    ids=["no-hr-convention", "default"],
)
def test_predecessors_at_the_support_ends_match_the_reference(policy):
    reached = set()
    for c in END_CASES:
        for _, values, offset in assert_predecessors_match_the_reference(c, policy):
            lo, hi = offset, offset + len(values)
            reached.update(
                kind
                for kind, holds in (
                    ("source off left", lo < c.offset),
                    ("first emptied", lo > c.offset),
                    ("source off right", hi > c.offset + len(c.values)),
                    ("last emptied", hi < c.offset + len(c.values)),
                )
                if holds
            )
    assert reached == {"source off left", "first emptied", "source off right", "last emptied"}


def test_a_move_is_undone_only_from_a_destination_that_holds_a_granule():
    # undone, VRd from cell 1 would leave -1 at cell 2: 2,1,-1 is no state
    vr_d = RulesetPolicy(frozenset({MoveRule.VR_D}))
    assert assert_predecessors_match_the_reference(cfg("2"), vr_d) == []


@settings(max_examples=300, deadline=None)
@given(st.data(), configurations, all_policies, node_caps, depth_caps)
def test_meet_agrees_with_the_one_sided_search(data, source, policy, node_cap, depth_cap):
    nearby = ref.explore_digraph(source, policy, node_cap=30, depth_cap=3).nodes
    target = data.draw(st.one_of(st.sampled_from(nearby), configurations), label="target")
    bfs = ref.decompose_parallel_transition(source, target, policy, depth_cap, node_cap, 0)
    meet = decompose_parallel_transition(source, target, policy, node_cap=20_000, max_paths=0)
    if conclusive(bfs):
        assert not meet.budget_exceeded
        assert (meet.reachable, meet.depth) == (bfs.reachable, bfs.depth)
    # under the one-sided search's caps, the meet may stop short but never answers otherwise
    capped = decompose_parallel_transition(source, target, policy, depth_cap, node_cap, 0)
    if not capped.budget_exceeded:
        assert not meet.budget_exceeded
        assert (capped.reachable, capped.depth) == (meet.reachable, meet.depth)


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
            successors = _images(c.values, c.offset, policy)
            images = [(m, Configuration(v, offset)) for m, v, offset in successors]
            assert images == [(m, ref.apply_move(c, m, policy)) for m in moves]
            for site in range(lo - 1, hi + 2):
                for rule in RULE_ORDER:
                    move = SequentialMove(rule, site)
                    assert outcome(apply_move, c, move, policy) == outcome(
                        ref.apply_move, c, move, policy
                    )
