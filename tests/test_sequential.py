import itertools
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import reference_rules as ref
import reference_sequential
from conftest import cfg, count_paths, small_configurations
from sandlab import sequential
from sandlab.pile import Configuration, _LatticeState
from sandlab.rules import fp_step, gk_rule
from sandlab.sequential import (
    BT_FAMILY,
    HR_FAMILY,
    VR_FAMILY,
    InapplicableMove,
    MoveRule,
    NotOrderedPartition,
    RulesetPolicy,
    SequentialMove,
    applicable_moves,
    apply_move,
    decompose_parallel_transition,
    enumerate_paths,
    explore_digraph,
    necessity_analysis,
    sequential_spm_orbit,
)
from test_cli import child_env
from test_sequential_oracle import conventions, in_move_order
from test_stencil_oracle import exact_ints

# non-increasing states of total at most 10, the inputs of ``sequential_spm_orbit``
ordered_partitions = st.builds(
    Configuration,
    st.lists(st.integers(1, 10), min_size=1, max_size=10)
    .filter(lambda parts: sum(parts) <= 10)
    .map(lambda parts: tuple(sorted(parts, reverse=True))),
    st.integers(-3, 3),
)

FULL = RulesetPolicy()
VR_ONLY_D = RulesetPolicy(enabled=frozenset({MoveRule.VR_D}))
VR_BOTH = RulesetPolicy(enabled=VR_FAMILY)


def replay(root, moves):
    state = root
    for move in moves:
        state = apply_move(state, move)
    return state


class TestApplicableMoves:
    def test_four_granule_hump_offers_only_horizontal_moves(self):
        moves = applicable_moves(cfg("0,1|2,1,0"), FULL)
        assert [str(m) for m in moves] == ["HRd@0", "HRs@0"]

    def test_unique_vertical_move_on_5421(self):
        moves = applicable_moves(cfg("5,4,2,1"), VR_ONLY_D)
        assert moves == [SequentialMove(MoveRule.VR_D, 1)]

    def test_boolean_states_offer_nothing_under_the_convention(self):
        assert applicable_moves(cfg("1,0,1"), FULL) == []
        # height-1 plateaus still admit bottom-up jumps, but no VR/HR move
        vr_hr = RulesetPolicy(enabled=VR_FAMILY | HR_FAMILY)
        assert applicable_moves(cfg("1,1"), vr_hr) == []
        assert [m.rule for m in applicable_moves(cfg("1,1"), FULL)] == [
            MoveRule.BT_D,
            MoveRule.BT_S,
        ]

    def test_ordering_is_site_major(self):
        moves = applicable_moves(cfg("3,0,3"), FULL)
        sites = [m.site for m in moves]
        assert sites == sorted(sites)

    def test_zero_configuration(self):
        assert applicable_moves(Configuration(), FULL) == []


class TestConventions:
    def test_hr_convention_freezes_height_one_sources(self):
        # 1,1,0 -> 1,0,1 is frozen by default ...
        vr_hr = RulesetPolicy(enabled=VR_FAMILY | HR_FAMILY)
        assert applicable_moves(cfg("1,1"), vr_hr) == []
        # ... but fires when the convention is off
        off = RulesetPolicy(enabled=VR_FAMILY | HR_FAMILY, hr_convention=False)
        assert SequentialMove(MoveRule.HR_D, 1) in applicable_moves(cfg("1,1"), off)

    def test_summary_strict_freezes_only_isolated_single_granules(self):
        strict = RulesetPolicy(hr_summary_strict=True)
        # isolated granule: 0,1,0 patterns stay frozen
        assert applicable_moves(cfg("1"), strict) == []
        # 1,1,0 pattern may slide under the narrow reading
        assert SequentialMove(MoveRule.HR_D, 1) in applicable_moves(cfg("1,1"), strict)

    def test_summary_strict_needs_the_convention(self):
        # without the convention there is no freeze for the strict reading to narrow
        with pytest.raises(ValueError, match="hr_summary_strict"):
            RulesetPolicy(hr_convention=False, hr_summary_strict=True)
        RulesetPolicy(hr_convention=True, hr_summary_strict=True)
        RulesetPolicy(hr_convention=False, hr_summary_strict=False)

    def test_bt_floor_selects_the_plateau_height(self):
        c = cfg("0,2|1,1,0")
        assert SequentialMove(MoveRule.BT_D, 0) in applicable_moves(c, FULL)
        raised = RulesetPolicy(bt_height_floor=2)
        assert all(m.rule not in BT_FAMILY for m in applicable_moves(c, raised))

    def test_bt_never_fires_on_empty_plateaus(self):
        assert all(
            m.rule not in BT_FAMILY for m in applicable_moves(cfg("2,0,0,2"), FULL)
        )

    @given(small_configurations)
    def test_convention_never_offers_height_one_horizontal_moves(self, c):
        for move in applicable_moves(c, FULL):
            if move.rule in HR_FAMILY:
                assert c.value_at(move.site) >= 2


class TestRulesetPolicy:
    def test_rejects_a_non_integer_bt_floor(self):
        # a float floor of 1.5 used to act as a floor of 2
        with pytest.raises(TypeError):
            RulesetPolicy(bt_height_floor=1.5)

    @pytest.mark.parametrize("enabled", [{"VRd"}, {MoveRule.VR_D, "vr_s"}, {0}])
    def test_rejects_enabled_members_that_are_not_move_rules(self, enabled):
        # a string member used to enable nothing, so every state was an equilibrium
        with pytest.raises(TypeError):
            RulesetPolicy(enabled=frozenset(enabled))


class TestApplyMove:
    @pytest.mark.parametrize(
        "source, move, target",
        [
            ("0,1|2,1,0", SequentialMove(MoveRule.HR_S, 0), "0,2|1,1,0"),
            ("0,2|1,1,0", SequentialMove(MoveRule.BT_D, 0), "0,2|0,2,0"),
            ("1,1|2,1,1", SequentialMove(MoveRule.HR_D, 0), "1,1|1,2,1"),
            ("5,3,3,1", SequentialMove(MoveRule.VR_D, 0), "4,4,3,1"),
        ],
    )
    def test_pinned_moves(self, source, move, target):
        assert apply_move(cfg(source), move) == cfg(target)

    def test_guard_failure_raises(self):
        with pytest.raises(InapplicableMove):
            apply_move(cfg("1,1"), SequentialMove(MoveRule.VR_D, 0))

    def test_policy_conventions_are_enforced_when_passed(self):
        move = SequentialMove(MoveRule.HR_D, 1)
        assert apply_move(cfg("1,1"), move) == cfg("1,0,1")  # intrinsic guard only
        with pytest.raises(InapplicableMove):
            apply_move(cfg("1,1"), move, FULL)

    @given(small_configurations)
    def test_moves_conserve_totals(self, c):
        for move in applicable_moves(c, RulesetPolicy(hr_convention=False)):
            assert apply_move(c, move).total() == c.total()

    @given(small_configurations)
    def test_images_hold_exact_ints(self, c):
        # images are built without the index pass, so no other int type may leak in
        for move in applicable_moves(c, RulesetPolicy(hr_convention=False)):
            assert exact_ints(apply_move(c, move))


# each rule's twin in the mirror
MIRROR_RULE = {
    MoveRule.VR_D: MoveRule.VR_S, MoveRule.VR_S: MoveRule.VR_D,
    MoveRule.HR_D: MoveRule.HR_S, MoveRule.HR_S: MoveRule.HR_D,
    MoveRule.BT_D: MoveRule.BT_S, MoveRule.BT_S: MoveRule.BT_D,
}


def mirror(c):
    """Reflection about the origin: the value at x goes to -x."""
    return c if c.is_zero else Configuration(c.values[::-1], -c.support.hi)


def mirror_move(move):
    return SequentialMove(MIRROR_RULE[move.rule], -move.site)


class TestMirrorSymmetry:
    @given(small_configurations, st.sets(st.sampled_from(list(MoveRule)), min_size=1), conventions)
    def test_move_sets_mirror(self, c, enabled, conventions):
        # every valid policy: any enabled set, the three HR settings, bt floors 1-3
        policy = RulesetPolicy(enabled, *conventions)
        mirrored = RulesetPolicy({MIRROR_RULE[rule] for rule in enabled}, *conventions)
        expected = {mirror_move(m) for m in applicable_moves(c, policy)}
        assert set(applicable_moves(mirror(c), mirrored)) == expected

    @given(small_configurations)
    def test_mirror_is_involutive(self, c):
        assert mirror(mirror(c)) == c


CLASSIC_5421_TRAJECTORIES = [
    ["5,4,2,1", "5,3,3,1", "4,4,3,1", "4,4,2,2", "4,3,3,2", "4,3,3,1,1", "4,3,2,2,1"],
    ["5,4,2,1", "5,3,3,1", "5,3,2,2", "4,4,2,2", "4,4,2,1,1", "4,3,3,1,1", "4,3,2,2,1"],
    ["5,4,2,1", "5,3,3,1", "5,3,2,2", "4,4,2,2", "4,3,3,2", "4,3,3,1,1", "4,3,2,2,1"],
    ["5,4,2,1", "5,3,3,1", "5,3,2,2", "5,3,2,1,1", "4,4,2,1,1", "4,3,3,1,1", "4,3,2,2,1"],
]
# the vr_d graph of 5,4,2,1 carries one more maximal trajectory than the four
# above: its source states four, but the rule's 12 edges give five
FIFTH_5421_TRAJECTORY = [
    "5,4,2,1", "5,3,3,1", "4,4,3,1", "4,4,2,2", "4,4,2,1,1", "4,3,3,1,1", "4,3,2,2,1",
]


class TestExploreDigraph:
    def test_5421_node_set(self):
        d = explore_digraph(cfg("5,4,2,1"), VR_ONLY_D)
        expected = {
            "5,4,2,1", "5,3,3,1", "4,4,3,1", "5,3,2,2", "4,4,2,2",
            "5,3,2,1,1", "4,3,3,2", "4,4,2,1,1", "4,3,3,1,1", "4,3,2,2,1",
        }
        assert {str(n) for n in d.nodes} == expected
        assert len(d.nodes) == 10
        assert d.equilibria == (cfg("4,3,2,2,1"),)
        assert len(d.edges) == 12
        assert not d.node_cap_reached

    @pytest.mark.parametrize("quotient", [False, True])
    def test_nodes_hold_exact_ints(self, quotient):
        d = explore_digraph(cfg("2|3,0,1"), FULL, node_cap=500, quotient_translations=quotient)
        assert len(d.nodes) > 100
        assert all(map(exact_ints, d.nodes))

    def test_edges_satisfy_their_moves(self):
        d = explore_digraph(cfg("5,4,2,1"), VR_ONLY_D)
        for a, move, b in d.edges:
            assert apply_move(a, move) == b

    def test_levels_are_bfs_depths(self):
        d = explore_digraph(cfg("5,4,2,1"), VR_ONLY_D)
        assert d.levels[cfg("5,4,2,1")] == 0
        assert d.levels[cfg("4,3,2,2,1")] == 6

    def test_two_granules_have_two_boolean_equilibria(self):
        d = explore_digraph(cfg("2"), VR_BOTH)
        assert set(d.equilibria) == {cfg("0,1|1,0,0"), cfg("0,0|1,1,0")}
        assert cfg("0,1|0,1,0") not in set(d.equilibria)

    def test_zero_root(self):
        d = explore_digraph(Configuration(), FULL)
        assert d.nodes == (Configuration(),)
        assert d.edges == ()
        assert d.equilibria == (Configuration(),)

    def test_deterministic(self):
        a = explore_digraph(cfg("5,4,2,1"), VR_ONLY_D)
        b = explore_digraph(cfg("5,4,2,1"), VR_ONLY_D)
        assert a.nodes == b.nodes
        assert a.edges == b.edges

    def test_equal_moves_are_one_object(self):
        # the successor kernel interns each (rule, site) move in its policy
        d = explore_digraph(cfg("3,0,3"), RulesetPolicy(), node_cap=500)
        moves = [move for _, move, _ in d.edges]
        assert len({id(move) for move in moves}) == len(set(moves)) < len(moves)

    def test_node_cap_truncates_with_flag(self):
        d = explore_digraph(cfg("5,4,2,1"), VR_ONLY_D, node_cap=3)
        assert d.node_cap_reached
        assert len(d.nodes) == 3

    def test_quotient_mode_merges_translates(self):
        icepile = RulesetPolicy(enabled=VR_FAMILY | HR_FAMILY)
        full = explore_digraph(cfg("3"), icepile)
        assert len(full.equilibria) == 3
        assert all(e.values == full.equilibria[0].values for e in full.equilibria)
        quotient = explore_digraph(cfg("3"), icepile, quotient_translations=True)
        assert len(quotient.equilibria) == 1
        assert len(quotient.nodes) < len(full.nodes)


class TestEnumeratePaths:
    def test_5421_maximal_paths(self):
        d = explore_digraph(cfg("5,4,2,1"), VR_ONLY_D)
        paths = enumerate_paths(d, cfg("4,3,2,2,1"))
        assert {len(p) for p in paths} == {6}
        trajectories = []
        for path in paths:
            states = [d.root]
            for move in path:
                states.append(apply_move(states[-1], move))
            assert states[-1] == cfg("4,3,2,2,1")
            trajectories.append([str(s) for s in states])
        for expected in CLASSIC_5421_TRAJECTORIES:
            assert expected in trajectories
        sink = cfg("4,3,2,2,1")
        assert len(paths) == count_paths(d.edges, d.root, sink) == sequential.count_paths(d, sink)
        assert len(paths) == 5
        extra = [t for t in trajectories if t not in CLASSIC_5421_TRAJECTORIES]
        assert extra == [FIFTH_5421_TRAJECTORY]

    def test_three_granule_diamond(self):
        d = explore_digraph(cfg("3"), VR_BOTH)
        paths = enumerate_paths(d, cfg("1|1,1"))
        assert len(paths) == 2
        assert all(len(p) == 2 for p in paths)

    def test_target_is_root(self):
        d = explore_digraph(cfg("3"), VR_BOTH)
        assert enumerate_paths(d, cfg("3")) == [()]

    def test_absent_target(self):
        d = explore_digraph(cfg("3"), VR_BOTH)
        assert enumerate_paths(d, cfg("9")) == []

    def test_returns_every_path_by_default(self):
        summary = sequential_spm_orbit(cfg("13"))
        d = summary.digraph
        paths = enumerate_paths(d, summary.equilibrium)
        sink = summary.equilibrium
        assert len(paths) == count_paths(d.edges, d.root, sink) == sequential.count_paths(d, sink)
        assert len(paths) == 2194

    def test_the_walk_hashes_no_state_per_path(self, monkeypatch):
        # numbering the nodes hashes each node and edge end once, and the walk runs on ints; a walk
        # that hashed a state at each step of its prefix tree would make tens of thousands of calls
        summary = sequential_spm_orbit(cfg("13"))
        d = summary.digraph
        calls = Counter()
        real_hash, real_eq = _LatticeState.__hash__, _LatticeState.__eq__

        def counted_hash(self):
            calls["hash"] += 1
            return real_hash(self)

        def counted_eq(self, other):
            calls["eq"] += 1
            return real_eq(self, other)

        monkeypatch.setattr(_LatticeState, "__hash__", counted_hash)
        monkeypatch.setattr(_LatticeState, "__eq__", counted_eq)
        paths = enumerate_paths(d, summary.equilibrium)
        monkeypatch.undo()
        assert len(paths) == 2194
        bound = len(d.nodes) + 2 * len(d.edges) + 4
        assert calls["hash"] <= bound
        assert calls["eq"] <= bound

    def test_max_paths_truncation(self):
        d = explore_digraph(cfg("5,4,2,1"), VR_ONLY_D)
        assert len(enumerate_paths(d, cfg("4,3,2,2,1"), max_paths=2)) == 2

    def test_max_paths_zero_gives_no_paths(self):
        d = explore_digraph(cfg("3"), VR_BOTH)
        assert enumerate_paths(d, cfg("1|1,1"), max_paths=0) == []
        assert enumerate_paths(d, cfg("3"), max_paths=0) == []

    def test_negative_max_paths_raises(self):
        d = explore_digraph(cfg("3"), VR_BOTH)
        with pytest.raises(ValueError, match="max_paths"):
            enumerate_paths(d, cfg("1|1,1"), max_paths=-1)

    def test_paths_on_a_cyclic_digraph_arrive_without_stalling(self):
        # the walk once followed every dead-end prefix: max_paths=1 ran past 60 s for one target
        script = (
            "from sandlab import *\n"
            "policy = RulesetPolicy(VR_FAMILY | HR_FAMILY, hr_convention=False)\n"
            "d = explore_digraph(parse_literal('3'), policy, node_cap=200)\n"
            "print(len(d.nodes), len(d.edges))\n"
            "for k in (1, 2):\n"
            "    print(sum(len(enumerate_paths(d, t, max_paths=k)) for t in d.nodes))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=child_env(), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["200 810", "200", "365", ""]


class TestCountPaths:
    @settings(max_examples=50, deadline=None)
    @given(small_configurations)
    def test_every_node_of_a_vertical_digraph_matches_the_oracle(self, c):
        # a vertical move lowers the sum of squared heights, so these digraphs are acyclic
        d = explore_digraph(c, VR_BOTH, node_cap=60)
        for node in d.nodes:
            assert sequential.count_paths(d, node) == count_paths(d.edges, d.root, node)

    def test_root_and_absent_targets(self):
        d = explore_digraph(cfg("3"), VR_BOTH)
        assert sequential.count_paths(d, cfg("3")) == 1
        assert sequential.count_paths(d, cfg("9")) == 0

    def test_a_cycle_raises(self):
        # HRd then HRs takes 2,1 to 1,2 and back
        d = explore_digraph(cfg("2,1"), RulesetPolicy(enabled=VR_FAMILY | HR_FAMILY))
        assert d.levels[cfg("1,2")] == 1
        with pytest.raises(ValueError, match="cycle"):
            sequential.count_paths(d, d.equilibria[0])


class TestDecompose:
    def test_vertical_rules_cannot_split_the_hump(self):
        result = decompose_parallel_transition(
            cfg("0,1|2,1,0"), cfg("0,2|0,2,0"), VR_BOTH
        )
        assert not result.reachable
        assert not result.budget_exceeded  # conclusive: space exhausted

    def test_horizontal_plus_bottom_up_reaches_it(self):
        policy = RulesetPolicy(enabled=HR_FAMILY | BT_FAMILY)
        result = decompose_parallel_transition(
            cfg("0,1|2,1,0"), cfg("0,2|0,2,0"), policy
        )
        assert result.reachable and result.depth == 2
        assert {tuple(str(m) for m in p) for p in result.paths} == {
            ("HRs@0", "BTd@0"),
            ("HRd@0", "BTs@0"),
        }

    def test_totals_that_differ_are_unreachable_without_a_search(self):
        # every move keeps the total; a search from 10 would stop only at a cap
        result = decompose_parallel_transition(cfg("10"), cfg("9"), RulesetPolicy(), node_cap=1)
        assert not result.reachable and not result.budget_exceeded
        assert result.explored_nodes == 0
        with pytest.raises(ValueError, match="node_cap"):
            decompose_parallel_transition(cfg("10"), cfg("9"), RulesetPolicy(), node_cap=0)

    def test_three_granules_split_by_vertical_rules(self):
        result = decompose_parallel_transition(cfg("3"), cfg("1|1,1"), VR_BOTH)
        assert result.reachable and result.depth == 2
        assert len(result.paths) == 2

    def test_fp060_step_four_decomposition(self):
        policy = RulesetPolicy(enabled=HR_FAMILY | BT_FAMILY)
        result = decompose_parallel_transition(
            cfg("1,1|2,1,1"), cfg("1,2|0,2,1"), policy
        )
        assert result.reachable and result.depth == 2
        assert {tuple(str(m) for m in p) for p in result.paths} == {
            ("HRs@0", "BTd@0"),
            ("HRd@0", "BTs@0"),
        }

    def test_source_equals_target(self):
        result = decompose_parallel_transition(cfg("0"), cfg("0"), FULL)
        assert result.reachable
        assert result.paths == ((),)

    def test_an_exhausted_backward_closure_is_conclusive(self):
        # bottom-up drift makes the forward space unbounded, but 1|0,1 has no predecessor
        result = decompose_parallel_transition(cfg("2"), cfg("1|0,1"), FULL)
        assert not result.reachable
        assert not result.budget_exceeded
        assert result.explored_nodes == 4

    def test_depth_cap_on_equilibria_is_conclusive(self):
        # 2 -> 1,1 is the one move, and 1,1 at the cap is an equilibrium, not a frontier
        result = decompose_parallel_transition(cfg("2"), cfg("0,2"), VR_ONLY_D, depth_cap=1)
        assert not result.reachable
        assert not result.budget_exceeded
        assert result.explored_nodes == 3  # 2 and 1,1 forward, 0,2 backward

    def test_long_geodesic_is_not_bounded_by_the_recursion_limit(self):
        # one granule slid 1500 cells: one shortest path of 1500 moves
        policy = RulesetPolicy(enabled=frozenset({MoveRule.HR_D}), hr_convention=False)
        result = decompose_parallel_transition(
            Configuration((1,)), Configuration((1,), 1500), policy, depth_cap=2000
        )
        assert result.reachable and result.depth == 1500
        assert result.paths == (tuple(SequentialMove(MoveRule.HR_D, x) for x in range(1500)),)

    def test_paths_follow_move_order_up_to_max_paths(self):
        # lexicographic by (site, rule order): VRd@0 comes before VRs@0
        full = decompose_parallel_transition(cfg("3"), cfg("1|1,1"), VR_BOTH)
        cut = decompose_parallel_transition(cfg("3"), cfg("1|1,1"), VR_BOTH, max_paths=1)
        assert [tuple(map(str, p)) for p in full.paths] == [
            ("VRd@0", "VRs@0"),
            ("VRs@0", "VRd@0"),
        ]
        assert cut.paths == full.paths[:1]

    def test_max_paths_zero_gives_no_paths(self):
        for target in (cfg("1|1,1"), cfg("3")):
            result = decompose_parallel_transition(cfg("3"), target, VR_BOTH, max_paths=0)
            assert result.reachable
            assert result.paths == ()

    def test_negative_max_paths_raises(self):
        with pytest.raises(ValueError, match="max_paths"):
            decompose_parallel_transition(cfg("3"), cfg("1|1,1"), VR_BOTH, max_paths=-1)

    def test_path_count_counts_the_geodesics_past_the_cut(self):
        # 10 -> 4,3,2,1 under vr_d has 34 geodesics; the default CLI list shows 16
        source, target = cfg("10"), cfg("4,3,2,1")
        cut = decompose_parallel_transition(source, target, VR_ONLY_D, max_paths=16)
        full = decompose_parallel_transition(source, target, VR_ONLY_D, max_paths=100)
        assert (len(cut.paths), cut.path_count) == (16, 34)
        assert (len(full.paths), full.path_count) == (34, 34)
        none = decompose_parallel_transition(source, target, VR_ONLY_D, max_paths=0)
        assert none.path_count is None

    @settings(max_examples=150, deadline=None)
    @given(st.data(), small_configurations, st.sampled_from([VR_BOTH, FULL]), st.integers(1, 3))
    def test_path_count_is_the_length_of_the_uncut_list(self, data, source, policy, cap):
        nearby = explore_digraph(source, policy, node_cap=40, depth_cap=3).nodes
        target = data.draw(st.sampled_from(nearby), label="target")
        args = (source, target, policy, 4, 400)
        cut = decompose_parallel_transition(*args, max_paths=cap)
        full = decompose_parallel_transition(*args, max_paths=10**6)
        assert cut.reachable and full.reachable
        assert cut.paths == full.paths[:cap]
        assert cut.path_count == full.path_count == len(full.paths)

    @pytest.mark.parametrize(
        "search",
        [
            lambda cap: explore_digraph(cfg("3"), VR_BOTH, node_cap=cap),
            lambda cap: decompose_parallel_transition(
                cfg("3"), cfg("1|1,1"), VR_BOTH, node_cap=cap
            ),
            lambda cap: necessity_analysis(cfg("3"), cfg("1|1,1"), node_cap=cap),
        ],
        ids=["explore", "decompose", "necessity"],
    )
    def test_a_node_cap_below_one_raises(self, search):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="node_cap"):
                search(cap)

    @pytest.mark.parametrize(
        "search",
        [
            lambda cap: explore_digraph(cfg("3"), VR_BOTH, depth_cap=cap),
            lambda cap: decompose_parallel_transition(
                cfg("3"), cfg("1|1,1"), VR_BOTH, depth_cap=cap
            ),
            lambda cap: necessity_analysis(cfg("3"), cfg("1|1,1"), depth_cap=cap),
        ],
        ids=["explore", "decompose", "necessity"],
    )
    def test_a_negative_depth_cap_raises(self, search):
        for cap in (-1, -2):
            with pytest.raises(ValueError, match="depth_cap"):
                search(cap)
        search(0)  # the root alone

    @pytest.mark.parametrize(
        "search",
        [
            lambda: explore_digraph(cfg("8"), RulesetPolicy(), node_cap=2.5),
            lambda: explore_digraph(cfg("8"), RulesetPolicy(), depth_cap=1.5),
            lambda: decompose_parallel_transition(cfg("3"), cfg("1|1,1"), VR_BOTH, node_cap=2.5),
            lambda: decompose_parallel_transition(cfg("3"), cfg("1|1,1"), VR_BOTH, depth_cap=1.5),
            lambda: decompose_parallel_transition(cfg("3"), cfg("1|1,1"), VR_BOTH, max_paths=2.5),
            lambda: necessity_analysis(cfg("3"), cfg("1|1,1"), node_cap=2.5),
            lambda: necessity_analysis(cfg("3"), cfg("1|1,1"), depth_cap=1.5),
            lambda: enumerate_paths(
                explore_digraph(cfg("5,4,2,1"), VR_ONLY_D), cfg("4,3,2,2,1"), max_paths=1.5
            ),
        ],
        ids=[
            "explore-node", "explore-depth", "decompose-node", "decompose-depth",
            "decompose-paths", "necessity-node", "necessity-depth", "enumerate-paths",
        ],
    )
    def test_a_bound_that_is_not_an_integer_raises(self, search):
        # each once ran: node_cap=2.5 kept 3 nodes, max_paths=1.5 listed every path
        with pytest.raises(TypeError):
            search()

    @settings(deadline=None, max_examples=25)
    @given(small_configurations)
    def test_paths_replay_to_the_target(self, c):
        d = explore_digraph(c, VR_ONLY_D, node_cap=200)
        for target in d.nodes[:5]:
            result = decompose_parallel_transition(c, target, VR_ONLY_D, node_cap=200)
            assert result.reachable
            for path in result.paths:
                assert replay(c, path) == target
            for path in enumerate_paths(d, target, max_paths=10):
                assert replay(c, path) == target


def meet(source, target, policy, **caps):
    return decompose_parallel_transition(source, target, policy, max_paths=0, **caps)


class TestMeet:
    def test_a_node_cap_that_leaves_no_room_is_inconclusive(self):
        # 3 -> 1|1,1 takes two moves; caps 1 and 2 hold at most the two ends
        for cap in (1, 2):
            result = meet(cfg("3"), cfg("1|1,1"), VR_BOTH, node_cap=cap)
            assert not result.reachable and result.budget_exceeded

    def test_the_depth_cap_bounds_forward_plus_backward_levels(self):
        for cap, reachable, depth in ((0, False, None), (1, False, None), (2, True, 2)):
            result = meet(cfg("3"), cfg("1|1,1"), VR_BOTH, depth_cap=cap)
            assert (result.reachable, result.depth) == (reachable, depth)
            assert result.budget_exceeded is not reachable

    def test_a_one_move_target_is_met_by_lookup_alone(self):
        result = meet(cfg("3"), cfg("2,1"), VR_BOTH, node_cap=2)
        assert (result.reachable, result.depth, result.explored_nodes) == (True, 1, 2)


class TestPhiBounds:
    """The rounds of ``decompose_parallel_transition``: bounds Φ, Φ+2, Φ+6, … to the depth cap,
    clipped to Φ's parity."""

    def test_a_geodesic_at_phi_is_met_in_the_first_round(self):
        # Φ = 30; the unbounded meet stored 40,446 states for this pair
        result = decompose_parallel_transition(
            cfg("12"), cfg("2,2,2,2,2,2"), FULL, node_cap=1000, max_paths=4
        )
        assert (result.reachable, result.depth, result.budget_exceeded) == (True, 30, False)
        assert result.path_count == 1_354_084_964_418
        assert result.explored_nodes == 709

    def test_no_path_is_exact_once_a_round_prunes_nothing_on_a_side(self):
        # the VR row of 10 -> 2,2,2,2,2: rounds at 20, 22, 26 and 34 prune, the one at 50
        # exhausts a closure, and stores what the unbounded search stored
        result = meet(cfg("10"), cfg("2,2,2,2,2"), RulesetPolicy(VR_FAMILY))
        assert (result.reachable, result.budget_exceeded) == (False, False)
        assert result.explored_nodes == 201

    def test_a_length_above_phi_matches_the_one_sided_search(self):
        # Φ = 1 and the shortest length is 5: the rounds at 1 and 3 find nothing, 7 finds it
        source, target = cfg("2,1,1"), cfg("2,1,0,1")
        assert reference_sequential.potential(source, target) == 1
        theirs = reference_sequential.decompose_parallel_transition(
            source, target, FULL, max_paths=None
        )
        for depth_cap in (None, 5):  # a cap of 5 clips the third bound from 7 to 5
            ours = decompose_parallel_transition(source, target, FULL, depth_cap, max_paths=None)
            assert (ours.reachable, ours.depth, ours.path_count) == (True, 5, 3)
            assert (theirs.depth, theirs.path_count) == (5, 3)
            assert list(ours.paths) == in_move_order(theirs.paths)
        # at a cap of 4 the last round prunes nothing and stops with both frontiers open
        capped = decompose_parallel_transition(source, target, FULL, depth_cap=4)
        assert (capped.reachable, capped.budget_exceeded) == (False, True)

    def test_a_round_at_the_depth_cap_that_pruned_is_followed_by_one_that_prunes_nothing(self):
        # Φ = 2 = the cap: the round at 2 prunes every forward state at level 2 and finds
        # nothing; unpruned, 2|1's one predecessor has none, so that closure is exhausted
        result = meet(cfg("3"), cfg("2|1"), VR_BOTH, depth_cap=2)
        assert (result.reachable, result.budget_exceeded) == (False, False)
        assert result.explored_nodes == 5

    @pytest.mark.parametrize(
        "phi, depth_cap, bounds",
        [
            (1, 4, [1, 3, None]),
            (1, 5, [1, 3, 5, None]),
            (0, 8, [0, 2, 6, 8, None]),
            (2, 50, [2, 4, 8, 16, 32, 50, None]),
            (4, 4, [4, None]),
            (4, 5, [4, None]),
            (3, 2, [None]),
        ],
    )
    def test_bounds_keep_phis_parity_and_never_repeat(self, phi, depth_cap, bounds):
        assert list(sequential._bounds(phi, depth_cap)) == bounds

    def test_a_cap_of_the_other_parity_from_phi_runs_no_round_twice(self, monkeypatch):
        # Φ = 1: a round at the cap 4 pruned as the one at 3 did and stored the same 9 states;
        # now 3 is the last bounded round, and the verdict is the one the round at 4 gave
        rounds = []
        real = sequential._bounds

        def bounds(phi, depth_cap):
            for bound in real(phi, depth_cap):
                rounds.append(bound)
                yield bound

        monkeypatch.setattr(sequential, "_bounds", bounds)
        result = decompose_parallel_transition(cfg("2,1,1"), cfg("2,1,0,1"), FULL, depth_cap=4)
        assert rounds == [1, 3, None]
        assert result == (False, (), 23, True, None, None)

    @pytest.mark.parametrize("depth_cap", [0, 10, 19])
    def test_a_depth_cap_below_phi_is_inconclusive(self, depth_cap):
        # Φ = 20: no path fits under the cap, but neither closure is exhausted
        result = meet(cfg("10"), cfg("2,2,2,2,2"), FULL, depth_cap=depth_cap)
        assert (result.reachable, result.budget_exceeded) == (False, True)


class TestNecessity:
    def test_four_granule_hump_needs_all_three_families(self):
        report = necessity_analysis(cfg("0,1|2,1,0"), cfg("0,2|0,2,0"))
        outcomes = {name: result.reachable for name, result in report.rows}
        assert outcomes == {"VR": False, "VR+HR": False, "VR+HR+BT": True}
        assert report.minimal_family == "VR+HR+BT"
        assert report.result_for("VR+HR+BT").depth == 2
        # the first two verdicts are conclusive, not budget artifacts
        assert not report.result_for("VR").budget_exceeded
        assert not report.result_for("VR+HR").budget_exceeded

    def test_two_granule_split_is_beyond_every_family(self):
        report = necessity_analysis(cfg("2"), cfg("1|0,1"))
        assert all(not result.reachable for _, result in report.rows)
        assert report.minimal_family is None
        # bottom-up jumps make the forward space unbounded, but the target's
        # backward closure is finite, so every verdict is exact
        assert not any(result.budget_exceeded for _, result in report.rows)

    def test_three_granules_need_only_vertical_rules(self):
        report = necessity_analysis(cfg("3"), cfg("1|1,1"))
        assert report.minimal_family == "VR"

    def test_families_run_under_the_policy_conventions(self):
        # without the horizontal freeze, a lone granule may slide right
        report = necessity_analysis(
            cfg("1"), cfg("0,1"), policy=RulesetPolicy(hr_convention=False)
        )
        assert report.minimal_family == "VR+HR"
        assert report.result_for("VR+HR").depth == 1
        assert necessity_analysis(cfg("1"), cfg("0,1")).minimal_family is None

    def test_larger_families_hold_the_minimal_familys_path(self):
        # VR reaches 3,2,2 in 5 moves; the Φ-bounded VR+HR search stores 9 states, but
        # VR+HR+BT needs a 10th to find its own length
        report = necessity_analysis(cfg("6,1"), cfg("3,2,2"), node_cap=9)
        assert report.minimal_family == "VR"
        assert report.result_for("VR+HR").depth == 5
        full = report.result_for("VR+HR+BT")
        assert full.reachable and full.budget_exceeded and full.depth is None

    def test_totals_that_differ_are_unreachable_without_a_search(self):
        report = necessity_analysis(cfg("10"), cfg("9"), node_cap=1)
        assert report.minimal_family is None
        for _, result in report.rows:
            assert not result.reachable and not result.budget_exceeded
            assert result.explored_nodes == 0

    @pytest.mark.parametrize(
        "policy, census",
        [
            (RulesetPolicy(), {"VR": 325, "VR+HR": 61, "VR+HR+BT": 102, None: 4}),
            (RulesetPolicy(hr_summary_strict=True), {"VR": 325, "VR+HR": 153, "VR+HR+BT": 14}),
            (RulesetPolicy(bt_height_floor=2), {"VR": 325, "VR+HR": 61, None: 106}),
        ],
        ids=["default", "summary-strict", "bt-floor-2"],
    )
    def test_fp_census_has_exact_verdicts(self, policy, census):
        # every fp transition c -> fp_step(c) of a non-fixed c from cell 0, width <= 4, values <= 4
        pairs = []
        for width in range(1, 5):
            for values in itertools.product(range(5), repeat=width):
                c = Configuration(values)
                t = fp_step(c)
                if values[0] and values[-1] and t != c:
                    pairs.append((c, t))
        assert len(pairs) == 492
        counts = Counter()
        unrealized = set()
        for c, t in pairs:
            report = necessity_analysis(c, t, policy=policy)
            assert not any(result.budget_exceeded for _, result in report.rows), (c, t)
            phi = reference_sequential.potential(c, t)
            for _, result in report.rows:  # a shortest length is at least Φ, of its parity
                assert result.depth is None or result.depth >= phi, (c, t)
                assert result.depth is None or (result.depth - phi) % 2 == 0, (c, t)
            counts[report.minimal_family] += 1
            if report.minimal_family is None:
                unrealized.add((c, t))
        assert counts == census
        if policy == RulesetPolicy():
            assert unrealized == {
                (cfg("2"), cfg("1|0,1")),
                (cfg("2,1,2"), cfg("1|0,3,0,1")),
                (cfg("1,0,0,2"), cfg("1,0,1,0,1")),
                (cfg("2,0,0,1"), cfg("1|0,1,0,1")),
            }

    @pytest.mark.parametrize("depth_cap", [1, 0], ids=["no-move-forward", "no-predecessor"])
    def test_an_exhausted_closure_at_the_depth_cap_is_exact(self, depth_cap):
        # at cap 1 the forward frontier 1,1 and 1|1 has no VR or HR move; at cap 0
        # nothing moves onto 0,2 by VR or HR; BTd both leaves 1,1 and enters 0,2
        report = necessity_analysis(cfg("2"), cfg("0,2"), depth_cap=depth_cap)
        assert [(name, r.reachable, r.budget_exceeded) for name, r in report.rows] == [
            ("VR", False, False),
            ("VR+HR", False, False),
            ("VR+HR+BT", False, True),
        ]

    def test_rows_carry_no_paths(self):
        for source, target in (("0,1|2,1,0", "0,2|0,2,0"), ("3", "1|1,1"), ("0", "0")):
            report = necessity_analysis(cfg(source), cfg(target))
            assert report.minimal_family is not None
            assert all(result.paths == () for _, result in report.rows)


class TestSpmOrbit:
    def test_six_granules(self):
        summary = sequential_spm_orbit(cfg("6"))
        assert summary.equilibrium == cfg("3,2,1")
        assert summary.path_lengths == frozenset({4})

    def test_5421(self):
        summary = sequential_spm_orbit(cfg("5,4,2,1"))
        assert summary.equilibrium == cfg("4,3,2,2,1")
        assert summary.path_lengths == frozenset({6})

    def test_single_granule_is_already_stable(self):
        summary = sequential_spm_orbit(cfg("1"))
        assert summary.equilibrium == cfg("1")
        assert summary.path_lengths == frozenset({0})

    def test_long_chain_is_not_bounded_by_the_recursion_limit(self):
        # 501,499,...,1 admits one VRd move at a time: a 501-node chain
        summary = sequential_spm_orbit(Configuration((501, *range(499, 0, -1))))
        assert len(summary.digraph.nodes) == 501
        assert summary.path_lengths == frozenset({500})

    @settings(max_examples=100, deadline=None)
    @given(ordered_partitions)
    def test_path_lengths_match_the_enumerated_paths(self, c):
        summary = sequential_spm_orbit(c)
        d = summary.digraph
        paths = enumerate_paths(d, summary.equilibrium)
        assert summary.path_lengths == {len(p) for p in paths}
        assert sequential.count_paths(d, summary.equilibrium) == len(paths)

    def test_rejects_increasing_configurations(self):
        with pytest.raises(NotOrderedPartition):
            sequential_spm_orbit(cfg("1,2"))

    def test_confluence_matches_the_parallel_fixed_point(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 12)
            parts = []
            remaining = n
            while remaining:
                part = rng.randint(1, remaining)
                parts.append(part)
                remaining -= part
            c = Configuration(tuple(sorted(parts, reverse=True)))
            summary = sequential_spm_orbit(c)
            parallel = ref.orbit(c, gk_rule())
            assert summary.equilibrium == parallel[-1][0]
