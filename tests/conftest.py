"""Shared helpers and hypothesis strategies for the test suite."""

from hypothesis import strategies as st

from sandlab.analysis import decompose_triangular, nn_search, verify_partitions
from sandlab.pile import (
    Configuration,
    HeightProfile,
    LatticeWindow,
    parse_height_literal,
    parse_literal,
)
from sandlab.rules import fp_rule, gen1g_rule, orbit
from sandlab.sequential import (
    MoveRule,
    RulesetPolicy,
    SequentialMove,
    decompose_parallel_transition,
    explore_digraph,
    necessity_analysis,
    sequential_spm_orbit,
)


def cfg(text: str) -> Configuration:
    return parse_literal(text)


def hp(text: str) -> HeightProfile:
    return parse_height_literal(text)


def count_paths(edges, source, target) -> int:
    """Number of ``source -> target`` paths over an acyclic edge list.

    A cross-check for ``enumerate_paths`` that shares none of its code: the
    nodes are put in level order by Kahn's algorithm over the edges alone, and
    path counts are summed in reverse level order.  Parallel edges count as
    distinct paths, as distinct moves do.  A cycle raises, since a dynamic
    programme counts simple paths only on a DAG.
    """
    successors: dict = {}
    indegree: dict = {}
    for a, _, b in edges:
        successors.setdefault(a, []).append(b)
        indegree.setdefault(a, 0)
        indegree[b] = indegree.get(b, 0) + 1
    order = [node for node, deg in indegree.items() if deg == 0]
    for node in order:  # the list grows as in-degrees drop to zero
        for succ in successors.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                order.append(succ)
    if len(order) != len(indegree):
        raise ValueError("edge list has a cycle")
    ways = {target: 1}
    for node in reversed(order):
        if node != target:
            ways[node] = sum(ways.get(s, 0) for s in successors.get(node, ()))
    return ways.get(source, 0)


configurations = st.builds(
    Configuration,
    st.lists(st.integers(0, 50), max_size=40),
    st.integers(-10, 10),
)

small_configurations = st.builds(
    Configuration,
    st.lists(st.integers(0, 9), max_size=12),
    st.integers(-6, 6),
)

boolean_configurations = st.builds(
    Configuration,
    st.lists(st.integers(0, 1), max_size=30),
    st.integers(-10, 10),
)

height_profiles = st.builds(
    HeightProfile,
    st.lists(st.integers(-6, 6), max_size=25),
    st.integers(-10, 10),
)


def _records() -> dict:
    vr_d = RulesetPolicy(enabled=frozenset({MoveRule.VR_D}))
    return {
        "LatticeWindow": LatticeWindow(-1, 2),
        "RuleSpec": fp_rule((2, -1), (5, 3)),
        "OrbitTrace": orbit(cfg("2"), fp_rule()),
        "SequentialMove": SequentialMove(MoveRule.HR_S, -2),
        "RulesetPolicy": RulesetPolicy(
            enabled=frozenset({MoveRule.BT_D}), hr_summary_strict=True, bt_height_floor=2
        ),
        "TransitionDigraph": explore_digraph(cfg("2"), vr_d),
        "DecompositionResult": decompose_parallel_transition(cfg("2"), cfg("1,1"), vr_d),
        "NecessityReport": necessity_analysis(cfg("2"), cfg("1,1")),
        "SpmOrbitSummary": sequential_spm_orbit(cfg("2")),
        "TriangularDecomposition": decompose_triangular(8),
        "NNViolation": nn_search([gen1g_rule((-3, 3))], 3, 6)[0],
        "CheckResult": verify_partitions(2)[0],
    }


# one instance of each rule, policy, move and result record type, by type name
RECORDS = _records()

# a transition digraph holds its levels dict, so it and a summary holding it have no hash
UNHASHABLE_RECORDS = frozenset({"TransitionDigraph", "SpmOrbitSummary"})
