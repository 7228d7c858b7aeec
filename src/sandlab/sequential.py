"""One-site sequential rewrite rules, transition digraphs, and reachability.

Six moves, each transferring a single granule between adjacent cells:

* vertical ``VRd``/``VRs``   -- a granule drops down a jump of at least two
                                (rightward / leftward);
* horizontal ``HRd``/``HRs`` -- a granule slides off a one-step ledge onto
                                the lower neighbour;
* bottom-up ``BTd``/``BTs``  -- a granule hops onto an equal-height
                                neighbour.

A :class:`RulesetPolicy` selects the enabled moves and two conventions: the
horizontal-rule freeze for height-1 sources and the minimum plateau height at
which bottom-up jumps fire.  Exploration is breadth-first over canonical
configurations, so digraphs are deduplicated and deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from enum import Enum

from .pile import Configuration


class InapplicableMove(ValueError):
    """The move's guard does not hold at the requested site."""


class NotOrderedPartition(ValueError):
    """A non-increasing configuration was required."""


class MoveRule(Enum):
    # definition order is the canonical tie-break order at a site
    VR_D = "VRd"
    VR_S = "VRs"
    HR_D = "HRd"
    HR_S = "HRs"
    BT_D = "BTd"
    BT_S = "BTs"


RULE_ORDER: tuple[MoveRule, ...] = tuple(MoveRule)

VR_FAMILY = frozenset({MoveRule.VR_D, MoveRule.VR_S})
HR_FAMILY = frozenset({MoveRule.HR_D, MoveRule.HR_S})
BT_FAMILY = frozenset({MoveRule.BT_D, MoveRule.BT_S})
ALL_RULES = VR_FAMILY | HR_FAMILY | BT_FAMILY


@dataclass(frozen=True, slots=True)
class SequentialMove:
    rule: MoveRule
    site: int

    def __str__(self) -> str:
        return f"{self.rule.value}@{self.site}"


@dataclass(frozen=True)
class RulesetPolicy:
    """Which moves may fire, and under which conventions.

    ``hr_convention`` freezes every horizontal move whose source column has
    height 1 (so Boolean configurations stay put); ``hr_summary_strict``
    narrows the freeze to the isolated ``0,1,0`` pattern only, and so
    raises ``ValueError`` without ``hr_convention``, where it would do nothing.
    ``bt_height_floor`` is the minimum source height for bottom-up jumps;
    the floor is never below 1, so empty plateaus cannot fire.
    """

    enabled: frozenset[MoveRule] = ALL_RULES
    hr_convention: bool = True
    hr_summary_strict: bool = False
    bt_height_floor: int = 1
    # the move table: (left, mid, right) -> the (rule, step) pairs that fire there
    _moves: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the interned moves: (rule, site) -> its one SequentialMove, shared by every image
    _interned: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        enabled = frozenset(self.enabled)
        if not enabled:
            raise ValueError("policy must enable at least one rule")
        for rule in enabled:
            if not isinstance(rule, MoveRule):
                raise TypeError(f"enabled rules must be MoveRule members, got {rule!r}")
        # operator.index accepts integers only: 1.5 raises instead of acting as 2
        floor = operator.index(self.bt_height_floor)
        if floor < 1:
            raise ValueError("bt_height_floor must be at least 1")
        if self.hr_summary_strict and not self.hr_convention:
            raise ValueError("hr_summary_strict narrows hr_convention, which is off")
        object.__setattr__(self, "enabled", enabled)
        object.__setattr__(self, "bt_height_floor", floor)


# each rule's step from the source cell to the destination cell
_STEP = {rule: 1 if rule.name.endswith("_D") else -1 for rule in RULE_ORDER}

# the conventions of a move applied without a policy: its intrinsic guard alone
_NO_CONVENTIONS = RulesetPolicy(hr_convention=False)


def _guard(rule: MoveRule, left: int, mid: int, right: int, policy: RulesetPolicy) -> bool:
    """Whether ``rule`` may fire from a cell of height ``mid`` between ``left`` and ``right``."""
    dest = right if _STEP[rule] > 0 else left
    if rule in VR_FAMILY:
        return mid - dest >= 2
    if rule in HR_FAMILY:
        if mid != dest + 1:
            return False
        if policy.hr_convention:
            if policy.hr_summary_strict:
                return (left, mid, right) != (0, 1, 0)
            return mid != 1
        return True
    # bottom-up jump onto an equal-height neighbour; a floor of at least 1 keeps empty cells still
    return mid >= policy.bt_height_floor and mid == dest


def _moves_at(
    triple: tuple[int, int, int], policy: RulesetPolicy
) -> tuple[tuple[MoveRule, int], ...]:
    """The (rule, step) pairs of the enabled rules that fire at ``triple``, in rule order.

    Looked up in the policy's move table, which ``_guard`` fills the first
    time a triple is seen.
    """
    moves = policy._moves.get(triple)
    if moves is None:
        moves = policy._moves[triple] = tuple(
            (rule, _STEP[rule])
            for rule in RULE_ORDER
            if rule in policy.enabled and _guard(rule, *triple, policy)
        )
    return moves


def _splice(padded: tuple[int, ...], lo: int, i: int, step: int) -> tuple[tuple[int, ...], int]:
    """Trimmed (values, offset) after a granule moves from ``padded[i]`` to ``padded[i + step]``.

    ``padded`` is a trimmed state's values with one zero added at each end,
    and ``padded[0]`` is cell ``lo``.
    """
    vals = list(padded)
    vals[i] -= 1
    vals[i + step] += 1
    # only the source cell can become zero: at most two zeros to trim at either end
    start = 0 if vals[0] else 1 if vals[1] else 2
    stop = len(vals) - (0 if vals[-1] else 1 if vals[-2] else 2)
    return tuple(vals[start:stop]), lo + start


def _successors(c: Configuration, policy: RulesetPolicy):
    """(move, values, offset) of every applicable move, by site then rule order, in one pass.

    Each image is given by its trimmed values and offset, spliced by
    ``_splice``; no ``Configuration`` is built.  The moves are interned in the
    policy: every image of a rule at a site shares one ``SequentialMove``.
    """
    padded = (0, *c.values, 0)
    lo = c.offset - 1  # lattice cell of padded[0]
    table, interned = policy._moves, policy._interned
    out = []
    for i, triple in enumerate(zip(padded, padded[1:], padded[2:]), 1):
        moves = table.get(triple)
        if moves is None:
            moves = _moves_at(triple, policy)
        for rule, step in moves:
            move = interned.get((rule, lo + i))
            if move is None:
                move = interned[rule, lo + i] = SequentialMove(rule, lo + i)
            out.append((move, *_splice(padded, lo, i, step)))
    return out


def applicable_moves(c: Configuration, policy: RulesetPolicy) -> list[SequentialMove]:
    """All moves whose guards hold, ascending by site then rule order."""
    return [move for move, _, _ in _successors(c, policy)]


def apply_move(
    c: Configuration, move: SequentialMove, policy: RulesetPolicy | None = None
) -> Configuration:
    """Transfer one granule from the move's site to its destination cell.

    Without a policy only the move's intrinsic guard is checked; pass the
    policy in force to also enforce its conventions.
    """
    padded = (0, *c.values, 0)
    lo = c.offset - 1  # lattice cell of padded[0]
    i = move.site - lo
    # the move's own guard, whether its rule is enabled or not; every guard needs a
    # granule at the site, so a site off the support never applies
    if 0 < i < len(padded) - 1 and _guard(
        move.rule, *padded[i - 1 : i + 2], _NO_CONVENTIONS if policy is None else policy
    ):
        return Configuration(*_splice(padded, lo, i, _STEP[move.rule]))
    raise InapplicableMove(f"{move} does not apply to {c}")


DEFAULT_NODE_CAP = 10**6


@dataclass
class TransitionDigraph:
    """Deduplicated state graph of sequential rewrites from a root."""

    root: Configuration
    nodes: tuple[Configuration, ...]
    edges: tuple[tuple[Configuration, SequentialMove, Configuration], ...]
    equilibria: tuple[Configuration, ...]
    levels: dict[Configuration, int]
    node_cap_reached: bool
    quotient_translations: bool = False

    def __contains__(self, node: Configuration) -> bool:
        return node in self.levels


def explore_digraph(
    c0: Configuration,
    policy: RulesetPolicy,
    node_cap: int = DEFAULT_NODE_CAP,
    depth_cap: int | None = None,
    quotient_translations: bool = False,
) -> TransitionDigraph:
    """Breadth-first closure of the applicable moves from ``c0``.

    Node and edge order follow discovery order, which is deterministic.  When
    ``quotient_translations`` is set, translation-equivalent configurations
    are merged onto their first-seen representative; an edge then ends at the
    representative of the move's image, which may be a translate of it.
    """
    return _bfs(c0, policy, node_cap, depth_cap, quotient_translations)


def _bfs(
    c0: Configuration,
    policy: RulesetPolicy,
    node_cap: int,
    depth_cap: int | None,
    quotient_translations: bool = False,
    target: Configuration | None = None,
) -> TransitionDigraph:
    """Breadth-first search that generates each node's successors once.

    Nodes are expanded in discovery order, so a level at a time.  The search
    stops after the level on which ``target`` appears; its digraph then lists
    only the equilibria expanded so far.  A node at the depth cap is not
    expanded, and sets ``node_cap_reached`` only if it has a move.
    """
    if node_cap < 1:
        raise ValueError("node_cap must be positive")
    if depth_cap is not None and depth_cap < 0:
        raise ValueError(f"depth_cap must be non-negative, got {depth_cap}")

    # seen is keyed by the raw (values, offset), or values when quotienting, so a
    # Configuration is built only for a new node; its key shares the node's values
    seen: dict[object, Configuration] = {
        c0.values if quotient_translations else (c0.values, c0.offset): c0
    }
    levels: dict[Configuration, int] = {c0: 0}
    nodes: list[Configuration] = [c0]
    edges: list[tuple[Configuration, SequentialMove, Configuration]] = []
    equilibria: list[Configuration] = []
    truncated = False
    for cur in nodes:  # the list grows as nodes are discovered: a FIFO queue
        level = levels[cur]
        if target in levels and level >= levels[target]:
            break
        successors = _successors(cur, policy)
        if not successors:
            equilibria.append(cur)
        elif depth_cap is not None and level >= depth_cap:
            truncated = True
            continue
        for move, values, offset in successors:
            rep = seen.get(values if quotient_translations else (values, offset))
            if rep is not None:
                edges.append((cur, move, rep))
                continue
            if len(nodes) >= node_cap:
                truncated = True
                continue
            succ = Configuration(values, offset)
            seen[succ.values if quotient_translations else (succ.values, offset)] = succ
            levels[succ] = level + 1
            nodes.append(succ)
            edges.append((cur, move, succ))
    return TransitionDigraph(
        root=c0,
        nodes=tuple(nodes),
        edges=tuple(edges),
        equilibria=tuple(equilibria),
        levels=levels,
        node_cap_reached=truncated,
        quotient_translations=quotient_translations,
    )


def enumerate_paths(
    d: TransitionDigraph, target: Configuration, max_paths: int | None = None
) -> list[tuple[SequentialMove, ...]]:
    """All distinct simple paths root -> target, or the first ``max_paths`` of them.

    Paths are move sequences; the empty path is returned when the target is
    the root.  An absent target, or ``max_paths=0``, yields no paths.
    """
    _check_max_paths(max_paths)
    if target not in d.levels or max_paths == 0:
        return []
    reverse: dict[Configuration, list[Configuration]] = {}
    for a, _, b in d.edges:
        reverse.setdefault(b, []).append(a)
    # walk only through nodes that can still reach the target
    ancestors = {target}
    frontier = [target]
    while frontier:
        node = frontier.pop()
        for prev in reverse.get(node, ()):
            if prev not in ancestors:
                ancestors.add(prev)
                frontier.append(prev)
    links: dict[Configuration, list[tuple[SequentialMove, Configuration]]] = {}
    for a, move, b in d.edges:
        if b in ancestors:
            links.setdefault(a, []).append((move, b))
    return _dfs_paths(d.root, target, links, max_paths)


def _dfs_paths(start, goal, links: dict, max_paths: int | None) -> list[tuple[SequentialMove, ...]]:
    """Simple paths start -> goal as move tuples, in DFS preorder, at most ``max_paths``.

    ``links`` maps a node to its ``(move, next)`` pairs in edge order.
    """
    if start == goal:
        return [()]
    paths: list[tuple[SequentialMove, ...]] = []
    # iterative DFS: a frame per node on the path with its link iterator
    stack = [(start, iter(links.get(start, ())))]
    on_path = {start}
    trail: list[SequentialMove] = []
    while stack:
        for move, succ in stack[-1][1]:
            if succ in on_path:
                continue
            if succ == goal:  # a simple path ends at the goal
                paths.append((*trail, move))
                if len(paths) == max_paths:
                    return paths
                continue
            stack.append((succ, iter(links.get(succ, ()))))
            on_path.add(succ)
            trail.append(move)
            break
        else:
            on_path.discard(stack.pop()[0])
            del trail[-1:]  # the start's frame has no move
    return paths


def _check_max_paths(max_paths: int | None) -> None:
    if max_paths is not None and max_paths < 0:
        raise ValueError(f"max_paths must be non-negative, got {max_paths}")


def count_paths(d: TransitionDigraph, target: Configuration) -> int:
    """Number of root -> target paths: ``len(enumerate_paths(d, target))`` without a cap.

    A dynamic programme over ``d.edges`` in topological order, so O(edges);
    distinct moves between the same two states count as distinct paths.
    Counting simple paths through cycles is #P-hard, so a digraph with a
    cycle raises ``ValueError``.  An absent target has no paths.
    """
    indegree = dict.fromkeys(d.nodes, 0)
    successors: dict[Configuration, list[Configuration]] = {}
    for a, _, b in d.edges:
        successors.setdefault(a, []).append(b)
        indegree[b] += 1
    ways = dict.fromkeys(d.nodes, 0)
    ways[d.root] = 1
    ready = [node for node, degree in indegree.items() if degree == 0]
    ordered = 0
    while ready:  # Kahn's algorithm: a node is final once all its in-edges are counted
        node = ready.pop()
        ordered += 1
        for succ in successors.get(node, ()):
            ways[succ] += ways[node]
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if ordered < len(indegree):
        raise ValueError("the digraph has a cycle; paths are counted on acyclic digraphs only")
    return ways.get(target, 0)


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of a bounded search for move sequences source -> target."""

    reachable: bool
    paths: tuple[tuple[SequentialMove, ...], ...]
    explored_nodes: int
    budget_exceeded: bool
    depth: int | None
    path_count: int | None = None  # all the geodesics, when paths were asked for


def decompose_parallel_transition(
    source: Configuration,
    target: Configuration,
    policy: RulesetPolicy,
    depth_cap: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    max_paths: int = 64,
) -> DecompositionResult:
    """Shortest move sequences from source to target under a policy.

    Level-synchronous BFS; when the target appears, all geodesic paths (up to
    ``max_paths``) are reconstructed, and ``path_count`` says how many exist
    (None for ``max_paths=0``).  ``reachable=False`` is conclusive only
    when ``budget_exceeded`` is False, i.e. the whole reachable space was
    enumerated within the caps.
    """
    _check_max_paths(max_paths)
    if depth_cap is None:
        n = source.total()
        depth_cap = max(2 * n * n, 8)
    d = _bfs(source, policy, node_cap, depth_cap, target=target)
    if target in d.levels:
        paths, count = ((), None) if max_paths == 0 else _geodesics(d, target, max_paths)
        return DecompositionResult(True, paths, len(d.nodes), False, d.levels[target], count)
    return DecompositionResult(False, (), len(d.nodes), d.node_cap_reached, None)


def _geodesics(d: TransitionDigraph, target: Configuration, max_paths: int):
    """Up to ``max_paths`` shortest paths, depth first in parent order, and their full count.

    A node's parents are the sources of its edges from the level above, in
    discovery order; the walk runs from the target up to the root.  The count
    sums each node's parents' counts, over the nodes in BFS order.
    """
    parents: dict[Configuration, list[tuple[SequentialMove, Configuration]]] = {}
    for a, move, b in d.edges:
        if d.levels[b] == d.levels[a] + 1:
            parents.setdefault(b, []).append((move, a))
    ways = {d.root: 1}
    for node in d.nodes[1:]:  # a node's parents come before it, on the level above
        ways[node] = sum(ways[a] for _, a in parents[node])
    paths = _dfs_paths(target, d.root, parents, max_paths)
    return tuple(path[::-1] for path in paths), ways[target]


NECESSITY_FAMILIES: tuple[tuple[str, frozenset[MoveRule]], ...] = (
    ("VR", VR_FAMILY),
    ("VR+HR", VR_FAMILY | HR_FAMILY),
    ("VR+HR+BT", ALL_RULES),
)


@dataclass(frozen=True)
class NecessityReport:
    """Reachability of a target under the nested move families."""

    rows: tuple[tuple[str, DecompositionResult], ...]
    minimal_family: str | None

    def result_for(self, name: str) -> DecompositionResult:
        for family, result in self.rows:
            if family == name:
                return result
        raise KeyError(name)


def necessity_analysis(
    source: Configuration,
    target: Configuration,
    depth_cap: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    policy: RulesetPolicy = RulesetPolicy(),
) -> NecessityReport:
    """Which nested move family first reaches the target, if any.

    Each family runs under ``policy``'s conventions with its own moves; the rows carry no paths.
    """
    rows = []
    minimal = None
    for name, family in NECESSITY_FAMILIES:
        result = decompose_parallel_transition(
            source,
            target,
            replace(policy, enabled=family),
            depth_cap=depth_cap,
            node_cap=node_cap,
            max_paths=0,
        )
        rows.append((name, result))
        if result.reachable and minimal is None:
            minimal = name
    return NecessityReport(tuple(rows), minimal)


@dataclass(frozen=True)
class SpmOrbitSummary:
    """Digraph of the rightward vertical rule from a non-increasing state."""

    digraph: TransitionDigraph
    equilibrium: Configuration
    path_lengths: frozenset[int]


def sequential_spm_orbit(c0: Configuration) -> SpmOrbitSummary:
    """Exhaust the ``VRd``-only digraph and measure every maximal path.

    Requires a non-increasing (ordered-partition) initial state; the
    exploration then terminates with a single equilibrium, and the summary
    reports the set of root-to-equilibrium path lengths.
    """
    vals = c0.values
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise NotOrderedPartition(f"{c0} is not non-increasing")
    policy = RulesetPolicy(enabled=frozenset({MoveRule.VR_D}))
    digraph = explore_digraph(c0, policy)
    if digraph.node_cap_reached:
        raise RuntimeError(f"exploration truncated at {DEFAULT_NODE_CAP} states")
    if len(digraph.equilibria) != 1:
        raise RuntimeError(
            f"expected a unique equilibrium, found {len(digraph.equilibria)}"
        )
    equilibrium = digraph.equilibria[0]
    # each VRd move raises sum(x * c(x)) by one, so every edge climbs one BFS level;
    # then every maximal path ends at the equilibrium and has its level as length
    levels = digraph.levels
    if any(levels[b] != levels[a] + 1 for a, _, b in digraph.edges):
        raise RuntimeError("a vertical-rule edge does not climb one BFS level")
    return SpmOrbitSummary(digraph, equilibrium, frozenset({levels[equilibrium]}))


def mirror_image(c: Configuration) -> Configuration:
    """Reflection about the origin: value at x becomes value at -x."""
    if c.is_zero:
        return c
    return Configuration(tuple(reversed(c.values)), -c.support.hi)


_MIRROR = {
    MoveRule.VR_D: MoveRule.VR_S,
    MoveRule.VR_S: MoveRule.VR_D,
    MoveRule.HR_D: MoveRule.HR_S,
    MoveRule.HR_S: MoveRule.HR_D,
    MoveRule.BT_D: MoveRule.BT_S,
    MoveRule.BT_S: MoveRule.BT_D,
}


def mirror_move(move: SequentialMove) -> SequentialMove:
    """The move corresponding to ``move`` after reflecting about the origin."""
    return SequentialMove(_MIRROR[move.rule], -move.site)
