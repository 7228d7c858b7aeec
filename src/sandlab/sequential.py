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
from enum import Enum
from typing import NamedTuple

from .pile import Configuration, _Frozen


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

    # the members are singletons, so identity hashes them; Enum's own hash runs in Python
    __hash__ = object.__hash__


RULE_ORDER: tuple[MoveRule, ...] = tuple(MoveRule)

VR_FAMILY = frozenset({MoveRule.VR_D, MoveRule.VR_S})
HR_FAMILY = frozenset({MoveRule.HR_D, MoveRule.HR_S})
BT_FAMILY = frozenset({MoveRule.BT_D, MoveRule.BT_S})
ALL_RULES = VR_FAMILY | HR_FAMILY | BT_FAMILY


class SequentialMove(_Frozen):
    _fields = ("rule", "site")
    __slots__ = (*_fields, "_hash")

    def __init__(self, rule: MoveRule, site: int):
        # the hash is stored, as digraph edges hash their moves many times over: one int
        # per (rule, site), the same in every process, so a pickled copy keeps it
        self._init(rule, site, site * len(RULE_ORDER) + RULE_ORDER.index(rule))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"{self.rule.value}@{self.site}"


class RulesetPolicy(_Frozen):
    """Which moves may fire, and under which conventions.

    ``hr_convention`` freezes every horizontal move whose source column has
    height 1 (so Boolean configurations stay put); ``hr_summary_strict``
    narrows the freeze to the isolated ``0,1,0`` pattern only, and so
    raises ``ValueError`` without ``hr_convention``, where it would do nothing.
    ``bt_height_floor`` is the minimum source height for bottom-up jumps;
    the floor is never below 1, so empty plateaus cannot fire.
    """

    _fields = ("enabled", "hr_convention", "hr_summary_strict", "bt_height_floor")
    # _moves, the move table: (left, mid, right) -> the (rule, step) pairs that fire there;
    # _interned, the interned moves: (rule, site) -> its one SequentialMove, shared by every image
    __slots__ = (*_fields, "_moves", "_interned")

    def __init__(
        self,
        enabled: frozenset[MoveRule] = ALL_RULES,
        hr_convention: bool = True,
        hr_summary_strict: bool = False,
        bt_height_floor: int = 1,
    ):
        enabled = frozenset(enabled)
        if not enabled:
            raise ValueError("policy must enable at least one rule")
        for rule in enabled:
            if not isinstance(rule, MoveRule):
                raise TypeError(f"enabled rules must be MoveRule members, got {rule!r}")
        # operator.index accepts integers only: 1.5 raises instead of acting as 2
        floor = operator.index(bt_height_floor)
        if floor < 1:
            raise ValueError("bt_height_floor must be at least 1")
        if hr_summary_strict and not hr_convention:
            raise ValueError("hr_summary_strict narrows hr_convention, which is off")
        self._init(enabled, hr_convention, hr_summary_strict, floor, {}, {})


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


def _successors(values: tuple[int, ...], offset: int, policy: RulesetPolicy):
    """(move, values, offset) of every move applicable to a trimmed state, by site then rule order.

    Each image is given by its trimmed values and offset, spliced by
    ``_splice``; no ``Configuration`` is built.  The moves are interned in the
    policy: every image of a rule at a site shares one ``SequentialMove``.
    """
    padded = (0, *values, 0)
    lo = offset - 1  # lattice cell of padded[0]
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


def _predecessors(values: tuple[int, ...], offset: int, policy: RulesetPolicy):
    """(values, offset) of every state with an applicable move onto the given trimmed state.

    A move shifts one granule by one cell, so the candidates are the state
    with one granule of a cell ``j`` shifted back to ``j - step``.  A
    candidate is kept only if the move table lists a move with that step at
    its source site, so ``_guard`` alone decides which moves fire.
    """
    padded = (0, 0, *values, 0, 0)
    lo = offset - 2  # lattice cell of padded[0]
    table = policy._moves
    out = []
    for j in range(2, len(padded) - 2):
        if not padded[j]:
            continue
        # the candidate's (left, mid, right) at its source j - step, which holds the granule
        for step, triple in (
            (1, (padded[j - 2], padded[j - 1] + 1, padded[j] - 1)),
            (-1, (padded[j] - 1, padded[j + 1] + 1, padded[j + 2])),
        ):
            moves = table.get(triple)
            if moves is None:
                moves = _moves_at(triple, policy)
            if any(s == step for _, s in moves):
                vals = list(padded)
                vals[j - step] += 1
                vals[j] -= 1
                # the source may sit one cell off the support, and cell j may empty at an end
                start = 1 if vals[1] else 2 if vals[2] else 3
                stop = len(vals) - (1 if vals[-2] else 2 if vals[-3] else 3)
                out.append((tuple(vals[start:stop]), lo + start))
    return out


def applicable_moves(c: Configuration, policy: RulesetPolicy) -> list[SequentialMove]:
    """All moves whose guards hold, ascending by site then rule order."""
    return [move for move, _, _ in _successors(c.values, c.offset, policy)]


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
        return Configuration._of_ints(*_splice(padded, lo, i, _STEP[move.rule]))
    raise InapplicableMove(f"{move} does not apply to {c}")


DEFAULT_NODE_CAP = 10**6


class TransitionDigraph(NamedTuple):
    """Deduplicated state graph of sequential rewrites from a root."""

    root: Configuration
    nodes: tuple[Configuration, ...]
    edges: tuple[tuple[Configuration, SequentialMove, Configuration], ...]
    equilibria: tuple[Configuration, ...]
    levels: dict[Configuration, int]
    node_cap_reached: bool
    quotient_translations: bool = False


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
    _check_caps(node_cap, depth_cap)
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
        successors = _successors(cur.values, cur.offset, policy)
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
            succ = Configuration._of_ints(values, offset)
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


def _check_caps(node_cap: int, depth_cap: int | None) -> None:
    # operator.index accepts integers only: a cap of 2.5 raises instead of acting as 3
    if operator.index(node_cap) < 1:
        raise ValueError("node_cap must be positive")
    if depth_cap is not None and operator.index(depth_cap) < 0:
        raise ValueError(f"depth_cap must be non-negative, got {depth_cap}")


def _numbered(d: TransitionDigraph):
    """``{node: i}`` over ``d.nodes``, and the edges as ``(i, move, j)``.

    It hashes each node and each edge end once; the path engines run on the indices after it.
    """
    index = {node: i for i, node in enumerate(d.nodes)}
    return index, [(index[a], move, index[b]) for a, move, b in d.edges]


def _kahn(links: list[list]) -> list[int] | None:
    """The nodes of ``links`` in a topological order, or None if they have a cycle.

    ``links[i]`` lists node ``i``'s ``(label, next)`` pairs.  Kahn's
    algorithm: a node is placed once all its in-links are.
    """
    indegree = [0] * len(links)
    for out in links:
        for _, b in out:
            indegree[b] += 1
    order = [i for i, degree in enumerate(indegree) if not degree]
    for a in order:  # the list grows as in-degrees drop to zero
        for _, b in links[a]:
            indegree[b] -= 1
            if not indegree[b]:
                order.append(b)
    return order if len(order) == len(links) else None


def enumerate_paths(
    d: TransitionDigraph, target: Configuration, max_paths: int | None = None
) -> list[tuple[SequentialMove, ...]]:
    """All distinct simple paths root -> target, or the first ``max_paths`` of them.

    Paths are move sequences; the empty path is returned when the target is
    the root.  An absent target, or ``max_paths=0``, yields no paths.  On a
    digraph with a cycle the walk enters a node only if the target can still be
    reached from it off the path so far (Read & Tarjan 1975), so the time
    between two paths is polynomial in the digraph's size.
    """
    _check_max_paths(max_paths)
    index, edges = _numbered(d)
    goal = index.get(target)
    if goal is None or max_paths == 0:
        return []
    reverse: list[list[int]] = [[] for _ in index]
    for a, _, b in edges:
        reverse[b].append(a)
    # walk only through nodes that can still reach the target
    ancestor = bytearray(len(index))
    ancestor[goal] = 1
    frontier = [goal]
    while frontier:
        for prev in reverse[frontier.pop()]:
            if not ancestor[prev]:
                ancestor[prev] = 1
                frontier.append(prev)
    links: list[list[tuple[SequentialMove, int]]] = [[] for _ in index]
    for a, move, b in edges:
        if ancestor[b]:
            links[a].append((move, b))
    acyclic = _kahn(links) is not None
    return _walk_paths(index[d.root], goal, links, max_paths, None if acyclic else reverse)


def _walk_paths(start: int, goal: int, links: list[list], max_paths: int | None, reverse=None):
    """Simple paths start -> goal as move tuples, in DFS preorder, at most ``max_paths``.

    ``links[i]`` lists node ``i``'s ``(move, next)`` pairs in edge order.
    ``reverse`` is None when they are acyclic: then each run of nodes with a
    single link is folded into one link that carries the run's moves, so the
    walk pushes a node only where it branches.  With a cycle, ``reverse[i]``
    lists the nodes with a link into ``i``, and ``_OffPath`` keeps each path
    simple and drops the links into branches that hold no path.
    """
    if start == goal:
        return [()]
    stack: list = []
    if reverse is None:  # past the start, the walk stops only at a branch or at the goal
        chains = [
            [_fold(links, move, b) for move, b in out] if i == start or len(out) > 1 else ()
            for i, out in enumerate(links)
        ]
    else:
        chains = _OffPath(links, reverse, goal, stack)
    paths: list[tuple[SequentialMove, ...]] = []
    trail: list[SequentialMove] = []
    # iterative DFS: a frame per pushed node, with the trail's length before it and its chains;
    # no chain leads back onto the path, so the frames stay valid as the walk returns to them
    stack.append((start, 0, iter(chains[start])))
    while stack:
        for moves, succ in stack[-1][2]:
            if succ == goal:  # a simple path ends at the goal
                paths.append((*trail, *moves))
                if len(paths) == max_paths:
                    return paths
                continue
            stack.append((succ, len(trail), iter(chains[succ])))
            trail += moves
            break
        else:
            del trail[stack.pop()[1] :]
    return paths


class _OffPath:
    """``self[i]``, read as node ``i`` joins the walk's path on ``stack``: ``i``'s one-move
    chains into the nodes from which the goal can be reached without passing ``i`` or the path.

    One backward sweep from the goal finds those nodes; every other link leads
    back onto the path or into a branch that holds no path.
    """

    def __init__(self, links: list[list], reverse: list[list[int]], goal: int, stack: list):
        self.links, self.reverse, self.goal, self.stack = links, reverse, goal, stack

    def __getitem__(self, node: int) -> list[tuple[tuple[SequentialMove], int]]:
        # the path's nodes start marked 1, so the sweep never enters them; reached nodes get 2
        mark = bytearray(len(self.links))
        for frame in self.stack:
            mark[frame[0]] = 1
        mark[node] = 1
        mark[self.goal] = 2
        frontier = [self.goal]
        while frontier:
            for prev in self.reverse[frontier.pop()]:
                if not mark[prev]:
                    mark[prev] = 2
                    frontier.append(prev)
        return [((move,), b) for move, b in self.links[node] if mark[b] == 2]


def _fold(links: list[list], move: SequentialMove, b: int):
    """``(moves, end)``: the link ``move`` to ``b``, run on through single-link nodes."""
    moves = [move]
    while len(links[b]) == 1:
        move, b = links[b][0]
        moves.append(move)
    return tuple(moves), b


def _check_max_paths(max_paths: int | None) -> None:
    # operator.index accepts integers only: 1.5 raises instead of listing every path
    if max_paths is not None and operator.index(max_paths) < 0:
        raise ValueError(f"max_paths must be non-negative, got {max_paths}")


def count_paths(d: TransitionDigraph, target: Configuration) -> int:
    """Number of root -> target paths: ``len(enumerate_paths(d, target))`` without a cap.

    A dynamic programme over ``d.edges`` in topological order, so O(edges);
    distinct moves between the same two states count as distinct paths.
    Counting simple paths through cycles is #P-hard, so a digraph with a
    cycle raises ``ValueError``.  An absent target has no paths.
    """
    index, edges = _numbered(d)
    successors: list[list[tuple[SequentialMove, int]]] = [[] for _ in index]
    for a, move, b in edges:
        successors[a].append((move, b))
    order = _kahn(successors)
    if order is None:
        raise ValueError("the digraph has a cycle; paths are counted on acyclic digraphs only")
    ways = [0] * len(index)
    ways[index[d.root]] = 1
    for a in order:  # a node's count is final once all its in-edges are counted
        for _, b in successors[a]:
            ways[b] += ways[a]
    goal = index.get(target)
    return 0 if goal is None else ways[goal]


class DecompositionResult(NamedTuple):
    """Outcome of a bounded search for move sequences source -> target."""

    reachable: bool
    paths: tuple[tuple[SequentialMove, ...], ...]
    explored_nodes: int
    budget_exceeded: bool
    depth: int | None
    path_count: int | None = None  # all the geodesics, when paths were asked for


def _other_total(source: Configuration, target: Configuration) -> DecompositionResult | None:
    """Exact "not reachable" when the totals differ, which every move keeps; else None."""
    if source.total() == target.total():
        return None
    return DecompositionResult(False, (), 0, False, None)


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
    when ``budget_exceeded`` is False: the whole reachable space was
    enumerated within the caps, or the totals differ and nothing was searched.
    """
    _check_max_paths(max_paths)
    _check_caps(node_cap, depth_cap)
    if (certified := _other_total(source, target)) is not None:
        return certified
    d = _bfs(source, policy, node_cap, _depth_cap(source, depth_cap), target=target)
    if target in d.levels:
        paths, count = ((), None) if max_paths == 0 else _geodesics(d, target, max_paths)
        return DecompositionResult(True, paths, len(d.nodes), False, d.levels[target], count)
    return DecompositionResult(False, (), len(d.nodes), d.node_cap_reached, None)


def _depth_cap(source: Configuration, depth_cap: int | None) -> int:
    """The given depth cap, or the default ``max(2n², 8)`` for a source of total n."""
    if depth_cap is not None:
        return depth_cap
    n = source.total()
    return max(2 * n * n, 8)


def _meet(
    source: Configuration,
    target: Configuration,
    policy: RulesetPolicy,
    depth_cap: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> DecompositionResult:
    """Shortest length source -> target, searched from both ends until the two sides meet.

    Level-synchronous meet in the middle (Pohl 1971) over raw ``(values,
    offset)`` keys: each round expands the smaller frontier by one level,
    forward by ``_successors`` or backward by ``_predecessors``, and the
    search ends at the first state it reaches on the other side.

    The verdict is exact when the sides meet, when either frontier empties
    (an exhausted closure), or when the totals differ (every move keeps the
    total; nothing is stored).  Otherwise the node cap, which counts the
    states stored on both sides, or the depth cap, which bounds the forward
    plus backward levels, stopped the search with both frontiers non-empty:
    ``budget_exceeded``.  Both ends are stored first, so a node cap of 1
    stops the search before its first level.  The result carries no paths.
    """
    _check_caps(node_cap, depth_cap)
    if (certified := _other_total(source, target)) is not None:
        return certified
    depth_cap = _depth_cap(source, depth_cap)
    start, goal = (source.values, source.offset), (target.values, target.offset)
    if start == goal:
        return DecompositionResult(True, (), 1, False, 0)
    sides = ({start}, {goal})  # the states stored forward and backward
    fronts = [[start], [goal]]  # the states of each side's last level
    depths = [0, 0]
    capped = node_cap < 2  # the node cap cut a level short; here, no room for both ends
    while all(fronts) and not capped and sum(depths) < depth_cap:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        seen, other = sides[side], sides[1 - side]
        new = []
        for values, offset in fronts[side]:
            if side:
                images = _predecessors(values, offset, policy)
            else:
                images = [(v, o) for _, v, o in _successors(values, offset, policy)]
            for key in images:
                if key in other:
                    # after each complete level the sides are disjoint, so the shortest
                    # length exceeds both depths: this first meet gives it exactly
                    stored = len(seen) + len(other)
                    return DecompositionResult(True, (), stored, False, sum(depths) + 1)
                if key not in seen:
                    if len(seen) + len(other) >= node_cap:
                        capped = True
                    else:
                        seen.add(key)
                        new.append(key)
        fronts[side] = new
        depths[side] += 1
    stored = len(sides[0]) + len(sides[1])
    # an empty frontier is an exhausted closure; the depth cap stops with both non-empty
    return DecompositionResult(False, (), stored, capped or all(fronts), None)


def _geodesics(d: TransitionDigraph, target: Configuration, max_paths: int):
    """Up to ``max_paths`` shortest paths, depth first in parent order, and their full count.

    A node's parents are the sources of its edges from the level above, in
    discovery order; the walk runs from the target up to the root, and the
    parent links, which always climb a level, are acyclic.  The count sums
    each node's parents' counts, over the nodes in BFS order.
    """
    index, edges = _numbered(d)
    level = [d.levels[node] for node in d.nodes]
    parents: list[list[tuple[SequentialMove, int]]] = [[] for _ in index]
    for a, move, b in edges:
        if level[b] == level[a] + 1:
            parents[b].append((move, a))
    ways = [1]  # the root, d.nodes[0]
    for links in parents[1:]:  # a node's parents come before it, on the level above
        ways.append(sum(ways[a] for _, a in links))
    goal = index[target]
    paths = _walk_paths(goal, 0, parents, max_paths)
    return tuple(path[::-1] for path in paths), ways[goal]


NECESSITY_FAMILIES: tuple[tuple[str, frozenset[MoveRule]], ...] = (
    ("VR", VR_FAMILY),
    ("VR+HR", VR_FAMILY | HR_FAMILY),
    ("VR+HR+BT", ALL_RULES),
)


class NecessityReport(NamedTuple):
    """Reachability of a target under the nested move families.

    A row with ``reachable`` and ``budget_exceeded`` both set belongs to a
    family larger than ``minimal_family``: it holds that family's path, but
    its node cap ran out before its own shortest length was found (``depth``
    None).
    """

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

    Each family runs under ``policy``'s conventions with its own moves, searched
    from both ends by ``_meet``; the rows carry no paths.  Once a family
    reaches the target at depth L, the larger ones search to depth L only:
    a move's guard does not depend on the other enabled moves, so they hold its path.
    """
    rows = []
    minimal = None
    for name, family in NECESSITY_FAMILIES:
        family_policy = RulesetPolicy(
            family, policy.hr_convention, policy.hr_summary_strict, policy.bt_height_floor
        )
        result = _meet(source, target, family_policy, depth_cap, node_cap)
        if minimal is None:
            if result.reachable:
                minimal, depth_cap = name, result.depth
        elif not result.reachable:  # the node cap cut the search short of depth L
            result = result._replace(reachable=True)
        rows.append((name, result))
    return NecessityReport(tuple(rows), minimal)


class SpmOrbitSummary(NamedTuple):
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
