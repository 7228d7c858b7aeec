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
from itertools import chain, repeat
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
        if not isinstance(rule, MoveRule):
            raise TypeError(f"rule must be a MoveRule member, got {rule!r}")
        site = operator.index(site)  # integers only: a site of 0.0 raises instead of acting as 0
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
    # _moves and _back, the forward and backward move tables: (left, mid, right) -> the
    # (rule, lose, gain) entries that fire there (``_moves_at``);
    # _interned, the interned moves: (rule, site) -> its one SequentialMove, shared by every image
    __slots__ = (*_fields, "_moves", "_back", "_interned")

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
        self._init(enabled, hr_convention, hr_summary_strict, floor, {}, {}, {})


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
    triple: tuple[int, int, int], policy: RulesetPolicy, back: bool
) -> tuple[tuple[MoveRule, int, int], ...]:
    """The (rule, lose, gain) entries of the enabled rules that fire at ``triple``, in rule order.

    ``lose`` and ``gain`` are the offsets from the centre of the cells that
    lose and gain a granule: ``(0, step)`` forward, at a state's triple around
    a source, and ``(step, 0)`` backward, at an image's.  Before a rightward
    move that triple was ``(left, mid + 1, right - 1)``, before a leftward one
    ``(left - 1, mid + 1, right)``, and the destination holds the granule.
    ``_guard`` alone fills the policy's two tables, the first time a triple is seen.
    """
    left, mid, right = triple
    entries = []
    for rule in RULE_ORDER:
        step = _STEP[rule]
        if rule not in policy.enabled:
            continue
        if not back:
            if _guard(rule, left, mid, right, policy):
                entries.append((rule, 0, step))
        elif (right if step > 0 else left) and _guard(
            rule, left - (step < 0), mid + 1, right - (step > 0), policy
        ):
            entries.append((rule, step, 0))
    moves = (policy._back if back else policy._moves)[triple] = tuple(entries)
    return moves


def _images(values: tuple[int, ...], offset: int, policy: RulesetPolicy, back: bool = False):
    """(move, values, offset) of every move out of a trimmed state, by site then rule order.

    With ``back``, of every move into it: the values and offset are then the
    state before the move.  Each image is given by its trimmed values and
    offset; no ``Configuration`` is built.  One lookup per ``(left, mid,
    right)`` triple of the zero-padded values, in the forward or the backward
    table, gives which cells lose and gain a granule.  When an inner cell loses
    it, no cell empties at an end or lies off the support, so the image is
    ``values`` with two cells changed, at the same offset; every other image is
    spliced from the padded values and re-trimmed.  The moves are interned in
    the policy: every image of a rule at a site shares one ``SequentialMove``.
    """
    padded = (0, 0, *values, 0, 0)
    last = len(values) - 1  # i indexes values: the cells from 1 to last - 1 are inner
    first = -1 if back else 0  # a move fires from the support; backward its source may lie one off
    triples = zip(padded[first + 1 :], padded[first + 2 : last + 3 - first], padded[first + 3 :])
    table, interned = policy._back if back else policy._moves, policy._interned
    out = []
    for i, triple in enumerate(triples, first):
        moves = table.get(triple)
        if moves is None:
            moves = _moves_at(triple, policy, back)
        for rule, lose, gain in moves:
            move = interned.get((rule, offset + i))
            if move is None:
                move = interned[rule, offset + i] = SequentialMove(rule, offset + i)
            lose += i
            if 0 < lose < last:  # nothing to trim, and the offset stays
                vals = list(values)
                vals[lose] -= 1
                vals[i + gain] += 1
                out.append((move, tuple(vals), offset))
            else:
                vals = list(padded)
                vals[lose + 2] -= 1
                vals[i + gain + 2] += 1
                # the losing cell may empty at an end, and the gaining one lie just off the support
                head = 1 if vals[1] else 2 if vals[2] else 3
                tail = len(vals) - (1 if vals[-2] else 2 if vals[-3] else 3)
                out.append((move, tuple(vals[head:tail]), offset - 2 + head))
    return out


def applicable_moves(c: Configuration, policy: RulesetPolicy) -> list[SequentialMove]:
    """All moves whose guards hold, ascending by site then rule order."""
    return [move for move, _, _ in _images(c.values, c.offset, policy)]


def apply_move(
    c: Configuration, move: SequentialMove, policy: RulesetPolicy | None = None
) -> Configuration:
    """Transfer one granule from the move's site to its destination cell.

    Without a policy only the move's intrinsic guard is checked; pass the
    policy in force to also enforce its conventions.
    """
    padded = (0, *c.values, 0)
    i = move.site - c.offset + 1
    # the move's own guard, whether its rule is enabled or not; every guard needs a
    # granule at the site, so a site off the support never applies
    if 0 < i < len(padded) - 1 and _guard(
        move.rule, *padded[i - 1 : i + 2], _NO_CONVENTIONS if policy is None else policy
    ):
        # a guard that holds under a policy's conventions holds without them, so the pass
        # under _NO_CONVENTIONS, which enables every rule, lists the move and its image
        for listed, values, offset in _images(c.values, c.offset, _NO_CONVENTIONS):
            if listed == move:
                return Configuration._of_ints(values, offset)
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
    Each node's successors are generated once.  A node at the depth cap is not
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
        successors = _images(cur.values, cur.offset, policy)
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


def _links(d: TransitionDigraph):
    """``{node: i}`` over ``d.nodes``, each node's ``(move, j)`` links in edge order, and
    ``reverse``: each node's ``i`` for every link ``i -> j`` into it.

    One pass over the edges hashes each edge end once; the path engines run on the indices.
    """
    index = {node: i for i, node in enumerate(d.nodes)}
    links, reverse = [[] for _ in index], [[] for _ in index]
    for a, move, b in d.edges:
        i, j = index[a], index[b]
        links[i].append((move, j))
        reverse[j].append(i)
    return index, links, reverse


def _counts(links: list[list], start: int) -> list[int] | None:
    """The number of paths from ``start`` to each node of ``links``, or None if they have a cycle.

    ``links[i]`` lists node ``i``'s ``(label, next)`` pairs.  Kahn's algorithm places a node
    once all its in-links are: its count is then final, and it is added along its out-links.
    """
    indegree = [0] * len(links)
    for out in links:
        for _, b in out:
            indegree[b] += 1
    order = [i for i, degree in enumerate(indegree) if not degree]
    ways = [0] * len(links)
    ways[start] = 1
    for a in order:  # the list grows as in-degrees drop to zero
        for _, b in links[a]:
            ways[b] += ways[a]
            indegree[b] -= 1
            if not indegree[b]:
                order.append(b)
    return ways if len(order) == len(links) else None


def _reaching(reverse: list[list[int]], goal: int, mark: bytearray) -> bytearray:
    """``mark`` with 2 set on ``goal`` and on every unmarked node that reaches it through
    unmarked nodes: one backward sweep over ``reverse``, which a marked node stops.
    """
    mark[goal] = 2
    frontier = [goal]
    while frontier:
        for prev in reverse[frontier.pop()]:
            if not mark[prev]:
                mark[prev] = 2
                frontier.append(prev)
    return mark


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
    index, links, reverse = _links(d)
    goal = index.get(target)
    if goal is None or max_paths == 0:
        return []
    # walk only through nodes that can still reach the target
    ancestor = _reaching(reverse, goal, bytearray(len(index)))
    links = [[(move, b) for move, b in out if ancestor[b]] for out in links]
    start = index[d.root]
    cyclic = _counts(links, start) is None  # the count is the acyclicity test
    return _walk_paths(start, goal, links, max_paths, reverse if cyclic else None)


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
        _reaching(self.reverse, self.goal, mark)
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
    index, links, _ = _links(d)
    ways = _counts(links, index[d.root])
    if ways is None:
        raise ValueError("the digraph has a cycle; paths are counted on acyclic digraphs only")
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


def decompose_parallel_transition(
    source: Configuration,
    target: Configuration,
    policy: RulesetPolicy,
    depth_cap: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    max_paths: int | None = 64,
) -> DecompositionResult:
    """Shortest move sequences source -> target, searched from both ends in rounds bounded by Φ.

    Φ(x, y) = Σ_c |F_x(c) − F_y(c)|, F the prefix sums, is the earth mover's
    distance on the line (Vallender 1973); a move changes it by exactly 1, so a
    path has at least Φ = Φ(source, target) moves, of Φ's parity.  Each round
    is a level-synchronous meet in the middle (Pohl 1971) over raw ``(values,
    offset)`` keys: it expands the smaller frontier by a level, forward or
    backward by ``_images``, each state's images by site then rule order (a
    predecessor by the site of the move out of it), and stops at the first
    state it reaches on the other side or when its forward plus backward
    levels reach its bound L.  A state g moves from its end is stored only if
    g plus its Φ to the other end is at most L.  Φ is consistent (Hart, Nilsson
    & Raphael 1968), so every state of a path of at most L moves passes at its
    true level: the first round with L at least the shortest length finds it,
    and its sides hold every geodesic.  The bounds are Φ, Φ+2, Φ+6, Φ+14, … up
    to the largest of Φ's parity within the depth cap (``_bounds``); one round
    that prunes none follows, unless the last bound was the cap itself and its
    round pruned nothing.  Up to ``max_paths`` geodesics are read off both sides
    by ``_geodesics``, in lexicographic order of their moves by site then rule
    order (the order of ``applicable_moves``); ``path_count`` says how many
    exist (None, with no paths, for ``max_paths=0``).

    The verdict is exact when the sides meet, when a side's closure is
    exhausted in a round that pruned nothing on it (its frontier empties, or
    has no move off it when the round stops), or when the totals differ
    (nothing is stored).  Otherwise the node cap, on the states stored on both
    sides in one round, or the depth cap, on the forward plus backward levels,
    stopped the search: ``budget_exceeded``.  ``explored_nodes`` counts the
    states stored in the last round; both ends are stored first, so a node cap
    of 1 stops the search before its first level.
    """
    _check_max_paths(max_paths)
    _check_caps(node_cap, depth_cap)
    if source.total() != target.total():
        return DecompositionResult(False, (), 0, False, None)
    if depth_cap is None:  # the default, max(2n², 8) for a source of total n
        depth_cap = max(2 * source.total() ** 2, 8)
    start, goal = (source.values, source.offset), (target.values, target.offset)
    if start == goal:  # the empty path
        paths, count = ((), None) if max_paths == 0 else (((),), 1)
        return DecompositionResult(True, paths, 1, False, 0, count)
    ends = (_granules(*goal), _granules(*start))  # each side's Φ is to the other side's end
    phi = _potential(start, ends[0])
    for bound in _bounds(phi, depth_cap):
        sides = ({start: 0}, {goal: 0})  # the states stored forward and backward, with their levels
        fronts = [[start], [goal]]  # the states of each side's last level
        depths = [0, 0]
        pruned = [False, False]
        capped = node_cap < 2  # the node cap cut a level short; here, no room for both ends
        stop = depth_cap if bound is None else bound
        while all(fronts) and not capped and sum(depths) < stop:
            side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
            seen, other, end = sides[side], sides[1 - side], ends[side]
            level = depths[side] + 1
            room = None if bound is None else bound - level  # the largest Φ a new state may have
            new = []
            for state in fronts[side]:
                for _, values, offset in _images(*state, policy, side):
                    key = values, offset
                    if key in other:
                        # after each complete level the sides are disjoint, and every state of a
                        # geodesic is on them at its level: this first meet gives the length
                        stored, length = len(seen) + len(other), sum(depths) + 1
                        paths, count = _geodesics(sides, fronts[0], depths, policy, max_paths)
                        return DecompositionResult(True, paths, stored, False, length, count)
                    if key not in seen:
                        if room is not None and _potential(key, end) > room:
                            pruned[side] = True
                        elif len(seen) + len(other) >= node_cap:
                            capped = True
                        else:
                            seen[key] = level
                            new.append(key)
            fronts[side] = new
            depths[side] = level
        stored = len(sides[0]) + len(sides[1])
        if capped:
            return DecompositionResult(False, (), stored, True, None)
        # a side's closure is exhausted when its frontier empties, or has no move off it,
        # in a round that pruned nothing on that side
        if any(
            not pruned[side] and not any(_images(*key, policy, side) for key in fronts[side])
            for side in (0, 1)
        ):
            return DecompositionResult(False, (), stored, False, None)
        if bound is None or bound == depth_cap and not any(pruned):
            return DecompositionResult(False, (), stored, True, None)


def _bounds(phi: int, depth_cap: int):
    """The bounds of the rounds of ``decompose_parallel_transition``, then None: a round unpruned.

    The slack over Φ doubles and grows by 2: Φ, Φ+2, Φ+6, Φ+14, …, clipped to
    the largest bound within the depth cap that has Φ's parity.  A state's
    level plus its Φ always has Φ's parity, so a bound of the other parity
    prunes as the one below it does; no bound is run twice.
    """
    top = depth_cap - (depth_cap - phi) % 2
    bound = phi
    while bound < top:
        yield bound
        bound = min(2 * bound - phi + 2, top)
    if bound == top:
        yield bound
    yield None


def _granules(values: tuple[int, ...], offset: int) -> list[int]:
    """The cells of a state's granules in ascending order, one entry per granule."""
    return list(chain.from_iterable(map(repeat, range(offset, offset + len(values)), values)))


def _potential(key: tuple[tuple[int, ...], int], granules: list[int]) -> int:
    """Φ between the state ``key`` and the state of ``granules``, of the same total.

    On the line the earth mover's distance matches the k-th granule of one
    state to the k-th of the other, so Φ = Σ_c |F_x(c) − F_y(c)| is the sum
    of their distances.
    """
    return sum(map(abs, map(operator.sub, _granules(*key), granules)))


def _geodesics(sides, front, depths, policy: RulesetPolicy, max_paths: int | None):
    """Up to ``max_paths`` geodesics at the first meet, in move order, and their full count.

    ``sides`` map the states stored forward and backward to their levels,
    complete and disjoint up to ``depths = (a, b)``, and ``front`` is forward
    level a; every geodesic has length ``a + b + 1``.  Its first a states are
    the level-a states with a move into backward level b and, level by level
    below them, their forward parents; past level a each move steps down one
    backward level.  The DAG of those links is built breadth first from the
    source, each node's links in ``_images`` order, so the walk lists the
    paths in lexicographic move order, and ``_counts`` counts them over the
    same links.  ``max_paths=0`` builds no DAG and gives ``((), None)``.
    """
    if max_paths == 0:
        return (), None
    fwd, rest = sides  # rest: the moves left to the target; the backward levels give them
    a, b = depths
    layer = [
        key
        for key in front
        if any(rest.get((v, o)) == b for _, v, o in _images(*key, policy))
    ]
    rest.update(dict.fromkeys(layer, b + 1))
    for g in range(a - 1, -1, -1):
        images = (image for key in layer for image in _images(*key, policy, True))
        layer = {(v, o) for _, v, o in images if fwd.get((v, o)) == g}
        rest.update(dict.fromkeys(layer, a + b + 1 - g))
    start, goal = next(iter(fwd)), next(iter(rest))  # each side's first key is its end
    index = {start: 0}
    keys = [start]
    links: list[list[tuple[SequentialMove, int]]] = []
    for key in keys:  # the list grows as the BFS discovers nodes
        left = rest[key] - 1
        out = []
        for move, values, offset in _images(*key, policy):
            succ = (values, offset)
            if rest.get(succ) == left:
                i = index.get(succ)
                if i is None:
                    i = index[succ] = len(keys)
                    keys.append(succ)
                out.append((move, i))
        links.append(out)
    end = index[goal]
    return tuple(_walk_paths(0, end, links, max_paths)), _counts(links, 0)[end]


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
    by ``decompose_parallel_transition`` with ``max_paths=0``, so the rows carry
    no paths.  Once a family reaches the target at depth L, the larger ones
    search to depth L only: a move's guard does not depend on the other enabled
    moves, so they hold its path.
    """
    rows = []
    minimal = None
    for name, family in NECESSITY_FAMILIES:
        family_policy = RulesetPolicy(
            family, policy.hr_convention, policy.hr_summary_strict, policy.bt_height_floor
        )
        result = decompose_parallel_transition(
            source, target, family_policy, depth_cap, node_cap, max_paths=0
        )
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
