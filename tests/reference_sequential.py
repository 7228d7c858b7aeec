"""The sequential engine's guard and its two breadth-first searches, as first written.

A differential oracle for the one-guard, one-BFS core of ``sandlab.sequential``:
``_guard_holds`` reads every cell through a ``value_at`` closure,
``explore_digraph`` runs a deque BFS and finds equilibria in a second pass,
``decompose_parallel_transition`` runs its own level loop with a parents
map, and ``enumerate_paths`` walks a dict of ``Configuration``-keyed links,
hashing a state at each step.  ``budget_exceeded`` here is set whenever the depth cap leaves a
non-empty frontier, even one of equilibria only.  The module-level
``direction`` stands in for the ``MoveRule.direction`` property the guard read,
and ``reference_rules.cells`` for the iteration over a ``LatticeWindow``.
``predecessors`` undoes each move by hand and keeps the states ``apply_move``
takes back to the given one.
``potential`` is Φ, the lower bound on path lengths that prunes the
library's two-sided search, summed cell by cell from running sums.
"""

from __future__ import annotations

from collections import deque

from reference_rules import cells
from sandlab.pile import Configuration
from sandlab.sequential import (
    DEFAULT_NODE_CAP,
    DecompositionResult,
    InapplicableMove,
    MoveRule,
    RULE_ORDER,
    RulesetPolicy,
    SequentialMove,
    TransitionDigraph,
)


def direction(rule: MoveRule) -> int:
    """+1 when the granule moves right, -1 when it moves left."""
    return 1 if rule.name.endswith("_D") else -1


def _guard_holds(c: Configuration, rule: MoveRule, x: int, policy: RulesetPolicy | None) -> bool:
    v = c.value_at
    if rule is MoveRule.VR_D:
        return v(x) - v(x + 1) >= 2
    if rule is MoveRule.VR_S:
        return v(x) - v(x - 1) >= 2
    if rule in (MoveRule.HR_D, MoveRule.HR_S):
        other = x + direction(rule)
        if v(x) != v(other) + 1:
            return False
        if policy is not None and policy.hr_convention:
            if policy.hr_summary_strict:
                if (v(x - 1), v(x), v(x + 1)) == (0, 1, 0):
                    return False
            elif v(x) == 1:
                return False
        return True
    # bottom-up jump onto an equal-height neighbour
    floor = policy.bt_height_floor if policy is not None else 1
    return v(x) >= floor and v(x) == v(x + direction(rule)) and v(x) >= 1


def applicable_moves(c: Configuration, policy: RulesetPolicy) -> list[SequentialMove]:
    """All moves whose guards hold, ascending by site then rule order."""
    if c.is_zero:
        return []
    moves = []
    for x in cells(c.support):
        for rule in RULE_ORDER:
            if rule in policy.enabled and _guard_holds(c, rule, x, policy):
                moves.append(SequentialMove(rule, x))
    return moves


def apply_move(
    c: Configuration, move: SequentialMove, policy: RulesetPolicy | None = None
) -> Configuration:
    """Transfer one granule from the move's site to its destination cell.

    Without a policy only the move's intrinsic guard is checked; pass the
    policy in force to also enforce its conventions.
    """
    if not _guard_holds(c, move.rule, move.site, policy):
        raise InapplicableMove(f"{move} does not apply to {c}")
    src = move.site
    dst = src + direction(move.rule)
    lo = min(c.support.lo, dst)
    hi = max(c.support.hi, dst)
    vals = c.window_values(lo, hi)
    vals[src - lo] -= 1
    vals[dst - lo] += 1
    return Configuration(vals, lo)


def predecessors(
    c: Configuration, policy: RulesetPolicy
) -> list[tuple[SequentialMove, Configuration]]:
    """(move, state) of every state that an enabled move takes to ``c``, by site then rule order.

    Each cell from one left of the support to one right of it, as a source,
    takes a granule back from each rule's destination; the state so made is
    kept when ``apply_move`` maps it to ``c`` under the policy.
    """
    if c.is_zero:
        return []
    out = []
    for x in range(c.support.lo - 1, c.support.hi + 2):
        for rule in RULE_ORDER:
            dst = x + direction(rule)
            if rule not in policy.enabled or c.value_at(dst) < 1:
                continue
            lo, hi = min(c.support.lo, x), max(c.support.hi, x)
            vals = c.window_values(lo, hi)
            vals[x - lo] += 1
            vals[dst - lo] -= 1
            before, move = Configuration(vals, lo), SequentialMove(rule, x)
            try:
                if apply_move(before, move, policy) == c:
                    out.append((move, before))
            except InapplicableMove:
                pass
    return out


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
    if node_cap < 1:
        raise ValueError("node_cap must be positive")

    def key(c: Configuration):
        return c.values if quotient_translations else c

    seen: dict[object, Configuration] = {key(c0): c0}
    levels: dict[Configuration, int] = {c0: 0}
    nodes: list[Configuration] = [c0]
    edges: list[tuple[Configuration, SequentialMove, Configuration]] = []
    truncated = False
    queue: deque[Configuration] = deque([c0])
    while queue:
        cur = queue.popleft()
        if depth_cap is not None and levels[cur] >= depth_cap:
            if applicable_moves(cur, policy):
                truncated = True
            continue
        for move in applicable_moves(cur, policy):
            succ = apply_move(cur, move)
            k = key(succ)
            rep = seen.get(k)
            if rep is not None:
                edges.append((cur, move, rep))
                continue
            if len(nodes) >= node_cap:
                truncated = True
                continue
            seen[k] = succ
            levels[succ] = levels[cur] + 1
            nodes.append(succ)
            edges.append((cur, move, succ))
            queue.append(succ)
    equilibria = tuple(n for n in nodes if not applicable_moves(n, policy))
    return TransitionDigraph(
        root=c0,
        nodes=tuple(nodes),
        edges=tuple(edges),
        equilibria=equilibria,
        levels=levels,
        node_cap_reached=truncated,
        quotient_translations=quotient_translations,
    )


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
    ``max_paths``) are reconstructed.  ``reachable=False`` is conclusive only
    when ``budget_exceeded`` is False, i.e. the whole reachable space was
    enumerated within the caps.  ``path_count`` sums each state's parents' counts
    in discovery order (None for ``max_paths=0``).
    """
    if depth_cap is None:
        n = source.total()
        depth_cap = max(2 * n * n, 8)
    parents: dict[Configuration, list[tuple[Configuration, SequentialMove]]] = {source: []}
    depth = {source: 0}
    frontier = [source]
    budget = False
    level = 0
    while frontier and target not in depth and level < depth_cap:
        nxt: list[Configuration] = []
        for cur in frontier:
            for move in applicable_moves(cur, policy):
                succ = apply_move(cur, move)
                if succ in depth:
                    if depth[succ] == level + 1:
                        parents[succ].append((cur, move))
                    continue
                if len(depth) >= node_cap:
                    budget = True
                    continue
                depth[succ] = level + 1
                parents[succ] = [(cur, move)]
                nxt.append(succ)
        frontier = nxt
        level += 1
    if target in depth:
        paths = _geodesics(parents, source, target, max_paths)
        ways = {}
        for node, links in parents.items():  # a state's parents were discovered before it
            ways[node] = sum(ways[prev] for prev, _ in links) if links else 1
        count = None if max_paths == 0 else ways[target]
        return DecompositionResult(True, tuple(paths), len(depth), False, depth[target], count)
    if frontier:
        budget = True  # stopped by the depth cap with unexplored states left
    return DecompositionResult(False, (), len(depth), budget, None)


def _geodesics(parents, source, target, max_paths):
    """Up to ``max_paths`` shortest paths (all for None), depth first in parent order, no recursion.

    A stack entry holds a node and its path to the target as nested (move, rest) pairs.
    """
    paths: list[tuple[SequentialMove, ...]] = []
    stack = [(target, None)]
    while stack and (max_paths is None or len(paths) < max_paths):
        node, suffix = stack.pop()
        if node == source:
            path = []
            while suffix is not None:
                move, suffix = suffix
                path.append(move)
            paths.append(tuple(path))
        else:  # pushed reversed, so the first parent is expanded first
            stack.extend((prev, (move, suffix)) for prev, move in reversed(parents[node]))
    return paths


def potential(a: Configuration, b: Configuration) -> int:
    """Φ(a, b) = Σ_x |F_a(x) − F_b(x)|, with F the running sum of the cells up to x.

    Summed cell by cell over one window holding both supports; outside it the
    two running sums are equal (0 to the left, the common total to the right).
    Every move changes one running sum by one, so every path a -> b has at
    least Φ moves, and a number of moves of the parity of Φ.
    """
    if a.total() != b.total():
        raise ValueError(f"totals differ: {a.total()} vs {b.total()}")
    if a.is_zero:
        return 0
    lo = min(a.support.lo, b.support.lo)
    hi = max(a.support.hi, b.support.hi)
    running_a = running_b = gap = 0
    for u, v in zip(a.window_values(lo, hi), b.window_values(lo, hi)):
        running_a += u
        running_b += v
        gap += abs(running_a - running_b)
    return gap


def enumerate_paths(
    d: TransitionDigraph, target: Configuration, max_paths: int | None = None
) -> list[tuple[SequentialMove, ...]]:
    """All distinct simple paths root -> target, or the first ``max_paths`` of them.

    Paths are move sequences; the empty path is returned when the target is
    the root.  An absent target, or ``max_paths=0``, yields no paths.
    """
    if max_paths is not None and max_paths < 0:
        raise ValueError(f"max_paths must be non-negative, got {max_paths}")
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
