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

from collections import deque
from dataclasses import dataclass, replace
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

    @property
    def direction(self) -> int:
        """+1 when the granule moves right, -1 when it moves left."""
        return 1 if self.name.endswith("_D") else -1


RULE_ORDER: tuple[MoveRule, ...] = tuple(MoveRule)

VR_FAMILY = frozenset({MoveRule.VR_D, MoveRule.VR_S})
HR_FAMILY = frozenset({MoveRule.HR_D, MoveRule.HR_S})
BT_FAMILY = frozenset({MoveRule.BT_D, MoveRule.BT_S})
ALL_RULES = VR_FAMILY | HR_FAMILY | BT_FAMILY


@dataclass(frozen=True)
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
    narrows the freeze to the isolated ``0,1,0`` pattern only.
    ``bt_height_floor`` is the minimum source height for bottom-up jumps;
    the floor is never below 1, so empty plateaus cannot fire.
    """

    enabled: frozenset[MoveRule] = ALL_RULES
    hr_convention: bool = True
    hr_summary_strict: bool = False
    bt_height_floor: int = 1

    def __post_init__(self):
        enabled = frozenset(self.enabled)
        if not enabled:
            raise ValueError("policy must enable at least one rule")
        if self.bt_height_floor < 1:
            raise ValueError("bt_height_floor must be at least 1")
        object.__setattr__(self, "enabled", enabled)


def _guard_holds(c: Configuration, rule: MoveRule, x: int, policy: RulesetPolicy | None) -> bool:
    v = c.value_at
    if rule is MoveRule.VR_D:
        return v(x) - v(x + 1) >= 2
    if rule is MoveRule.VR_S:
        return v(x) - v(x - 1) >= 2
    if rule in (MoveRule.HR_D, MoveRule.HR_S):
        other = x + rule.direction
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
    return v(x) >= floor and v(x) == v(x + rule.direction) and v(x) >= 1


def applicable_moves(c: Configuration, policy: RulesetPolicy) -> list[SequentialMove]:
    """All moves whose guards hold, ascending by site then rule order."""
    if c.is_zero:
        return []
    moves = []
    for x in c.support:
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
    dst = src + move.rule.direction
    lo = min(c.support.lo, dst)
    hi = max(c.support.hi, dst)
    vals = c.window_values(lo, hi)
    vals[src - lo] -= 1
    vals[dst - lo] += 1
    return Configuration(vals, lo)


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


def enumerate_paths(
    d: TransitionDigraph, target: Configuration, max_paths: int = 1000
) -> list[tuple[SequentialMove, ...]]:
    """All distinct simple paths root -> target, up to ``max_paths``.

    Paths are move sequences; the empty path is returned when the target is
    the root.  An absent target yields no paths.
    """
    if target not in d.levels:
        return []
    adjacency: dict[Configuration, list[tuple[SequentialMove, Configuration]]] = {}
    reverse: dict[Configuration, list[Configuration]] = {}
    for a, m, b in d.edges:
        adjacency.setdefault(a, []).append((m, b))
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
    if d.root not in ancestors:
        return []
    paths: list[tuple[SequentialMove, ...]] = []
    # iterative DFS; each stack frame tracks which out-edge to try next
    stack: list[tuple[Configuration, int]] = [(d.root, 0)]
    trail: list[SequentialMove] = []
    on_path = {d.root}
    while stack:
        node, idx = stack[-1]
        if idx == 0 and node == target:
            paths.append(tuple(trail))
            if len(paths) >= max_paths:
                break
            # simple paths cannot revisit the target, so backtrack
            stack.pop()
            on_path.discard(node)
            if trail:
                trail.pop()
            continue
        out = adjacency.get(node, [])
        advanced = False
        while idx < len(out):
            move, succ = out[idx]
            idx += 1
            if succ in on_path or succ not in ancestors:
                continue
            stack[-1] = (node, idx)
            stack.append((succ, 0))
            trail.append(move)
            on_path.add(succ)
            advanced = True
            break
        if not advanced:
            stack.pop()
            on_path.discard(node)
            if trail:
                trail.pop()
    return paths


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of a bounded search for move sequences source -> target."""

    reachable: bool
    paths: tuple[tuple[SequentialMove, ...], ...]
    explored_nodes: int
    budget_exceeded: bool
    depth: int | None


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
    enumerated within the caps.
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
        return DecompositionResult(True, tuple(paths), len(depth), False, depth[target])
    if frontier:
        budget = True  # stopped by the depth cap with unexplored states left
    return DecompositionResult(False, (), len(depth), budget, None)


def _geodesics(parents, source, target, max_paths):
    """Up to ``max_paths`` shortest paths, depth first in parent order, without recursion.

    A stack entry holds a node and its path to the target as nested (move, rest) pairs.
    """
    paths: list[tuple[SequentialMove, ...]] = []
    stack = [(target, None)]
    while stack and len(paths) < max_paths:
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

    Each family runs under the conventions of ``policy``, with its own moves enabled.
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


def sequential_spm_orbit(
    c0: Configuration,
    depth_cap: int | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SpmOrbitSummary:
    """Exhaust the ``VRd``-only digraph and measure every maximal path.

    Requires a non-increasing (ordered-partition) initial state; the
    exploration then terminates with a single equilibrium, and the summary
    reports the set of root-to-equilibrium path lengths.
    """
    vals = c0.values
    if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
        raise NotOrderedPartition(f"{c0} is not non-increasing")
    policy = RulesetPolicy(enabled=frozenset({MoveRule.VR_D}))
    digraph = explore_digraph(c0, policy, node_cap=node_cap, depth_cap=depth_cap)
    if digraph.node_cap_reached:
        raise RuntimeError("exploration truncated; raise the caps")
    if len(digraph.equilibria) != 1:
        raise RuntimeError(
            f"expected a unique equilibrium, found {len(digraph.equilibria)}"
        )
    equilibrium = digraph.equilibria[0]
    adjacency: dict[Configuration, list[Configuration]] = {n: [] for n in digraph.nodes}
    for a, _, b in digraph.edges:
        adjacency[a].append(b)
    lengths: dict[Configuration, frozenset[int]] = {}
    in_progress: set[Configuration] = set()

    def lengths_from(node: Configuration) -> frozenset[int]:
        cached = lengths.get(node)
        if cached is not None:
            return cached
        if node in in_progress:
            raise RuntimeError("cycle in a vertical-rule digraph")
        in_progress.add(node)
        if node == equilibrium:
            result = frozenset({0})
        else:
            result = frozenset(
                1 + n for succ in adjacency[node] for n in lengths_from(succ)
            )
        in_progress.discard(node)
        lengths[node] = result
        return result

    return SpmOrbitSummary(digraph, equilibrium, lengths_from(c0))


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
