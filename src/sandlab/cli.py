"""Command-line front end: run orbits, explore digraphs, decompose, verify.

Exit codes
    0  success (run/digraph/verify OK, decompose target reachable)
    1  bad arguments or malformed input
    2  decompose: target not reachable (conclusively)
    3  run: step cap reached without an equilibrium
    4  digraph: node cap reached (graph still emitted)
    5  decompose: search budget exceeded, result inconclusive
    6  verify: at least one check failed
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import VERIFY_SUITES
from .pile import (
    LatticeWindow,
    NegativeValue,
    ParseError,
    parse_height_literal,
    parse_literal,
    to_literal,
)
from .rules import OrbitTrace, RuleKind, RuleSpec, orbit
from .sequential import (
    ALL_RULES,
    MoveRule,
    RulesetPolicy,
    decompose_parallel_transition,
    explore_digraph,
    necessity_analysis,
)

_MOVE_TOKENS = {
    "vr_d": MoveRule.VR_D,
    "vr_s": MoveRule.VR_S,
    "hr_d": MoveRule.HR_D,
    "hr_s": MoveRule.HR_S,
    "bt_d": MoveRule.BT_D,
    "bt_s": MoveRule.BT_S,
}

_RULE_KINDS = {kind.value: kind for kind in RuleKind}


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rule_from_args(args) -> RuleSpec:
    kind = _RULE_KINDS[args.rule]
    hood = _parse_int_list(args.neighborhood) if args.neighborhood else None
    dist = _parse_int_list(args.distribution) if args.distribution else None
    if kind in (RuleKind.GK, RuleKind.HEIGHT_DIFF, RuleKind.SYMMETRIC_SM1):
        if hood or dist:
            raise ValueError(
                f"--neighborhood/--distribution do not apply to rule {kind.value!r}"
            )
        return RuleSpec(kind)
    if kind is RuleKind.CONSTANT_G1 and dist:
        raise ValueError("const-g1 fixes the distribution to 1")
    return RuleSpec(kind, tuple(hood) if hood else (-1, 1), tuple(dist) if dist else None)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _trace_json(trace: OrbitTrace) -> str:
    rule = trace.rule
    doc = {
        "rule": {
            "kind": rule.kind.value,
            "neighborhood": rule.neighborhood,
            "distribution": rule.distribution,
            "theta": rule.theta,
        },
        "steps": [
            {"t": t, "offset": state.offset, "values": state.values, "total": total}
            for t, (state, total) in enumerate(zip(trace.states, trace.totals))
        ],
        "equilibrium": trace.reached_equilibrium,
        "transient_time": trace.transient_time,
        "step_cap_reached": trace.step_cap_reached,
    }
    return json.dumps(doc, indent=2)


def _trace_table(trace: OrbitTrace) -> list[str]:
    supports = [s.support for s in trace.states if s.support is not None]
    lo = min([0] + [w.lo for w in supports])
    hi = max([0] + [w.hi for w in supports])
    window = LatticeWindow(lo, hi)
    lines = [
        f"t={t}  {to_literal(state, window)}" for t, state in enumerate(trace.states)
    ]
    if trace.reached_equilibrium:
        lines.append(f"equilibrium at t={trace.transient_time}")
    else:
        lines.append(f"step cap reached after {len(trace.states) - 1} steps")
    return lines


def cmd_run(args) -> int:
    rule = _rule_from_args(args)
    if rule.kind is RuleKind.HEIGHT_DIFF:
        initial = parse_height_literal(args.init)
    else:
        initial = parse_literal(args.init)
    trace = orbit(initial, rule, max_steps=args.max_steps)
    if args.format == "json":
        print(_trace_json(trace))
    else:
        for line in _trace_table(trace):
            print(line)
    return 3 if trace.step_cap_reached else 0


def _policy_from_args(args) -> RulesetPolicy:
    if args.rules:
        tokens = [tok.strip() for tok in args.rules.split(",") if tok.strip()]
        unknown = [tok for tok in tokens if tok not in _MOVE_TOKENS]
        if unknown:
            raise ValueError(
                f"unknown rule tokens {unknown}; choose from {sorted(_MOVE_TOKENS)}"
            )
        enabled = frozenset(_MOVE_TOKENS[tok] for tok in tokens)
    else:
        enabled = ALL_RULES
    return RulesetPolicy(
        enabled=enabled,
        hr_convention=not args.no_hr_convention,
        hr_summary_strict=getattr(args, "hr_summary_strict", False),
        bt_height_floor=args.bt_floor,
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _digraph_dot(d) -> list[str]:
    lines = ["digraph transitions {", "  rankdir=TB;"]
    equilibria = set(d.equilibria)
    for node in d.nodes:
        label = _dot_escape(to_literal(node))
        extras = ' [peripheries=2]' if node in equilibria else ""
        lines.append(f'  "{label}"{extras};')
    for a, move, b in d.edges:
        lines.append(
            f'  "{_dot_escape(to_literal(a))}" -> "{_dot_escape(to_literal(b))}"'
            f' [label="{move}"];'
        )
    lines.append("}")
    return lines


def _digraph_json(d) -> str:
    obj = {
        "root": to_literal(d.root),
        "nodes": [to_literal(n) for n in d.nodes],
        "edges": [
            {"from": to_literal(a), "move": str(m), "to": to_literal(b)}
            for a, m, b in d.edges
        ],
        "equilibria": [to_literal(n) for n in d.equilibria],
        "levels": {to_literal(n): level for n, level in d.levels.items()},
        "node_cap_reached": d.node_cap_reached,
    }
    return json.dumps(obj, indent=2)


def cmd_digraph(args) -> int:
    initial = parse_literal(args.init)
    policy = _policy_from_args(args)
    d = explore_digraph(
        initial,
        policy,
        node_cap=args.node_cap,
        quotient_translations=args.quotient_translations,
    )
    if args.out == "json":
        print(_digraph_json(d))
    else:
        for line in _digraph_dot(d):
            print(line)
    return 4 if d.node_cap_reached else 0


def cmd_decompose(args) -> int:
    source = parse_literal(args.source)
    target = parse_literal(args.target)
    if args.necessity:
        if args.rules:
            raise ValueError("--rules does not apply to --necessity, which sets the families")
        report = necessity_analysis(
            source, target, depth_cap=args.depth_cap, policy=_policy_from_args(args)
        )
        for name, result in report.rows:
            verdict = "reachable" if result.reachable else "unreachable"
            if result.budget_exceeded and not result.reachable:
                verdict += " (budget exceeded, inconclusive)"
            if result.reachable:
                verdict += f" (shortest length {result.depth})"
            print(f"{name}: {verdict}")
        if report.minimal_family:
            print(f"minimal family: {report.minimal_family}")
        else:
            print("minimal family: none")
        final = report.rows[-1][1]
    else:
        policy = _policy_from_args(args)
        final = decompose_parallel_transition(
            source,
            target,
            policy,
            depth_cap=args.depth_cap,
            max_paths=args.max_paths,
        )
        if final.reachable:
            print(f"REACHABLE in {final.depth} moves ({final.explored_nodes} states explored)")
            for path in final.paths:
                print("path: " + (" ".join(str(m) for m in path) or "(empty)"))
        elif final.budget_exceeded:
            print(f"INCONCLUSIVE: budget exceeded after {final.explored_nodes} states")
        else:
            print(f"NOT REACHABLE ({final.explored_nodes} states exhausted)")
    if final.reachable:
        return 0
    return 5 if final.budget_exceeded else 2


def cmd_verify(args) -> int:
    suite = VERIFY_SUITES[args.suite]
    env_seed = os.environ.get("SANDLAB_SEED")
    seed = int(env_seed) if env_seed is not None else args.seed
    kwargs = {}
    if args.suite in ("conservation", "nn", "commutation"):
        kwargs["seed"] = seed
        if args.n_max is not None:
            kwargs["cases"] = args.n_max
    elif args.n_max is not None:
        kwargs["n_max"] = args.n_max
    print(f"suite={args.suite} seed={seed}")
    results = suite(**kwargs)
    failed = False
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        failed = failed or not check.passed
        print(f"{status} {check.name} — {check.detail}")
    return 6 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sandlab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="iterate a parallel rule and emit the trace")
    run.add_argument("--rule", required=True, choices=sorted(_RULE_KINDS))
    run.add_argument("--init", required=True, help="configuration literal, e.g. '0,1|2,1,0'")
    run.add_argument("--neighborhood", help="comma-separated offsets, e.g. '-1,1'")
    run.add_argument("--distribution", help="comma-separated payouts aligned with offsets")
    run.add_argument("--max-steps", type=int, default=None)
    run.add_argument("--format", choices=("json", "table"), default="json")
    run.set_defaults(func=cmd_run)

    digraph = sub.add_parser("digraph", help="explore a sequential transition digraph")
    digraph.add_argument("--init", required=True)
    digraph.add_argument("--rules", help="comma-separated move tokens, e.g. 'vr_d,vr_s'")
    digraph.add_argument("--no-hr-convention", action="store_true")
    digraph.add_argument("--hr-summary-strict", action="store_true")
    digraph.add_argument("--bt-floor", type=int, choices=(1, 2), default=1)
    digraph.add_argument("--quotient-translations", action="store_true")
    digraph.add_argument("--node-cap", type=int, default=10**6)
    digraph.add_argument("--out", choices=("dot", "json"), default="dot")
    digraph.set_defaults(func=cmd_digraph)

    decompose = sub.add_parser(
        "decompose", help="search for move sequences realizing a transition"
    )
    decompose.add_argument("--source", required=True)
    decompose.add_argument("--target", required=True)
    decompose.add_argument("--rules")
    decompose.add_argument("--no-hr-convention", action="store_true")
    decompose.add_argument("--hr-summary-strict", action="store_true")
    decompose.add_argument("--bt-floor", type=int, choices=(1, 2), default=1)
    decompose.add_argument("--necessity", action="store_true")
    decompose.add_argument("--depth-cap", type=int, default=None)
    decompose.add_argument("--max-paths", type=int, default=16)
    decompose.set_defaults(func=cmd_decompose)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    verify.add_argument("--n-max", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NegativeValue, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
