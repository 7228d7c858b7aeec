"""Command-line front end: run orbits, explore digraphs, decompose, verify.

Exit codes
    0  success (run/digraph/verify OK, decompose target reachable)
    1  bad arguments or malformed input
    2  decompose: target not reachable (conclusively)
    3  run: step cap reached without an equilibrium
    4  digraph: node or depth cap reached with moves left unexplored
       (graph still emitted)
    5  decompose: search budget exceeded, result inconclusive
    6  verify: at least one check failed
  141  stdout was closed before the output was written (a reader such as
       ``head`` left early); the code a shell reports for a SIGPIPE death
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string

from .analysis import VERIFY_SUITES
from .pile import (
    LatticeWindow,
    NegativeValue,
    ParseError,
    _decimal,
    parse_height_literal,
    parse_literal,
    to_literal,
)
from .rules import RuleKind, RuleSpec, orbit_states
from .sequential import (
    ALL_RULES,
    DEFAULT_NODE_CAP,
    MoveRule,
    RulesetPolicy,
    decompose_parallel_transition,
    explore_digraph,
    necessity_analysis,
)

_MOVE_TOKENS = {rule.name.lower(): rule for rule in MoveRule}

_RULE_KINDS = {kind.value: kind for kind in RuleKind}


class _Parser(argparse.ArgumentParser):
    """argparse with the documented exit code for bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rule_from_args(args) -> RuleSpec:
    # RuleSpec rejects a neighborhood or distribution that the kind fixes otherwise
    hood = _parse_int_list(args.neighborhood, "--neighborhood")
    dist = _parse_int_list(args.distribution, "--distribution")
    return RuleSpec(_RULE_KINDS[args.rule], (-1, 1) if hood is None else hood, dist)


def _list_tokens(text: str, flag: str) -> list[str]:
    """The comma-separated tokens of a list flag; an empty value or token is an error."""
    tokens = [tok.strip() for tok in text.split(",")]
    if not all(tokens):
        raise ValueError(f"{flag} has an empty entry: {text!r}")
    return tokens


def _parse_int_list(text: str | None, flag: str) -> tuple[int, ...] | None:
    if text is None:
        return None
    tokens = _list_tokens(text, flag)
    try:
        return tuple(map(_decimal, tokens))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _int_flag(text: str) -> int:
    """An integer flag's value: an optional sign and ASCII digits, as ``_decimal`` reads them."""
    try:
        return _decimal(text.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line and its newline, as ``print`` per line would, a joined chunk at a time."""
    lines = iter(lines)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        sys.stdout.write("\n".join(chunk) + "\n")


# lines per write: a few kB of DOT, or a few tens of kB of table rows, so that a chunk adds
# little to a long output's peak memory while the writes stay few
_CHUNK_LINES = 64


class _Members(map):
    """A ``map`` whose items are an object's members, ``"key": value`` JSON texts."""


def _write_json(fields) -> None:
    """Write the object of ``fields``, (key, value) pairs, as ``print(json.dumps(obj, indent=2))``.

    The pairs are drawn one at a time, each after the previous value is
    written, and a value that is an iterator is written as an array item by
    item, or as an object member by member when it is ``_Members``; so a
    document can stream, and its later fields can depend on what its earlier
    ones consumed.  Each item of an iterator is JSON text at its final
    indent, as ``json.dumps`` lays out an item of a top-level field.  Any
    other value is written a chunk at a time, never as one whole string.
    """
    write = sys.stdout.write
    lead = "{"
    for key, value in fields:
        write(f"{lead}\n  {_json_string(key)}: ")
        lead = ","
        if isinstance(value, Iterator):
            brackets = "{}" if isinstance(value, _Members) else "[]"
            opened = False
            for item in value:
                write(("," if opened else brackets[0]) + "\n    " + item)
                opened = True
            write("\n  " + brackets[1] if opened else brackets)
        else:
            for chunk in json.JSONEncoder(indent=2).iterencode(value):
                write(chunk.replace("\n", "\n  "))
    write("\n}\n")


def _run_fields(rule: RuleSpec, states, last: dict):
    """The ``run`` document's fields, stepping the orbit as its steps are written.

    ``states`` yields ``(state, fixed)`` as ``orbit_states`` does; the final
    step's index and flag go to ``last``, which the trailer and the caller read.
    """
    yield "rule", {
        "kind": rule.kind.value,
        "neighborhood": rule.neighborhood,
        "distribution": rule.distribution,
        "theta": rule.theta,
    }
    yield "steps", _step_records(states, last)
    yield "equilibrium", last["fixed"]
    yield "transient_time", last["t"] if last["fixed"] else None
    yield "step_cap_reached", not last["fixed"]


# one step of the run document, as JSON text at its indent in the steps array
_STEP_RECORD = (
    '{\n      "t": %d,\n      "offset": %d,\n      "values": %s,\n      "total": %d\n    }'
)


def _step_records(states, last: dict):
    for t, (state, fixed) in enumerate(states):
        n = len(state.values)  # cell values are the bulk of a trace: one template renders them
        values = ("[\n        %d" + ",\n        %d" * (n - 1) + "\n      ]") if n else "[]"
        yield _STEP_RECORD % (t, state.offset, values % state.values, state.total())
    last.update(t=t, fixed=fixed)


def _table_lines(rows: list):
    """The ``run`` table: a row per ``(state, fixed)`` pair, then the trailer.

    Every row spans one window: the states' supports and cell 0.
    """
    lo = min([0] + [state.offset for state, _ in rows if state.values])
    hi = max([0] + [state.offset + len(state.values) - 1 for state, _ in rows if state.values])
    window = LatticeWindow(lo, hi)
    for t, (state, fixed) in enumerate(rows):
        yield f"t={t}  {to_literal(state, window)}"
    yield f"equilibrium at t={t}" if fixed else f"step cap reached after {t} steps"


def cmd_run(args) -> int:
    rule = _rule_from_args(args)
    if rule.kind is RuleKind.HEIGHT_DIFF:
        initial = parse_height_literal(args.init)
    else:
        initial = parse_literal(args.init)
    rows = orbit_states(initial, rule, args.max_steps)
    if args.format == "table":  # the rows share one window, so the whole orbit comes first
        rows = list(rows)
        _write_lines(_table_lines(rows))
        return 0 if rows[-1][1] else 3
    last = {}
    _write_json(_run_fields(rule, rows, last))
    return 0 if last["fixed"] else 3


def _policy_from_args(args) -> RulesetPolicy:
    if args.rules is not None:
        tokens = _list_tokens(args.rules, "--rules")
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
        hr_summary_strict=args.hr_summary_strict,
        bt_height_floor=args.bt_floor,
    )


def _digraph_dot(d):
    yield "digraph transitions {"
    yield "  rankdir=TB;"
    # a literal holds only digits, '-', ',' and '|', so it needs no escaping in a DOT id
    label = {node: to_literal(node) for node in d.nodes}
    # a search interns one move per (rule, site), so few labels serve many edges
    move_label = {move: str(move) for move in {move for _, move, _ in d.edges}}
    equilibria = set(d.equilibria)
    for node in d.nodes:
        extras = ' [peripheries=2]' if node in equilibria else ""
        yield f'  "{label[node]}"{extras};'
    for a, move, b in d.edges:
        yield f'  "{label[a]}" -> "{label[b]}" [label="{move_label[move]}"];'
    yield "}"


# one edge of the digraph document, as JSON text at its indent; literals need quotes, no escapes
_EDGE_RECORD = '{\n      "from": "%s",\n      "move": %s,\n      "to": "%s"\n    }'


def _digraph_fields(d):
    # every edge end, equilibrium and level key is a node: render each literal once
    literal = {n: to_literal(n) for n in d.nodes}
    move = {m: _json_string(str(m)) for m in {m for _, m, _ in d.edges}}
    yield "root", literal[d.root]
    yield "nodes", map(_json_string, literal.values())
    yield "edges", (
        _EDGE_RECORD % (literal[a], move[m], literal[b])
        for a, m, b in d.edges
    )
    yield "equilibria", [literal[n] for n in d.equilibria]
    # a level key is a literal too, so it needs quotes and no escapes
    yield "levels", _Members('"%s": %d'.__mod__, ((literal[n], t) for n, t in d.levels.items()))
    yield "node_cap_reached", d.node_cap_reached


def cmd_digraph(args) -> int:
    initial = parse_literal(args.init)
    policy = _policy_from_args(args)
    d = explore_digraph(
        initial,
        policy,
        node_cap=args.node_cap,
        depth_cap=args.depth_cap,
        quotient_translations=args.quotient_translations,
    )
    if args.out == "json":
        _write_json(_digraph_fields(d))
    else:
        _write_lines(_digraph_dot(d))
    return 4 if d.node_cap_reached else 0


def cmd_decompose(args) -> int:
    source = parse_literal(args.source)
    target = parse_literal(args.target)
    if args.necessity:
        if args.rules is not None or args.max_paths is not None:
            raise ValueError("--rules and --max-paths do not apply to --necessity")
        report = necessity_analysis(
            source,
            target,
            depth_cap=args.depth_cap,
            node_cap=args.node_cap,
            policy=_policy_from_args(args),
        )
        for name, result in report.rows:
            if not result.reachable:
                verdict = "unreachable"
                if result.budget_exceeded:
                    verdict += " (budget exceeded, inconclusive)"
            elif result.depth is None:
                verdict = (
                    f"reachable (contains {report.minimal_family}; "
                    "budget exceeded before its shortest length)"
                )
            else:
                verdict = f"reachable (shortest length {result.depth})"
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
            node_cap=args.node_cap,
            max_paths=16 if args.max_paths is None else args.max_paths,
        )
        if final.reachable:
            print(f"REACHABLE in {final.depth} moves ({final.explored_nodes} states explored)")
            for path in final.paths:
                print("path: " + (" ".join(str(m) for m in path) or "(empty)"))
            if final.path_count is not None and final.path_count > len(final.paths):
                print(f"({len(final.paths)} of {final.path_count} shortest paths shown)")
        elif final.budget_exceeded:
            print(f"INCONCLUSIVE: budget exceeded after {final.explored_nodes} states")
        elif source.total() != target.total():
            print(f"NOT REACHABLE (totals differ: {source.total()} vs {target.total()})")
        else:
            print(f"NOT REACHABLE ({final.explored_nodes} states exhausted)")
    if final.reachable:
        return 0
    return 5 if final.budget_exceeded else 2


def cmd_verify(args) -> int:
    if args.n_max is not None and args.n_max < 1:
        raise ValueError(f"--n-max must be positive, got {args.n_max}")
    suite = VERIFY_SUITES[args.suite]
    env_seed = os.environ.get("SANDLAB_SEED")
    try:
        seed = args.seed if env_seed is None else _decimal(env_seed.strip())
    except ValueError:
        raise ValueError(f"SANDLAB_SEED must be an integer, got {env_seed!r}") from None
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
    run.add_argument(
        "--neighborhood",
        help="comma-separated offsets; a value that starts with '-' needs the = form, "
        "e.g. --neighborhood=-1,1",
    )
    run.add_argument(
        "--distribution",
        help="comma-separated payouts aligned with offsets; signed gen1g weights "
        "need the = form, e.g. --distribution=-2,3",
    )
    run.add_argument("--max-steps", type=_int_flag, default=None)
    run.add_argument("--format", choices=("json", "table"), default="json")
    run.set_defaults(func=cmd_run)

    policy_flags = argparse.ArgumentParser(add_help=False)
    policy_flags.add_argument("--rules", help="comma-separated move tokens, e.g. 'vr_d,vr_s'")
    policy_flags.add_argument("--no-hr-convention", action="store_true")
    policy_flags.add_argument("--hr-summary-strict", action="store_true")
    policy_flags.add_argument("--bt-floor", type=_int_flag, choices=(1, 2), default=1)

    digraph = sub.add_parser(
        "digraph", parents=[policy_flags], help="explore a sequential transition digraph"
    )
    digraph.add_argument("--init", required=True)
    digraph.add_argument("--quotient-translations", action="store_true")
    digraph.add_argument(
        "--node-cap", type=_int_flag, default=DEFAULT_NODE_CAP, help="default 10⁶"
    )
    digraph.add_argument(
        "--depth-cap",
        type=_int_flag,
        help="BFS levels expanded (default: all); like --node-cap, "
        "exits 4 if it leaves a move unexplored",
    )
    digraph.add_argument("--out", choices=("dot", "json"), default="dot")
    digraph.set_defaults(func=cmd_digraph)

    decompose = sub.add_parser(
        "decompose",
        parents=[policy_flags],
        help="search for move sequences realizing a transition",
    )
    decompose.add_argument("--source", required=True)
    decompose.add_argument("--target", required=True)
    decompose.add_argument("--necessity", action="store_true")
    decompose.add_argument(
        "--depth-cap",
        type=_int_flag,
        help="BFS levels, or forward plus backward levels under --necessity "
        "(default max(2n², 8), n the source total)",
    )
    decompose.add_argument(
        "--node-cap",
        type=_int_flag,
        default=DEFAULT_NODE_CAP,
        help="default 10⁶; under --necessity it counts the states stored from both ends",
    )
    decompose.add_argument("--max-paths", type=_int_flag, default=None)
    decompose.set_defaults(func=cmd_decompose)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    verify.add_argument("--n-max", type=_int_flag, default=None)
    verify.add_argument("--seed", type=_int_flag, default=0)
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the output has nowhere to go; devnull takes what is left, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ParseError, NegativeValue, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
