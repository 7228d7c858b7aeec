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
from itertools import islice
from operator import itemgetter

from .analysis import SAMPLED_SUITES, VERIFY_SUITES
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


def _json_block(items, brackets="[]"):
    """A top-level field's array, or with ``"{}"`` its object, as ``json.dumps(indent=2)`` lays
    it out: each item is JSON text at its final indent, and an empty block is the bare brackets."""
    lead = brackets[0]
    for item in items:
        yield f"{lead}\n    {item}"
        lead = ","
    yield "\n  " + brackets[1] if lead == "," else brackets


# one step of the run document, as JSON text at its indent in the steps array
_STEP_RECORD = (
    '{\n      "t": %d,\n      "offset": %d,\n      "values": %s,\n      "total": %d\n    }'
)

# cell texts a run document's memo holds before a step with a new value clears it
_MEMO_CAP = 512


def _step_records(states, last: dict):
    text = {}  # value -> its "%d" text: cell values repeat, and a step reads them in one C call
    for t, (state, fixed) in enumerate(states):
        values, cells = state.values, "[]"
        if values:
            read = itemgetter(*values)
            try:
                cells = read(text)
            except KeyError:
                if len(text) > _MEMO_CAP:
                    text.clear()
                text.update({v: "%d" % v for v in set(values).difference(text)})
                cells = read(text)
            # itemgetter of one key returns its text, not a 1-tuple
            cells = ",\n        ".join(cells) if len(values) > 1 else cells
            cells = f"[\n        {cells}\n      ]"
        yield _STEP_RECORD % (t, state.offset, cells, state.total())
    last.update(t=t, fixed=fixed)


def _run_json(rule: RuleSpec, states, last: dict):
    """The ``run`` document, stepping the orbit as its steps are written.

    ``states`` yields ``(state, fixed)`` as ``orbit_states`` does; the final
    step's index and flag go to ``last``, which the trailer and the caller read.
    """
    spec = {
        "kind": rule.kind.value,
        "neighborhood": rule.neighborhood,
        "distribution": rule.distribution,
        "theta": rule.theta,
    }
    yield '{\n  "rule": %s,\n  "steps": ' % json.dumps(spec, indent=2).replace("\n", "\n  ")
    yield from _json_block(_step_records(states, last))
    fixed = last["fixed"]
    yield ',\n  "equilibrium": %s,\n  "transient_time": %s,\n  "step_cap_reached": %s\n}\n' % (
        json.dumps(fixed), last["t"] if fixed else "null", json.dumps(not fixed)
    )


def _run_table(states, last: dict):
    """The ``run`` table: a row per ``(state, fixed)`` pair, then the trailer.

    Every row spans one window: the states' supports and cell 0.  So the whole
    orbit is drawn before the first row; its last flag goes to ``last``.
    """
    rows = list(states)
    lo = min([0] + [state.offset for state, _ in rows if state.values])
    hi = max([0] + [state.offset + len(state.values) - 1 for state, _ in rows if state.values])
    window = LatticeWindow(lo, hi)
    for t, (state, fixed) in enumerate(rows):
        yield f"t={t}  {to_literal(state, window)}\n"
    last["fixed"] = fixed
    yield f"equilibrium at t={t}\n" if fixed else f"step cap reached after {t} steps\n"


def cmd_run(args) -> int:
    rule = _rule_from_args(args)
    if rule.kind is RuleKind.HEIGHT_DIFF:
        initial = parse_height_literal(args.init)
    else:
        initial = parse_literal(args.init)
    states = orbit_states(initial, rule, args.max_steps)
    last = {}
    doc = _run_table(states, last) if args.format == "table" else _run_json(rule, states, last)
    sys.stdout.writelines(doc)
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


# records per piece of a digraph block: a few writes per block, and a piece of tens of kB
_BATCH = 512


def _batches(records, sep: str = ""):
    """``records`` joined with ``sep``, ``_BATCH`` at a time; a block stays a handful of pieces."""
    records = iter(records)
    return iter(lambda: sep.join(islice(records, _BATCH)), "")


def _digraph_dot(d, literal: dict, move_label: dict):
    yield "digraph transitions {\n  rankdir=TB;\n"
    equilibria = set(d.equilibria)
    yield from _batches(
        '  "%s"%s;\n' % (literal[node], " [peripheries=2]" if node in equilibria else "")
        for node in d.nodes
    )
    yield from _batches(
        '  "%s" -> "%s" [label="%s"];\n' % (literal[a], literal[b], move_label[m])
        for a, m, b in d.edges
    )
    yield "}\n"


# one edge of the digraph document, as JSON text at its indent
_EDGE_RECORD = '{\n      "from": "%s",\n      "move": "%s",\n      "to": "%s"\n    }'

# the separator of two items in a top-level block, as _json_block lays them out
_ITEM_SEP = ",\n    "


def _digraph_json(d, literal: dict, move_label: dict):
    edges = (_EDGE_RECORD % (literal[a], move_label[m], literal[b]) for a, m, b in d.edges)
    levels = ('"%s": %d' % (literal[n], t) for n, t in d.levels.items())
    yield '{\n  "root": "%s",\n  "nodes": ' % literal[d.root]
    yield from _json_block(_batches(map('"%s"'.__mod__, literal.values()), _ITEM_SEP))
    yield ',\n  "edges": '
    yield from _json_block(_batches(edges, _ITEM_SEP))
    yield ',\n  "equilibria": '
    yield from _json_block(_batches(('"%s"' % literal[n] for n in d.equilibria), _ITEM_SEP))
    yield ',\n  "levels": '
    yield from _json_block(_batches(levels, _ITEM_SEP), "{}")
    yield ',\n  "node_cap_reached": %s\n}\n' % json.dumps(d.node_cap_reached)


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
    # every edge end, equilibrium and level key is a node: render each literal once.  Every
    # edge's move is one the search interned in the policy: label each of those once.  A literal
    # holds only [0-9,|-] and a label only [A-Za-z@0-9-], so both are quoted with "%s" in DOT
    # and JSON alike and need no escapes
    literal = {n: to_literal(n) for n in d.nodes}
    move_label = {m: str(m) for m in policy._interned.values()}
    doc = _digraph_json if args.out == "json" else _digraph_dot
    sys.stdout.writelines(doc(d, literal, move_label))
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
    if seed is not None and seed < 0:
        # random.Random seeds with abs(seed), so -1 would run the cases of 1
        source = "--seed" if env_seed is None else "SANDLAB_SEED"
        raise ValueError(f"{source} must be non-negative, got {seed}")
    sampled = args.suite in SAMPLED_SUITES
    if seed is None:
        seed = 0
    elif not sampled:
        # the header still echoes the seed, so a run of every suite reads alike
        print(f"note: suite {args.suite} is exhaustive and ignores the seed", file=sys.stderr)
    print(f"suite={args.suite} seed={seed}")
    size = () if args.n_max is None else (args.n_max,)  # every suite's first parameter
    results = suite(*size, seed=seed) if sampled else suite(*size)
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
        help="forward plus backward levels (default max(2n², 8), n the source total)",
    )
    decompose.add_argument(
        "--node-cap",
        type=_int_flag,
        default=DEFAULT_NODE_CAP,
        help="states stored from both ends in one search round (default 10⁶)",
    )
    decompose.add_argument(
        "--max-paths",
        type=_int_flag,
        help="shortest paths listed (default 16; the library's default is 64)",
    )
    decompose.set_defaults(func=cmd_decompose)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    verify.add_argument(
        "--n-max",
        type=_int_flag,
        help="largest size for shapes and partitions; number of cases for conservation, "
        "nn and commutation (default: the suite's own)",
    )
    verify.add_argument("--seed", type=_int_flag, help="default 0; SANDLAB_SEED overrides it")
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
