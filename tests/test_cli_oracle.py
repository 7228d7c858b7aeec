"""``run`` (JSON and table) and ``digraph`` (JSON and DOT) stdout against the whole-document oracle.

The CLI's stdout must equal, byte for byte, what ``reference_cli`` renders
from the orbit that ``reference_rules.orbit`` collects or from the library's
``TransitionDigraph``, plus the final newline; exit codes must match the
orbit's last flag or the digraph's cap flag.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_cli as ref
import reference_rules
from sandlab.cli import _BATCH, _MEMO_CAP, main
from sandlab.pile import Configuration, HeightProfile, parse_height_literal, parse_literal, to_literal
from sandlab.rules import RuleKind, RuleSpec
from sandlab.sequential import MoveRule, RulesetPolicy, explore_digraph
from test_sequential_oracle import configurations, node_caps, policies
from test_stencil_oracle import FIXED_KINDS, rules

GOLDEN = Path(__file__).parent / "golden"


def run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@st.composite
def orbits(draw):
    """A rule of any kind, a state it runs on, and a small step cap."""
    rule = draw(rules())
    if rule.kind is RuleKind.HEIGHT_DIFF:
        values = st.lists(st.integers(-6, 6), max_size=6)
        state = draw(st.builds(HeightProfile, values, st.integers(-3, 3)))
    else:
        values = st.lists(st.integers(0, 8), max_size=6)
        state = draw(st.builds(Configuration, values, st.integers(-3, 3)))
    return rule, state, draw(st.integers(0, 20))


def rule_argv(rule):
    argv = ["--rule", rule.kind.value]
    if rule.kind not in FIXED_KINDS:
        argv.append("--neighborhood=" + ",".join(map(str, rule.neighborhood)))
        if rule.kind is not RuleKind.CONSTANT_G1:
            argv.append("--distribution=" + ",".join(map(str, rule.distribution)))
    return argv


def reference_orbit(rule, literal, max_steps):
    parse = parse_height_literal if rule.kind is RuleKind.HEIGHT_DIFF else parse_literal
    return reference_rules.orbit(parse(literal), rule, max_steps)


@settings(max_examples=300, deadline=None)
@given(orbits())
def test_run_json_matches_the_oracle(case):
    rule, state, max_steps = case
    literal = to_literal(state)
    code, out = run_main(
        ["run", *rule_argv(rule), f"--init={literal}", "--max-steps", str(max_steps)]
    )
    rows = reference_orbit(rule, literal, max_steps)
    assert out == ref.trace_json(rule, rows) + "\n"
    assert code == (0 if rows[-1][1] else 3)


@settings(max_examples=300, deadline=None)
@given(orbits())
def test_run_table_matches_the_oracle(case):
    rule, state, max_steps = case
    literal = to_literal(state)
    argv = ["run", *rule_argv(rule), f"--init={literal}", "--max-steps", str(max_steps)]
    code, out = run_main([*argv, "--format", "table"])
    rows = reference_orbit(rule, literal, max_steps)
    assert out == ref.trace_table(rows) + "\n"
    assert code == (0 if rows[-1][1] else 3)


@pytest.mark.parametrize(
    "kind, literal, max_steps, lines",
    [
        (RuleKind.GK, "0", None, ["t=0  0", "equilibrium at t=0"]),
        (RuleKind.HEIGHT_DIFF, "-6|6", None, [
            "t=0  -6|6,0,0", "t=1  -5|4,1,0", "t=2  -4|2,2,0", "t=3  -3|1,1,1",
            "equilibrium at t=3",
        ]),
        (RuleKind.GK, "3000", 2, [
            "t=0  3000,0", "t=1  2999,1", "t=2  2998,2", "step cap reached after 2 steps",
        ]),
        # a support that lies left of cell 0 throughout: the window still reaches cell 0
        (RuleKind.GK, "3,1,0|0", None, [
            "t=0  3,1,0|0", "t=1  2,2,0|0", "t=2  2,1,1|0", "equilibrium at t=2",
        ]),
    ],
    ids=["zero", "negative-height", "step-cap", "left-of-origin"],
)
def test_pinned_tables_match_the_oracle(kind, literal, max_steps, lines):
    argv = ["run", "--rule", kind.value, f"--init={literal}", "--format", "table"]
    code, out = run_main(argv + ([] if max_steps is None else ["--max-steps", str(max_steps)]))
    rows = reference_orbit(RuleSpec(kind), literal, max_steps)
    assert out == ref.trace_table(rows) + "\n" == "\n".join(lines) + "\n"
    assert code == (3 if max_steps is not None else 0)


@pytest.mark.parametrize(
    "kind, literal, max_steps, extremes",
    [
        (RuleKind.GK, "3000", 3, (1, 3000)),  # four-digit values
        (RuleKind.HEIGHT_DIFF, "-12|12", None, (-12, 12)),  # negative values
        (RuleKind.FP, "1", None, (1, 1)),  # one cell
        (RuleKind.HEIGHT_DIFF, "-5", None, (-5, -5)),  # one negative cell
        (RuleKind.GK, "0", None, None),  # the zero state
        (RuleKind.HEIGHT_DIFF, "0", None, None),
        # more distinct values than the cell-text memo holds: it is cleared and refilled
        (RuleKind.GK, "3000", 600, (1, 3000)),
        (RuleKind.HEIGHT_DIFF, "-600|600", None, (-600, 600)),  # new values at both ends
        (RuleKind.FP, "5", None, (0, 5)),  # a one-cell step, then wider steps
    ],
)
def test_pinned_runs_match_the_oracle_byte_for_byte(kind, literal, max_steps, extremes):
    # the hypothesis draws above stay within one-digit values and six cells
    argv = ["run", "--rule", kind.value, f"--init={literal}"]
    argv += [] if max_steps is None else ["--max-steps", str(max_steps)]
    code, out = run_main(argv)
    rows = reference_orbit(RuleSpec(kind), literal, max_steps)
    assert out == ref.trace_json(RuleSpec(kind), rows) + "\n"
    assert code == (0 if rows[-1][1] else 3)
    written = [v for step in json.loads(out)["steps"] for v in step["values"]]
    assert (min(written), max(written)) == extremes if written else extremes is None


@pytest.mark.parametrize(
    "kind, literal, max_steps",
    [(RuleKind.GK, "3000", 600), (RuleKind.HEIGHT_DIFF, "-600|600", None)],
)
def test_the_pinned_long_runs_outgrow_the_cell_text_memo(kind, literal, max_steps):
    # so the byte-for-byte runs above reach the memo's clear-and-refill path
    rows = reference_orbit(RuleSpec(kind), literal, max_steps)
    assert len({v for state, _ in rows for v in state.values}) > _MEMO_CAP + 1


ORACLES = {"json": ref.digraph_json, "dot": ref.digraph_dot}


def check_digraph(c, policy, node_cap, quotient, out_format):
    """``digraph --out out_format`` on ``c`` against the oracle; returns the library's digraph."""
    argv = [
        "digraph",
        f"--init={to_literal(c)}",
        "--rules", ",".join(rule.name.lower() for rule in policy.enabled),
        "--node-cap", str(node_cap),
        "--bt-floor", str(policy.bt_height_floor),
        "--out", out_format,
    ]
    argv += ["--no-hr-convention"] * (not policy.hr_convention)
    argv += ["--hr-summary-strict"] * policy.hr_summary_strict
    argv += ["--quotient-translations"] * quotient
    code, out = run_main(argv)
    d = explore_digraph(
        parse_literal(to_literal(c)), policy, node_cap=node_cap, quotient_translations=quotient
    )
    assert out == ORACLES[out_format](d) + "\n"
    assert code == (4 if d.node_cap_reached else 0)
    return d


@settings(max_examples=200, deadline=None)
@given(configurations, policies, node_caps, st.booleans())
def test_digraph_json_matches_the_oracle(c, policy, node_cap, quotient):
    check_digraph(c, policy, node_cap, quotient, "json")


@settings(max_examples=200, deadline=None)
@given(configurations, policies, node_caps, st.booleans())
def test_digraph_dot_matches_the_oracle(c, policy, node_cap, quotient):
    check_digraph(c, policy, node_cap, quotient, "dot")


def test_the_dot_oracle_draws_the_pinned_graph():
    d = explore_digraph(parse_literal("5,4,2,1"), RulesetPolicy(frozenset({MoveRule.VR_D})))
    assert ref.digraph_dot(d) + "\n" == (GOLDEN / "digraph-5421-vrd.dot").read_text()


@pytest.mark.parametrize("out_format", ["json", "dot"])
def test_a_digraph_of_many_batches_matches_the_oracle(out_format):
    # the writers join _BATCH records a piece: these node and edge blocks take several pieces
    d = check_digraph(Configuration((8,)), RulesetPolicy(), 2000, False, out_format)
    assert (len(d.nodes), len(d.edges)) == (2000, 9317)
    assert min(len(d.nodes), len(d.edges), len(d.levels)) > 3 * _BATCH


@pytest.mark.parametrize("out_format", ["json", "dot"])
def test_a_digraph_without_edges_matches_the_oracle(out_format):
    policy = RulesetPolicy(frozenset({MoveRule.VR_D}))
    d = check_digraph(Configuration((1,)), policy, 10, False, out_format)
    assert (len(d.nodes), d.edges, d.equilibria) == (1, (), (d.root,))
