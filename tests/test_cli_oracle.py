"""``run`` and ``digraph --out json`` stdout against the whole-document oracle.

The CLI's stdout must equal, byte for byte, what ``reference_cli`` encodes
from the library's full ``OrbitTrace`` or ``TransitionDigraph``, plus the
final newline; exit codes must match the trace's or digraph's flags.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import reference_cli as ref
from sandlab.cli import main
from sandlab.pile import Configuration, HeightProfile, parse_height_literal, parse_literal, to_literal
from sandlab.rules import RuleKind, RuleSpec, orbit
from sandlab.sequential import explore_digraph
from test_sequential_oracle import configurations, node_caps, policies
from test_stencil_oracle import FIXED_KINDS, rules


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


@settings(max_examples=300, deadline=None)
@given(orbits())
def test_run_json_matches_the_oracle(case):
    rule, state, max_steps = case
    literal = to_literal(state)
    code, out = run_main(
        ["run", *rule_argv(rule), f"--init={literal}", "--max-steps", str(max_steps)]
    )
    parse = parse_height_literal if rule.kind is RuleKind.HEIGHT_DIFF else parse_literal
    trace = orbit(parse(literal), rule, max_steps=max_steps)
    assert out == ref.trace_json(trace) + "\n"
    assert code == (3 if trace.step_cap_reached else 0)


@pytest.mark.parametrize(
    "kind, literal, max_steps, extremes",
    [
        (RuleKind.GK, "3000", 3, (1, 3000)),  # four-digit values
        (RuleKind.HEIGHT_DIFF, "-12|12", None, (-12, 12)),  # negative values
        (RuleKind.FP, "1", None, (1, 1)),  # one cell
        (RuleKind.HEIGHT_DIFF, "-5", None, (-5, -5)),  # one negative cell
        (RuleKind.GK, "0", None, None),  # the zero state
        (RuleKind.HEIGHT_DIFF, "0", None, None),
    ],
)
def test_pinned_runs_match_the_oracle_byte_for_byte(kind, literal, max_steps, extremes):
    # the hypothesis draws above stay within one-digit values and six cells
    argv = ["run", "--rule", kind.value, f"--init={literal}"]
    argv += [] if max_steps is None else ["--max-steps", str(max_steps)]
    code, out = run_main(argv)
    parse = parse_height_literal if kind is RuleKind.HEIGHT_DIFF else parse_literal
    trace = orbit(parse(literal), RuleSpec(kind), max_steps=max_steps)
    assert out == ref.trace_json(trace) + "\n"
    assert code == (3 if trace.step_cap_reached else 0)
    written = [v for step in json.loads(out)["steps"] for v in step["values"]]
    assert (min(written), max(written)) == extremes if written else extremes is None


@settings(max_examples=200, deadline=None)
@given(configurations, policies, node_caps, st.booleans())
def test_digraph_json_matches_the_oracle(c, policy, node_cap, quotient):
    argv = [
        "digraph",
        f"--init={to_literal(c)}",
        "--rules", ",".join(rule.name.lower() for rule in policy.enabled),
        "--node-cap", str(node_cap),
        "--bt-floor", str(policy.bt_height_floor),
        "--out", "json",
    ]
    argv += ["--no-hr-convention"] * (not policy.hr_convention)
    argv += ["--hr-summary-strict"] * policy.hr_summary_strict
    argv += ["--quotient-translations"] * quotient
    code, out = run_main(argv)
    d = explore_digraph(
        parse_literal(to_literal(c)), policy, node_cap=node_cap, quotient_translations=quotient
    )
    assert out == ref.digraph_json(d) + "\n"
    assert code == (4 if d.node_cap_reached else 0)
