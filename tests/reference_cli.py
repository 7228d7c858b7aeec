"""The CLI's documents as first written: whole, from the collected orbit or digraph.

A differential oracle for the streaming writers of ``sandlab.cli``: each
function below builds the complete ``run`` or ``digraph --out json`` document
in memory, and encodes it with ``json.dumps(indent=2)`` or joins the ``run``
table's lines.  ``print`` added the final newline, which the callers here
append.  An orbit arrives as its ``(state, fixed)`` rows, as
``reference_rules.orbit`` collects them.
"""

from __future__ import annotations

import json

from sandlab.pile import LatticeWindow, to_literal
from sandlab.rules import RuleSpec


def trace_json(rule: RuleSpec, rows: list) -> str:
    fixed = rows[-1][1]
    doc = {
        "rule": {
            "kind": rule.kind.value,
            "neighborhood": rule.neighborhood,
            "distribution": rule.distribution,
            "theta": rule.theta,
        },
        "steps": [
            {"t": t, "offset": state.offset, "values": state.values, "total": state.total()}
            for t, (state, _) in enumerate(rows)
        ],
        "equilibrium": fixed,
        "transient_time": len(rows) - 1 if fixed else None,
        "step_cap_reached": not fixed,
    }
    return json.dumps(doc, indent=2)


def trace_table(rows: list) -> str:
    """``run --format table``: every state over the window of all supports and cell 0."""
    states = [state for state, _ in rows]
    supports = [s.support for s in states if s.support is not None]
    lo = min([0] + [w.lo for w in supports])
    hi = max([0] + [w.hi for w in supports])
    window = LatticeWindow(lo, hi)
    lines = [f"t={t}  {to_literal(state, window)}" for t, state in enumerate(states)]
    if rows[-1][1]:
        lines.append(f"equilibrium at t={len(states) - 1}")
    else:
        lines.append(f"step cap reached after {len(states) - 1} steps")
    return "\n".join(lines)


def digraph_json(d) -> str:
    # every edge end, equilibrium and level key is a node: render each literal once
    literal = {n: to_literal(n) for n in d.nodes}
    obj = {
        "root": literal[d.root],
        "nodes": list(literal.values()),
        "edges": [{"from": literal[a], "move": str(m), "to": literal[b]} for a, m, b in d.edges],
        "equilibria": [literal[n] for n in d.equilibria],
        "levels": {literal[n]: level for n, level in d.levels.items()},
        "node_cap_reached": d.node_cap_reached,
    }
    return json.dumps(obj, indent=2)
