"""The CLI's JSON documents as first written: a whole document, then ``json.dumps``.

A differential oracle for the streaming JSON writer of ``sandlab.cli``: each
function below builds the complete ``run`` or ``digraph --out json`` document
in memory and encodes it with ``json.dumps(indent=2)``.  ``print`` added the
final newline, which the callers here append.
"""

from __future__ import annotations

import json

from sandlab.pile import to_literal
from sandlab.rules import OrbitTrace


def trace_json(trace: OrbitTrace) -> str:
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
