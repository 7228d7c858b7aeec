"""Job lists of the three benchmark workloads and the checks on their outputs.

A job is one fresh interpreter: either ``sandlab.cli.main(argv)`` or the
library path-counting job of ``job.py``.  Every check recomputes the expected
answer from the closed forms below (Goles & Kiwi 1993 for the vertical rule,
Anderson et al. 1989 for the threshold rule) or from counts pinned here, so a
wrong answer fails the job however fast it came.  The closed forms are the
benchmark's own; nothing here imports sandlab.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("orbit-wide", "digraph-search", "verify-suites")

WHY = {
    "orbit-wide": (
        "long wide parallel orbits (fp 200, gk 3000, height 2000, seeded gk/fp states): "
        "rules stepping and cli serialization do the work"
    ),
    "digraph-search": (
        "sequential BFS (all six moves to a 10k cap, vr_d from 40, decompose, path counting): "
        "successor generation and state hashing"
    ),
    "verify-suites": (
        "all five verify suites on ~1e4 tiny seeded states: "
        "same pile/rules/sequential calls, per-call set-up cost shows"
    ),
}

VERIFY_SUITES = ("conservation", "nn", "shapes", "commutation", "partitions")

# name -> (full size, smoke size) for every size a job depends on
FULL = {
    "fp_n": 200, "fp_transient": 7142,
    "gk_n": 3000, "height_n": 2000,
    "rand_gk_width": 200, "rand_gk_max": 60,
    "rand_fp_width": 30, "rand_fp_max": 4,
    "all6_init": 8, "all6_cap": 10000, "all6_edges": 52154,
    "vrd_init": 40, "vrd_nodes": 4672, "vrd_edges": 13952,
    "dec_source": "10", "dec_target": "2,2,2,2,2", "dec_length": 20,
    "paths_n": 15, "paths_count": 38700, "paths_max": 50000,
    "verify_n_max": None,
}
SMOKE = {
    "fp_n": 20, "fp_transient": 77,
    "gk_n": 100, "height_n": 100,
    "rand_gk_width": 20, "rand_gk_max": 10,
    "rand_fp_width": 8, "rand_fp_max": 4,
    "all6_init": 5, "all6_cap": 200, "all6_edges": 681,
    "vrd_init": 12, "vrd_nodes": 34, "vrd_edges": 50,
    "dec_source": "6", "dec_target": "2,2,2", "dec_length": 6,
    "paths_n": 9, "paths_count": 9, "paths_max": 100,
    "verify_n_max": 8,
}


@dataclass(frozen=True)
class Job:
    """One job: ``kind`` is ``cli`` (args are the sandlab argv) or ``paths``."""

    id: str
    kind: str
    args: tuple[str, ...]
    check: Callable[[int, bytes], list[str]]


# --------------------------------------------------------------------------
# closed forms and state helpers; a state is (values tuple, offset), trimmed


def trim(values, offset=0):
    values = list(values)
    lead = 0
    while lead < len(values) and values[lead] == 0:
        lead += 1
    if lead == len(values):
        return (), 0
    trail = len(values)
    while values[trail - 1] == 0:
        trail -= 1
    return tuple(values[lead:trail]), offset + lead


def parse_literal(text):
    """'a,b|c,d' -> trimmed state; the value after '|' sits at cell 0."""
    before, bar, after = text.partition("|")
    if not bar:
        return trim(int(v) for v in text.split(","))
    left = [int(v) for v in before.split(",") if v.strip()]
    right = [int(v) for v in after.split(",")]
    return trim(left + right, -len(left))


def triangular(n):
    k = (math.isqrt(8 * n + 1) - 1) // 2
    return k, n - k * (k + 1) // 2


def gk_shape(n):
    k, kp = triangular(n)
    vals = []
    for v in range(k, 0, -1):
        vals.append(v)
        if v == kp:
            vals.append(v)
    return trim(vals)


def gk_transient(n):
    k, kp = triangular(n)
    return math.comb(k + 1, 3) + k * kp - math.comb(kp, 2)


def fp_shape(n):
    h, odd = divmod(n, 2)
    if odd:
        return trim((1,) * n, -h)
    return trim((1,) * h + (0,) + (1,) * h, -h)


def height_of(state):
    values, offset = state
    padded = (0,) + values + (0,)
    return trim((padded[i] - padded[i + 1] for i in range(len(padded) - 1)), offset - 1)


def gk_stable(values):
    padded = values + (0,)
    return all(padded[i] - padded[i + 1] <= 1 for i in range(len(values)))


def literal(values):
    """Literal of the values of a state whose support starts at cell 0."""
    return ",".join(str(v) for v in values)


# --------------------------------------------------------------------------
# checks: each returns a list of errors, empty when the output is right


class Checker:
    """Checks job outputs.  Jobs are deterministic, so an output byte-identical
    to one that already passed is not parsed again."""

    def __init__(self):
        self.passed: set[tuple[str, int, str]] = set()

    def problems(self, job, code: int, out: bytes) -> list[str]:
        key = (job.id, code, hashlib.sha256(out).hexdigest())
        if key in self.passed:
            return []
        try:
            problems = job.check(code, out)
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            self.passed.add(key)
        return problems


def _exit(code, expected):
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def _json(out):
    try:
        return json.loads(out), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_orbit_json(expected_final, initial=None, transient=None, boolean_final=False):
    def check(code, out):
        errors = _exit(code, 0)
        doc, bad = _json(out)
        if bad:
            return errors + bad
        steps = doc["steps"]
        states = [(tuple(s["values"]), s["offset"]) for s in steps]
        if not doc["equilibrium"] or doc["step_cap_reached"]:
            errors.append("no equilibrium reached")
        if doc["transient_time"] != len(steps) - 1:
            errors.append("transient_time does not match the step count")
        if transient is not None and doc["transient_time"] != transient:
            errors.append(f"transient {doc['transient_time']}, expected {transient}")
        if initial is not None and states[0] != initial:
            errors.append("first state is not the input")
        if expected_final is not None and states[-1] != expected_final:
            errors.append("final state differs from the closed-form shape")
        if boolean_final and any(v not in (0, 1) for v in states[-1][0]):
            errors.append("final threshold state is not Boolean")
        if any(s["total"] != sum(s["values"]) for s in steps):
            errors.append("a recorded total is not the sum of its values")
        return errors

    return check


def check_gk_table(initial):
    total = sum(initial[0])

    def check(code, out):
        errors = _exit(code, 0)
        lines = out.decode().splitlines()
        if not lines or not lines[-1].startswith("equilibrium at t="):
            return errors + ["table does not end at an equilibrium"]
        states = [parse_literal(line.split("  ", 1)[1]) for line in lines[:-1]]
        if int(lines[-1].rsplit("=", 1)[1]) != len(states) - 1:
            errors.append("equilibrium time does not match the row count")
        if states[0] != initial:
            errors.append("first state is not the input")
        if any(sum(values) != total for values, _ in states):
            errors.append("a vertical-rule step changed the total")
        if not gk_stable(states[-1][0]):
            errors.append("final state is not gk-stable")
        return errors

    return check


def check_digraph_json(root, nodes, edges):
    def check(code, out):
        errors = _exit(code, 4)
        doc, bad = _json(out)
        if bad:
            return errors + bad
        got = (doc["root"], len(doc["nodes"]), len(doc["edges"]), doc["node_cap_reached"])
        if got != (root, nodes, edges, True):
            errors.append(f"(root, nodes, edges, capped) = {got}, expected {(root, nodes, edges, True)}")
        if len(doc["levels"]) != nodes:
            errors.append("levels do not cover the nodes")
        return errors

    return check


def check_digraph_dot(nodes, edges, equilibrium):
    def check(code, out):
        errors = _exit(code, 0)
        lines = out.decode().splitlines()
        node_lines = [ln for ln in lines[2:-1] if " -> " not in ln]
        edge_count = sum(1 for ln in lines if " -> " in ln)
        eq = [ln.split('"')[1] for ln in node_lines if "peripheries=2" in ln]
        if (len(node_lines), edge_count) != (nodes, edges):
            errors.append(f"{len(node_lines)} nodes, {edge_count} edges; expected {nodes}, {edges}")
        if eq != [equilibrium]:
            errors.append(f"equilibria {eq}, expected [{equilibrium}]")
        return errors

    return check


def check_necessity(length):
    expected = [
        "VR: unreachable",
        f"VR+HR: reachable (shortest length {length})",
        f"VR+HR+BT: reachable (shortest length {length})",
        "minimal family: VR+HR",
    ]

    def check(code, out):
        lines = out.decode().splitlines()
        return _exit(code, 0) + ([] if lines == expected else [f"necessity table {lines}"])

    return check


def check_paths(n, count, max_paths):
    def check(code, out):
        errors = _exit(code, 0)
        doc, bad = _json(out)
        if bad:
            return errors + bad
        if doc["paths"] >= max_paths:
            errors.append("path list hit max_paths, so it may be truncated")
        if doc["paths"] != doc["dp_paths"] or doc["paths"] != count:
            errors.append(f"{doc['paths']} paths, DP count {doc['dp_paths']}, pinned {count}")
        if doc["path_lengths"] != [gk_transient(n)]:
            errors.append(f"path lengths {doc['path_lengths']}, expected [{gk_transient(n)}]")
        if doc["equilibrium"] != literal(gk_shape(n)[0]):
            errors.append("equilibrium differs from the closed-form shape")
        return errors

    return check


def check_verify(suite, seed):
    def check(code, out):
        lines = out.decode().splitlines()
        errors = _exit(code, 0)
        if not lines or lines[0] != f"suite={suite} seed={seed}":
            errors.append("missing suite header")
        if len(lines) < 2 or not all(ln.startswith("PASS ") for ln in lines[1:]):
            errors.append("not every check line is PASS")
        return errors

    return check


# --------------------------------------------------------------------------
# job lists


def random_state(rng, width, vmax):
    """Seeded state of exactly ``width`` cells from cell 0, values 0..vmax."""
    values = [rng.randint(0, vmax) for _ in range(width)]
    values[0] = rng.randint(1, vmax)
    values[-1] = rng.randint(1, vmax)
    return tuple(values), 0


def build(workload, seed, smoke=False):
    """Return (jobs, inputs): the job list and every generated input literal."""
    p = SMOKE if smoke else FULL
    rng = random.Random(f"{workload}:{seed}")
    inputs = {}
    if workload == "orbit-wide":
        gk_init = random_state(rng, p["rand_gk_width"], p["rand_gk_max"])
        fp_init = random_state(rng, p["rand_fp_width"], p["rand_fp_max"])
        inputs = {"random_gk": literal(gk_init[0]), "random_fp": literal(fp_init[0])}
        fp_n, gk_n, h_n = p["fp_n"], p["gk_n"], p["height_n"]
        jobs = [
            Job(f"run-fp-{fp_n}", "cli", ("run", "--rule", "fp", "--init", str(fp_n)),
                check_orbit_json(fp_shape(fp_n), ((fp_n,), 0), p["fp_transient"])),
            Job(f"run-gk-{gk_n}", "cli", ("run", "--rule", "gk", "--init", str(gk_n)),
                check_orbit_json(gk_shape(gk_n), ((gk_n,), 0))),
            Job(f"run-height-{h_n}", "cli",
                ("run", "--rule", "height", f"--init=-{h_n}|{h_n}"),
                check_orbit_json(height_of(gk_shape(h_n)), ((-h_n, h_n), -1))),
            Job("run-gk-random", "cli",
                ("run", "--rule", "gk", "--init", inputs["random_gk"], "--format", "table"),
                check_gk_table(gk_init)),
            Job("run-fp-random", "cli", ("run", "--rule", "fp", "--init", inputs["random_fp"]),
                check_orbit_json(None, fp_init, boolean_final=True)),
        ]
    elif workload == "digraph-search":
        a, v, n = p["all6_init"], p["vrd_init"], p["paths_n"]
        jobs = [
            Job(f"digraph-all6-{a}", "cli",
                ("digraph", "--init", str(a), "--node-cap", str(p["all6_cap"]), "--out", "json"),
                check_digraph_json(str(a), p["all6_cap"], p["all6_edges"])),
            Job(f"digraph-vrd-{v}", "cli",
                ("digraph", "--init", str(v), "--rules", "vr_d", "--out", "dot"),
                check_digraph_dot(p["vrd_nodes"], p["vrd_edges"], literal(gk_shape(v)[0]))),
            Job("decompose-necessity", "cli",
                ("decompose", "--source", p["dec_source"], "--target", p["dec_target"],
                 "--necessity"),
                check_necessity(p["dec_length"])),
            Job(f"paths-{n}", "paths", (str(n), str(p["paths_max"])),
                check_paths(n, p["paths_count"], p["paths_max"])),
        ]
    elif workload == "verify-suites":
        extra = () if p["verify_n_max"] is None else ("--n-max", str(p["verify_n_max"]))
        jobs = [
            Job(f"verify-{suite}", "cli",
                ("verify", "--suite", suite, "--seed", str(seed)) + extra,
                check_verify(suite, seed))
            for suite in VERIFY_SUITES
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, inputs
