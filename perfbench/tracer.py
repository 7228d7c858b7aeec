"""Traced in-process run of one workload: per-layer metrics measured from outside.

    python3 perfbench/tracer.py --workload W --seed N --seconds S --spans FILE [--smoke]

The jobs of the workload run in this one interpreter, through
``sandlab.cli.main(argv)`` and the library job of ``job.py``, in pairs of
passes: one untraced, one traced.  For the traced pass the public functions
at the layer boundaries are wrapped by rebinding their names in every sandlab
module that holds them (``cli`` and ``analysis`` import engine functions by
name) and in ``analysis.VERIFY_SUITES``; nothing under ``src/`` changes.
Each call records one span (name, start, end, parent, job).  Spans stay in
memory; the first traced pass's spans are written to FILE at the end.

The ``pile`` layer is too fine-grained to wrap, so its costs come from
replaying ``Configuration(...)``, ``hash``, ``to_literal`` and
``parse_literal`` on a sample of the states the traced pass produced.

Times are normalized to the nominal machine of ``reference.py``, using the
reference blocks sampled during each pass; counts and shares are as measured.  Prints
one JSON object: per-layer metrics (medians over traced passes), the exact
counts, and the jobs attempted and failed.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import job as jobmod  # noqa: E402
import workloads  # noqa: E402
from reference import Sampler, normalized  # noqa: E402

KERNELS = ("gk_step", "fp_step", "height_step", "symmetric_step", "gen1g_step")
BFS = ("sequential.explore_digraph", "sequential.decompose_parallel_transition")
WRAPPED = {
    "rules": KERNELS + ("step", "orbit"),
    "sequential": (
        "applicable_moves",
        "apply_move",
        "explore_digraph",
        "enumerate_paths",
        "decompose_parallel_transition",
        "necessity_analysis",
        "sequential_spm_orbit",
    ),
    "analysis": (
        "nn_search",
        "conservation_audit",
        "prediction_crosscheck",
        "enumerate_partition_spaces",
    ),
}

# per-layer metric -> (unit, better); BENCHMARK.json lists the same names
PER_LAYER = {
    "pile.construct_ns_per_cell": ("ns", "lower"),
    "pile.hash_ns_per_state": ("ns", "lower"),
    "pile.to_literal_ns_per_cell": ("ns", "lower"),
    "pile.parse_us_per_literal": ("us", "lower"),
    "rules.step_calls": ("count", "lower"),
    "rules.cells": ("count", "lower"),
    "rules.step_ns_per_cell.gk": ("ns", "lower"),
    "rules.step_ns_per_cell.fp": ("ns", "lower"),
    "rules.step_ns_per_cell.height": ("ns", "lower"),
    "rules.orbit_self_ns_per_step": ("ns", "lower"),
    "rules.share": ("ratio", "lower"),
    "sequential.nodes": ("count", "lower"),
    "sequential.edges": ("count", "lower"),
    "sequential.new_node_ratio": ("ratio", "higher"),
    "sequential.applicable_moves_calls_per_node": ("calls/node", "lower"),
    "sequential.applicable_moves_us_per_call": ("us", "lower"),
    "sequential.apply_move_us_per_call": ("us", "lower"),
    "sequential.bfs_self_us_per_node": ("us", "lower"),
    "sequential.decompose_us_per_node": ("us", "lower"),
    "sequential.paths_us_per_path": ("us", "lower"),
    "sequential.share": ("ratio", "lower"),
    **{
        f"analysis.suite_s.{suite}": ("s", "lower")
        for suite in workloads.VERIFY_SUITES
    },
    "analysis.self_share": ("ratio", "lower"),
    "analysis.nn_search_us_per_combo": ("us", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.serialize_ns_per_byte": ("ns", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

EXACT_COUNTS = (
    "rules.step_calls",
    "rules.cells",
    "sequential.nodes",
    "sequential.edges",
    "sequential.applicable_moves_calls_per_node",
    "cli.out_bytes",
)

SAMPLE_CAP = 1024


class StateSampler:
    """Deterministic thinning: keeps every stride-th offer, doubling the stride."""

    def __init__(self, cap: int):
        self.cap, self.stride, self.seen, self.items = cap, 1, 0, []

    def offer(self, item) -> None:
        if self.seen % self.stride == 0:
            self.items.append(item)
            if len(self.items) >= 2 * self.cap:
                self.items = self.items[::2]
                self.stride *= 2
        self.seen += 1


def _cells_in(args, kwargs, result):
    return len(args[0].values)


def _digraph_nodes(args, kwargs, result):
    return len(result.nodes)


def _explored_nodes(args, kwargs, result):
    return result.explored_nodes


def _result_len(args, kwargs, result):
    return len(result)


def _nn_combos(args, kwargs, result):
    """Value combinations nn_search enumerates: (bound + 1) ** cells per rule."""

    def bind(rule_family, window_radius, value_bound):
        return rule_family, window_radius, value_bound

    rule_family, radius, bound = bind(*args, **kwargs)
    total = 0
    for rule in rule_family:
        cells = {0} | {y for y in rule.neighborhood if abs(y) <= radius}
        cells |= {-y for y in cells}
        total += (bound + 1) ** len(cells)
    return total


# work units recorded per call, and the calls whose resulting states are sampled
WORK = {
    **{name: _cells_in for name in KERNELS},
    "explore_digraph": _digraph_nodes,
    "decompose_parallel_transition": _explored_nodes,
    "enumerate_paths": _result_len,
    "nn_search": _nn_combos,
}
SAMPLED = set(KERNELS) | {"apply_move"}


class Tracer:
    """Wraps the layer-boundary functions of the loaded sandlab modules."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.job = 0
        self.sample = StateSampler(SAMPLE_CAP)
        self.configuration = None  # pile.Configuration, bound by install()
        self._undo: list = []

    def fid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((self.fid(name), time.perf_counter_ns(), 0, self.stack[-1], self.job, 0))
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.stack.pop()
        fid, t0, _, parent, job, work = self.spans[idx]
        self.spans[idx] = (fid, t0, time.perf_counter_ns(), parent, job, work)

    def _wrap(self, name, fn, work=None, sample=False):
        fid = self.fid(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        offer, configuration = self.sample.offer, self.configuration
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                units = work(args, kwargs, result) if work and result is not None else 0
                spans[idx] = (fid, t0, t1, parent, tracer.job, units)
                if sample and type(result) is configuration:
                    offer(result)

        return wrapper

    def install(self) -> None:
        from sandlab import analysis, pile, rules, sequential

        self.configuration = pile.Configuration
        homes = {"rules": rules, "sequential": sequential, "analysis": analysis}
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sandlab"]
        for layer, names in WRAPPED.items():
            for name in names:
                fn = getattr(homes[layer], name, None)
                if fn is None:
                    continue  # a later layout may drop a name; trace the rest
                wrapper = self._wrap(f"{layer}.{name}", fn, WORK.get(name), name in SAMPLED)
                for module in modules:
                    if getattr(module, name, None) is fn:
                        setattr(module, name, wrapper)
                        self._undo.append((module, name, fn))
        suites = analysis.VERIFY_SUITES
        for suite, fn in list(suites.items()):
            suites[suite] = self._wrap(f"analysis.suite.{suite}", fn)
            self._undo.append((suites, suite, fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = fn
            else:
                setattr(owner, name, fn)
        self._undo.clear()


def run_job(job, tracer: Tracer | None = None) -> tuple[int, bytes, str]:
    """Run one job in this interpreter; returns (exit code, stdout, error)."""
    from sandlab import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.begin("job") if tracer else None
    error = ""
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if job.kind == "cli":
                inner = tracer.begin("cli.main") if tracer else None
                try:
                    code = cli.main(list(job.args))
                finally:
                    if tracer:
                        tracer.end(inner)
            else:
                print(jobmod.paths_job(int(job.args[0]), int(job.args[1])))
                code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        code, error = -1, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.end(span)
    return code, out.getvalue().encode(), error


def aggregate(tracer: Tracer) -> dict[int, dict[str, Counter]]:
    """Per job: calls, duration, self time and work units per span name.

    Two derived call counts ride along under ``calls``: ``bfs.<name>`` counts
    calls made inside a BFS engine, ``orbit.steps`` counts steps of an orbit.
    """
    names, spans = tracer.names, tracer.spans
    child = [0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    bfs = {names.index(n) for n in BFS if n in names}
    step_names = {"rules.step"} | {f"rules.{k}" for k in KERNELS}
    stepping = {i for i, n in enumerate(names) if n in step_names}
    under_bfs = bytearray(len(spans))
    jobs: dict[int, dict[str, Counter]] = {}
    for i, (f, t0, t1, parent, job, units) in enumerate(spans):
        agg = jobs.setdefault(job, {k: Counter() for k in ("calls", "dur", "self", "work")})
        name = names[f]
        agg["calls"][name] += 1
        agg["dur"][name] += t1 - t0
        agg["self"][name] += t1 - t0 - child[i]
        agg["work"][name] += units
        if parent >= 0:
            pf = spans[parent][0]
            if pf in bfs or under_bfs[parent]:
                under_bfs[i] = 1
                agg["calls"]["bfs." + name] += 1
            if names[pf] == "rules.orbit" and f in stepping:
                agg["calls"]["orbit.steps"] += 1
    return jobs


def layer_metrics(agg: dict[str, Counter], out_bytes: int) -> dict[str, float]:
    """Per-layer metrics from aggregated spans (one job or a whole pass)."""
    calls, dur, self_ns, work = agg["calls"], agg["dur"], agg["self"], agg["work"]

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    def layer_self(layer):
        return sum(t for name, t in self_ns.items() if name.split(".")[0] == layer)

    total = dur["job"]
    explore, decompose = BFS
    nodes = work[explore] + work[decompose]
    roots = calls[explore] + calls[decompose]
    edges = calls["bfs.sequential.apply_move"]
    m = {
        "rules.step_calls": sum(calls[f"rules.{k}"] for k in KERNELS),
        "rules.cells": sum(work[f"rules.{k}"] for k in KERNELS),
        "rules.orbit_self_ns_per_step": ratio(self_ns["rules.orbit"], calls["orbit.steps"]),
        "rules.share": ratio(layer_self("rules"), total),
        "sequential.nodes": nodes,
        "sequential.edges": edges,
        "sequential.new_node_ratio": ratio(nodes - roots, edges),
        "sequential.applicable_moves_calls_per_node": ratio(
            calls["bfs.sequential.applicable_moves"], nodes
        ),
        "sequential.applicable_moves_us_per_call": ratio(
            self_ns["sequential.applicable_moves"], calls["sequential.applicable_moves"], 1e-3
        ),
        "sequential.apply_move_us_per_call": ratio(
            self_ns["sequential.apply_move"], calls["sequential.apply_move"], 1e-3
        ),
        "sequential.bfs_self_us_per_node": ratio(
            self_ns[explore] + self_ns[decompose], nodes, 1e-3
        ),
        "sequential.decompose_us_per_node": ratio(dur[decompose], work[decompose], 1e-3),
        "sequential.paths_us_per_path": ratio(
            dur["sequential.enumerate_paths"], work["sequential.enumerate_paths"], 1e-3
        ),
        "sequential.share": ratio(layer_self("sequential"), total),
        "analysis.self_share": ratio(layer_self("analysis"), total),
        "analysis.nn_search_us_per_combo": ratio(
            dur["analysis.nn_search"], work["analysis.nn_search"], 1e-3
        ),
        "cli.out_bytes": out_bytes,
        "cli.self_s": self_ns["cli.main"] * 1e-9,
        "cli.serialize_ns_per_byte": ratio(self_ns["cli.main"], out_bytes),
    }
    for kind in ("gk", "fp", "height"):
        name = f"rules.{kind}_step"
        m[f"rules.step_ns_per_cell.{kind}"] = ratio(self_ns[name], work[name])
    for suite in workloads.VERIFY_SUITES:
        m[f"analysis.suite_s.{suite}"] = dur[f"analysis.suite.{suite}"] * 1e-9
    return m


def normalize_times(metrics: dict[str, float], ref_s: float) -> dict[str, float]:
    """Time-valued metrics in nominal-machine units (see reference.py)."""
    return {
        name: normalized(value, ref_s) if PER_LAYER[name][0] in ("ns", "us", "s") else value
        for name, value in metrics.items()
    }


def replay_pile(states, repeats: int = 5) -> dict[str, float]:
    """Replay pile operations on sampled states; medians over ``repeats``."""
    from sandlab import pile

    configuration, to_literal, parse_literal = (
        pile.Configuration,
        pile.to_literal,
        pile.parse_literal,
    )
    states = [s for s in states if s.values]
    if not states:
        return {name: 0.0 for name in PER_LAYER if name.startswith("pile.")}
    raw = [(s.values, s.offset) for s in states]
    literals = [to_literal(s) for s in states]
    cells = sum(len(v) for v, _ in raw)
    literal_cells = sum(text.count(",") + 1 for text in literals)

    def timed(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t0)
        return statistics.median(times)

    return {
        "pile.construct_ns_per_cell": timed(lambda: [configuration(v, o) for v, o in raw]) / cells,
        "pile.hash_ns_per_state": timed(lambda: [hash(s) for s in states]) / len(states),
        "pile.to_literal_ns_per_cell": timed(lambda: [to_literal(s) for s in states])
        / literal_cells,
        "pile.parse_us_per_literal": timed(lambda: [parse_literal(t) for t in literals])
        / len(literals)
        * 1e-3,
    }


def write_spans(path: Path, tracer: Tracer) -> None:
    with gzip.open(path, "wt") as out:
        for fid, t0, t1, parent, job, work in tracer.spans:
            out.write(json.dumps([tracer.names[fid], t0, t1, parent, job, work]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    jobs, inputs = workloads.build(args.workload, args.seed, args.smoke)
    checker = workloads.Checker()
    attempted, failed, errors = 0, 0, []

    def record(job, code, out, error, mode):
        nonlocal attempted, failed
        attempted += 1
        problems = [error] if error else checker.problems(job, code, out)
        if problems:
            failed += 1
            errors.append({"job": job.id, "mode": mode, "errors": problems})

    import sandlab.cli  # noqa: F401  (import cost stays out of the first pass)

    passes, overheads, counts_by_job, first = [], [], [], None
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        with Sampler() as speed_untraced:
            untraced = 0.0
            for job in jobs:
                t0 = time.perf_counter()
                code, out, error = run_job(job)
                untraced += time.perf_counter() - t0
                record(job, code, out, error, "untraced")
        tracer = Tracer()
        tracer.install()
        out_bytes, traced = [0] * len(jobs), 0.0
        try:
            with Sampler() as speed_traced:
                for index, job in enumerate(jobs):
                    tracer.job = index
                    t0 = time.perf_counter()
                    code, out, error = run_job(job, tracer)
                    traced += time.perf_counter() - t0
                    record(job, code, out, error, "traced")
                    if job.kind == "cli":
                        out_bytes[index] = len(out)
        finally:
            tracer.uninstall()
        per_job = aggregate(tracer)
        total = {k: sum((agg[k] for agg in per_job.values()), Counter()) for k in per_job[0]}
        passes.append(
            normalize_times(layer_metrics(total, sum(out_bytes)), speed_traced.ref_s())
        )
        counts_by_job.append(
            {
                job.id: {
                    name: value
                    for name, value in layer_metrics(per_job[index], out_bytes[index]).items()
                    if name in EXACT_COUNTS
                }
                for index, job in enumerate(jobs)
            }
        )
        overheads.append(
            normalized(traced, speed_traced.ref_s())
            / normalized(untraced, speed_untraced.ref_s())
        )
        if first is None:
            first = tracer  # its spans and sampled states are kept for the end
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > args.seconds:
            break

    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    with Sampler() as speed_replay:
        pile_metrics = replay_pile(first.sample.items)
    metrics.update(normalize_times(pile_metrics, speed_replay.ref_s()))
    metrics["trace.overhead_ratio"] = statistics.median(overheads)
    exact = {name: passes[0][name] for name in EXACT_COUNTS}
    if any(counts != counts_by_job[0] for counts in counts_by_job):
        failed += 1
        errors.append({"job": "*", "mode": "traced", "errors": ["exact counts differ between passes"]})
    write_spans(args.spans, first)
    print(
        json.dumps(
            {
                "inputs": inputs,
                "jobs": {job.id: [job.kind, *job.args] for job in jobs},
                "attempted": attempted,
                "failed": failed,
                "errors": errors,
                "metrics": metrics,
                "exact_counts": exact,
                "exact_counts_by_job": counts_by_job[0],
                "traced_passes": len(passes),
                "overhead_ratios": overheads,
                "wrapped": sorted(set(first.names)),
                "spans": len(first.spans),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
