"""sandlab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload orbit-wide --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table
    python3 perfbench/run.py --smoke                          # self-test on tiny inputs

Run it from anywhere; it benchmarks the sandlab source in ``src/`` next to
this directory and needs nothing outside the standard library.

Untraced (``--trace 0``): a closed loop with one client.  Each job of the
workload is a fresh ``python3 perfbench/job.py`` process; the whole job list
runs, in an order shuffled from the seed, again and again until ``--seconds``
is spent.  Every time is normalized to the machine's speed (see
``reference.py``): a job's by the reference blocks it timed while it ran, a
set-up probe's by the references timed just before and after it.  Raw
seconds go to the result file.  Reported:

* ``setup_s``      median time for a fresh interpreter to import sandlab and
                   build the CLI parser (one spawn before every job);
* ``wall_s``       sum over jobs of the median time from spawn to exit with
                   stdout fully read: the time to finish the job list;
* ``first_byte_s`` sum over jobs of the median time from spawn to the first
                   stdout byte;
* ``peak_rss_mb``  largest median peak resident memory (each job's VmHWM).

Every job's output is checked (see ``workloads.py``); a wrong answer, an
unexpected exit code or a timeout fails the job.  ``failed / attempted`` in
the result line is the failure ratio.

Traced (``--trace 1``): ``tracer.py`` runs the same jobs in one process, with
and without spans at the layer boundaries, and reports per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record (seed, generated inputs, per-job
samples, provenance) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

import tracer  # noqa: E402
import workloads  # noqa: E402
from reference import normalized, reference_s  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "first_byte_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
JOB_TIMEOUT_S = 100
RUN_LIMIT_S = 150  # even on a much slower program a run ends within three minutes
MIN_REPEATS = 3
# Jobs, set-up probes and the speed reference share one CPU, so the reference
# measures the CPU the job runs on (on a shared VM, CPUs drift independently);
# this process reads job output from the other CPU.
_CPUS = sorted(os.sched_getaffinity(0))
JOB_CPU, READER_CPU = {_CPUS[-1]}, {_CPUS[0]}
SETUP_PROBE = (
    "import sandlab, sandlab.cli; sandlab.cli.build_parser(); print(sandlab.__file__)"
)


def child_env() -> dict[str, str]:
    """The caller's environment without settings that change what jobs do.

    PYTHON* variables such as PYTHONUNBUFFERED would change when output
    reaches the pipe; SANDLAB_SEED would override ``verify --seed``.
    """
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "SANDLAB_SEED"
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def time_setup(env) -> float:
    """Time one fresh interpreter importing sandlab (from SRC) and building the parser."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"importing sandlab failed:\n{done.stderr}")
    if not Path(done.stdout.strip()).resolve().is_relative_to(SRC):
        raise SystemExit(f"sandlab was imported from {done.stdout.strip()}, not {SRC}")
    return elapsed


def spawn_job(job, env, scratch: Path, timeout: float) -> dict:
    """Run one job in a fresh process; time it and read its stdout and VmHWM."""
    record_file, err_file = scratch.with_suffix(".rec"), scratch.with_suffix(".err")
    record_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "job.py"), str(record_file), job.kind, *job.args]
    timed_out = threading.Event()
    chunks = []
    with open(err_file, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
    os.sched_setaffinity(0, READER_CPU)

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    first = None
    try:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 20):
            if first is None:
                first = time.perf_counter()
            chunks.append(chunk)
        code = proc.wait()
        end = time.perf_counter()
    finally:
        os.sched_setaffinity(0, JOB_CPU)
        killer.cancel()
        if proc.poll() is None:  # interrupted while reading: leave no job behind
            proc.kill()
            proc.wait()
        proc.stdout.close()
    out = b"".join(chunks)
    try:
        record = json.loads(record_file.read_text())
    except (OSError, ValueError):
        record = None
    return {
        "code": code,
        "out": out,
        "stderr": err_file.read_bytes().decode(errors="replace")[-2000:],
        "wall_s": end - t0,
        "first_byte_s": (first if first is not None else end) - t0,
        "peak_rss_mb": record["vmhwm_kb"] / 1024 if record else None,
        "ref_s": statistics.median(record["blocks"]) if record else None,
        "timed_out": timed_out.is_set(),
    }


def run_untraced(workload, seed, seconds, smoke) -> dict:
    jobs, inputs = workloads.build(workload, seed, smoke)
    env = child_env()
    os.sched_setaffinity(0, JOB_CPU)
    time_setup(env)  # warm-up: checks the import path and fills the file cache
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f".job-{os.getpid()}"
    order_rng = random.Random(f"order:{workload}:{seed}")
    checker = workloads.Checker()
    errors, failed = [], 0
    min_repeats = 1 if smoke else MIN_REPEATS
    # one slot per job run, in order; refs[i] and refs[i + 1] bracket slot i
    slots, refs, rep_times = [], [reference_s()], []
    start = time.perf_counter()
    out_of_time = False
    try:
        while not out_of_time:
            rep_start = time.perf_counter()
            order = list(jobs)
            order_rng.shuffle(order)
            for job in order:
                remaining = RUN_LIMIT_S - (time.perf_counter() - start)
                if remaining <= 0:
                    out_of_time = True
                    break
                # one set-up sample per job spreads them over the whole run
                setup_s = time_setup(env)
                timeout = min(JOB_TIMEOUT_S, remaining)
                r = spawn_job(job, env, scratch, timeout)
                refs.append(reference_s())
                if r["timed_out"]:
                    problems = [f"timed out after {timeout:.0f} s"]
                elif r["peak_rss_mb"] is None:
                    problems = ["job wrote no record", r["stderr"]]
                else:
                    problems = checker.problems(job, r["code"], r["out"])
                if problems:
                    failed += 1
                    errors.append({"job": job.id, "errors": problems})
                run = None if problems else {
                    k: r[k] for k in ("wall_s", "first_byte_s", "peak_rss_mb", "ref_s")
                }
                slots.append({"job": job.id, "setup_s": setup_s, "run": run})
            rep_times.append(time.perf_counter() - rep_start)
            # stop when another repeat would end more than half a repeat past `seconds`
            spent = time.perf_counter() - start
            if len(rep_times) >= min_repeats and spent + statistics.median(rep_times) / 2 > seconds:
                break
    finally:
        for leftover in (".rec", ".err"):
            scratch.with_suffix(leftover).unlink(missing_ok=True)

    # a job samples the machine's speed itself; a set-up probe is too short
    # to, so the references taken before and after its slot stand in
    for slot, before, after in zip(slots, refs, refs[1:]):
        slot["ref_s"] = (before + after) / 2

    reached = {slot["job"] for slot in slots}
    unreached = [job.id for job in jobs if job.id not in reached]
    for job_id in unreached:
        errors.append({"job": job_id, "errors": [f"not started within {RUN_LIMIT_S} s"]})

    # a job that never passed contributes nothing; it is counted in `failed`
    passed: dict[str, list] = {}
    for slot in slots:
        if slot["run"] is not None:
            passed.setdefault(slot["job"], []).append(slot)

    def times(norm: bool) -> dict[str, float]:
        def scale(value, ref_s):
            return normalized(value, ref_s) if norm else value

        def total(key):
            return sum(
                statistics.median(scale(x["run"][key], x["run"]["ref_s"]) for x in runs)
                for runs in passed.values()
            )

        return {
            "setup_s": statistics.median(scale(x["setup_s"], x["ref_s"]) for x in slots),
            "wall_s": total("wall_s"),
            "first_byte_s": total("first_byte_s"),
        }

    metrics = times(norm=True)
    metrics["peak_rss_mb"] = max(
        (statistics.median(x["run"]["peak_rss_mb"] for x in runs) for runs in passed.values()),
        default=0.0,
    )
    return {
        "inputs": inputs,
        "jobs": {job.id: [job.kind, *job.args] for job in jobs},
        "repeats": len(rep_times),
        "repeat_s": rep_times,
        "slots": slots,
        "references_s": refs,
        "attempted": len(slots) + len(unreached),
        "failed": failed + len(unreached),
        "errors": errors,
        "metrics": metrics,
        "raw_seconds": times(norm=False),
        "units": END_TO_END,
    }


def run_traced(workload, seed, seconds, smoke) -> dict:
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans_{workload}_seed{seed}.jsonl.gz"
    cmd = [
        sys.executable, str(HERE / "tracer.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--spans", str(spans),
    ] + (["--smoke"] if smoke else [])
    os.sched_setaffinity(0, JOB_CPU)  # inherited by the tracer, which is one process
    try:
        done = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=170
        )
    except subprocess.TimeoutExpired:
        raise SystemExit("traced run did not finish within 170 s") from None
    if done.returncode != 0:
        raise SystemExit(f"traced run failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    result["spans_file"] = str(spans.relative_to(ROOT))
    result["units"] = {name: unit for name, (unit, _) in tracer.PER_LAYER.items()}
    return result


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over src/ (paths and contents): identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": _CPUS,
        "job_cpu": sorted(JOB_CPU),
        "reader_cpu": sorted(READER_CPU),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_one(workload, seed, seconds, trace, smoke) -> dict:
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    if trace:
        result = run_traced(workload, seed, seconds, smoke)
    else:
        result = run_untraced(workload, seed, seconds, smoke)
    result.update(
        workload=workload,
        why=workloads.WHY[workload],
        seed=seed,
        seconds=seconds,
        trace=trace,
        smoke=smoke,
        elapsed_s=time.perf_counter() - t0,
        loadavg_before=load_before,
        loadavg_after=os.getloadavg(),
        provenance=provenance(),
    )
    result["correct"] = result["failed"] == 0 and set(result["metrics"]) >= expected_names(trace)
    result["fail_ratio"] = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    tag = "smoke_" if smoke else ""
    path = RESULTS / f"{tag}{workload}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(result, indent=1))
    return result


def expected_names(trace: int) -> set[str]:
    return set(tracer.PER_LAYER) if trace else set(END_TO_END)


def print_table(result) -> None:
    units = result["units"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"fail_ratio={result['fail_ratio']:.3f} load={result['loadavg_before'][0]:.2f}"
        f"->{result['loadavg_after'][0]:.2f}"
    )
    for name in sorted(result["metrics"]):
        print(f"  {name:48s} {result['metrics'][name]:14.6g} {units[name]}")
    for name, value in sorted(result.get("raw_seconds", {}).items()):
        print(f"  {name + ' (raw, not normalized)':48s} {value:14.6g} s")
    for problem in result["errors"]:
        print(f"  FAIL {problem['job']}: {'; '.join(problem['errors'])}")


def summary_line(results, prefix_names: bool) -> str:
    metrics = {}
    for r in results:
        for name in sorted(r["metrics"]):
            key = f"{r['workload']}.{name}" if prefix_names else name
            metrics[key] = {"value": r["metrics"][name], "unit": r["units"][name]}
    return json.dumps(
        {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    )


def declared_mismatches() -> list[str]:
    """Differences between BENCHMARK.json and the names and units produced here."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = {
        "workloads": {e["name"] for e in declared["workloads"]},
        "end_to_end": {(e["name"], e["unit"]) for e in declared["end_to_end"]},
        "per_layer": {(e["name"], e["unit"], e["better"]) for e in declared["per_layer"]},
    }
    produced = {
        "workloads": set(workloads.WORKLOADS),
        "end_to_end": set(END_TO_END.items()),
        "per_layer": {(n, unit, better) for n, (unit, better) in tracer.PER_LAYER.items()},
    }
    return [
        f"{key}: {sorted(found[key] ^ produced[key])} differ"
        for key in produced
        if found[key] != produced[key]
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true",
        help="self-test: every workload, both modes, tiny inputs, one repeat",
    )
    args = ap.parse_args(argv)
    if not (SRC / "sandlab" / "__init__.py").is_file():
        print(f"error: no sandlab source at {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        runs = [(w, t) for t in (0, 1) for w in workloads.WORKLOADS]
        seconds = 0
    elif args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    else:
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        runs = [(w, args.trace) for w in names]
        seconds = args.seconds
    results = []
    for workload, trace in runs:
        result = run_one(workload, args.seed, seconds, trace, args.smoke)
        print_table(result)
        results.append(result)
    if args.smoke:
        problems = declared_mismatches()
        for problem in problems:
            print(f"  FAIL BENCHMARK.json {problem}")
        if problems:
            results[0]["correct"] = False
    print(summary_line(results, prefix_names=len(results) > 1))
    # a wrong answer is reported in the result line; only the self-test fails on it
    return 1 if args.smoke and not all(r["correct"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
