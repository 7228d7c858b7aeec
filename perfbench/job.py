"""Run one benchmark job in this interpreter and record its peak memory.

    python3 perfbench/job.py RECORD_FILE cli ARGV...      # sandlab.cli.main(ARGV)
    python3 perfbench/job.py RECORD_FILE paths N MAX_PATHS

On exit the job writes a JSON record to RECORD_FILE: its own peak resident
memory (``vmhwm_kb``, ``VmHWM`` from /proc/self/status) and the reference
block times sampled while it ran (``blocks``, see reference.py).  The memory
figure belongs to this process alone: ``wait4``'s ``ru_maxrss`` would carry
over the parent's high-water mark across fork+exec.  The exit code is the
job's own.
"""

from __future__ import annotations

import json
import sys

from reference import Sampler


def paths_job(n: int, max_paths: int) -> str:
    """``sequential_spm_orbit(n)`` then ``enumerate_paths`` with an explicit cap.

    The path count is checked against this job's own count by dynamic
    programming over the digraph's edges in topological order.  Names are
    looked up on the modules at call time so that a tracer can rebind them.
    """
    from sandlab import pile, sequential

    summary = sequential.sequential_spm_orbit(pile.Configuration((n,)))
    digraph, target = summary.digraph, summary.equilibrium
    paths = sequential.enumerate_paths(digraph, target, max_paths=max_paths)

    indegree = {node: 0 for node in digraph.nodes}
    out = {node: [] for node in digraph.nodes}
    for a, _, b in digraph.edges:
        out[a].append(b)
        indegree[b] += 1
    ways = dict.fromkeys(digraph.nodes, 0)
    ways[digraph.root] = 1
    ready = [node for node, deg in indegree.items() if deg == 0]
    while ready:
        node = ready.pop()
        for succ in out[node]:
            ways[succ] += ways[node]
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    return json.dumps(
        {
            "n": n,
            "max_paths": max_paths,
            "paths": len(paths),
            "dp_paths": ways[target],
            "path_lengths": sorted({len(p) for p in paths}),
            "equilibrium": pile.to_literal(target),
            "nodes": len(digraph.nodes),
            "edges": len(digraph.edges),
        }
    )


def run(kind: str, args: list[str]) -> int:
    if kind == "cli":
        from sandlab import cli

        return cli.main(args)
    if kind == "paths":
        print(paths_job(int(args[0]), int(args[1])))
        return 0
    raise ValueError(f"unknown job kind {kind!r}")


def peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list[str]) -> int:
    record_file, kind, *args = argv
    sampler = Sampler()
    try:
        with sampler:
            return run(kind, args)
    finally:
        sys.stdout.flush()
        with open(record_file, "w") as out:
            json.dump({"vmhwm_kb": peak_rss_kb(), "blocks": sampler.blocks}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
