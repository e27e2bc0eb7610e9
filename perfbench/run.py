#!/usr/bin/env python3
"""turantools benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-bowtie --seed 1 --seconds 30 --trace 0

Runs the named workload in this process against the turantools tree in
``src/`` (whichever kernel backend ``import turantools`` selects),
as many times as its nominal duration fits into ``--seconds`` (at
least once).
Every repetition's answers pass the workload's known-answer gates
after the last repetition, once peak memory has been read.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the line before it holds the run metadata.  With ``--trace 1`` each
repetition is one untraced run followed by one traced run; the metrics
are the per-layer ones plus the tracing overhead, and the spans are
written to ``perfbench/out/<workload>.spans.jsonl``.  Exit status is 0
when every gate passed, 1 when one failed, 2 on a usage error or when
there is no source tree to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
TRACED_REP = 2.2  # an untraced plus a traced execution, in untraced executions

# Runs in a fresh interpreter: import the package and build the inputs.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import turantools
import workloads
workloads.WORKLOADS[sys.argv[3]].build(int(sys.argv[4]))
print(time.perf_counter() - start)
"""


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class _Gate:
    """Holds the outputs of a run's executions until ``check`` gates them,
    so the gates' own memory stays out of the run's peak.  An output equal
    to one already held (the CLI output is deterministic) is held once
    and its verdict counted for each execution."""

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs
        self.attempted = 0
        self.failures: list[str] = []
        self._held: list = []  # [output, executions that returned it]

    def hold(self, output):
        if isinstance(output, tuple):
            for entry in self._held:
                if entry[0] == output:
                    entry[1] += 1
                    return
        self._held.append([output, 1])

    def check(self):
        for output, times in self._held:
            verdict = self.wl.check(self.inputs, output)
            self.attempted += times * verdict.attempted
            self.failures.extend(verdict.failures * times)
        self._held = []


def _setup_seconds(wl, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(HERE), wl.name, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return _median(times)


def _cpu_seconds():
    """CPU time of this process and of its children that have exited
    (pool workers are joined before an execution returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _own_peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _idle_worker_kb(workers):
    """Peak RSS in KiB of a pool worker that ran nothing, started from
    this process as the program's workers are."""
    if not workers:
        return 0
    with ProcessPoolExecutor(max_workers=1) as pool:
        return pool.submit(_own_peak_kb).result(timeout=60)


def _peak_rss_kb(workers, idle_kb):
    """(total, own peak, largest worker peak) in KiB.  The total is this
    process's peak plus, per pool worker, what the largest worker peak
    adds to an idle worker's: a worker shares the pages it was started
    with, and getrusage reports only the maximum over children."""
    own = _own_peak_kb()
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return own + workers * max(0, child - idle_kb), own, child


def _percentile(xs, q):
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "turantools").glob("*")):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(wl, seed, seconds, trace, spans_path=None):
    """Run one workload; returns (metadata, result) as printed."""
    import numpy
    import turantools

    import tracing
    from workloads import REP_S

    start = time.perf_counter()
    inputs = wl.build(seed)
    build_s = time.perf_counter() - start
    gate = _Gate(wl, inputs)
    items = wl.items(inputs)
    meta = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "kernel_backend": turantools.KERNEL_BACKEND, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_rev": _git_rev(), "src_sha256": _source_digest(),
        "random_input": wl.random_input, "inputs": wl.sizes(inputs),
        "input_build_s": build_s,
    }
    if not wl.random_input:
        meta["note"] = "takes no random input; the seed is only recorded"
    metrics = {}
    reps = max(1, int(seconds // (REP_S * (TRACED_REP if trace else 1))))
    if not trace:
        walls, cpus, latencies = [], [], []
        idle_kb = _idle_worker_kb(wl.workers)
        for _ in range(reps):
            c = _cpu_seconds()
            t = time.perf_counter()
            outcome = wl.execute(inputs)
            walls.append(time.perf_counter() - t)
            cpus.append(_cpu_seconds() - c)
            gate.hold(outcome.output)
            latencies.extend(outcome.item_seconds)
        peak_kb, own_kb, worker_kb = _peak_rss_kb(wl.workers, idle_kb)
        gate.check()
        wall = _median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "items_per_s": (items / wall, "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (_setup_seconds(wl, seed), "s"),
        }
        meta.update({"walls_s": walls, "cpus_s": cpus,
                     "rss_kb": {"own_peak": own_kb, "worker_peak": worker_kb,
                                "idle_worker": idle_kb}})
        if latencies:
            p90 = _percentile(latencies, 0.9)
            meta["item_latency"] = {
                "p50_ms": 1000 * _percentile(latencies, 0.5), "p90_ms": 1000 * p90,
                "samples": len(latencies), "beyond_p90": sum(x > p90 for x in latencies),
            }
    else:
        tracer = tracing.Tracer()
        plain, traced = [], []
        for rep in range(reps):
            t = time.perf_counter()
            outcome = wl.execute(inputs)
            plain.append(time.perf_counter() - t)
            gate.hold(outcome.output)
            tracer.run = rep
            uninstall = tracing.install(tracer)
            try:
                t = time.perf_counter()
                outcome = wl.execute(inputs, tracer)
                traced.append(time.perf_counter() - t)
            finally:
                uninstall()
            gate.hold(outcome.output)
        gate.check()
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (_median(traced) - _median(plain), "s")
        meta.update({"walls_s": plain, "traced_walls_s": traced, "spans": len(tracer.spans)})
        if not tracing.kernels_traceable():
            meta["absent"] = list(tracing.KERNEL_METRICS)
        if wl.workers:
            meta["worker_side"] = ("pool workers run the untraced program: kernel.* and "
                                   "enumeration.augment_s count the benchmark process "
                                   "only; worker-side spans wait for tracing inside the program")
        path = spans_path or HERE / "out" / f"{wl.name}.spans.jsonl"
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(tracer, path)
        meta["spans_file"] = str(path)
    failed = len(gate.failures)
    meta["error_rate"] = failed / gate.attempted if gate.attempted else 1.0
    meta["failures"] = gate.failures[:20]
    result = {
        "correct": failed == 0 and gate.attempted > 0,
        "attempted": max(gate.attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return meta, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "turantools" / "__init__.py").is_file():
        print(f"perfbench: no turantools source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    meta, result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
