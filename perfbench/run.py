#!/usr/bin/env python3
"""Benchmark entry point for chromarep.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it times the workload's ``bench`` pass in a closed loop
(one client, one call at a time) for S seconds and prints the end-to-end
metrics, its timings scaled to the reference host's speed by a calibration
kernel run between passes.  With ``--trace 1`` it solves the ``full``
workload once with the tracer installed and prints the per-layer metrics,
then alternates plain and traced ``bench`` passes for S seconds to measure
the tracing overhead.
Every verdict is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
record, and in a traced run the spans, are written under ``perfbench/out``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 6  # fresh processes timing set-up, besides this one
TAIL_BEYOND = 10  # samples above the reported tail percentile
# The calibration kernel's time on the reference host (2 cores, Python
# 3.11.7) when it is quiet.  Timings are reported in seconds at that host
# speed; changing it makes old and new figures incomparable.
REFERENCE_KERNEL_S = 0.0125


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up once, print it and exit")
    return p.parse_args(argv)


def setup(name: str, size: str, seed: int):
    """Import chromarep and build the workload's requests.

    Returns (seconds, requests).  Importing the benchmark's own workload
    module is what imports chromarep, so both are inside the timing.
    """
    start = time.perf_counter()
    if not (SRC / "chromarep" / "__init__.py").is_file():
        raise SystemExit(f"chromarep sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import chromarep
    import workloads
    if Path(chromarep.__file__).resolve().parent != SRC / "chromarep":
        raise SystemExit(f"imported chromarep from {chromarep.__file__}")
    requests = workloads.build(name, size, seed)
    return time.perf_counter() - start, requests


def timed_setup(name: str, size: str, seed: int):
    """Set-up seconds, the calibration kernel's seconds around them, and
    the requests."""
    before = calibration_kernel()
    seconds, requests = setup(name, size, seed)
    return seconds, (before + calibration_kernel()) / 2, requests


def probe_setup(args) -> tuple[float, float]:
    """Set-up and kernel seconds of a fresh process importing chromarep."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    return probe["setup_s"], probe["kernel_s"]


def calibration_kernel() -> float:
    """Seconds to count the 9-queens solutions: a fixed pure-Python
    backtracking search, independent of chromarep, that reads the host's
    speed at the moment it runs."""
    n, count = 9, 0
    cols, sums, diffs = set(), set(), set()

    def place(row):
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if c in cols or row + c in sums or row - c in diffs:
                continue
            cols.add(c), sums.add(row + c), diffs.add(row - c)
            place(row + 1)
            cols.remove(c), sums.remove(row + c), diffs.remove(row - c)

    start = time.perf_counter()
    place(0)
    seconds = time.perf_counter() - start
    if count != 352:
        raise RuntimeError(f"calibration kernel counted {count}, not 352")
    return seconds


def git_commit():
    """The checked-out commit, read from .git without running git."""
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


class Verdicts:
    """Verdicts attempted and failed; an exception counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, request, tracer=None):
        """Make the request, check its verdict, return the call's seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                verdict = request.call()
            else:
                verdict = tracer.call(request.span, request.call)
            seconds = time.perf_counter() - start
            ok = request.check(verdict)
        except Exception as exc:  # a crash is a wrong verdict, reported
            seconds = time.perf_counter() - start
            ok = False
            print(f"# error in {request.label}: {exc!r}", file=sys.stderr)
        if not ok:
            self.failed += 1
            print(f"# wrong verdict: {request.label}", file=sys.stderr)
        return seconds


def run_pass(requests, verdicts, tracer=None, run=""):
    """One pass over the requests; returns the seconds spent in calls."""
    total = 0.0
    for k, request in enumerate(requests):
        if tracer is not None:
            tracer.run = f"{run}/{k}"
        total += verdicts.run(request, tracer)
    return total


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples above it, and that
    percentile; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def untraced(args, record, verdicts):
    own, kernel, requests = timed_setup(args.workload, "bench", args.seed)
    setups = [(own, kernel)]
    run_pass(requests, verdicts)  # warm-up, not timed
    # The host's speed drifts within seconds, so passes alternate with the
    # calibration kernel and each pass is scaled by the kernel times just
    # before and after it.  Set-up probes are spread over the run.
    samples, kernels = [], [calibration_kernel()]
    start = time.perf_counter()
    while not samples or time.perf_counter() < start + args.seconds:
        samples.append(run_pass(requests, verdicts))
        kernels.append(calibration_kernel())
        elapsed = time.perf_counter() - start
        if len(setups) * args.seconds <= SETUP_PROBES * elapsed:
            setups.append(probe_setup(args))
    while len(setups) <= SETUP_PROBES:
        setups.append(probe_setup(args))

    scaled = [s * 2 * REFERENCE_KERNEL_S / (kernels[k] + kernels[k + 1])
              for k, s in enumerate(samples)]
    tail_ref, tail_pct = tail(scaled)
    record.update(samples=len(samples), tail_percentile=tail_pct,
                  raw_wall_s=statistics.median(samples),
                  raw_wall_s_tail=tail(samples)[0],
                  raw_setup_s=statistics.median(s for s, _ in setups),
                  kernel_s=statistics.median(kernels),
                  setups=setups, pass_seconds=samples, kernel_seconds=kernels)
    return {
        "wall_ref_s": statistics.median(scaled),
        "wall_ref_s_tail": tail_ref,
        "setup_s": statistics.median(s * REFERENCE_KERNEL_S / k
                                     for s, k in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def traced(args, record, verdicts):
    import tracer as tracing
    _, full = setup(args.workload, "full", args.seed)
    import workloads  # importable once set-up has put src/ on the path
    bench = workloads.build(args.workload, "bench", args.seed)

    tracer = tracing.Tracer()
    with tracer.installed():
        full_s = run_pass(full, verdicts, tracer, "full")
    metrics = tracing.per_layer(tracer.spans)

    plain, with_spans = [], []
    deadline = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < deadline:
        plain.append(run_pass(bench, verdicts))
        with tracer.installed():
            with_spans.append(run_pass(bench, verdicts, tracer,
                                       f"overhead{len(plain)}"))
    metrics["trace.overhead_ratio"] = (statistics.median(with_spans)
                                       / statistics.median(plain))

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    record.update(full_pass_s=full_s, overhead_samples=len(plain),
                  spans=len(tracer.spans))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        seconds, kernel, _ = timed_setup(args.workload, "bench", args.seed)
        print(json.dumps({"setup_s": seconds, "kernel_s": kernel}))
        return 0

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started": time.time(), "loadavg": os.getloadavg(),
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "commit": git_commit(),
              "calibration_s": statistics.median(
                  calibration_kernel() for _ in range(5)),
              "reference_kernel_s": REFERENCE_KERNEL_S}
    verdicts = Verdicts()
    run = traced if args.trace else untraced
    metrics = run(args, record, verdicts)
    record.update(attempted=verdicts.attempted, failed=verdicts.failed,
                  fail_ratio=verdicts.failed / verdicts.attempted,
                  metrics=metrics)

    OUT.mkdir(exist_ok=True)
    stem = f"run-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = set(metrics) ^ {m["name"] for m in declared}
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {mismatch}")
    print("# record " + json.dumps({k: v for k, v in record.items()
                                    if k not in ("metrics", "setups",
                                                 "pass_seconds",
                                                 "kernel_seconds")}))
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
