#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in a few seconds.

    python3 perfbench/smoke.py

Runs every workload's checks on its ``smoke`` inputs, untraced and then
traced; checks that the tracer reports exactly the per-layer metrics that
BENCHMARK.json names, with exact counts where they are known, and that it
puts the wrapped functions back; checks that a wrong verdict and a crash
both count as failures; and runs ``run.py`` once end to end.  Exits 0 when
everything holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run
import tracer as tracing

SEED = 1

# Exact per-layer counts of each workload's smoke pass.
EXACT = {
    "certificate": {"search.m5.nodes": 606, "search.m6.nodes": 5640,
                    "search.nodes": 6246, "search.leaf_verify.calls": 0},
    "strong-search": {"search.nodes": 1001},
    "enumerate-iso": {"search.enumerate.classes": 3},
    "catalogue": {},
}


def smoke_workload(name, spec, problems):
    _, requests = run.setup(name, "smoke", SEED)
    verdicts = run.Verdicts()
    run.run_pass(requests, verdicts)

    tracer = tracing.Tracer()
    with tracer.installed():
        run.run_pass(requests, verdicts, tracer, "smoke")
    if verdicts.failed:
        problems.append(f"{name}: {verdicts.failed} wrong verdict(s)")
    metrics = tracing.per_layer(tracer.spans)
    metrics["trace.overhead_ratio"] = 1.0
    expected_names = {m["name"] for m in spec["per_layer"]}
    if set(metrics) != expected_names:
        problems.append(f"{name}: per-layer names differ from BENCHMARK.json:"
                        f" {sorted(set(metrics) ^ expected_names)}")
    exact = dict(EXACT[name])
    if name == "catalogue":
        import workloads
        golden = json.loads(workloads.GOLDEN_CATALOGUE.read_text())
        exact["colouring.verify.calls"] = sum(
            1 for _, n, _, kind, _ in golden
            if kind == "EdgeColouring"
            and n <= workloads.CATALOGUE_MAX_N["smoke"])
    for key, value in exact.items():
        if metrics[key] != value:
            problems.append(f"{name}: {key} = {metrics[key]}, want {value}")
    if not all(s.run.startswith("smoke/") for s in tracer.spans):
        problems.append(f"{name}: span without the request's run id")


def smoke_failure_counting(problems):
    import workloads

    def crash():
        raise ValueError("crash")

    verdicts = run.Verdicts()
    run.run_pass([
        workloads.Request("wrong", "probe", lambda: 1, lambda v: v == 2),
        workloads.Request("crash", "probe", crash, lambda v: True),
        workloads.Request("right", "probe", lambda: 2, lambda v: v == 2),
    ], verdicts)
    if (verdicts.attempted, verdicts.failed) != (3, 2):
        problems.append("a wrong verdict or a crash was not counted")


def smoke_command(spec, problems):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "catalogue",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode:
        problems.append(f"run.py exited {done.returncode}: {done.stderr}")
        return
    result = json.loads(done.stdout.splitlines()[-1])
    names = {m["name"] for m in spec["end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"} \
            or set(result["metrics"]) != names or not result["correct"]:
        problems.append(f"run.py printed an unexpected result: {result}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in spec["workloads"]:
        smoke_workload(workload["name"], spec, problems)
    smoke_failure_counting(problems)
    smoke_command(spec, problems)
    for line in problems:
        print("FAIL", line)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
