"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload: one untraced and one traced run in fresh processes
must pass the output check, agree on every output, and report every
per-layer metric (and a setup-only run must report its ``setup_s`` where
``run.py`` takes such samples); then the workload runs once more in-process and its
output is corrupted by one request on the way into the output check
(one window's ``completed`` off by one on the replays, one measured cold
start missing on Table II), which the check must catch.  Also checks
that ``BENCHMARK.json`` lists the workloads and per-layer metrics this
directory defines.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SIZE = 0.05
SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_manifest() -> None:
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {entry["name"]: entry["why"] for entry in manifest["workloads"]}
    defined = {name: workload.why for name, workload in workloads.WORKLOADS.items()}
    check(listed == defined, f"BENCHMARK.json workloads {listed} != workloads.py {defined}")
    per_layer = [
        {"name": metric.name, "unit": metric.unit, "better": metric.better}
        for metric in layers.LAYER_METRICS
    ]
    check(manifest["per_layer"] == per_layer, "BENCHMARK.json per_layer != layers.py")
    check(
        [entry["name"] for entry in manifest["end_to_end"]]
        == [name for name, _ in run.END_TO_END],
        "BENCHMARK.json end_to_end != run.py END_TO_END",
    )


def check_runs(name: str) -> None:
    deadline = time.perf_counter() + 170.0
    plain = run.run_child(name, SEED, False, deadline, size=SIZE)
    traced = run.run_child(name, SEED, True, deadline, size=SIZE)
    for result in (plain, traced):
        check(not result["problems"], f"{name}: {result['problems']}")
    differences = run.compare(traced, run.record(plain, False), "the untraced run")
    check(not differences, f"{name}: tracing changed the outputs: {differences}")
    missing = [m.name for m in layers.LAYER_METRICS if m.name not in traced["layers"]
               and m.name != "tracing_overhead_s"]
    check(not missing, f"{name}: traced run lacks {missing}")
    if name in run.SETUP_ONLY_RUNS:
        setup = run.run_child(name, SEED, False, deadline, size=SIZE, setup_only=True)
        check(setup["setup_s"] > 0, f"{name}: setup-only run reported {setup}")


def off_by_one(check_summary):
    """``check_summary`` fed the run's summary with window 0 completing one more."""

    def corrupted(summary, expected_arrivals):
        first = summary.windows[0]
        first = dataclasses.replace(first, completed=first.completed + 1)
        summary = dataclasses.replace(summary, windows=(first, *summary.windows[1:]))
        return check_summary(summary, expected_arrivals)

    return corrupted


def one_cold_start_lost(check_table2):
    """``check_table2`` fed the run's rows with one measured request missing."""

    def corrupted(rows, measured):
        key, profiled, result = rows[0]
        result = dataclasses.replace(result, after_records=result.after_records[:-1])
        return check_table2([(key, profiled, result), *rows[1:]], measured)

    return corrupted


def check_corruption_caught(name: str) -> None:
    """Run the workload end to end and corrupt its output by one request."""
    workload = workloads.WORKLOADS[name]
    if workload.kind == "table2":
        attr, corrupt = "check_table2", one_cold_start_lost
    else:
        attr, corrupt = "check_summary", off_by_one
    original = getattr(workloads, attr)
    setattr(workloads, attr, corrupt(original))
    workdir = HERE / "out" / "work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        outcome = workloads.run_workload(workload, SEED, workdir, size=SIZE)
    finally:
        setattr(workloads, attr, original)
        shutil.rmtree(workdir, ignore_errors=True)
    check(outcome.problems, f"{name}: the output check missed a corrupted output")
    print(f"  corrupted output caught: {outcome.problems[0]}")


def main() -> int:
    check_manifest()
    print("BENCHMARK.json matches workloads.py, layers.py and run.py")
    for name in workloads.WORKLOADS:
        check_runs(name)
        print(f"{name}: untraced and traced runs pass and agree")
        check_corruption_caught(name)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
