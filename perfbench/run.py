"""The repository's benchmark of record.

    python3 perfbench/run.py --workload replay_plain --seed 3 --seconds 33 --trace 0

Runs one workload (see ``workloads.py``) repeatedly for ``--seconds``,
each run in a fresh interpreter started by ``iteration.py``, and prints
the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run must pass the output check (request conservation in every
window, exact arrival count, complete Table II protocol), repeat the
first run's digest and counts, and, at a seed ``reference.json`` pins
(0 to 20), reproduce the committed digest of the printed report, pinned
counts and simulator outputs exactly (at seed 7 the per-layer counts of
a traced run too).  ``attempted`` counts simulated requests
(invocations on ``slimstart_table2``) over all runs; ``failed`` those of
runs that did not check out, so ``failed / attempted`` is the error
rate.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (fresh process
start through the final summary, timed from outside; mean over the
runs), ``setup_s`` (trace generation and deployment, worker-pool start,
app instantiation; median over the runs, on ``slimstart_table2`` also
over setup-only runs in between), ``requests_per_s`` (simulated
requests completed per host second after setup, summed over the runs)
and ``peak_rss_mb`` (largest process of a run; median).  ``--trace 1``
alternates untraced and traced runs at the same seed and reports the
per-layer table of ``layers.py``, including ``tracing_overhead_s``.

``--update-reference`` rewrites ``reference.json`` from one run of every
workload at every pinned seed (about five minutes).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: Measured runs a result needs at least, however long they take.
MIN_RUNS = 3
#: Hard ceiling on one invocation of this script.
BUDGET_S = 170.0
#: Setup-only runs after each measured run, as extra samples of
#: ``setup_s``: Table II's setup is a sixth of its run, so its few
#: samples would otherwise cover little of the measuring time.
SETUP_ONLY_RUNS = {"slimstart_table2": 1}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """A run that could not produce a result at all."""


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "schedulable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    """HEAD's commit id read from ``.git`` (``unknown`` outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(
    workload: str,
    seed: int,
    traced: bool,
    deadline: float,
    spans: Path | None = None,
    size: float = 1.0,
    setup_only: bool = False,
) -> dict:
    """One run of ``workload`` in a fresh process; its result plus ``wall_s``."""
    workdir = Path("perfbench") / "out" / "work" / workload
    command = [
        sys.executable,
        str(HERE / "iteration.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(workdir),
        "--size", repr(size),
    ]
    if setup_only:
        command.append("--setup-only")
    if traced:
        command.append("--trace")
        if spans is not None:
            command += ["--spans", str(spans)]
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    started = time.perf_counter()
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{workload} seed {seed}: run did not finish in time")
    wall_s = time.perf_counter() - started
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    if child.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} seed {seed}: run failed\n{tail}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["wall_s"] = wall_s
    return result


def compare(result: dict, expected: dict, what: str) -> list[str]:
    """Differences between a run and an expected digest/counts/sim/layers record."""
    problems = []
    if result["digest"] != expected["digest"]:
        problems.append(f"digest differs from {what}")
    for section in ("counts", "sim"):
        for name, value in expected[section].items():
            if result[section].get(name) != value:
                problems.append(
                    f"{name} = {result[section].get(name)!r}, {what} has {value!r}"
                )
    if "layers" in result and "layers" in expected:
        for name, value in expected["layers"].items():
            if result["layers"][name] != value:
                problems.append(f"{name} = {result['layers'][name]!r}, {what} has {value!r}")
    return problems


def record(result: dict, traced: bool) -> dict:
    """The exact part of a run: what must repeat at the same seed."""
    entry = {"digest": result["digest"], "counts": result["counts"], "sim": result["sim"]}
    if traced:
        entry["layers"] = {name: result["layers"][name] for name in layers.EXACT}
    return entry


def describe(result: dict, label: str) -> str:
    rate = result["completed"] / result["run_s"]
    status = "ok" if not result["problems"] else "FAILED: " + "; ".join(result["problems"])
    return (
        f"{label:<22} wall {result['wall_s']:7.3f} s  setup {result['setup_s']:7.4f} s  "
        f"run {result['run_s']:7.3f} s  {result['requests']:7d} req  {rate:10.0f} req/s  "
        f"rss {result['peak_rss_mb']:6.1f} MB  {status}"
    )


def measure(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    reference = json.loads(REFERENCE.read_text())
    if workload not in reference["workloads"]:
        raise BenchError(
            f"unknown workload {workload!r} (choose from {sorted(reference['workloads'])})"
        )
    pinned = reference["workloads"][workload].get(str(seed))
    started = time.perf_counter()
    deadline = started + BUDGET_S
    measure_until = started + seconds
    OUT.mkdir(parents=True, exist_ok=True)
    runs: list[tuple[dict, bool]] = []  # (result, traced)
    setup_only: list[float] = []  # setup_s of the setup-only runs
    first: dict[bool, dict] = {}  # the first run of each mode
    rounds = 0
    while True:
        # A traced result interleaves untraced and traced runs, alternating
        # which goes first, so tracing overhead is a paired difference.
        if not traced:
            kinds = [False]
        else:
            kinds = [False, True] if rounds % 2 == 0 else [True, False]
        for kind in kinds:
            spans = OUT / f"spans-{workload}-seed{seed}-{rounds}.jsonl" if kind else None
            result = run_child(workload, seed, kind, deadline, spans=spans)
            if pinned is not None:
                result["problems"] += compare(result, pinned, f"reference.json at seed {seed}")
            if kind in first:
                result["problems"] += compare(result, record(first[kind], kind), "the first run")
            else:
                first[kind] = result
                if (not kind) in first:
                    # Tracing must not change a single output.
                    result["problems"] += compare(
                        result, record(first[not kind], False), "the other mode's run"
                    )
            runs.append((result, kind))
            print(describe(result, f"seed {seed} {'traced' if kind else 'run'} {rounds}"))
            for problem in result["problems"]:
                print(f"  check: {problem}")
        for _ in range(0 if traced else SETUP_ONLY_RUNS.get(workload, 0)):
            setup_only.append(
                run_child(workload, seed, False, deadline, setup_only=True)["setup_s"]
            )
            print(f"seed {seed} setup-only {rounds:<6} setup {setup_only[-1]:7.4f} s")
        rounds += 1
        now = time.perf_counter()
        # Stop at the round boundary nearest to the end of the measuring time.
        if rounds >= MIN_RUNS and now + (now - started) / rounds / 2 >= measure_until:
            break
        if now - started > BUDGET_S * 0.6:
            break
    for note in sorted({note for result, _ in runs for note in result["notes"]}):
        print(f"note: {note}")
    counts = record(first[traced], traced)
    counts = {**counts["counts"], **counts["sim"], **counts.get("layers", {})}
    status = "pinned in reference.json" if pinned is not None else "not pinned"
    print(f"counts at seed {seed} ({status}): {json.dumps(counts, sort_keys=True)}")

    attempted = sum(result["requests"] for result, _ in runs)
    failed = sum(result["requests"] for result, _ in runs if result["problems"])
    untraced = [result for result, kind in runs if not kind]
    metrics: dict[str, dict] = {}
    if not traced:
        # Run times are averaged over the measuring time, not taken as
        # medians: the host alternates between a fast and a slow state
        # (a 1.5x to 2x step) for seconds at a time, and the median of a
        # two-state sample jumps between the states, where the mean moves
        # with the share of time spent in each.
        values = {
            "wall_s": statistics.fmean(r["wall_s"] for r in untraced),
            "setup_s": statistics.median([r["setup_s"] for r in untraced] + setup_only),
            "requests_per_s": sum(r["completed"] for r in untraced)
            / sum(r["run_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        traced_runs = [result for result, kind in runs if kind]
        for metric in layers.LAYER_METRICS:
            if metric.name == "tracing_overhead_s":
                value = statistics.median(r["wall_s"] for r in traced_runs) - statistics.median(
                    r["wall_s"] for r in untraced
                )
            elif metric.name in layers.FROM_UNTRACED and any(
                metric.name in r["layer_values"] for r in untraced
            ):
                value = statistics.median(
                    r["layer_values"][metric.name]
                    for r in untraced
                    if metric.name in r["layer_values"]
                )
            elif metric.name in layers.EXACT:
                value = traced_runs[0]["layers"][metric.name]
            else:
                value = statistics.median(r["layers"][metric.name] for r in traced_runs)
            metrics[metric.name] = {"value": value, "unit": metric.unit}
        print()
        print(f"{'layer metric':<36} {'value':>16}  unit   moves")
        for metric in layers.LAYER_METRICS:
            value = metrics[metric.name]["value"]
            text = f"{value:16.6f}" if isinstance(value, float) else f"{value:16d}"
            still = f"; not on {metric.still}" if metric.still else ""
            print(f"{metric.name:<36} {text}  {metric.unit:<6} {metric.moves}{still}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "runs": [result for result, _ in runs],
    }


#: Seeds whose outputs ``reference.json`` pins, per workload.
PINNED_SEEDS = range(21)
#: The seed at which the traced per-layer counts are pinned too.
TRACED_SEED = 7


def update_reference() -> None:
    """Rewrite ``reference.json``: every workload at every pinned seed.

    Layer counts are pinned at ``TRACED_SEED``, where a traced run must
    also reproduce the untraced run's outputs.
    """
    import workloads  # imports the program: needs src/ on the path

    deadline = time.perf_counter() + 3600.0
    entries: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        pins = entries[name] = {}
        for seed in PINNED_SEEDS:
            plain = run_child(name, seed, False, deadline)
            if plain["problems"]:
                raise BenchError(f"{name} seed {seed}: {plain['problems']}")
            pins[str(seed)] = record(plain, False)
            if seed == TRACED_SEED:
                traced = run_child(name, seed, True, deadline)
                if traced["problems"] or compare(traced, pins[str(seed)], "the untraced run"):
                    raise BenchError(f"{name}: the traced run differs from the untraced run")
                pins[str(seed)] = record(traced, True)
        print(f"{name}: pinned seeds {PINNED_SEEDS.start}..{PINNED_SEEDS.stop - 1}")
    REFERENCE.write_text(json.dumps({"workloads": entries}, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        if args.update_reference:
            sys.path.insert(1, str(ROOT / "src"))
            update_reference()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        info = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
        print("provenance: " + json.dumps(info, sort_keys=True))
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    runs = outcome.pop("runs")
    log = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps({"provenance": info, "result": outcome, "runs": runs}, indent=1))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
