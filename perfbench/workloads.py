"""The benchmark's workloads: inputs from a seed, one run, its output check.

Each workload drives the public functions ``slimstart replay`` or
``slimstart table2`` call (``repro.cli.cmd_replay`` / ``cmd_table2``), in
the same order, but splits the run in two timed phases: *setup* (every
step before the first simulated request) and *run* (first request through
the final summary).  The replay workloads are written as CLI flag lists
and parsed with the CLI's own parser, so their defaults are the CLI's.

The replay workloads share one trace fleet: the one ``slimstart replay``
generates by default (24 apps, 96 hours, trace seed 7).  The benchmark's
seed draws everything else: the arrival instants inside each window,
container jitter, QoS tags and routing coin flips.  The fleet's shape
is part of the workload, not of the seed, because it alone moves the
cost per request by a fifth from one trace seed to the next (trace
volume by a quarter), which would drown any change a later PR makes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from repro.apps import benchmark_apps
from repro.apps.model import bench_platform_config
from repro.cli import build_parser
from repro.core.pipeline import PipelineConfig, SlimStart
from repro.faas.autoscale import make_scaling_policy
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.gateway import Gateway
from repro.faas.region import (
    FederatedGateway,
    RegionFederation,
    RegionTopology,
    make_policy,
)
from repro.faas.replaydeploy import deploy_trace, expose_trace
from repro.faas.sim import SimPlatform
from repro.metrics import (
    PricingModel,
    WindowAccumulator,
    WindowedSummary,
    parse_qos_mix,
)
from repro.obs.journal import merge_journals, shard_journal_path
from repro.workloads.arrival import poisson_schedule
from repro.workloads.replay import (
    HashAffinity,
    as_paths,
    assign_qos,
    assign_regions,
    compile_trace,
    make_arrival_model,
)
from repro.workloads import shard as shard_module
from repro.workloads.shard import (
    ShardReplaySpec,
    checkpointed_shard,
    prepare_sharded_checkpoint,
    run_sharded_checkpointed,
)
from repro.workloads.trace import TraceGenerator

import tracer as tracing

#: The trace fleet shared by the replay workloads: the CLI defaults.
TRACE_SEED = 7
REPLAY_TRACE = (
    "--apps", "24",
    "--duration-hours", "96",
    "--window-hours", "12",
    "--requests-per-window", "600",
    "--shift-hours", "48,72",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: what it runs, at what size, and why."""

    name: str
    kind: str  # "replay" or "table2"
    why: str
    flags: tuple[str, ...] = ()
    #: Shard worker processes (replay_durable only).
    workers: int | None = None
    #: Table II: cold starts per measurement run, runs, profiling window.
    cold_starts: int = 0
    runs: int = 0
    profile_s: float = 0.0


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="replay_plain",
            kind="replay",
            why=(
                "headline path: streamed single-cluster replay, per-request "
                "policy, no checkpoint/journal/shards/regions; the bypass "
                "workload for durability, policy and routing changes"
            ),
        ),
        Workload(
            name="replay_durable",
            kind="replay",
            why=(
                "predictive policy, 2 shard workers, per-shard checkpoints, "
                "journal with 1% span sampling: the only heavy user of "
                "autoscale/forecast, snapshot, journal and shard merge"
            ),
            flags=(
                "--policy", "predictive",
                "--trace-sample", "0.01",
            ),
            workers=2,
        ),
        Workload(
            name="replay_federated",
            kind="replay",
            why=(
                "3 regions, QoS mix, probabilistic routing: the only user "
                "of faas.region routing and metrics.qos; ~6 regional loop "
                "advances per request"
            ),
            flags=(
                "--scale", "0.1",
                "--regions", "us,eu,ap",
                "--qos-mix", "critical=1,standard=5,batch=4",
                "--routing", "probabilistic",
            ),
        ),
        Workload(
            name="slimstart_table2",
            kind="table2",
            why=(
                "the paper's pipeline on 17 Table II apps: profile, analyze, "
                "plan, cold starts before/after; the only user of apps, "
                "synthlib, faas.sim and core.*"
            ),
            cold_starts=500,
            runs=1,
            profile_s=900.0,
        ),
    )
}


@dataclass
class Outcome:
    """What one run of a workload produced, and whether it checked out."""

    requests: int  # simulated requests (invocations on Table II) attempted
    completed: int  # simulated requests completed (invocations on Table II)
    setup_s: float
    run_s: float
    digest: str
    #: Exact operation counts that must repeat run to run.
    counts: dict[str, int] = field(default_factory=dict)
    #: Deterministic simulator outputs (``sim_*``), reported, never timed.
    sim: dict[str, float] = field(default_factory=dict)
    #: Output-check failures; empty when the run is correct.
    problems: list[str] = field(default_factory=list)
    #: Layer measurements taken by the benchmark's own code (traced runs).
    layer_values: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def run_workload(
    workload: Workload,
    seed: int,
    workdir: Path,
    tracer: tracing.Tracer | None = None,
    size: float = 1.0,
) -> Outcome:
    """Run ``workload`` once at ``seed``; ``size`` shrinks it (self-test)."""
    if workload.kind == "table2":
        return _run_table2(workload, seed, tracer, size)
    return _run_replay(workload, seed, workdir, tracer, size)


# -- replays ------------------------------------------------------------------


def expected_arrivals(trace, scale: float) -> int:
    """Arrivals ``compile_trace`` yields for ``trace`` at ``scale``.

    Computed from the trace's window counts with the compiler's own
    rounding rule, independently of the compiled stream — the output
    check compares the summary against it.
    """
    total = 0
    for app in trace.apps:
        for counts in app.windows:
            for entry in app.handlers:
                count = int(round(counts.get(entry, 0) * scale))
                if count > 0:
                    total += count
    return total


def replay_args(workload: Workload, seed: int):
    """The ``slimstart replay`` namespace the workload corresponds to."""
    return build_parser().parse_args(
        ["replay", *REPLAY_TRACE, *workload.flags, "--seed", str(seed)]
    )


def _run_replay(workload, seed, workdir, tracer, size) -> Outcome:
    span = tracer.span if tracer is not None else (lambda _: nullcontext())
    args = replay_args(workload, seed)
    clock = time.perf_counter
    started = clock()
    trace = TraceGenerator(
        app_count=args.apps,
        duration_hours=args.duration_hours,
        window_hours=args.window_hours,
        seed=TRACE_SEED,
        mean_requests_per_window=args.requests_per_window,
        shift_hours=tuple(float(hour) for hour in args.shift_hours.split(",")),
    ).generate()
    scale = args.scale * size
    model = make_arrival_model(args.arrival_model)
    qos_mix = parse_qos_mix(args.qos_mix) if args.qos_mix else None
    policy = make_scaling_policy(args.scaling_policy)
    if tracer is not None:
        tracing.wrap_scaling_policy(tracer, policy)
    fleet = FleetConfig(
        max_containers=args.max_containers,
        max_concurrency=args.max_concurrency,
        keep_alive_s=args.keep_alive,
        queue_capacity=args.queue_capacity,
        policy=policy,
    )
    pricing = PricingModel(
        per_gb_second=args.price_gb_second,
        per_million_requests=args.price_million_requests,
        cold_start_surcharge=args.cold_start_surcharge,
    )
    window_s = args.window_hours * 3600.0
    outcome_counts: dict[str, int] = {}
    layer_values: dict[str, float] = {}
    notes: list[str] = []
    served = None

    if workload.workers is not None:
        spec = ShardReplaySpec(
            platform=bench_platform_config(record_traces=False),
            fleet=fleet,
            seed=args.seed,
            replay_seed=args.seed,
            model=model,
            scale=scale,
            window_s=window_s,
            pricing=pricing,
            exec_ms=args.exec_ms,
            qos=qos_mix,
            qos_seed=args.seed,
        )
        summary, setup_end, journal_rows, journal_bytes = _run_durable(
            workload, args, trace, spec, scale, workdir, tracer, layer_values, notes
        )
        outcome_counts["obs.journal.rows"] = journal_rows
        outcome_counts["obs.journal.bytes"] = journal_bytes
    else:
        stream = compile_trace(trace, model=model, seed=args.seed, scale=scale)
        if qos_mix is not None:
            stream = assign_qos(stream, qos_mix, seed=args.seed)
        accumulator = WindowAccumulator(window_s=window_s, pricing=pricing)
        if args.regions:
            regions = [name.strip() for name in args.regions.split(",")]
            assigner = HashAffinity(regions)
            topology = RegionTopology.fully_connected(regions, default_ms=args.latency)
            federation = RegionFederation(
                topology,
                policy=make_policy(
                    args.routing,
                    spillover_load=args.spillover,
                    qos_classes=qos_mix,
                    seed=args.seed,
                ),
                platform=bench_platform_config(record_traces=False),
                fleet=fleet,
                seed=args.seed,
                qos=qos_mix,
            )
            if tracer is not None:
                tracing.wrap_routing_policy(tracer, federation.policy)
            deploy_trace(federation, trace, exec_ms=args.exec_ms)
            gateway = FederatedGateway(platform=federation)
            expose_trace(gateway, trace)
            setup_end = clock()
            summary = gateway.submit_stream(
                as_paths(assign_regions(stream, assigner)), accumulator, obs=None
            )
            served = federation.served_counts()
        else:
            platform = ClusterPlatform(
                config=bench_platform_config(record_traces=False),
                fleet=fleet,
                seed=args.seed,
                qos=qos_mix,
            )
            deploy_trace(platform, trace, exec_ms=args.exec_ms)
            gateway = Gateway(platform)
            expose_trace(gateway, trace)
            setup_end = clock()
            summary = gateway.submit_stream(as_paths(stream), accumulator, obs=None)
    with span("report"):
        report = replay_report(summary, served)
    ended = clock()

    expected = expected_arrivals(trace, scale)
    outcome_counts.update(
        {
            "workloads.replay.arrivals": summary.arrivals,
            "completed": summary.completed,
            "shed": summary.shed,
            "faas.cluster.cold_starts": summary.cold_starts,
            "faas.cluster.containers_spawned": sum(w.boots for w in summary.windows),
        }
    )
    return Outcome(
        requests=expected,
        completed=summary.completed,
        setup_s=setup_end - started,
        run_s=ended - setup_end,
        digest=sha256(report.encode()).hexdigest(),
        counts=outcome_counts,
        sim={
            "sim_cold_start_rate": summary.cold_start_rate,
            "sim_cost_per_1k_usd": summary.cost.per_1k_requests,
        },
        problems=check_summary(summary, expected),
        layer_values=layer_values,
        notes=notes,
    )


def _run_durable(workload, args, trace, spec, scale, workdir, tracer, layer_values, notes):
    """The checkpointed, journaled, sharded replay (``--workers --checkpoint --journal``).

    Untraced, this is the program's own coordinator,
    ``run_sharded_checkpointed``, timed from outside
    (``_timed_coordinator``).  Traced, its pool workers would be out of
    reach of the wrappers, so the coordinator's sequence runs in-process
    with the shards one after the other: prepare the manifest and initial
    shard checkpoints, run ``checkpointed_shard`` on each shard, merge the
    summaries, merge the shard journals, delete the checkpoint files.
    ``run.py`` requires the traced run's outputs to equal the untraced
    run's, so this sequence cannot drift from the program's unnoticed.
    """
    workers = workload.workers
    cores = len(os.sched_getaffinity(0))
    if workers > cores:
        raise RuntimeError(
            f"{workload.name} needs {workers} worker processes but only "
            f"{cores} core(s) are schedulable"
        )
    workdir.mkdir(parents=True, exist_ok=True)
    checkpoint = workdir / "replay.ckpt"
    journal = workdir / "replay.jsonl"
    fingerprint = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("checkpoint", "journal", "workers", "progress", "profile")
    }
    fingerprint["scale"] = scale
    if tracer is None:
        summary, setup_end, pool_start_s = _timed_coordinator(
            workdir,
            trace,
            checkpoint,
            spec,
            workers=workers,
            fingerprint=fingerprint,
            journal=journal,
            trace_sample=args.trace_sample,
        )
        layer_values["workloads.shard.pool_start_s"] = pool_start_s
    else:
        summary, setup_end = _run_durable_in_process(
            workload, args, trace, spec, checkpoint, journal, fingerprint, tracer,
            layer_values, notes,
        )
    with open(journal, "rb") as handle:
        journal_rows = sum(1 for _ in handle)
    journal_bytes = journal.stat().st_size
    journal.unlink()
    return summary, setup_end, journal_rows, journal_bytes


def _timed_coordinator(workdir, *call, **kwargs):
    """``run_sharded_checkpointed(*call, **kwargs)``; also when setup ended and pool start.

    A shard's first simulated request follows its ``build_shard_replay``
    (platform built, trace deployed), which returns inside a pool worker.
    A wrapper installed before the pool forks writes that instant to
    ``workdir``; the end of setup is the earliest one.  Pool start runs
    from the construction of the coordinator's pool to the earliest
    worker's call of ``build_shard_replay``.  ``time.perf_counter`` reads
    CLOCK_MONOTONIC, one clock for every process of the machine.
    """
    if multiprocessing.get_start_method() != "fork" or (
        "CLOCK_MONOTONIC" not in time.get_clock_info("perf_counter").implementation
    ):
        raise RuntimeError(
            "timing the sharded coordinator needs fork-started pool workers "
            "and a monotonic clock shared by all processes"
        )
    stamps = workdir / "shard-builds"
    stamps.mkdir()
    coordinator = os.getpid()
    build = shard_module.build_shard_replay
    pool_class = shard_module.ProcessPoolExecutor
    pool_created = []

    def timed_build(*args, **kwargs):
        started = time.perf_counter()
        built = build(*args, **kwargs)
        if os.getpid() != coordinator:
            with open(stamps / str(os.getpid()), "a") as handle:
                handle.write(f"{started!r} {time.perf_counter()!r}\n")
        return built

    class TimedPool(pool_class):
        def __init__(self, *args, **kwargs):
            pool_created.append(time.perf_counter())
            super().__init__(*args, **kwargs)

    shard_module.build_shard_replay = timed_build
    shard_module.ProcessPoolExecutor = TimedPool
    try:
        summary = run_sharded_checkpointed(*call, **kwargs)
    finally:
        shard_module.build_shard_replay = build
        shard_module.ProcessPoolExecutor = pool_class
    builds = [
        tuple(map(float, line.split()))
        for path in stamps.iterdir()
        for line in path.read_text().splitlines()
    ]
    shutil.rmtree(stamps)
    if not builds or len(pool_created) != 1:
        raise RuntimeError("the sharded coordinator ran no shard in a pool worker")
    setup_end = min(end for _, end in builds)
    pool_start_s = min(start for start, _ in builds) - pool_created[0]
    return summary, setup_end, pool_start_s


def _run_durable_in_process(
    workload, args, trace, spec, checkpoint, journal, fingerprint, tracer, layer_values,
    notes,
):
    """The traced ``replay_durable``: the coordinator's sequence, shards in-process."""
    clock = time.perf_counter
    workers = workload.workers
    shards, shard_paths, fingerprints, _ = prepare_sharded_checkpoint(
        trace, checkpoint, spec, workers, fingerprint
    )
    journal_paths = [
        str(shard_journal_path(journal, shard, workers)) for shard in range(workers)
    ]
    tasks = [
        (spec, shard, str(path), shard_fp, journal_path, args.trace_sample)
        for shard, path, shard_fp, journal_path in zip(
            shards, shard_paths, fingerprints, journal_paths
        )
    ]
    setup_end = clock()
    notes.append(
        f"traced {workload.name}: the {workers} shards ran in-process one after "
        "the other (pool workers are out of reach of the wrappers); "
        "workloads.shard.pool_start_s comes from the untraced runs, which "
        "run the program's coordinator and its pool"
    )
    summaries = []
    shard_times = []
    transfer = 0
    for task in tasks:
        shard_started = clock()
        summaries.append(checkpointed_shard(*task))
        shard_times.append(clock() - shard_started)
        transfer += len(pickle.dumps(task)) + len(pickle.dumps(summaries[-1]))
    layer_values["workloads.shard.imbalance"] = max(shard_times) / (
        sum(shard_times) / len(shard_times)
    )
    layer_values["workloads.shard.transfer_bytes"] = transfer
    merge_started = clock()
    with tracer.span("workloads.shard.merge"):
        summary = WindowedSummary.merge(summaries)
        merge_journals(
            journal_paths,
            journal,
            window_s=spec.window_s,
            fingerprint=fingerprint,
            trace_sample=args.trace_sample,
        )
    layer_values["workloads.shard.merge_s"] = clock() - merge_started
    for path in [*shard_paths, *map(Path, journal_paths), checkpoint]:
        Path(path).unlink(missing_ok=True)
    return summary, setup_end


#: The report's fields, in the order they are hashed.
WINDOW_FIELDS = (
    "index", "start_s", "arrivals", "completed", "shed", "cold_starts", "boots",
    "shed_rate", "cold_start_rate", "queue_mean_ms", "queue_p95_ms", "gb_seconds",
)
WINDOW_QOS_FIELDS = ("qos_class", "completed", "violations", "dropped", "utility")
RUN_FIELDS = (
    "arrivals", "completed", "shed", "cold_starts", "cold_start_rate", "gb_seconds",
)
RUN_QOS_FIELDS = (
    "qos_class", "completed", "violations", "dropped", "violation_rate", "utility",
)


def _fields(record, names) -> tuple:
    return tuple(getattr(record, name) for name in names)


def replay_report(summary, served=None) -> str:
    """The figures ``slimstart replay`` prints, at full precision.

    The per-window series and the run totals (plus per-class QoS rows
    and, for federated replays, the served counts per region); the
    run's digest is the hash of this text.
    """
    lines = []
    for window in summary.windows:
        lines.append(repr(_fields(window, WINDOW_FIELDS) + (window.cost.total_cost,)))
        for qos in window.qos:
            lines.append(repr((window.index, *_fields(qos, WINDOW_QOS_FIELDS))))
    cost = summary.cost
    lines.append(
        repr(
            _fields(summary, RUN_FIELDS)
            + (cost.total_cost, cost.per_1k_requests, summary.utility)
        )
    )
    for qos in summary.qos:
        lines.append(repr(_fields(qos, RUN_QOS_FIELDS)))
    if served is not None:
        lines.append(repr(sorted(served.items())))
    return "\n".join(lines) + "\n"


def check_summary(summary, expected_arrivals: int) -> list[str]:
    """Conservation and bookkeeping checks on a replay summary.

    Every window must conserve requests (arrivals = completed + shed,
    routing drops being charged as sheds), per-class QoS rows must add
    up to their window, the windows must add up to the run totals, and
    the run must have seen exactly the arrivals the trace compiles to.
    """
    problems = []
    for window in summary.windows:
        if window.arrivals != window.completed + window.shed:
            problems.append(
                f"window {window.index}: arrivals {window.arrivals} != "
                f"completed {window.completed} + shed {window.shed}"
            )
        if window.qos:
            completed = sum(qos.completed for qos in window.qos)
            dropped = sum(qos.dropped for qos in window.qos)
            if (completed, dropped) != (window.completed, window.shed):
                problems.append(
                    f"window {window.index}: QoS classes completed {completed}, "
                    f"dropped {dropped}; window completed {window.completed}, "
                    f"shed {window.shed}"
                )
    for name in ("arrivals", "completed", "shed", "cold_starts"):
        total = sum(getattr(window, name) for window in summary.windows)
        if total != getattr(summary, name):
            problems.append(f"{name}: windows sum to {total}, run total {getattr(summary, name)}")
    if summary.arrivals != expected_arrivals:
        problems.append(
            f"run saw {summary.arrivals} arrivals; the trace compiles to {expected_arrivals}"
        )
    if not summary.completed:
        problems.append("nothing completed")
    return problems


# -- Table II -------------------------------------------------------------------


def table2_setup(workload, size: float = 1.0, tracer=None):
    """Table II's setup: the pipeline and the 17 instantiated apps.

    ``run.py`` also runs this alone in fresh processes, as extra samples
    of ``setup_s``.
    """
    span = tracer.span if tracer is not None else (lambda _: nullcontext())
    cold_starts = max(1, int(workload.cold_starts * size))
    tool = SlimStart(
        PipelineConfig(measure_cold_starts=cold_starts, measure_runs=workload.runs)
    )
    with span("apps.instantiate"):
        apps = [app for app in benchmark_apps() if app.definition.paper is not None]
    return tool, apps


def _run_table2(workload, seed, tracer, size) -> Outcome:
    span = tracer.span if tracer is not None else (lambda _: nullcontext())
    clock = time.perf_counter
    cold_starts = max(1, int(workload.cold_starts * size))
    profile_s = workload.profile_s * size
    started = clock()
    tool, apps = table2_setup(workload, size, tracer)
    setup_end = clock()
    rows = []
    for app in apps:
        platform = SimPlatform(config=bench_platform_config())
        schedule = poisson_schedule(
            app.mix, rate_per_s=0.3, duration_s=profile_s, seed=seed
        )
        result = tool.run_simulated_cycle(
            app.sim_config(), schedule, app.mix, platform=platform
        )
        rows.append((app.key, len(schedule), result))
    with span("report"):
        report = table2_report(rows)
    ended = clock()
    invocations = sum(
        profiled + len(result.before_records) + len(result.after_records)
        for _, profiled, result in rows
    )
    counts = {
        "faas.sim.invocations": invocations,
        "core.simprofiler.samples": sum(len(result.bundle.samples) for *_, result in rows),
        "core.analyzer.call_paths": sum(
            len(paths) for *_, result in rows for paths in result.report.call_paths.values()
        ),
        "core.optimizer.deferred_imports": sum(
            len(result.plan.deferred_handler_imports)
            + len(result.plan.deferred_library_edges)
            for *_, result in rows
        ),
    }
    speedups = [result.speedups for *_, result in rows]
    return Outcome(
        requests=invocations,
        completed=invocations,
        setup_s=setup_end - started,
        run_s=ended - setup_end,
        digest=sha256(report.encode()).hexdigest(),
        counts=counts,
        sim={
            "sim_init_speedup_geomean": _geomean([s.init_speedup for s in speedups]),
            "sim_e2e_speedup_geomean": _geomean([s.e2e_speedup for s in speedups]),
        },
        problems=check_table2(rows, cold_starts * workload.runs),
    )


def table2_report(rows) -> str:
    """Table II's rows at full precision, plus each app's deferral plan."""
    lines = []
    for key, profiled, result in rows:
        s = result.speedups
        lines.append(
            repr(
                (
                    key,
                    profiled,
                    s.init_speedup,
                    s.e2e_speedup,
                    s.p99_init_speedup,
                    s.p99_e2e_speedup,
                    s.memory_reduction,
                    sorted(result.plan.deferred_handler_imports),
                    sorted(result.plan.deferred_library_edges),
                )
            )
        )
    return "\n".join(lines) + "\n"


def check_table2(rows, measured: int) -> list[str]:
    """Every app measured with the full protocol and finite positive speedups."""
    problems = []
    if len(rows) != 17:
        problems.append(f"{len(rows)} Table II apps, expected 17")
    for key, _, result in rows:
        for phase, records in (("before", result.before_records), ("after", result.after_records)):
            if len(records) != measured:
                problems.append(f"{key}: {len(records)} {phase} cold starts, expected {measured}")
            elif not all(record.cold for record in records):
                problems.append(f"{key}: a {phase} measurement request was served warm")
        s = result.speedups
        for name in ("init_speedup", "e2e_speedup", "p99_init_speedup", "p99_e2e_speedup"):
            value = getattr(s, name)
            if not (math.isfinite(value) and value > 0):
                problems.append(f"{key}: {name} = {value!r}")
    return problems


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))
