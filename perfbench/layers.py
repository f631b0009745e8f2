"""The per-layer table: each metric, where it comes from, what it should move.

Layer names follow the package's modules.  ``_s`` metrics are self
time: the time inside a wrapped call minus the wrapped calls it made
(see ``tracer.py``); the rest are exact counts that repeat run to run.
``moves`` names the end-to-end metric and workload the layer should
move when it gets faster or does less; ``still`` the workload where it
should not.  ``BENCHMARK.json``'s ``per_layer`` list is this table in
the same order (the self-test checks that).
"""

from __future__ import annotations

from dataclasses import dataclass

REPLAYS = "replay_plain, replay_durable, replay_federated"


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    still: str = ""


def _s(name: str, moves: str, still: str = "") -> LayerMetric:
    return LayerMetric(name, "s", "lower", moves, still)


def _n(name: str, moves: str, still: str = "", better: str = "lower") -> LayerMetric:
    return LayerMetric(name, "count", better, moves, still)


LAYER_METRICS = (
    _s("workloads.trace.generate_s", f"setup_s on {REPLAYS}", "slimstart_table2"),
    _s("faas.replaydeploy.deploy_s", f"setup_s on {REPLAYS}", "slimstart_table2"),
    _s("workloads.replay.compile_s", "requests_per_s on replay_plain", "slimstart_table2"),
    _n("workloads.replay.arrivals", "requests_per_s on replay_plain (fixed by the input)",
       "slimstart_table2", better="higher"),
    _s("faas.cluster.loop_s", "requests_per_s on replay_plain", "slimstart_table2"),
    _n("faas.cluster.cold_starts", "requests_per_s on replay_plain", "slimstart_table2"),
    _n("faas.cluster.containers_spawned", "requests_per_s on replay_plain", "slimstart_table2"),
    _n("faas.autoscale.consults", "requests_per_s on replay_durable", "replay_plain (7% of the consults)"),
    _s("faas.autoscale.consult_s", "requests_per_s on replay_durable", "replay_plain (7% of the consults)"),
    _n("metrics.windows.observe_calls", f"requests_per_s on {REPLAYS}", "slimstart_table2"),
    _s("metrics.windows.observe_s", f"requests_per_s on {REPLAYS}", "slimstart_table2"),
    _s("metrics.windows.merge_s", f"requests_per_s on {REPLAYS}", "slimstart_table2"),
    _n("faas.snapshot.writes", "wall_s on replay_durable", "replay_plain (zero)"),
    _n("faas.snapshot.bytes", "wall_s on replay_durable", "replay_plain (zero)"),
    _s("faas.snapshot.write_s", "wall_s on replay_durable", "replay_plain (zero)"),
    _n("obs.journal.rows", "wall_s on replay_durable", "replay_plain (zero)"),
    _n("obs.journal.bytes", "wall_s on replay_durable", "replay_plain (zero)"),
    _s("obs.journal.write_s", "wall_s on replay_durable", "replay_plain (zero)"),
    _s("workloads.shard.pool_start_s", "setup_s on replay_durable", "replay_plain (zero)"),
    _n("workloads.shard.transfer_bytes", "wall_s on replay_durable", "replay_plain (zero)"),
    _s("workloads.shard.merge_s", "wall_s on replay_durable", "replay_plain (zero)"),
    LayerMetric("workloads.shard.imbalance", "ratio", "lower",
                "wall_s on replay_durable (slowest / mean shard time)", "replay_plain (zero)"),
    _n("faas.region.route_calls", "requests_per_s on replay_federated", "other workloads (zero)"),
    _s("faas.region.route_s", "requests_per_s on replay_federated", "other workloads (zero)"),
    _n("faas.region.advance_calls", "requests_per_s on replay_federated", "other workloads (zero)"),
    _s("faas.region.advance_s", "requests_per_s on replay_federated", "other workloads (zero)"),
    _s("apps.instantiate_s", "setup_s on slimstart_table2", "replays (zero)"),
    _n("faas.sim.invocations", "requests_per_s on slimstart_table2 (fixed by the input)",
       "replays (zero)", better="higher"),
    _s("faas.sim.deploy_s", "requests_per_s on slimstart_table2", "replays (zero)"),
    _s("faas.sim.measure_s", "requests_per_s on slimstart_table2", "replays (zero)"),
    _s("core.simprofiler.profile_s", "requests_per_s on slimstart_table2", "replays (zero)"),
    _n("core.simprofiler.samples", "requests_per_s on slimstart_table2", "replays (zero)"),
    _s("core.analyzer.analyze_s", "requests_per_s on slimstart_table2", "replays (zero)"),
    _n("core.analyzer.call_paths", "requests_per_s on slimstart_table2", "replays (zero)"),
    _n("core.optimizer.deferred_imports",
       "requests_per_s on slimstart_table2; the only count that may move the sim_*_speedup_geomean values",
       "replays (zero)", better="higher"),
    LayerMetric("sim_cold_start_rate", "fraction", "lower",
                "simulator output on the replays; a speed-only change leaves it bit-identical",
                "slimstart_table2 (zero)"),
    LayerMetric("sim_cost_per_1k_usd", "usd", "lower",
                "simulator output on the replays; a speed-only change leaves it bit-identical",
                "slimstart_table2 (zero)"),
    LayerMetric("sim_init_speedup_geomean", "x", "higher",
                "simulator output on slimstart_table2; moves only with the plans",
                "replays (zero)"),
    LayerMetric("sim_e2e_speedup_geomean", "x", "higher",
                "simulator output on slimstart_table2; moves only with the plans",
                "replays (zero)"),
    _s("unattributed_s", "run time (setup start to report) that no span covers", ""),
    _s("tracing_overhead_s", "traced wall_s minus untraced wall_s, same seed", ""),
)

#: Counts that must repeat exactly between runs of one commit at one seed.
EXACT = tuple(
    metric.name
    for metric in LAYER_METRICS
    if metric.unit in ("count", "fraction", "usd", "x")
)

#: Layer times taken in the untraced runs of a traced invocation:
#: ``replay_durable`` runs the program's own sharded coordinator and its
#: worker pool only when untraced.
FROM_UNTRACED = ("workloads.shard.pool_start_s",)

# Where each ``_s`` layer's self time comes from in the tracer.
SELF_TIME_SOURCES = {
    "workloads.trace.generate_s": "workloads.trace.generate",
    "faas.replaydeploy.deploy_s": "faas.replaydeploy.deploy",
    "workloads.replay.compile_s": "workloads.replay.compile",
    "faas.cluster.loop_s": "faas.cluster.loop",
    "faas.autoscale.consult_s": "faas.autoscale.consult",
    "metrics.windows.observe_s": "metrics.windows.observe",
    "metrics.windows.merge_s": "metrics.windows.merge",
    "faas.snapshot.write_s": "faas.snapshot.write",
    "obs.journal.write_s": "obs.journal.write",
    "faas.region.route_s": "faas.region.route",
    "faas.region.advance_s": "faas.region.advance",
    "apps.instantiate_s": "apps.instantiate",
    "faas.sim.deploy_s": "faas.sim.deploy",
    "faas.sim.measure_s": "faas.sim.measure",
    "core.simprofiler.profile_s": "core.simprofiler.profile",
    "core.analyzer.analyze_s": "core.analyzer.analyze",
}

# Count metrics read off the tracer's per-layer call counters.
CALL_COUNT_SOURCES = {
    "faas.autoscale.consults": "faas.autoscale.consult",
    "metrics.windows.observe_calls": "metrics.windows.observe",
    "faas.region.route_calls": "faas.region.route",
    "faas.region.advance_calls": "faas.region.advance",
}


def layer_values(tracer, outcome) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer is absent).

    ``tracing_overhead_s`` needs an untraced twin run, so the caller
    fills it in.
    """
    values: dict[str, float] = {}
    for metric in LAYER_METRICS:
        name = metric.name
        if name in SELF_TIME_SOURCES:
            value = tracer.self_s.get(SELF_TIME_SOURCES[name], 0.0)
        elif name in CALL_COUNT_SOURCES:
            value = tracer.calls.get(CALL_COUNT_SOURCES[name], 0)
        elif name == "workloads.replay.arrivals":
            value = tracer.counts.get("workloads.replay.compile.items", 0)
        elif name in ("faas.snapshot.writes", "faas.snapshot.bytes"):
            value = tracer.counts.get(name, 0)
        elif name in outcome.counts:
            value = outcome.counts[name]
        elif name in outcome.sim:
            value = outcome.sim[name]
        elif name in outcome.layer_values:
            value = outcome.layer_values[name]
        elif name == "unattributed_s":
            value = outcome.setup_s + outcome.run_s - tracer.covered_s()
        else:  # a layer this workload never enters
            value = 0 if metric.unit == "count" else 0.0
        values[name] = value
    return values
