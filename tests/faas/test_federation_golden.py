"""Golden regression for streamed federated replays.

A small region-tagged trace is replayed through
:meth:`RegionFederation.run_stream` under each routing policy, and the
finalized :class:`~repro.metrics.WindowedSummary` plus
:meth:`RegionFederation.served_counts` are compared against
``tests/golden/federation_stream.json`` at full precision (JSON floats
round-trip through ``repr``, so equality means bit-identical).

The fleets are deliberately starved — one container per app and region,
a bounded queue, multi-second service — so the routing layer's
``accepts=False`` failover, the regional load-shedder and the policy's
own drop arm all run.  Completions of one app from different regions
fold into the same per-(window, app) float sums, so any change to the
order in which regions drain or deliveries land shows up here.

Regenerate (only when an intentional behaviour change is being pinned)::

    PYTHONPATH=src python tests/faas/test_federation_golden.py --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.faas.cluster import FleetConfig
from repro.faas.region import (
    LeastLoadedPolicy,
    LocalityPolicy,
    ProbabilisticOffloadPolicy,
    RegionFederation,
    RegionSpec,
    RegionTopology,
    RoundRobinPolicy,
)
from repro.faas.replaydeploy import deploy_trace
from repro.faas.sim import SimPlatformConfig
from repro.metrics import WindowAccumulator, parse_qos_mix
from repro.obs.profile import PhaseProfiler
from repro.workloads.replay import (
    HashAffinity,
    assign_qos,
    assign_regions,
    compile_trace,
)
from repro.workloads.trace import TraceGenerator

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "federation_stream.json"

WINDOW_S = 3600.0
REGIONS = ("us", "eu", "ap")
QOS_MIX = "critical=1,standard=5,batch=4"

#: name -> (policy factory, QoS-tagged stream?)
SETUPS = {
    "round-robin": (lambda qos: RoundRobinPolicy(), False),
    "least-loaded": (lambda qos: LeastLoadedPolicy(), False),
    "locality-spillover": (lambda qos: LocalityPolicy(spillover_load=1), False),
    "probabilistic-qos": (
        lambda qos: ProbabilisticOffloadPolicy(
            qos_classes=qos, seed=5, update_interval_s=600.0
        ),
        True,
    ),
}


def _replay(setup: str, profiler=None):
    factory, tagged = SETUPS[setup]
    qos = parse_qos_mix(QOS_MIX) if tagged else None
    trace = TraceGenerator(
        app_count=4,
        duration_hours=4.0,
        window_hours=1.0,
        mean_requests_per_window=300.0,
        seed=3,
    ).generate()
    topology = RegionTopology(
        # The edge site is the starved one: a single container, no queue.
        (
            RegionSpec("us"),
            RegionSpec("eu"),
            RegionSpec(
                "ap",
                fleet=FleetConfig(
                    max_containers=1, keep_alive_s=120.0, queue_capacity=0
                ),
            ),
        ),
        latency_ms={("us", "eu"): 40.0, ("us", "ap"): 90.0, ("eu", "ap"): 120.0},
    )
    federation = RegionFederation(
        topology,
        policy=factory(qos),
        platform=SimPlatformConfig(record_traces=False, jitter_sigma=0.05),
        fleet=FleetConfig(max_containers=1, keep_alive_s=120.0, queue_capacity=1),
        seed=9,
        qos=qos,
    )
    deploy_trace(federation, trace, exec_ms=4000.0)
    stream = compile_trace(trace, seed=1, scale=1.0)
    if tagged:
        stream = assign_qos(stream, qos, seed=1)
    if profiler is not None:
        for platform in federation.platforms.values():
            platform.profile_loop(profiler)
    summary = federation.run_stream(
        assign_regions(stream, HashAffinity(REGIONS)), WindowAccumulator(WINDOW_S)
    )
    return summary, federation


def _snapshot(setup: str, profiler=None) -> dict:
    summary, federation = _replay(setup, profiler)
    served = federation.served_counts()
    # Through JSON and back, so tuples compare as lists and floats as
    # their shortest round-trip repr.
    return json.loads(
        json.dumps({"summary": dataclasses.asdict(summary), "served": served})
    )


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_streamed_federation_matches_golden(setup):
    golden = json.loads(GOLDEN.read_text())[setup]
    assert _snapshot(setup) == golden


def test_profiled_regions_match_golden_and_drop_their_probes():
    profiler = PhaseProfiler()
    golden = json.loads(GOLDEN.read_text())["least-loaded"]
    assert _snapshot("least-loaded", profiler) == golden
    assert profiler.seconds("event-loop-scale") > 0.0
    _, federation = _replay("least-loaded", profiler)
    for platform in federation.platforms.values():
        assert "_scale" not in vars(platform)  # the probe left with the run


def test_golden_exercises_shedding_and_drops():
    """The pinned runs are only a guard if the overload paths ran."""
    golden = json.loads(GOLDEN.read_text())
    for setup, snapshot in golden.items():
        summary = snapshot["summary"]
        assert summary["shed"] > 0, setup
        assert summary["completed"] > 0, setup
        assert sum(snapshot["served"].values()) > 0, setup


if __name__ == "__main__":
    if "--write" not in sys.argv:
        raise SystemExit("usage: test_federation_golden.py --write")
    GOLDEN.write_text(
        json.dumps({setup: _snapshot(setup) for setup in sorted(SETUPS)}, indent=1)
        + "\n"
    )
    print(f"wrote {GOLDEN}")
