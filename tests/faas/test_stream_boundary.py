"""The replay loop's boundary: arrival-time validation and the boundary hook.

``ClusterPlatform.run_stream`` is the one single-cluster arrival loop;
journal flushes and checkpoint writes are window-boundary hooks on it.
``RegionFederation.run_stream`` routes a region-tagged stream over the
regional clusters with the same journal boundary screen.  Bad arrival
times must fail there with a named error before any hook or the
accumulator sees them, whichever hooks are installed.
"""

import math
from itertools import islice

import pytest

from repro.common.errors import DeploymentError, ReproError, WorkloadError
from repro.faas.cluster import ClusterPlatform, FleetConfig
from repro.faas.region import RegionFederation, RegionTopology
from repro.faas.replaydeploy import deploy_trace
from repro.faas.sim import SimPlatformConfig
from repro.faas.snapshot import (
    load_checkpoint,
    platform_state,
    run_stream_checkpointed,
)
from repro.metrics import WindowAccumulator
from repro.obs.journal import JournalWriter
from repro.workloads.replay import HashAffinity, assign_regions, compile_trace
from repro.workloads.trace import TraceGenerator

WINDOW_S = 3600.0


def small_trace():
    return TraceGenerator(
        app_count=3,
        duration_hours=6.0,
        window_hours=1.0,
        mean_requests_per_window=60.0,
        seed=4,
    ).generate()


def build():
    trace = small_trace()
    platform = ClusterPlatform(
        config=SimPlatformConfig(record_traces=False),
        fleet=FleetConfig(max_containers=3, keep_alive_s=60.0),
        seed=2,
    )
    deploy_trace(platform, trace)
    return platform, list(compile_trace(trace, seed=1, scale=1.0))


def build_federation():
    """Two regions over the same trace; arrivals tagged with their origin."""
    trace = small_trace()
    regions = ("us", "eu")
    federation = RegionFederation(
        RegionTopology.fully_connected(regions, default_ms=30.0),
        platform=SimPlatformConfig(record_traces=False),
        fleet=FleetConfig(max_containers=3, keep_alive_s=60.0),
        seed=2,
    )
    deploy_trace(federation, trace)
    stream = compile_trace(trace, seed=1, scale=1.0)
    return federation, list(assign_regions(stream, HashAffinity(regions)))


def with_bad_time(arrivals, index, value):
    """``arrivals`` with the ``index``-th time replaced by ``value``."""
    at, *rest = arrivals[index]
    return arrivals[:index] + [(value, *rest)] + arrivals[index + 1:]


@pytest.mark.parametrize(
    "value", [math.inf, math.nan, -1.0], ids=["inf", "nan", "past"]
)
@pytest.mark.parametrize(
    "mode",
    ["plain", "journaled", "checkpointed", "federated", "federated+journal"],
)
def test_bad_arrival_time_fails_at_the_loop_boundary(tmp_path, mode, value):
    federated = mode.startswith("federated")
    platform, arrivals = build_federation() if federated else build()
    stream = with_bad_time(arrivals, 100, value)
    accumulator = WindowAccumulator(WINDOW_S)
    journal = JournalWriter(tmp_path / "run.jsonl", window_s=WINDOW_S)
    # The cluster loop rejects an arrival as a deployment fault, the
    # federation an origin time as a workload fault: both named errors.
    expected = WorkloadError if federated else DeploymentError
    with pytest.raises(expected) as err:
        if mode in ("plain", "federated"):
            platform.run_stream(stream, accumulator)
        elif mode in ("journaled", "federated+journal"):
            with journal.begin():
                platform.run_stream(stream, accumulator, obs=journal)
        else:
            run_stream_checkpointed(
                platform, stream, accumulator, tmp_path / "ckpt.json",
                journal=journal,
            )
    assert isinstance(err.value, ReproError)
    assert str(value) in str(err.value)
    # Rejected before it was fed: the accumulator counted only the good
    # arrivals, the loop's cursors stop at the last of them, and the
    # platform accepts a fresh stream afterwards.
    assert accumulator.finalize().arrivals == 100
    if federated:
        assert platform._last_submit == arrivals[99][0]
    else:
        assert platform._next_token == 100
        assert platform._last_arrival == arrivals[99][0]
    platform.run_stream(iter(()), WindowAccumulator(WINDOW_S))


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_submit_rejects_non_finite_times(value):
    platform, arrivals = build()
    _, app, entry = arrivals[0]
    with pytest.raises(DeploymentError, match=str(value)):
        platform.submit(app, entry, at=value)


@pytest.mark.parametrize(
    "value", [math.inf, math.nan, -1.0], ids=["inf", "nan", "past"]
)
def test_federated_submit_rejects_bad_times(value):
    federation, arrivals = build_federation()
    at, app, entry, origin = arrivals[0]
    federation.submit(app, entry, at=at, origin=origin)
    with pytest.raises(WorkloadError, match=str(value)):
        federation.submit(app, entry, at=value, origin=origin)
    # Nothing was routed: the cursor and the per-region counts are as
    # the one good submission left them.
    assert federation._last_submit == at
    assert sum(federation.served_counts().values()) == 1


def test_boundary_hook_sees_consistent_state_at_each_edge():
    platform, arrivals = build()
    calls = []

    def hook(at, consumed):
        state = platform_state(platform)
        calls.append((at, consumed, state["next_token"]))
        return (int(at // WINDOW_S) + 1) * WINDOW_S

    reference_platform, _ = build()
    reference = reference_platform.run_stream(
        iter(arrivals), WindowAccumulator(WINDOW_S)
    )
    summary = platform.run_stream(
        iter(arrivals), WindowAccumulator(WINDOW_S), on_boundary=hook
    )
    assert summary == reference
    # First arrival, then the first arrival of every later window.
    firsts = {}
    for consumed, (at, *_) in enumerate(arrivals):
        firsts.setdefault(int(at // WINDOW_S), (at, consumed))
    assert [(at, consumed) for at, consumed, _ in calls] == list(firsts.values())
    # The hook sees the platform exactly "consumed arrivals in".
    assert all(token == consumed for _, consumed, token in calls)


def test_checkpoint_hook_counts_from_the_restored_offset(tmp_path):
    """A resumed run's checkpoints record absolute stream positions."""
    path = tmp_path / "ckpt.json"
    platform, arrivals = build()
    edge = next(
        i for i, (at, *_) in enumerate(arrivals) if at >= 3 * WINDOW_S
    )

    def killed():
        yield from islice(arrivals, edge + 1)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_stream_checkpointed(
            platform, killed(), WindowAccumulator(WINDOW_S), path
        )
    resumed_platform, _ = build()
    summary = run_stream_checkpointed(
        resumed_platform, iter(arrivals), WindowAccumulator(WINDOW_S), path,
        keep=True,
    )
    reference_platform, _ = build()
    assert summary == reference_platform.run_stream(
        iter(arrivals), WindowAccumulator(WINDOW_S)
    )
    # The last checkpoint sits at the final window's first arrival.
    last_window = int(arrivals[-1][0] // WINDOW_S)
    expected = next(
        i for i, (at, *_) in enumerate(arrivals)
        if int(at // WINDOW_S) == last_window
    )
    assert load_checkpoint(path)["consumed"] == expected
