"""Span recording for the traced benchmark run, from outside the program.

The traced run wraps public entry points of the replay and SLIMSTART
layers (:func:`install`) and records, for every call, the time spent
inside it minus the time spent in wrapped calls it made (self time).
Per-request calls (window accounting, scaling consultations, routing
choices, arrival compilation) are aggregated into a count and a
self-time total per layer, so tracing a 180k-request replay costs a few
hundred milliseconds instead of a span object per request.  Coarse
calls (trace generation, deployment, checkpoint writes, per-app cycle
steps) are also kept as individual spans — name, start, end, parent
span, run id — held in memory and written out by :meth:`Tracer.dump`
when the run ends.

Nothing here touches ``ClusterPlatform.profile_loop`` or
``PhaseProfiler.probe``: installing an instance-level ``_drain_until``
switches the cluster loop onto its slower delegate path, so the traced
loop would not be the loop the untraced run times.  Every wrapper here
is installed on a class or module attribute the program looks up
anyway, which leaves the inlined fast paths in place.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Layers called per request: aggregated into counts and self time only.
#: Every other layer also records one span per call.
HOT_LAYERS = frozenset(
    {
        "workloads.replay.compile",
        "metrics.windows.observe",
        "faas.autoscale.consult",
        "faas.region.route",
        "faas.region.advance",
        "obs.journal.write",
    }
)


class Tracer:
    """Self-time accounting plus an in-memory span log for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.clock = time.perf_counter
        # One frame per active wrapped call: [layer, start, child_s, span_id].
        self.stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []

    def _enter(self, layer: str) -> list:
        span_id = None
        if layer not in HOT_LAYERS:
            span_id = len(self.spans)
            self.spans.append(None)  # filled in on exit
        frame = [layer, self.clock(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        layer, start, child_s, span_id = frame
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if stack:
            stack[-1][2] += duration
        if span_id is not None:
            parent = next(
                (outer[3] for outer in reversed(stack) if outer[3] is not None), None
            )
            self.spans[span_id] = (span_id, layer, start, end, parent, self.run_id)

    def span(self, layer: str):
        """Context manager timing a block of the benchmark's own code."""
        return _Span(self, layer)

    def wrap(self, fn, layer: str):
        """``fn`` timed as ``layer``; a call nested in the same layer passes through."""
        stack = self.stack
        enter = self._enter
        leave = self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def wrap_iter(self, iterable, layer: str):
        """An iterator whose every ``next()`` is timed as ``layer``."""
        return _TimedIterator(self, iter(iterable), layer)

    def covered_s(self) -> float:
        """Total time inside any wrapped call or span (sum of self times)."""
        return sum(self.self_s.values())

    def dump(self, path: Path) -> None:
        """Write the span log (one JSON object per line) and the layer totals."""
        with open(path, "w") as handle:
            for span in self.spans:
                if span is None:
                    continue
                span_id, name, start, end, parent, run_id = span
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run_id,
                        }
                    )
                    + "\n"
                )
            for layer in sorted(self.self_s):
                handle.write(
                    json.dumps(
                        {
                            "layer": layer,
                            "self_s": self.self_s[layer],
                            "calls": self.calls[layer],
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, layer: str) -> None:
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        self.frame = self.tracer._enter(self.layer)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.frame)


class _TimedIterator:
    """Times each ``next()``; counts the items it yields."""

    def __init__(self, tracer: Tracer, inner, layer: str) -> None:
        self.tracer = tracer
        self.inner = inner
        self.layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        stack = tracer.stack
        if stack and stack[-1][0] == self.layer:
            return next(self.inner)
        frame = tracer._enter(self.layer)
        try:
            item = next(self.inner)
        finally:
            tracer._exit(frame)
        tracer.counts[self.layer + ".items"] += 1
        return item


# -- installing wrappers ------------------------------------------------------


def patch_method(tracer: Tracer, cls: type, name: str, layer: str) -> None:
    """Replace ``cls.name`` (looked up through the MRO) with a timed wrapper."""
    raw = None
    for klass in cls.__mro__:
        if name in klass.__dict__:
            raw = klass.__dict__[name]
            break
    if raw is None:
        raise AttributeError(f"{cls.__name__} has no attribute {name!r}")
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(tracer.wrap(raw.__func__, layer)))
    elif isinstance(raw, staticmethod):
        setattr(cls, name, staticmethod(tracer.wrap(raw.__func__, layer)))
    else:
        setattr(cls, name, tracer.wrap(raw, layer))


#: Modules outside ``repro`` whose call sites are rebound too: the
#: benchmark's own workload code imports the entry points by name.
BENCHMARK_MODULES = ("workloads",)


def patch_function(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded module that calls it.

    Modules import functions by name (``from x import f``), so the call
    sites see the wrapper only if every module-level binding of the
    original is replaced — in ``repro`` and in the benchmark's own
    modules.  Returns the number of bindings replaced.
    """
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name.startswith("repro") or module_name in BENCHMARK_MODULES
        ):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                replaced += 1
    if not replaced:
        raise LookupError(f"{original!r} is bound in no loaded module")
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer.

    Layer names follow the package's modules.  The scaling policy and
    the routing policy are wrapped per instance class by the workloads,
    which know which policy object the run deploys
    (:func:`wrap_scaling_policy`, :func:`wrap_routing_policy`).
    """
    from repro.core.pipeline import SlimStart
    from repro.faas import replaydeploy, snapshot
    from repro.faas.cluster import ClusterPlatform
    from repro.faas.gateway import Gateway
    from repro.faas.region import FederatedGateway, RegionFederation
    from repro.faas.sim import SimPlatform
    from repro.metrics import windows
    from repro.obs import journal
    from repro.workloads import replay
    from repro.workloads.trace import TraceGenerator

    patch_method(tracer, TraceGenerator, "generate", "workloads.trace.generate")
    for fn in (replaydeploy.deploy_trace, replaydeploy.expose_trace):
        patch_function(fn, tracer.wrap(fn, "faas.replaydeploy.deploy"))

    for fn in (replay.compile_trace, replay.assign_qos, replay.assign_regions):
        patch_function(fn, _timed_stream(tracer, fn, "workloads.replay.compile"))

    # The event loop: streamed, checkpoint-driven and federated entries.
    for cls in (Gateway, FederatedGateway):
        patch_method(tracer, cls, "submit_stream", "faas.cluster.loop")
    patch_method(tracer, ClusterPlatform, "run_stream", "faas.cluster.loop")
    patch_method(tracer, RegionFederation, "run_stream", "faas.cluster.loop")
    patch_function(
        snapshot.run_stream_checkpointed,
        tracer.wrap(snapshot.run_stream_checkpointed, "faas.cluster.loop"),
    )
    # Federation: every regional event-loop advance.
    patch_method(tracer, ClusterPlatform, "run", "faas.region.advance")

    for name in (
        "observe_arrival",
        "observe_completion",
        "observe_shed",
        "observe_provision",
        "_observe_completion_counted",
        "_observe_shed_counted",
    ):
        patch_method(tracer, windows.WindowAccumulator, name, "metrics.windows.observe")
    patch_method(tracer, windows.WindowAccumulator, "finalize", "metrics.windows.merge")
    patch_method(tracer, windows.WindowedSummary, "merge", "metrics.windows.merge")
    patch_function(
        windows.merge_wire, tracer.wrap(windows.merge_wire, "metrics.windows.merge")
    )

    write_checkpoint = snapshot.write_checkpoint

    def counted_checkpoint(path, *args, **kwargs):
        write_checkpoint(path, *args, **kwargs)
        tracer.counts["faas.snapshot.writes"] += 1
        tracer.counts["faas.snapshot.bytes"] += Path(path).stat().st_size

    counted_checkpoint = functools.wraps(write_checkpoint)(counted_checkpoint)
    patch_function(
        write_checkpoint, tracer.wrap(counted_checkpoint, "faas.snapshot.write")
    )

    for name in (
        "begin",
        "resume",
        "flush_boundary",
        "close",
        "shed",
        "provision",
        "scaling_decision",
        "span",
    ):
        patch_method(tracer, journal.JournalWriter, name, "obs.journal.write")
    patch_function(
        journal.merge_journals,
        tracer.wrap(journal.merge_journals, "obs.journal.write"),
    )

    patch_method(tracer, SimPlatform, "deploy", "faas.sim.deploy")
    patch_method(tracer, SimPlatform, "redeploy", "faas.sim.deploy")
    patch_method(tracer, SlimStart, "measure_cold_starts", "faas.sim.measure")
    patch_method(tracer, SlimStart, "profile_simulated", "core.simprofiler.profile")
    patch_method(tracer, SlimStart, "analyze", "core.analyzer.analyze")


#: The scaling-policy calls the cluster makes while a replay runs.
SCALING_CONSULTS = (
    "warm_hit_ok",
    "observe_arrival",
    "observe_window",
    "scale_out",
    "decision",
    "idle_expiry",
)


def wrap_scaling_policy(tracer: Tracer, policy) -> None:
    """Time every consultation of ``policy`` (forecaster calls nest inside)."""
    for name in SCALING_CONSULTS:
        patch_method(tracer, type(policy), name, "faas.autoscale.consult")


def wrap_routing_policy(tracer: Tracer, policy) -> None:
    """Time every routing choice of the federation's ``policy``."""
    patch_method(tracer, type(policy), "choose", "faas.region.route")


def _timed_stream(tracer: Tracer, fn, layer: str):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        return tracer.wrap_iter(fn(*args, **kwargs), layer)

    return timed
