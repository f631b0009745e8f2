"""One run of one workload in a fresh process; prints its result as JSON.

``run.py`` starts this script once per measured run and times it from
the outside (``wall_s``: interpreter start through the final summary).
With ``--trace`` the layer wrappers are installed before the workload
runs, the span log is written to ``--spans`` when it ends, and the
per-layer table is added to the result.  With ``--setup-only``
(``slimstart_table2`` only) it runs the setup phase alone and prints its
``setup_s``.

    python3 perfbench/iteration.py --workload replay_plain --seed 7 \\
        --workdir perfbench/out/work
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--size", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import layers
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        if workload.kind != "table2":
            parser.error("--setup-only runs the Table II setup only")
        started = time.perf_counter()
        workloads.table2_setup(workload, args.size)
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        tracing.install(tracer)
    outcome = workloads.run_workload(
        workload, args.seed, args.workdir, tracer=tracer, size=args.size
    )
    result = dataclasses.asdict(outcome)
    result["child_s"] = time.perf_counter() - STARTED
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = peak_kb / 1024.0
    if tracer is not None:
        result["layers"] = layers.layer_values(tracer, outcome)
        if args.spans is not None:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
