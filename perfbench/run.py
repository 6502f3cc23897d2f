"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each module's docstring says what it runs and why):

* ``replay-year``  -- a 365-day 1 Hz replay (``replay_year.py``);
* ``sweep-fleet``  -- the fleet grid through ``run_suite`` (``sweep_fleet.py``);
* ``serve-follow`` -- ``repro serve`` behind an open-loop feed (``serve_follow.py``).

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` installs span wrappers around each layer's public calls
(``tracer.py``) and reports the per-layer metrics, plus the tracing
overhead against an untraced repetition of the same work.  Every run
checks the program's outputs against pinned or recomputed answers.

Output: a report line (every metric by name with its unit, the
workload's own names for its metrics, the box fingerprint), then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import traceback

import common

WORKLOADS = ("replay-year", "sweep-fleet", "serve-follow")

#: End-to-end metrics, reported by every workload from the untraced run.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "run_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

#: Per-layer metrics, reported by every workload from the traced run
#: (zero where the workload does not reach the layer).
PER_LAYER = {
    "workload.self_s": "s",
    "workload.build_s": "s",
    "workload.trace_builds": "count",
    "core.self_s": "s",
    "core.design_s": "s",
    "core.table_s": "s",
    "core.table_cache_hit_ratio": "ratio",
    "core.predict_s": "s",
    "core.predict_cache_hit_ratio": "ratio",
    "core.plan_s": "s",
    "core.plan_calls": "count",
    "sim.self_s": "s",
    "sim.replay_s": "s",
    "sim.replay_peak_mb": "MB",
    "sim.predict_s": "s",
    "sim.control_s": "s",
    "sim.evaluate_s": "s",
    "sim.settle_s": "s",
    "sim.settle_peak_mb": "MB",
    "sim.kernel_calls": "count",
    "sim.kernel_evaluate_s": "s",
    "sim.kernel_cache_hit_ratio": "ratio",
    "sim.execute_plan_s": "s",
    "sim.segments": "count",
    "sim.reconfigurations": "count",
    "scenarios.self_s": "s",
    "scenarios.worker_busy_s": "s",
    "scenarios.dispatch_overhead_s": "s",
    "scenarios.chunks": "count",
    "scenarios.worker_trace_builds": "count",
    "scenarios.failed_points": "count",
    "results.self_s": "s",
    "results.to_record_s": "s",
    "results.store_save_s": "s",
    "results.store_bytes": "bytes",
    "serve.self_s": "s",
    "serve.poll_s": "s",
    "serve.lines_per_poll": "count",
    "serve.feed_us_per_sample": "us",
    "serve.journal_append_p50_ms": "ms",
    "serve.journal_append_p99_ms": "ms",
    "serve.checkpoint_s": "s",
    "serve.backlog_samples_max": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        common.require_sources()
    except common.BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    work = common.scratch_dir(f"{args.workload}-")
    try:
        module = importlib.import_module(args.workload.replace("-", "_"))
        out = module.run(
            args.seed, args.seconds, bool(args.trace), work
        )
    except Exception:
        traceback.print_exc()
        print(f"benchmark: {args.workload} failed; work left in {work}",
              file=sys.stderr)
        return 1
    common.remove_tree(work)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = dict.fromkeys(units, 0.0)
    metrics.update(out["metrics"])
    if set(metrics) != set(units):
        print(f"benchmark: unexpected metrics {sorted(set(metrics) - set(units))}",
              file=sys.stderr)
        return 1
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "box": common.fingerprint(),
        "workload_metrics": out["report"],
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
