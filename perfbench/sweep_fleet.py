"""Workload ``sweep-fleet``: the registered ``fleet-grid`` sweep, run as a suite.

The grid keeps the registered ``fleet-grid`` axes over base ``paper-bml``
-- inventory (full, small-dc, no-medium) x powercap (none, 0.7) x
noise_sigma (0, 0.15) x seed x window (189, 378, 756) -- with ``days``
fixed to one World Cup-shaped day and the trace seeds to the axis's
first two values (:data:`TRACE_SEEDS`), crossed with ``engine`` in
{fast, event}: 144 points.  It runs through ``run_suite(jobs=nproc,
keep_going=True, store=RunStore(tmp))``, as ``repro sweep run --jobs N``
does, with the platform's default start method.  Many short points sharing a few
workloads exercise ``scenarios`` dispatch, the ``core`` table and
predictor caches, per-point planning and ``results`` store writes; the
event half replays bursty, non-integer traces, where evaluate dominates.

Known defect, kept in the grid on purpose: the 24 points
``engine=event`` x ``powercap=0.7`` x bounded inventory (small-dc,
no-medium) fail with ``ValueError: inventory for unknown architectures``.
``scenarios/runner.py`` hands ``EventDrivenReplay`` the plain-named
inventory while power-capped profiles are renamed ``name@<cap>W``
(``sim/powercap.py``).  They count as failed operations; the output
check requires exactly these points to fail with exactly this error,
and every other point to match its pinned ``ScenarioResult`` digest.
When the defect is fixed, re-pin with ``pin.py``.

The benchmark seed shuffles the order of the points within each
workload (:func:`point_order`).  The pool runs a workload's points in
that order, and the outputs must not depend on it.  Every seed runs the
same points, so the work does not depend on the seed: trace seeds
picked by the benchmark seed made sweep times spread about twice as
widely between benchmark seeds.

Run as a script, this file is the child process that does the work:
``sweep_fleet.py --seed N [--setup-only] [--store DIR] [--jobs J] [--trace DIR]``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

#: The trace seeds of the grid: the registered seed axis's first two values.
TRACE_SEEDS = (7, 11)
SETUP_ONLY_CHILDREN = 5
KNOWN_DEFECT = "ValueError: inventory for unknown architectures"


def sweep_spec():
    from repro.scenarios import registry
    from repro.scenarios.sweep import SweepSpec

    grid = registry.get_sweep("fleet-grid")
    axes = []
    for axis, values in grid.axes:
        if axis == "seed":
            values = TRACE_SEEDS
        elif axis == "days":
            values = (1,)
        axes.append((axis, values))
    axes.append(("engine", ("fast", "event")))
    return SweepSpec(name=grid.name, base=grid.base, axes=tuple(axes), tags=grid.tags)


def point_order(specs, seed: int) -> list:
    """``specs`` with each workload's points shuffled among its positions.

    The workload groups keep their positions, so the pool's chunks and
    their order (``runner.chunk_specs``) are the same for every seed;
    only the order of the points inside a chunk changes.
    """
    import random

    rng = random.Random(seed)
    groups = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.workload, []).append(i)
    out = list(specs)
    for positions in groups.values():
        members = [specs[i] for i in positions]
        rng.shuffle(members)
        for i, spec in zip(positions, members):
            out[i] = spec
    return out


def known_defect(spec) -> bool:
    """The grid points the power-cap inventory naming defect makes fail."""
    coords = dict(spec.axes)
    return (
        coords["engine"] == "event"
        and coords["powercap"] == 0.7
        and coords["inventory"] != "full"
    )


def record_digest(record) -> str:
    """Digest of a stored ``ScenarioResult``, minus wall time and timestamp."""
    import numpy as np

    from common import digest

    data = record.to_json_dict()
    data["provenance"].pop("elapsed_s")
    data["provenance"].pop("created_at")
    series = np.asarray(record.per_day_energy_j, dtype=np.float64).tobytes()
    return digest(json.dumps(data, sort_keys=True).encode(), series)


def probe_workers(runner, sampler, out_dir: Path) -> None:
    """Make every pool worker probe its core while it runs scenarios.

    A forked worker inherits the wrapper but not the probe timer: its
    first scenario starts the timer, and each scenario's probes are
    appended to ``out_dir/speed-<pid>.jsonl`` when it returns.
    """
    original = runner.run_scenario

    @functools.wraps(original)
    def run_scenario(*args, **kwargs):
        sampler.adopt()
        try:
            return original(*args, **kwargs)
        finally:
            sampler.append_to(out_dir / f"speed-{os.getpid()}.jsonl")

    runner.run_scenario = run_scenario


def child_main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--store", default=None)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", default=None, help="span output directory")
    args = ap.parse_args(argv)

    import speed
    from common import emit

    sampler = speed.Sampler().start()
    if args.trace:
        import tracer as tracing

        tracing.install(args.trace)
    from repro.results.store import RESULT_FILE, RunStore
    from repro.scenarios import runner

    specs = point_order(sweep_spec().expand(), args.seed)
    emit("ready", t=time.perf_counter(), probe_s=speed.typical(sampler.take()))
    if args.setup_only:
        return 0
    # The dispatcher mostly waits; the pool workers probe while they work.
    sampler.stop()
    probes = Path(args.store + "-speed")
    probes.mkdir()
    probe_workers(runner, sampler, probes)
    wall0 = time.time()
    t0 = time.perf_counter()
    outcomes = runner.run_suite(
        specs, jobs=args.jobs, keep_going=True, store=RunStore(args.store)
    )
    sweep_s = time.perf_counter() - t0
    failures = {
        o.spec.name: f"{o.error_type}: {o.message}"
        for o in outcomes if isinstance(o, runner.FailedRun)
    }
    # When each stored point became available, counted from the sweep's start.
    latencies = [
        (path.stat().st_mtime - wall0) * 1000.0
        for path in Path(args.store).glob(f"*/{RESULT_FILE}")
    ]
    digests = {
        rec.name: record_digest(rec)
        for rec in RunStore(args.store).load_all(strict=True)
    }
    emit(
        "result", sweep_s=sweep_s, points=len(specs), failures=failures,
        probe_s=speed.typical(speed.load(sorted(probes.iterdir()))),
        digests=digests, latencies_ms=latencies,
        known_defect=[spec.name for spec in specs if known_defect(spec)],
    )
    return 0


# ---------------------------------------------------------------------------
# Benchmark side
# ---------------------------------------------------------------------------


def sweep_once(seed: int, work, jobs: int = 1, trace_dir=None, setup_only=False) -> dict:
    """One child: expand the grid, run the sweep unless ``setup_only``."""
    from common import run_child

    store = work / f"store-{time.monotonic_ns()}"
    argv = [__file__, "--seed", str(seed), "--store", str(store), "--jobs", str(jobs)]
    if trace_dir is not None:
        argv += ["--trace", str(trace_dir)]
    if setup_only:
        argv.append("--setup-only")
    return run_child(argv, work, setup_only=setup_only)


def check(result: dict, expected: dict):
    """(failed or mismatching points, mismatching points) against the pins.

    A pinned failure is the string ``KNOWN_DEFECT``; the error message
    lists a set, whose order varies, so only its prefix is compared.
    """
    mismatched = []
    names = set(result["digests"]) | set(result["failures"])
    if len(names) != result["points"]:
        mismatched.append("<points missing from the store>")
    for name in sorted(names):
        want = expected.get(name)
        if name in result["failures"]:
            got = result["failures"][name]
            ok = want == KNOWN_DEFECT and got.startswith(KNOWN_DEFECT)
        else:
            ok = result["digests"][name] == want
        if not ok:
            mismatched.append(name)
    return set(result["failures"]) | set(mismatched), mismatched


def run(seed: int, seconds: float, trace: bool, work) -> dict:
    from common import load_expected, median, nproc, percentile, tail_quantile
    from speed import scale

    expected = load_expected()["sweep-fleet"]
    jobs = nproc()
    if trace:
        plain = sweep_once(seed, work, jobs)
        spans = work / "spans"
        traced = sweep_once(seed, work, jobs, trace_dir=spans)
        import tracer as tracing

        metrics = tracing.summarize(spans, traced["pid"], sweep_s=traced["sweep_s"])
        metrics["trace.overhead_ratio"] = traced["sweep_s"] / plain["sweep_s"] - 1.0
        sweeps = [plain, traced]
    else:
        children = [
            sweep_once(seed, work, setup_only=True) for _ in range(SETUP_ONLY_CHILDREN)
        ]
        sweeps = []
        start = time.perf_counter()
        # Start another sweep only if it should end within ``seconds``.
        while True:
            t0 = time.perf_counter()
            sweeps.append(sweep_once(seed, work, jobs))
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
        children += sweeps
        setups = [scale(c["setup_s"], c["ready"]["probe_s"]) for c in children]
        lat = [scale(ms, s["probe_s"]) for s in sweeps for ms in s["latencies_ms"]]
        sweep_times = [scale(s["sweep_s"], s["probe_s"]) for s in sweeps]
        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in sweeps),
            "run_s": median(sweep_times),
            "latency_p50_ms": median(lat),
            "latency_tail_ms": percentile(lat, tail_quantile(len(lat))),
        }
    failed = 0
    mismatched = []
    for s in sweeps:
        bad, m = check(s, expected)
        failed += len(bad)
        mismatched += m
    points = sum(s["points"] for s in sweeps)
    report = {}
    if not trace:
        report = {
            "sweep_s": median(sweep_times),
            "sweep_wall_s": median([s["sweep_s"] for s in sweeps]),
            "setup_wall_s": median([c["setup_s"] for c in children]),
            "sweeps": len(sweeps),
            "points_per_sweep": sweeps[0]["points"],
            "failed_ratio": failed / points,
            "known_defect_points": sum(
                1 for name in sweeps[0]["failures"]
                if expected.get(name) == KNOWN_DEFECT
            ),
            "trace_seeds": list(TRACE_SEEDS),
            "jobs": jobs,
            "latency_samples": len(lat),
            "latency": "time from sweep start until each point's result is stored",
            "latency_tail_quantile": tail_quantile(len(lat)),
        }
    report["mismatched_points"] = mismatched[:10]
    return {
        "attempted": points,
        "failed": failed,
        "correct": not mismatched,
        "metrics": metrics,
        "report": report,
    }


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
