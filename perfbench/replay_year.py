"""Workload ``replay-year``: one year of 1 Hz load through the replay engine.

The input is a 365-day trace (31 536 000 samples): a diurnal cycle times
a weekday/weekend modulation, scaled to a 3000 req/s peak and rounded to
whole requests, so rates repeat heavily.  It is replayed by
``EventDrivenReplay.run`` (the default two-phase engine) on the Table I
infrastructure's combination table with ``LookAheadMaxPredictor(378)``.
This is the run where control (about 40 000 reconfigurations) and settle
(the per-machine energy ledger) dominate, and where the peak resident
set is about 1.4 GB.  It bypasses ``scenarios``, ``results`` and ``serve``.

The seed picks the weekday the year starts on (one of :data:`VARIANTS`
variants; rates stay integers, and every variant does the same amount of
work).  Each variant's output digest is pinned in ``expected.json`` (see
``pin.py``), so every seed is checked against a pinned answer.

Run as a script, this file is the child process that does the work:
``replay_year.py --seed N [--setup-only] [--trace DIR]``.
"""

from __future__ import annotations

import argparse
import sys
import time

VARIANTS = 7  # the weekday the year starts on
WINDOW = 378
DAYS = 365
PEAK = 3000.0
#: Set-up-only children per run; each replay child adds one more sample.
SETUP_ONLY_CHILDREN = 1
#: Replays per run, at least (each in its own child).
MIN_REPLAYS = 2


def variant(seed: int) -> int:
    return seed % VARIANTS


def build_trace(seed: int):
    import numpy as np

    from repro.workload import patterns
    from repro.workload.trace import SECONDS_PER_DAY

    v = variant(seed)
    duration = DAYS * SECONDS_PER_DAY
    base = patterns.diurnal(duration, low=0.15, high=1.0, peak_hour=15.0)
    week = patterns.weekly(duration, 1.0, 0.9, start_weekday=v)
    values = np.round(patterns.compose(base, [week]) * PEAK)
    return patterns.make_trace(values, f"year-diurnal-v{v}")


def outputs_digest(result, stats) -> str:
    """Digest of everything the replay simulates (not its wall times)."""
    import numpy as np

    from common import digest

    def arr(x) -> bytes:
        return np.ascontiguousarray(np.asarray(x, dtype=np.float64)).tobytes()

    recon = repr([
        (
            r.decided_at, r.completes_at,
            tuple((p.name, c) for p, c in r.before.items),
            tuple((p.name, c) for p, c in r.after.items),
            r.boot_duration, r.off_duration, r.on_energy, r.off_energy,
        )
        for r in result.reconfigurations
    ])
    counters = repr((
        sorted(stats.boots.items()), sorted(stats.shutdowns.items()),
        stats.migrations, stats.peak_machines_on,
    ))
    return digest(
        arr(result.power), arr(result.unserved),
        repr(result.meta["meter_energy_j"]).encode(),
        counters.encode(), recon.encode(),
    )


def child_main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="span output directory")
    args = ap.parse_args(argv)

    import speed
    from common import emit

    sampler = speed.Sampler().start()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install(args.trace)
    import numpy as np

    from repro.core.bml import design
    from repro.core.prediction import LookAheadMaxPredictor
    from repro.core.profiles import table_i_profiles
    from repro.sim.loop import EventDrivenReplay

    trace = build_trace(args.seed)
    table = design(table_i_profiles()).table(float(np.max(trace.values)))
    probe_s = speed.typical(sampler.take())
    emit("ready", t=time.perf_counter(), probe_s=probe_s)
    if args.setup_only:
        return 0
    replay = EventDrivenReplay(table, trace, predictor=LookAheadMaxPredictor(WINDOW))
    sampler.take()
    t0 = time.perf_counter()
    result = replay.run()
    replay_s = time.perf_counter() - t0
    probe_s = speed.typical(sampler.take())
    if tracer is not None:
        tracer.flush()
    emit(
        "result",
        replay_s=replay_s,
        probe_s=probe_s,
        digest=outputs_digest(result, replay.stats),
        phase_s=result.meta["phase_s"],
        reconfigurations=len(result.reconfigurations),
        samples=len(trace),
    )
    return 0


# ---------------------------------------------------------------------------
# Benchmark side
# ---------------------------------------------------------------------------


def replay_once(seed: int, work, trace_dir=None, setup_only=False) -> dict:
    """One child: set up, replay unless ``setup_only``, report."""
    from common import run_child

    argv = [__file__, "--seed", str(seed)]
    if trace_dir is not None:
        argv += ["--trace", str(trace_dir)]
    if setup_only:
        argv.append("--setup-only")
    return run_child(argv, work, setup_only=setup_only)


def run(seed: int, seconds: float, trace: bool, work) -> dict:
    """One benchmark run; returns metrics, counts and report fields."""
    from common import load_expected, median
    from speed import scale

    expected = load_expected()["replay-year"][str(variant(seed))]
    if trace:
        return _traced(seed, work, expected)
    children = [
        replay_once(seed, work, setup_only=True) for _ in range(SETUP_ONLY_CHILDREN)
    ]
    replays = []
    start = time.perf_counter()
    # At least MIN_REPLAYS; another only if it should end within ``seconds``.
    while True:
        t0 = time.perf_counter()
        replays.append(replay_once(seed, work))
        now = time.perf_counter()
        if len(replays) >= MIN_REPLAYS and now - start + (now - t0) > seconds:
            break
    children += replays
    setups = [scale(c["setup_s"], c["ready"]["probe_s"]) for c in children]
    times_ms = [scale(r["replay_s"], r["probe_s"]) * 1000.0 for r in replays]
    wall_ms = [r["replay_s"] * 1000.0 for r in replays]
    failed = sum(r["digest"] != expected for r in replays)
    return {
        "attempted": len(replays),
        "failed": failed,
        "correct": failed == 0,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in replays),
            "run_s": median(times_ms) / 1000.0,
            "latency_p50_ms": median(times_ms),
            "latency_tail_ms": max(times_ms),
        },
        "report": {
            "replay_s": median(times_ms) / 1000.0,
            "replay_wall_s": median(wall_ms) / 1000.0,
            "setup_wall_s": median([c["setup_s"] for c in children]),
            "replays": len(replays),
            "setup_samples": len(setups),
            "variant": variant(seed),
            "phase_s": replays[-1]["phase_s"],
            "reconfigurations": replays[-1]["reconfigurations"],
            "latency_tail": "max over the replays",
        },
    }


def _traced(seed: int, work, expected: str) -> dict:
    import tracer as tracing

    plain = replay_once(seed, work)
    spans = work / "spans"
    traced = replay_once(seed, work, trace_dir=spans)
    metrics = tracing.summarize(spans, parent_pid=-1)
    metrics["trace.overhead_ratio"] = traced["replay_s"] / plain["replay_s"] - 1.0
    failed = sum(r["digest"] != expected for r in (plain, traced))
    return {"attempted": 2, "failed": failed, "correct": failed == 0,
            "metrics": metrics, "report": {}}


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
