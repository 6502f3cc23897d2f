"""Workload ``serve-follow``: ``repro serve`` behind a live feed, open loop.

The daemon runs ``repro serve FEED --dir STATE`` (the CLI's ``main``,
started by this file's launcher, which also probes the host's speed;
see ``speed.py``) with its default poll interval.  The benchmark
process is the producer: it appends a World Cup-shaped feed (seeded,
multi-day, one rate per line in the format of
``repro.serve.append_feed``) at a fixed :data:`RATE` of samples per
second, regardless of how far the daemon has got, and timestamps each
journal frame as it appears in the journal file.

* Decision latency runs from the time the sample that completes the
  decision's look-ahead window (sample ``t + window - 1``) was *due* to
  be appended, not when it was written, to the time the decision's
  frame is visible in the journal (written and flushed; its fsync
  follows within the same append).
* The backlog (samples appended minus the daemon's ``samples_in`` from
  its health file) is sampled through the follow phase.  A run whose
  backlog grows over the phase is over capacity: every decision counts
  as failed and the latencies are not a measurement of service.
* Catch-up: once the daemon has consumed the follow phase,
  :data:`BACKLOG_CHUNKS` backlogs of :data:`BACKLOG_DAYS` days are made
  visible one at a time, each as a whole (the feed file is replaced by
  a longer copy, so no poll sees half a backlog), and each drain is
  timed until the health file counts its last sample; the first drain
  is a warm-up, and ``run_s`` is the median of the others, each scaled
  by the daemon's host-speed probes over its interval.  The backlog is
  one fixed segment for every seed (the seed varies the follow phase),
  so catch-up speed is measured on a stated input.  ``END`` follows.
* The journal must be byte-identical to
  ``StreamingProvisioner.feed(all) + finalize()`` computed here on the
  same parsed feed.

This path is line parsing, incremental prediction and one fsync per
decision; it bypasses ``sim`` replay entirely.

Run as a script, this file launches the daemon with the host-speed
probes, and the benchmark's tracing if asked:
``serve_follow.py --speed FILE [--trace DIR] -- <repro serve args>``.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import threading
import time
from pathlib import Path
from statistics import fmean

from repro.serve import read_health

#: Samples per second appended in the follow phase: about a quarter of
#: the daemon's catch-up speed on a 2-core Xeon (~300 000 samples/s).
RATE = 75_000.0
MIN_FOLLOW_DAYS = 12  # about 2 300 decisions whose latency is measured
BACKLOG_CHUNKS = 13  # catch-up drains per run; run_s is the median after the first
BACKLOG_DAYS = 1
BACKLOG_SEED = 1998
SETUP_ONLY_LAUNCHES = 3
TICK_S = 0.002  # producer write and health poll interval
WATCH_S = 0.001  # journal watch interval
HEALTH_EVERY_S = 0.02  # backlog sampling interval
_LEN = struct.Struct("<I")


def launcher_main(argv) -> int:
    """Child side: probe the host's speed, maybe trace, run the daemon.

    ``serve_follow.py --speed FILE [--trace DIR] -- <repro serve args>``;
    the probes are written to ``FILE`` when the daemon exits.
    """
    import speed

    sampler = speed.Sampler().start()
    split = argv.index("--")
    options = dict(zip(argv[:split:2], argv[1:split:2]))
    tracer = None
    if "--trace" in options:
        import tracer as tracing

        tracer = tracing.install(options["--trace"])
    from repro.cli import main

    try:
        return main(["serve", *argv[split + 1:]])
    finally:
        sampler.stop()
        sampler.append_to(Path(options["--speed"]))
        if tracer is not None:
            tracer.flush()


def feed_lines(seed: int, follow_days: int):
    """The feed's bytes, per-line end offsets and its parsed samples.

    ``follow_days`` of load from the run's seed, then
    :data:`BACKLOG_CHUNKS` copies of one fixed backlog segment.
    """
    import numpy as np

    from repro.workload.worldcup import WorldCupSynthesizer

    def days(n, seed):
        return WorldCupSynthesizer(n_days=n, seed=seed, peak_rate=3000).build().values

    backlog = days(BACKLOG_DAYS, BACKLOG_SEED)
    values = np.concatenate([days(follow_days, seed)] + [backlog] * BACKLOG_CHUNKS)
    lines = [f"{float(v):.6f}\n" for v in values]
    ends = np.cumsum([len(line) for line in lines])
    parsed = [float(line) for line in lines]
    return "".join(lines).encode("ascii"), [0] + ends.tolist(), parsed


def reference_payloads(samples):
    """Journal payloads the daemon must produce, computed in-process."""
    from repro.cli import build_parser
    from repro.core.bml import design
    from repro.core.profiles import table_i_profiles
    from repro.serve import StreamingProvisioner

    defaults = build_parser().parse_args(["serve", "feed"])
    table = design(table_i_profiles()).table(defaults.max_rate, defaults.method)
    engine = StreamingProvisioner(table, window=defaults.window)
    decisions = engine.feed(samples) + engine.finalize()
    return [d.to_payload() for d in decisions], defaults.window


def parse_frames(data: bytes):
    """Complete ``[len][payload][crc]`` frames and the unparsed remainder."""
    out = []
    pos = 0
    while len(data) - pos >= _LEN.size:
        (n,) = _LEN.unpack_from(data, pos)
        end = pos + _LEN.size + n + 4
        if end > len(data):
            break
        out.append(data[pos + _LEN.size : pos + _LEN.size + n])
        pos = end
    return out, data[pos:]


def mismatches(got, want) -> int:
    """Decisions missing from, extra in, or different in a journal."""
    return sum(
        i >= len(got) or i >= len(want) or got[i] != want[i]
        for i in range(max(len(got), len(want)))
    )


def _daemon(feed: Path, state: Path, work: Path, trace_dir):
    """Launch ``repro serve`` through :func:`launcher_main`.

    Returns the child and the file its host-speed probes go to.
    """
    from common import Child

    probes = work / f"speed-{time.monotonic_ns()}.jsonl"
    argv = [__file__, "--speed", str(probes)]
    if trace_dir is not None:
        argv += ["--trace", str(trace_dir)]
    argv += ["--", str(feed), "--dir", str(state)]
    return Child(argv, work / f"serve-{time.monotonic_ns()}.err"), probes


def _wait_health(child, state: Path, ready, timeout: float = 60.0) -> float:
    """Poll the health file until ``ready(health)``; returns that time."""
    deadline = time.perf_counter() + timeout
    while True:
        health = read_health(state)
        now = time.perf_counter()
        if health is not None and ready(health):
            return now
        if child.proc.poll() is not None or now > deadline:
            raise RuntimeError(f"daemon stalled or exited; see {child.stderr_path}")
        time.sleep(TICK_S)


def _status(*statuses):
    return lambda health: health["status"] in statuses


def _setup_launch(work: Path) -> tuple:
    """Launch a daemon on an empty feed; time until it reports running.

    Returns the wall time and the same in reference seconds.
    """
    import speed

    run_dir = work / f"setup-{time.monotonic_ns()}"
    state = run_dir / "state"
    child, probes = _daemon(run_dir / "feed.txt", state, work, None)
    try:
        running = _wait_health(child, state, _status("running"))
        child.terminate()
        child.wait()
    finally:
        child.close()
    wall = running - child.launched
    samples = speed.between(speed.load([probes]), child.launched, running)
    return wall, speed.scale(wall, speed.typical(samples))


class _Watcher(threading.Thread):
    """Timestamps journal frames as they appear; samples the backlog."""

    def __init__(self, journal: Path, state: Path):
        super().__init__(daemon=True)
        self.journal = journal
        self.state = state
        self.seen = []  # perf_counter time each frame became visible
        self.backlog = []  # (time, appended - samples_in)
        self.written = 0
        self.sampling = True
        self.stop = threading.Event()

    def run(self) -> None:
        rest = b""
        next_health = 0.0
        with open(self.journal, "rb") as fh:
            while True:
                stopping = self.stop.is_set()
                data = fh.read()
                if data:
                    now = time.perf_counter()
                    frames, rest = parse_frames(rest + data)
                    self.seen.extend([now] * len(frames))
                if stopping:
                    return
                now = time.perf_counter()
                if self.sampling and now >= next_health:
                    health = read_health(self.state)
                    if health is not None:
                        self.backlog.append(
                            (now, self.written - health["samples_in"])
                        )
                    next_health = now + HEALTH_EVERY_S
                # While backlogs drain, no frame is timed: poll less often.
                time.sleep(WATCH_S if self.sampling else 0.05)


def _over_capacity(backlog, rate: float) -> bool:
    """Backlog in the last quarter of the follow phase well above the second."""
    n = len(backlog)
    if n < 8:
        return False
    second = fmean(b for _, b in backlog[n // 4 : n // 2])
    last = fmean(b for _, b in backlog[3 * n // 4 :])
    return last > 2.0 * second + 0.1 * rate


def follow_once(seed: int, seconds: float, work: Path, trace_dir=None) -> dict:
    """Launch the daemon, feed it open loop, drain the backlogs, check it."""
    import speed
    from common import median, percentile

    follow_days = max(MIN_FOLLOW_DAYS, round(0.4 * seconds * RATE / 86400))
    buf, ends, parsed = feed_lines(seed, follow_days)
    n_follow = follow_days * 86400
    chunk = BACKLOG_DAYS * 86400
    run_dir = work / f"follow-{time.monotonic_ns()}"
    state = run_dir / "state"
    feed = run_dir / "feed.txt"
    run_dir.mkdir(parents=True)
    feed.touch()
    child, probes = _daemon(feed, state, work, trace_dir)
    try:
        ready = _wait_health(child, state, _status("running"))
        watcher = _Watcher(state / "journal.bin", state)
        watcher.start()
        lateness = []
        written = 0
        with open(feed, "ab") as fh:
            t_start = time.perf_counter() + 0.02
            while written < n_follow:
                now = time.perf_counter()
                due = min(n_follow, int((now - t_start) * RATE) + 1)
                if due > written:
                    fh.write(buf[ends[written] : ends[due]])
                    fh.flush()
                    lateness.append(time.perf_counter() - (t_start + written / RATE))
                    written = due
                    watcher.written = written
                time.sleep(TICK_S)
        _wait_health(child, state, lambda h: h["samples_in"] >= n_follow)
        watcher.sampling = False
        drains = []
        for end in range(n_follow + chunk, len(parsed) + 1, chunk):
            longer = run_dir / "feed.next"
            with open(longer, "wb") as out:
                out.write(buf[: ends[end]])
                out.flush()
                os.fsync(out.fileno())
            t0 = time.perf_counter()
            os.replace(longer, feed)
            done = _wait_health(child, state, lambda h, end=end: h["samples_in"] >= end)
            drains.append((t0, done))
        with open(feed, "ab") as fh:
            fh.write(b"END\n")
        _wait_health(child, state, _status("done"))
        status = child.wait()
        watcher.stop.set()
        watcher.join(timeout=10.0)
    finally:
        child.close()

    got, _ = parse_frames((state / "journal.bin").read_bytes())
    if len(watcher.seen) != len(got):
        raise RuntimeError(f"saw {len(watcher.seen)} of {len(got)} journal frames")
    want, window = reference_payloads(parsed)
    latencies = []
    for payload, seen in zip(want, watcher.seen):
        last = json.loads(payload)["t"] + window - 1
        if last < n_follow:
            latencies.append((seen - (t_start + last / RATE)) * 1000.0)
    samples = speed.load([probes])
    # The first drain warms the daemon up; only the rest are timed.
    drains = drains[1:]
    drains_ref = [
        speed.scale(done - t0, speed.typical(speed.between(samples, t0, done)))
        for t0, done in drains
    ]
    setup = ready - child.launched
    backlog = watcher.backlog
    over = _over_capacity(backlog, RATE)
    bad = mismatches(got, want)
    return {
        "setup_s": setup,
        "setup_ref_s": speed.scale(
            setup, speed.typical(speed.between(samples, child.launched, ready))
        ),
        "peak_rss_mb": child.peak_rss_mb,
        "attempted": len(want),
        # Over capacity: every decision misses its latency limit.
        "failed": len(want) if over else bad,
        "correct": bad == 0 and status == 0,
        "latencies_ms": latencies,
        "drain_s": median(drains_ref),
        "drain_wall_s": median([done - t0 for t0, done in drains]),
        "backlog_samples": chunk,
        "catchup_samples_per_s": chunk / median(drains_ref),
        "over_capacity": over,
        "backlog_samples_max": max((b for _, b in backlog), default=0),
        "gen_late_p99_ms": percentile(lateness, 0.99) * 1000.0,
        "gen_late_max_ms": max(lateness) * 1000.0,
        "gen_batches": len(lateness),
        "follow_days": follow_days,
    }


def run(seed: int, seconds: float, trace: bool, work) -> dict:
    from common import median, percentile, tail_quantile

    if trace:
        import tracer as tracing

        plain = follow_once(seed, seconds, work)
        spans = work / "spans"
        traced = follow_once(seed, seconds, work, trace_dir=spans)
        metrics = tracing.summarize(spans, parent_pid=-1)
        metrics["serve.backlog_samples_max"] = float(traced["backlog_samples_max"])
        metrics["trace.overhead_ratio"] = traced["drain_s"] / plain["drain_s"] - 1.0
        return {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "correct": plain["correct"] and traced["correct"],
            "metrics": metrics,
            "report": {},
        }

    launches = [_setup_launch(work) for _ in range(SETUP_ONLY_LAUNCHES)]
    r = follow_once(seed, seconds, work)
    launches.append((r["setup_s"], r["setup_ref_s"]))
    setups = [ref for _, ref in launches]
    lat = r["latencies_ms"]
    q = tail_quantile(len(lat))
    return {
        "attempted": r["attempted"],
        "failed": r["failed"],
        "correct": r["correct"],
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": r["peak_rss_mb"],
            "run_s": r["drain_s"],
            "latency_p50_ms": median(lat),
            "latency_tail_ms": percentile(lat, q),
        },
        "report": {
            "decision_p50_ms": median(lat),
            f"decision_p{q * 100:g}_ms": percentile(lat, q),
            "latency_samples": len(lat),
            "catchup_samples_per_s": r["catchup_samples_per_s"],
            "drain_wall_s": r["drain_wall_s"],
            "setup_wall_s": median([wall for wall, _ in launches]),
            "backlog_samples": r["backlog_samples"],
            "over_capacity": r["over_capacity"],
            "backlog_samples_max": r["backlog_samples_max"],
            "gen_late_p99_ms": r["gen_late_p99_ms"],
            "gen_late_max_ms": r["gen_late_max_ms"],
            "gen_batches": r["gen_batches"],
            "rate_samples_per_s": RATE,
            "follow_days": r["follow_days"],
            "decisions": r["attempted"],
            "setup_samples": len(setups),
        },
    }


if __name__ == "__main__":
    sys.exit(launcher_main(sys.argv[1:]))
