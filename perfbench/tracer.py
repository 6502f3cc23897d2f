"""Spans around calls into the ``repro`` layers, recorded from outside.

The traced run installs wrappers over public functions and methods of
each layer (``workload``, ``core``, ``sim``, ``scenarios``, ``results``,
``serve``); nothing inside ``src/repro`` changes.  A wrapper records one
span per call -- ``(id, name, start, end, parent, peak)`` on the
``time.perf_counter`` clock, which on Linux is ``CLOCK_MONOTONIC`` and so
comparable across processes -- plus counters read at the same boundary
(cache hits, samples fed, bytes stored).  Spans stay in memory and are
written to ``<out_dir>/spans-<pid>.jsonl`` when the process's outermost
traced call returns (forked pool workers exit through ``os._exit``, so
they cannot wait for an exit hook) and on :meth:`Tracer.flush`.

Spans flagged ``mem`` also record the process's peak resident set while
they were open: entering one resets the kernel's high-water mark
(``/proc/self/clear_refs``), and every open memory span folds the mark
into its own maximum before a nested span resets it again.

:func:`summarize` turns the span files of one run into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

LAYERS = ("workload", "core", "sim", "scenarios", "results", "serve")


def _hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _reset_hwm() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the mark then only grows: peaks read as process peaks


def _hits(stats: Dict[str, int]) -> int:
    return stats["table_cache_hits"]


def _misses(stats: Dict[str, int]) -> int:
    return stats["table_cache_misses"]


class Tracer:
    """Per-process span recorder; fork-aware (a child starts empty)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._adopt()

    def _adopt(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._mem_open: Dict[int, float] = {}
        self._next = 0

    def add(self, key: str, value: float = 1.0) -> None:
        self.counters[key] += value

    def _fold_hwm(self) -> None:
        peak = _hwm_mb()
        for sid, seen in self._mem_open.items():
            if peak > seen:
                self._mem_open[sid] = peak

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
        mem: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``pre(args, kwargs)`` runs before the call and its value reaches
        ``post(tracer, args, kwargs, result, pre_value)`` after it.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self._adopt()  # a forked worker: drop the parent's spans
            parent = self._stack[-1] if self._stack else -1
            sid = self._next
            self._next += 1
            self._stack.append(sid)
            before = pre(args, kwargs) if pre is not None else None
            if mem:
                self._fold_hwm()
                _reset_hwm()
                self._mem_open[sid] = _hwm_mb()
            returned = False
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                returned = True
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                peak = None
                if mem:
                    self._fold_hwm()
                    peak = self._mem_open.pop(sid)
                self.spans.append([sid, name, t0, t1, parent, peak])
                if not returned and not self._stack:
                    self.flush()  # a failing outermost call: keep its spans
            if post is not None:
                post(self, args, kwargs, result, before)
            if not self._stack:
                self.flush()
            return result

        setattr(owner, attr, wrapper)

    def flush(self) -> None:
        """Append unwritten spans and the counter totals to this pid's file."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
        self.spans = []


# ---------------------------------------------------------------------------
# Instrumentation: which public calls belong to which layer
# ---------------------------------------------------------------------------


def install(out_dir: Path) -> Tracer:
    """Wrap the public entry points of every layer; returns the tracer."""
    from repro.core import bml, prediction
    from repro.core.scheduler import BMLScheduler
    from repro.results.store import RunStore
    from repro.scenarios import runner
    from repro.scenarios.spec import WorkloadSpec
    from repro.serve import daemon, engine, journal, source
    from repro.sim import datacenter, energy, loadbalancer, loop
    from repro.workload import patterns

    tr = Tracer(out_dir)

    # -- workload ---------------------------------------------------------
    def count_build(t, a, k, result, before):
        t.add("workload.trace_builds")

    tr.wrap(WorkloadSpec, "build", "workload.build", post=count_build)
    for fn in ("diurnal", "weekly", "compose"):
        tr.wrap(patterns, fn, f"workload.{fn}")
    tr.wrap(patterns, "make_trace", "workload.make_trace", post=count_build)

    # -- core -------------------------------------------------------------
    tr.wrap(bml, "design", "core.design")
    runner.design = bml.design  # the runner imported it by name

    def table_pre(a, k):
        infra = a[0]
        return infra.table_cache_hits, infra.table_cache_misses

    def table_post(t, a, k, result, before):
        infra = a[0]
        t.add("core.table_hits", infra.table_cache_hits - before[0])
        t.add("core.table_misses", infra.table_cache_misses - before[1])

    tr.wrap(bml.BMLInfrastructure, "table", "core.table", table_pre, table_post)

    def predict_pre(a, k):
        return prediction.prediction_cache_stats()

    def predict_post(t, a, k, result, before):
        after = prediction.prediction_cache_stats()
        t.add("core.predict_hits", _hits(after) - _hits(before))
        t.add("core.predict_misses", _misses(after) - _misses(before))

    tr.wrap(
        prediction, "cached_prediction_series", "core.predict",
        predict_pre, predict_post,
    )
    loop.cached_prediction_series = prediction.cached_prediction_series
    tr.wrap(BMLScheduler, "plan", "core.plan")
    tr.wrap(BMLScheduler, "plan_detailed", "core.plan")

    # -- sim --------------------------------------------------------------
    def replay_post(t, a, k, result, before):
        for phase, secs in result.meta.get("phase_s", {}).items():
            t.add(f"sim.phase.{phase}", secs)
        t.add("sim.segments", result.meta.get("segments", 0))
        t.add("sim.reconfigurations", len(result.reconfigurations))

    tr.wrap(loop.EventDrivenReplay, "run", "sim.replay", post=replay_post, mem=True)
    tr.wrap(energy.EnergyMeter, "record_batch_windows", "sim.settle", mem=True)
    tr.wrap(energy.EnergyMeter, "finalize", "sim.settle", mem=True)
    tr.wrap(loadbalancer.ServingSetKernel, "evaluate", "sim.kernel")
    tr.wrap(loadbalancer.ServingSetKernel, "evaluate_small", "sim.kernel")

    def kernel_pre(a, k):
        return loadbalancer.serving_kernel_cache_stats()

    def kernel_post(t, a, k, result, before):
        after = loadbalancer.serving_kernel_cache_stats()
        t.add("sim.kernel_hits", _hits(after) - _hits(before))
        t.add("sim.kernel_misses", _misses(after) - _misses(before))

    tr.wrap(
        loadbalancer, "serving_set_kernel", "sim.kernel_lookup",
        kernel_pre, kernel_post,
    )
    loop.serving_set_kernel = loadbalancer.serving_set_kernel
    tr.wrap(datacenter, "execute_plan", "sim.execute_plan")
    runner.execute_plan = datacenter.execute_plan

    # -- scenarios --------------------------------------------------------
    tr.wrap(runner, "run_scenario", "scenarios.run_scenario")

    def chunks_post(t, a, k, result, before):
        t.add("scenarios.chunks", len(result))

    tr.wrap(runner, "chunk_specs", "scenarios.chunk_specs", post=chunks_post)

    def suite_pre(a, k):
        return runner.fanout_stats()["worker_trace_builds"]

    def suite_post(t, a, k, result, before):
        after = runner.fanout_stats()["worker_trace_builds"]
        t.add("scenarios.worker_trace_builds", after - before)
        t.add(
            "scenarios.failed_points",
            sum(isinstance(o, runner.FailedRun) for o in result),
        )
        t.add("scenarios.jobs", k.get("jobs", 1))

    tr.wrap(runner, "run_suite", "scenarios.run_suite", suite_pre, suite_post)

    # -- results ----------------------------------------------------------
    tr.wrap(runner.ScenarioRun, "to_record", "results.to_record")

    def save_post(t, a, k, run_id, before):
        run_dir = Path(a[0].root) / run_id
        t.add(
            "results.store_bytes",
            sum(p.stat().st_size for p in run_dir.iterdir()),
        )

    tr.wrap(RunStore, "save", "results.store_save", post=save_post)

    # -- serve ------------------------------------------------------------
    def poll_post(t, a, k, chunk, before):
        if chunk.samples:
            t.add("serve.nonempty_polls")
            t.add("serve.lines", len(chunk.samples))

    tr.wrap(source.TailFileSource, "poll", "serve.poll", post=poll_post)

    def feed_post(t, a, k, result, before):
        t.add("serve.samples_fed", len(a[1]))

    tr.wrap(engine.StreamingProvisioner, "feed", "serve.feed", post=feed_post)
    tr.wrap(engine.StreamingProvisioner, "finalize", "serve.finalize")
    tr.wrap(journal.DecisionJournal, "append", "serve.journal_append")
    tr.wrap(RunStore, "save_state", "serve.checkpoint")
    tr.wrap(daemon.ServeDaemon, "run", "serve.daemon_run")
    return tr


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def load(out_dir: Path):
    """All spans (tagged with their pid) and summed counters of one run."""
    spans: List[tuple] = []
    counters: Dict[str, float] = defaultdict(float)
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        last: Dict[str, float] = {}
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            if "span" in rec:
                sid, name, t0, t1, parent, peak = rec["span"]
                spans.append((pid, sid, name, t0, t1, parent, peak))
            else:
                last = rec["counters"]  # cumulative: the last line wins
        for key, value in last.items():
            counters[key] += value
    return spans, counters


def summarize(out_dir: Path, parent_pid: int, sweep_s: float = 0.0) -> Dict[str, float]:
    """Per-layer metrics from one traced run's span files.

    A layer's busy time counts only its outermost spans (a span whose
    parent belongs to the same layer is already inside one); its self
    time subtracts, from every span of the layer, the part covered by
    its direct child spans.  ``sweep_s`` (the traced ``run_suite`` wall
    time) turns worker busy time into dispatch overhead.
    """
    from common import percentile

    spans, c = load(out_dir)
    by_key = {(s[0], s[1]): s for s in spans}
    child_time: Dict[tuple, float] = defaultdict(float)
    for pid, sid, name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[(pid, parent)] += t1 - t0

    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    def outer(name: str) -> List[tuple]:
        out = []
        for s in spans:
            if s[2] != name:
                continue
            up = by_key.get((s[0], s[5]))
            if up is not None and up[2] == name:
                continue
            out.append(s)
        return out

    def total(name: str) -> float:
        return sum(s[4] - s[3] for s in outer(name))

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    m: Dict[str, float] = {}
    for lay in LAYERS:
        m[f"{lay}.self_s"] = sum(
            (t1 - t0) - child_time[(pid, sid)]
            for pid, sid, name, t0, t1, _, _ in spans
            if layer(name) == lay
        )
    workload_spans = [
        s for s in spans
        if layer(s[2]) == "workload"
        and layer(by_key.get((s[0], s[5]), (0, 0, ""))[2]) != "workload"
    ]
    m["workload.build_s"] = sum(s[4] - s[3] for s in workload_spans)
    m["workload.trace_builds"] = c["workload.trace_builds"]

    m["core.design_s"] = total("core.design")
    m["core.table_s"] = total("core.table")
    m["core.table_cache_hit_ratio"] = ratio(c["core.table_hits"], c["core.table_misses"])
    m["core.predict_s"] = total("core.predict")
    m["core.predict_cache_hit_ratio"] = ratio(
        c["core.predict_hits"], c["core.predict_misses"]
    )
    m["core.plan_s"] = total("core.plan")
    m["core.plan_calls"] = float(len(outer("core.plan")))

    replays = outer("sim.replay")
    m["sim.replay_s"] = sum(s[4] - s[3] for s in replays)
    m["sim.replay_peak_mb"] = max((s[6] for s in replays), default=0.0)
    for phase in ("predict", "control", "evaluate", "settle"):
        m[f"sim.{phase}_s"] = c[f"sim.phase.{phase}"]
    m["sim.settle_peak_mb"] = max(
        (s[6] for s in spans if s[2] == "sim.settle"), default=0.0
    )
    kernels = outer("sim.kernel")
    m["sim.kernel_calls"] = float(len(kernels))
    m["sim.kernel_evaluate_s"] = sum(s[4] - s[3] for s in kernels)
    m["sim.kernel_cache_hit_ratio"] = ratio(c["sim.kernel_hits"], c["sim.kernel_misses"])
    m["sim.execute_plan_s"] = total("sim.execute_plan")
    m["sim.segments"] = c["sim.segments"]
    m["sim.reconfigurations"] = c["sim.reconfigurations"]

    worker_runs = [s for s in outer("scenarios.run_scenario") if s[0] != parent_pid]
    busy = sum(s[4] - s[3] for s in worker_runs)
    jobs = c["scenarios.jobs"] or 1.0
    m["scenarios.worker_busy_s"] = busy
    m["scenarios.dispatch_overhead_s"] = sweep_s - busy / jobs if sweep_s else 0.0
    m["scenarios.chunks"] = c["scenarios.chunks"]
    m["scenarios.worker_trace_builds"] = c["scenarios.worker_trace_builds"]
    m["scenarios.failed_points"] = c["scenarios.failed_points"]

    m["results.to_record_s"] = total("results.to_record")
    m["results.store_save_s"] = total("results.store_save")
    m["results.store_bytes"] = c["results.store_bytes"]

    m["serve.poll_s"] = total("serve.poll")
    polls = c["serve.nonempty_polls"]
    m["serve.lines_per_poll"] = c["serve.lines"] / polls if polls else 0.0
    fed = c["serve.samples_fed"]
    m["serve.feed_us_per_sample"] = total("serve.feed") / fed * 1e6 if fed else 0.0
    appends = [(s[4] - s[3]) * 1000.0 for s in spans if s[2] == "serve.journal_append"]
    for q in (50, 99):
        m[f"serve.journal_append_p{q}_ms"] = percentile(appends, q / 100) if appends else 0.0
    m["serve.checkpoint_s"] = total("serve.checkpoint")
    m["trace.spans"] = float(len(spans))
    return m
