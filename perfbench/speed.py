"""Host speed, sampled on the core doing the work, to steady the timings.

The benchmark runs on a few cores of a shared host.  Other tenants make
the same code run up to about 60 % slower, in stretches of seconds to
minutes, so wall times of the same work, each measured over half a
minute, spread by 10-45 % (quartile distance over median) between
runs.  The variation is not shared between cores (two cores sampled at
once correlate at about 0.2), so a probe on an idle core cannot
correct it; it is strongly shared between moments a few tens of
milliseconds apart on the same core.

:class:`Sampler` therefore times a fixed pure-Python loop (:func:`probe`)
inside the process doing the work, every :data:`INTERVAL_S` of that
process's CPU time (``ITIMER_PROF``, so a sleeping process is not
sampled and ``time.sleep`` is not interrupted).  The median probe time
over a measured interval gives that interval's host speed, and
:func:`scale` rescales the interval's wall time to a core
running the probe in :data:`REFERENCE_S`: the probe's time on an
uncontended core of a 2-core Xeon at 2.0 GHz.  The probes cost about
2 % of the work they sample, on both sides of any comparison.

The benchmark reports compute-bound times in these reference seconds;
the raw wall times stay in its report line.
"""

from __future__ import annotations

import atexit
import json
import os
import signal
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

#: Iterations of the probe loop; about a third of a millisecond.
PROBE_ITERATIONS = 5000
#: The probe's time on the reference core (its fast-mode time on an
#: uncontended 2.0 GHz Xeon core).
REFERENCE_S = 3.3e-4
#: Process CPU time between probes.
INTERVAL_S = 0.02


def probe() -> float:
    """Time one fixed pure-Python loop; returns its wall time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


class Sampler:
    """Probes this process's core speed on a CPU-time timer.

    ``samples`` holds ``(end_time, probe_s)`` pairs on the
    ``time.perf_counter`` clock, which is comparable across processes.
    A forked child inherits the handler but not the timer; it calls
    :meth:`adopt` to start afresh.
    """

    def __init__(self) -> None:
        self.pid: Optional[int] = None
        self.samples: List[Tuple[float, float]] = []

    def _on_timer(self, signum, frame) -> None:
        took = probe()
        self.samples.append((time.perf_counter(), took))

    def start(self) -> "Sampler":
        self.pid = os.getpid()
        self.samples = []
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        # Once the interpreter tears down its handlers, SIGPROF would kill it.
        atexit.register(self.stop)
        return self

    def adopt(self) -> None:
        """In a forked child: drop the parent's samples, start the timer."""
        if self.pid != os.getpid():
            self.start()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def take(self) -> List[Tuple[float, float]]:
        """The samples so far; clears them."""
        out, self.samples = self.samples, []
        return out

    def append_to(self, path: Path) -> None:
        """Append the samples so far to ``path`` (one JSON list per line)."""
        taken = self.take()
        if taken:
            with open(path, "a") as fh:
                fh.write(json.dumps(taken) + "\n")


def load(paths: Sequence[Path]) -> List[Tuple[float, float]]:
    """Samples appended by :meth:`Sampler.append_to` to any of ``paths``."""
    out: List[Tuple[float, float]] = []
    for path in paths:
        for line in Path(path).read_text().splitlines():
            out.extend((t, s) for t, s in json.loads(line))
    return out


def between(samples, start: float, end: float) -> List[Tuple[float, float]]:
    return [(t, s) for t, s in samples if start <= t <= end]


def typical(samples) -> float:
    """Median probe time of ``(end_time, probe_s)`` samples."""
    times = sorted(s for _, s in samples)
    if not times:
        raise RuntimeError("no host-speed samples over a measured interval")
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2.0


def scale(wall_s: float, probe_s: float) -> float:
    """``wall_s``, measured while the probe took ``probe_s``, in reference seconds."""
    return wall_s * REFERENCE_S / probe_s
