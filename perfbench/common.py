"""Helpers shared by the benchmark's workloads: paths, children, statistics.

Every workload runs the measured program in child processes started
from here, so their peak resident set can be read from ``wait4`` (the
maximum over the child and every descendant it reaped, such as pool
workers) and their set-up time counted from the moment of launch.
Children report on standard output with one JSON object per line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for stores, feeds and span files; inside the checkout.
TMP_ROOT = ROOT / ".bench_tmp"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a child failed)."""


def require_sources() -> None:
    """Make the program importable here; refuse if its sources are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def scratch_dir(prefix: str) -> Path:
    TMP_ROOT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Child:
    """A child process whose stdout carries JSON event lines."""

    def __init__(self, argv: Sequence[str], stderr_path: Path):
        self.stderr_path = stderr_path
        self._err = open(stderr_path, "wb")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE,
            stderr=self._err,
            env=child_env(),
            cwd=str(ROOT),
        )
        self.rusage = None
        self.status: Optional[int] = None

    def event(self, kind: str) -> dict:
        """Block until the child prints an event of ``kind``; return it."""
        for raw in self.proc.stdout:
            rec = json.loads(raw)
            if rec.get("event") == kind:
                return rec
        self.wait()
        raise BenchError(
            f"child {self.proc.args[1:]} ended (status {self.status}) before "
            f"reporting {kind!r}:\n{self.stderr_path.read_text()[-3000:]}"
        )

    def terminate(self) -> None:
        if self.status is None:
            self.proc.send_signal(signal.SIGTERM)

    def wait(self, timeout: float = 120.0) -> int:
        """Reap the child with ``wait4``; keeps its resource usage."""
        if self.status is not None:
            return self.status
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.status = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.status
        self.rusage = rusage
        self.proc.stdout.close()
        self._err.close()
        return self.status

    @property
    def peak_rss_mb(self) -> float:
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB

    def close(self) -> None:
        if self.status is None:
            self.proc.kill()
            self.wait()


def run_child(argv: Sequence[str], work: Path, setup_only: bool = False,
              timeout: float = 170.0) -> dict:
    """Run a workload child to completion; returns its ``result`` event.

    The result gains ``ready`` (the child's ``ready`` event), ``setup_s``
    (launch until that event), ``peak_rss_mb`` and ``pid``.  A
    set-up-only child reports just those.
    """
    child = Child(argv, work / f"child-{time.monotonic_ns()}.err")
    try:
        ready = child.event("ready")
        result = {} if setup_only else child.event("result")
        if child.wait(timeout) != 0:
            raise BenchError(
                f"child {argv} exited {child.status}:\n"
                f"{child.stderr_path.read_text()[-3000:]}"
            )
    finally:
        child.close()
    result["ready"] = ready
    result["setup_s"] = ready["t"] - child.launched
    result["peak_rss_mb"] = child.peak_rss_mb
    result["pid"] = child.proc.pid
    return result


def emit(kind: str, **fields) -> None:
    """Child side: one JSON event line on stdout."""
    fields["event"] = kind
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise BenchError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no values")
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def tail_quantile(n: int) -> float:
    """The highest quantile, up to p99, with at least ten samples beyond it."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n))


def digest(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _first(path: str, key: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """Content digest of the program's sources (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint() -> Dict[str, object]:
    """The box and code a result was measured on."""
    import numpy

    return {
        "cpu": _first("/proc/cpuinfo", "model name"),
        "nproc": nproc(),
        "mem_total": _first("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_digest": source_digest(),
    }


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())
