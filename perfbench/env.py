"""Environment stamp and host-noise readings printed with every run.

The stamp and the noise readings are report-only: they let a reader tell
a run on a noisy or different host apart from a regression, and never
gate a result.  The host-speed probe is also taken between rounds, to
put each round's throughput at a reference host speed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import pathlib
import platform
import subprocess
import time


def stamp(src: pathlib.Path) -> dict:
    """Versions, CPU and the code under test."""
    import networkx
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(src),
        "source_sha256": _source_digest(src),
    }


class HostNoise:
    """CPU steal share and load average between :meth:`start` and :meth:`stop`."""

    def start(self) -> None:
        self._stat0 = _cpu_times()
        self._load0 = _loadavg()

    def stop(self) -> dict:
        stat1 = _cpu_times()
        total = sum(stat1) - sum(self._stat0)
        steal = stat1[7] - self._stat0[7] if len(stat1) > 7 else 0
        return {
            "cpu_steal_share": steal / total if total > 0 else 0.0,
            "loadavg_1m_start": self._load0,
            "loadavg_1m_end": _loadavg(),
            "host_speed_probe_ms": host_speed_probe_ms(),
        }


#: The probe's time on the host the benchmark was defined on (Intel Xeon,
#: KVM, 2 vCPUs); throughput is reported at that host speed.
PROBE_REFERENCE_MS = 30.0


def host_speed_probe_ms(repeats: int = 3) -> float:
    """Best-of-*repeats* time of a fixed pure-Python loop, in ms."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return 1000.0 * best


def _cpu_times() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def _loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(src: pathlib.Path) -> str | None:
    """``git rev-parse HEAD`` when the tree is a git checkout, else ``None``."""
    if not (src.parent / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=src, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _source_digest(src: pathlib.Path) -> str:
    """SHA-256 over the package sources (identifies code without git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()
