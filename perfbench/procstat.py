"""Process facts: memory from ``/proc``, machine speed, percentiles."""

from __future__ import annotations

import os
import platform
import statistics
import time

#: iterations of :func:`probe`'s loop
PROBE_LOOPS = 40_000
#: CPU seconds :func:`probe` took on a quiet 2-vCPU machine (Python
#: 3.11).  Times are reported as seconds on a machine where the probe
#: takes exactly this long.
PROBE_REF_S = 0.0035


def probe() -> float:
    """CPU seconds of a fixed pure-Python loop: how fast the machine
    runs interpreter code right now.  It is the benchmark's own code, so
    no change to the package can move it, and it keeps no memory."""
    start = time.thread_time()
    table = {}
    for i in range(PROBE_LOOPS):
        table[i & 255] = (i, i >> 1)
    return time.thread_time() - start


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while :func:`probe` took ``probe_s``, scaled
    to the reference speed."""
    return seconds * PROBE_REF_S / probe_s


def memory_mb(pid: int | None = None) -> dict[str, float]:
    """``VmRSS`` (resident now) and ``VmHWM`` (peak resident) in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith(("VmRSS:", "VmHWM:")):
                key, value = line.split(":", 1)
                out[key] = int(value.split()[0]) / 1024.0
    return out


def describe_speed(probes: list[float], scaled: str | None = "reported times") -> str:
    """One line on how fast the machine ran, for the ``#`` lines;
    ``scaled`` names the times scaled to the reference speed, if any."""
    median = statistics.median(probes)
    line = (f"machine speed: probe median {median * 1e3:.3f} ms over {len(probes)} "
            f"probes (reference {PROBE_REF_S * 1e3:.3f} ms)")
    if scaled:
        line += f"; {scaled} are measured times x {PROBE_REF_S / median:.3f}"
    return line


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples
    beyond it, as ``(label, value)``; p50 when there are fewer."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            cuts = statistics.quantiles(ordered, n=100, method="inclusive")
            return f"p{pct}", cuts[pct - 1]
    return "p50", statistics.median(ordered) if ordered else 0.0


def environment(**extra) -> dict:
    """What every result records about where and how it ran."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **extra,
    }
