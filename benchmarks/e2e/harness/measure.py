"""Clocks, percentiles and resource readings shared by the workloads."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from contextlib import contextmanager

perf = time.perf_counter
cpu = time.process_time


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def timed_reads(execute, keys, rec) -> tuple[list[float], list[list]]:
    """``execute(key)`` materialized for every key: one read sample and
    one ``api.execute`` span each.  Returns ``(seconds, rows found)``."""
    seconds, found = [], []
    for key in keys:
        start = perf()
        rows = list(execute(key))
        end = perf()
        seconds.append(end - start)
        rec.record("api.execute", "api", start, end)
        found.append(rows)
    return seconds, found


def under_timed_op(span) -> bool:
    """``keep_span`` of the in-process workloads: only spans under a timed
    operation's root carry an op id."""
    return span.op_id is not None


@contextmanager
def gc_quiet():
    """Collect now, then keep the collector off for the timed operation.

    The scale bench found GC placement to be the dominant variance: a
    collection that lands inside one round and not the next is a 2x
    outlier.  Set-up calls :func:`gc.freeze` first, so this collection
    only walks objects made since.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def freeze_heap() -> None:
    """Move the loaded instance out of the collector's sight."""
    gc.collect()
    gc.freeze()


def self_peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def process_cpu_s(pid: int) -> float:
    """utime + stime of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # fields[0] is the state; utime and stime are the 14th and 15th
    # fields of the whole line, i.e. indexes 11 and 12 after the comm.
    return (int(fields[11]) + int(fields[12])) / _TICK


def process_peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
