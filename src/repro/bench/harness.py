"""Measurement harness shared by the figure-reproduction benchmarks.

Provides small structured containers for experiment results plus ASCII table
rendering, so every ``benchmarks/bench_figN_*.py`` prints the same rows or
series the paper's figure reports.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable


def efficiency_snapshot() -> dict[str, object]:
    """Work-per-resource accounting for ``BENCH_*.json`` files.

    The greenness literature (PAPERS.md, "Beyond Performance") argues
    latency alone hides resource cost; every benchmark series therefore
    records process CPU seconds (:func:`time.process_time`), peak RSS
    (``resource.getrusage``; kilobytes on Linux), and cumulative GC
    collections alongside its wall-clock metrics.  Call once at the end
    of a run — the values are process-cumulative, so deltas between two
    snapshots bound one phase.
    """
    peak_rss_kb: int | None = None
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak = usage.ru_maxrss
        # ru_maxrss is bytes on macOS, kilobytes on Linux.
        peak_rss_kb = peak // 1024 if sys.platform == "darwin" else peak
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        pass
    gc_stats = gc.get_stats()
    tracemalloc_peak_kb: int | None = None
    try:
        import tracemalloc

        if tracemalloc.is_tracing():
            _, traced_peak = tracemalloc.get_traced_memory()
            tracemalloc_peak_kb = traced_peak // 1024
    except ImportError:  # pragma: no cover - tracemalloc is stdlib
        pass
    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "process_cpu_seconds": time.process_time(),
        "peak_rss_kb": peak_rss_kb,
        "gc_collections": sum(s["collections"] for s in gc_stats),
        # Allocation churn: gen-0 collections approximate how often the
        # young generation filled; allocated_blocks is the live count.
        "gc_gen0_collections": gc_stats[0]["collections"] if gc_stats else 0,
        "allocated_blocks": sys.getallocatedblocks(),
        # Only populated when the caller started tracemalloc (it is far
        # too slow to turn on by default inside benchmarks).
        "tracemalloc_peak_kb": tracemalloc_peak_kb,
    }


def efficiency_footer() -> str:
    """One-line cumulative resource readout for the end of a bench run."""
    snapshot = efficiency_snapshot()
    return (
        f"[efficiency] cpu={snapshot['process_cpu_seconds']:.2f}s"
        f" peak_rss={snapshot['peak_rss_kb']}kB"
        f" gc_gen0={snapshot['gc_gen0_collections']}"
        f" allocated_blocks={snapshot['allocated_blocks']}"
    )


@dataclass(frozen=True)
class Measurement:
    """One data point of an experiment: parameters -> metrics."""

    params: dict[str, object]
    metrics: dict[str, float]

    def param(self, key: str) -> object:
        return self.params[key]

    def metric(self, key: str) -> float:
        return self.metrics[key]


@dataclass
class ExperimentResult:
    """All measurements of one figure reproduction."""

    name: str
    description: str
    measurements: list[Measurement] = field(default_factory=list)

    def add(self, params: dict[str, object], **metrics: float) -> Measurement:
        measurement = Measurement(dict(params), dict(metrics))
        self.measurements.append(measurement)
        return measurement

    def series(
        self, x: str, y: str, **fixed: object
    ) -> list[tuple[object, float]]:
        """(x, y) points for the measurements matching ``fixed`` params."""
        points = []
        for m in self.measurements:
            if all(m.params.get(k) == v for k, v in fixed.items()):
                points.append((m.params[x], m.metrics[y]))
        return sorted(points, key=lambda p: (str(type(p[0])), p[0]))

    def value(self, y: str, **fixed: object) -> float:
        matches = [
            m.metrics[y]
            for m in self.measurements
            if all(m.params.get(k) == v for k, v in fixed.items())
        ]
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} measurements match {fixed!r} in {self.name}"
            )
        return matches[0]

    def to_table(self) -> str:
        """Render all measurements as an aligned ASCII table."""
        if not self.measurements:
            return f"{self.name}: (no measurements)"
        param_keys = sorted(
            {k for m in self.measurements for k in m.params}
        )
        metric_keys = sorted(
            {k for m in self.measurements for k in m.metrics}
        )
        headers = param_keys + metric_keys
        rows = []
        for m in self.measurements:
            row = [str(m.params.get(k, "")) for k in param_keys]
            for k in metric_keys:
                value = m.metrics.get(k)
                row.append("" if value is None else f"{value:.4f}")
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows))
            for i in range(len(headers))
        ]
        lines = [
            f"== {self.name}: {self.description} ==",
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            )
        return "\n".join(lines)

    def print_table(self) -> None:
        print()
        print(self.to_table())
        print(efficiency_footer())

    def to_json_dict(self) -> dict[str, object]:
        """A JSON-serializable view (for ``BENCH_*.json`` perf-trajectory
        files).  Every series carries an ``efficiency`` block (CPU
        seconds, peak RSS, GC work) next to its wall-clock metrics."""
        return {
            "format": "repro/experiment-result@1",
            "name": self.name,
            "description": self.description,
            "efficiency": efficiency_snapshot(),
            "measurements": [
                {"params": dict(m.params), "metrics": dict(m.metrics)}
                for m in self.measurements
            ],
        }


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    """Run ``fn`` once, returning (result, wall seconds).

    The collector runs to completion first and stays off inside the timed
    call: a full collection landing in one configuration's run costs
    several times a small join and would decide a figure's shape.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def monotone_nondecreasing(values: Iterable[float], slack: float = 0.0) -> bool:
    """True if the sequence never drops by more than ``slack`` (relative).

    Benchmarks use this for qualitative shape assertions ("time grows with
    #peers") while tolerating measurement noise.
    """
    values = list(values)
    for previous, current in zip(values, values[1:]):
        if current < previous * (1.0 - slack):
            return False
    return True
