"""What one measuring window hands back, whatever the workload."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Samples:
    """Raw readings of one measuring window.

    ``exchange_s`` holds one latency per timed exchange operation (edit →
    publish → answers confirmed at the far peer); ``exchange_wall_s`` is
    the wall time ``rows`` were derived in (on ``durable_recover`` it also
    holds the checkpoints, so a slower checkpoint lowers rows/s);
    ``read_s`` holds one latency per prepared lookup.
    """

    exchange_s: list = field(default_factory=list)
    exchange_wall_s: float = 0.0
    rows: int = 0
    read_s: list = field(default_factory=list)
    read_wall_s: float = 0.0
    cold_start_s: list = field(default_factory=list)
    #: CPU-seconds of the program under test over the timed sections, and
    #: the number of operations that CPU is divided by.
    cpu_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    #: Peak RSS of the program under test when it is another process.
    peak_rss_mb: float | None = None
    #: Human-readable side readings (sample counts, lateness, ...).
    extra: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: Traced run only: op ids whose counts were totalled, raw counts,
    #: directly measured per-layer values, metrics whose source has gone,
    #: and the deferred-index settle time of the timed exchanges.
    counted_ids: set = field(default_factory=set)
    counts: dict = field(default_factory=dict)
    layer_values: dict = field(default_factory=dict)
    unresolved: set = field(default_factory=set)
    settle_s: float = 0.0

    def add_exchange(self, op, throughput: bool = True) -> None:
        """One timed exchange operation (``op`` carries ``latency``,
        ``cpu``, ``report``, ``reads``).  ``throughput=False`` keeps it out
        of rows/s and CPU per operation."""
        self.exchange_s.append(op.latency)
        self.read_s.extend(op.reads)
        self.settle_s += settle_seconds(op.report)
        if throughput:
            self.ops += 1
            self.exchange_wall_s += op.latency
            self.cpu_s += op.cpu
            self.rows += op.report.inserted + op.report.deleted

    def close_exchanges(self, prepare_s: float) -> None:
        """After the last in-process operation of a window."""
        self.read_wall_s = sum(self.read_s)
        self.layer_values["api.prepare_s"] = prepare_s
        self.layer_values["storage.index_settle_s"] = self.settle_s / max(
            1, len(self.exchange_s)
        )

    def merge(self, other: "Samples") -> None:
        """Pool another window's readings into this one (``extra`` and the
        traced fields stay per window)."""
        for name in ("exchange_s", "read_s", "cold_start_s", "errors"):
            getattr(self, name).extend(getattr(other, name))
        for name in (
            "exchange_wall_s", "rows", "read_wall_s", "cpu_s", "ops",
            "attempted", "failed",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.peak_rss_mb is not None:
            self.peak_rss_mb = max(self.peak_rss_mb or 0.0, other.peak_rss_mb)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


class ExchangeCounts:
    """Totals the per-layer counts of exchange operations.

    Everything comes from public return values (``ExchangeReport``) and
    ``index_stats()`` read at the operation's boundaries; a key that has
    gone is remembered as unresolved rather than raised.
    """

    EVALUATION = ("rounds", "rule_applications", "tuples_inserted")
    INDEX = (
        ("storage.index_rebuilds", "rebuilds"),
        ("storage.index_applied_runs", "applied_runs"),
        ("storage.index_retired", "retired"),
    )

    def __init__(self, samples: Samples) -> None:
        self.counts = samples.counts
        self.unresolved = samples.unresolved

    def add_count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @staticmethod
    def index_stats(cdss):
        try:
            return cdss.system().db.index_stats()
        except AttributeError:
            return None

    def add(self, staged: int, report, before, after) -> None:
        self.add_count("api.edits_staged", staged)
        self.add_count("core.rows_inserted", report.inserted)
        self.add_count("core.rows_deleted", report.deleted)
        evaluation = getattr(report, "details", {}).get("evaluation")
        for key in self.EVALUATION:
            name = f"datalog.{key}"
            if evaluation is None or key not in evaluation:
                self.unresolved.add(name)
            else:
                self.add_count(name, evaluation[key])
        for key in ("plan_cache_hits", "plan_cache_misses"):
            if evaluation is None or key not in evaluation:
                self.unresolved.add("datalog.plan_cache_hit_rate")
            else:
                self.add_count(f"_{key}", evaluation[key])
        for name, key in self.INDEX:
            if before is None or after is None or key not in after:
                self.unresolved.add(name)
            else:
                self.add_count(name, after[key] - before[key])


def settle_seconds(report) -> float:
    """Deferred-index settle time of one exchange, from the report's
    always-on phase clock (0 when the report no longer carries one)."""
    phases = getattr(report, "phases", None) or {}
    return phases.get("index_settle", {}).get("wall_seconds", 0.0)
