"""repro.obs — unified telemetry: metrics registry and exchange tracing.

See :mod:`repro.obs.metrics`, :mod:`repro.obs.tracing`, and the
"Observability" section of DESIGN.md (which also documents the stats
naming conventions).
"""

from __future__ import annotations

from . import metrics, tracing
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricError,
    MetricsRegistry,
    REGISTRY,
    Sample,
)

__all__ = [
    "metrics",
    "tracing",
    "REGISTRY",
    "MetricsRegistry",
    "MetricError",
    "Sample",
    "DEFAULT_LATENCY_BUCKETS",
    "bootstrap_default_metrics",
]

_BOOTSTRAPPED = False


def bootstrap_default_metrics(registry: MetricsRegistry = REGISTRY) -> None:
    """Pre-register the core metric families with zero values.

    Collectors only produce samples while their owning objects are
    alive, so a freshly booted node would otherwise expose an empty
    ``/metrics`` page for layers that have not constructed yet (no
    durability directory, no serve node).  Creating the label-less
    families up front guarantees every documented family renders —
    collector samples for the same series names are summed on top.
    """
    global _BOOTSTRAPPED
    if _BOOTSTRAPPED and registry is REGISTRY:
        return
    counter = registry.counter
    gauge = registry.gauge
    # engine
    counter("repro_engine_rounds_total", "Semi-naive fixpoint rounds run")
    counter(
        "repro_engine_rule_applications_total",
        "Rule body evaluations across all rounds",
    )
    counter(
        "repro_engine_tuples_inserted_total",
        "Tuples inserted by fixpoint evaluation",
    )
    counter("repro_engine_plan_cache_hits_total", "Engine plan-cache hits")
    counter(
        "repro_engine_plan_cache_misses_total", "Engine plan-cache misses"
    )
    counter(
        "repro_engine_eval_seconds_total",
        "Wall-clock seconds spent in rule evaluation",
    )
    # admission control
    counter("repro_admission_admitted_total", "Requests admitted")
    counter("repro_admission_rejected_total", "Requests rejected at the door")
    counter("repro_admission_timeouts_total", "Requests timed out in queue")
    counter("repro_admission_completed_total", "Admitted requests completed")
    gauge("repro_admission_in_flight", "Requests currently executing")
    gauge("repro_admission_waiting", "Requests currently queued")
    # storage / indexes
    counter("repro_index_rebuilds_total", "Index builds from the live rows")
    # durability
    counter("repro_wal_appends_total", "WAL records appended")
    counter("repro_wal_fsyncs_total", "WAL fsync barriers")
    counter("repro_durability_checkpoints_total", "Checkpoints written")
    counter(
        "repro_durability_replayed_records_total",
        "WAL records replayed at recovery",
        labels=("kind",),
    )
    # serving tier
    counter(
        "repro_serve_requests_total", "HTTP requests handled by serve nodes"
    )
    counter("repro_serve_errors_total", "HTTP requests answered with errors")
    counter("repro_serve_publishes_total", "Publishes applied by serve nodes")
    counter(
        "repro_serve_reads_total",
        "Snapshot reads by where they ran (event loop or reader pool)",
        labels=("path",),
    )
    registry.histogram(
        "repro_serve_request_seconds",
        "HTTP request latency by route",
        labels=("route",),
    )
    registry.histogram(
        "repro_serve_statement_seconds",
        "Prepared-statement execution latency by statement id",
        labels=("statement",),
    )
    counter(
        "repro_exchange_publishes_total",
        "Update-exchange publish rounds applied",
    )
    counter("repro_snapshot_refreshes_total", "Serving snapshot refreshes")
    gauge(
        "repro_snapshot_version",
        "Database version of the currently served snapshot",
    )
    counter(
        "repro_snapshot_full_pins_total",
        "Snapshot replicas rebuilt by a full copy",
        labels=("reason",),
    )
    counter(
        "repro_snapshot_delta_rows_total",
        "Rows patched into snapshot replicas from the change log",
    )
    if registry is REGISTRY:
        _BOOTSTRAPPED = True
