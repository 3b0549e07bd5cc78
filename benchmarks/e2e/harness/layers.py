"""Turning a traced window's spans and counts into the per-layer metrics.

Conventions (README.md has the table):

* ``*_s`` / ``*_ms`` on the exchange path are means **per timed
  operation** of the workload; checkpoint, restore, recovery, snapshot pin
  and refresh are means **per call**; ``*_us`` are means per call or row.
* counts are totals over the first ``COUNTED_OPS`` traced operations, so
  they repeat exactly;
* a metric whose probe target or counter no longer resolves is ``None``
  (printed as ``null`` and listed under ``unresolved``); a metric the
  workload does not exercise is 0.
"""

from __future__ import annotations

from .spans import Recorder

#: metric -> (span name, "total" | "self", "op" | "call")
SPAN_TIMES = {
    "api.stage_s": ("api.stage", "total", "op"),
    "core.publish_s": ("core.publish", "total", "op"),
    "core.apply_s": ("core.apply", "total", "op"),
    "core.maintain_self_s": ("core.apply", "self", "op"),
    "datalog.evaluate_s": ("datalog.evaluate", "total", "op"),
    "provenance.support_probe_s": ("provenance.support_probe", "total", "op"),
    "durability.wal_append_s": ("durability.wal_append", "total", "op"),
    "storage.snapshot_pin_s": ("storage.snapshot_pin", "total", "call"),
    "storage.checkpoint_write_s": ("storage.checkpoint_write", "total", "call"),
    "storage.restore_s": ("storage.restore", "total", "call"),
    "serve.snapshot_refresh_s": ("serve.snapshot_refresh", "total", "call"),
}
#: Metrics that fall with a probe when none of its targets resolve: every
#: span-time metric, plus the ones derived from a probe's spans elsewhere.
PROBE_OF = {metric: span for metric, (span, _, _) in SPAN_TIMES.items()} | {
    "provenance.support_probes": "provenance.support_probe",
    "durability.replay_s": "storage.restore",
    "serve.statement_run_us": "serve.statement_run",
    "serve.http_overhead_ms": "serve.statement_run",
}


def reduce_spans(rec: Recorder, own: dict, keep) -> dict[str, dict]:
    """Per span name over the spans ``keep`` admits: calls, total and self
    (``own``) seconds, and calls within each op id."""
    out: dict[str, dict] = {}
    for span in rec.spans:
        if not keep(span):
            continue
        entry = out.setdefault(
            span.name,
            {"layer": span.layer, "calls": 0, "total": 0.0, "self": 0.0, "by_op": {}},
        )
        entry["calls"] += span.count
        entry["total"] += span.end - span.start
        entry["self"] += own[span]
        entry["by_op"][span.op_id] = entry["by_op"].get(span.op_id, 0) + span.count
    return out


def layer_shares(reduced: dict[str, dict]) -> dict[str, float]:
    """Each layer's share of the summed self time."""
    layers: dict[str, float] = {}
    for entry in reduced.values():
        layers[entry["layer"]] = layers.get(entry["layer"], 0.0) + entry["self"]
    total = sum(layers.values())
    return {
        layer: (seconds / total if total else 0.0)
        for layer, seconds in sorted(layers.items())
    }


def layer_metrics(names, rec: Recorder, samples, keep) -> tuple[dict, list, dict]:
    """``(metrics, unresolved, shares)`` for one traced window."""
    # Per-operation means look only at spans under the workload's timed
    # operations; per-call means take every call wherever it happened.
    own = rec.self_times()
    reduced = reduce_spans(rec, own, keep)
    everywhere = reduce_spans(rec, own, lambda span: True)
    ops = max(1, len(samples.exchange_s))
    values: dict[str, object] = {}

    for metric, (span_name, which, per) in SPAN_TIMES.items():
        if per == "op":
            entry = reduced.get(span_name)
            values[metric] = entry[which] / ops if entry else 0.0
        else:
            entry = everywhere.get(span_name)
            values[metric] = (
                entry[which] / max(1, entry["calls"]) if entry else 0.0
            )
    executes = everywhere.get("api.execute")
    values["api.execute_us"] = (
        executes["total"] / max(1, executes["calls"]) * 1e6 if executes else 0.0
    )

    probes = reduced.get("provenance.support_probe")
    if probes is None:
        values["provenance.support_probes"] = 0
    elif set(probes["by_op"]) == {None}:
        # serve_mixed: server-side spans carry no op id, so this is every
        # call in the window (it does not repeat exactly).
        values["provenance.support_probes"] = probes["calls"]
    else:
        values["provenance.support_probes"] = sum(
            probes["by_op"].get(op, 0) for op in samples.counted_ids
        )

    counts = dict(samples.counts)
    hits = counts.pop("_plan_cache_hits", 0)
    misses = counts.pop("_plan_cache_misses", 0)
    values["datalog.plan_cache_hit_rate"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    values.update(counts)
    values.update(samples.layer_values)

    # The share of operation time spent inside layer spans: the root
    # ("bench") span's self time is the benchmark's own glue.
    bench = sum(e["self"] for e in reduced.values() if e["layer"] == "bench")
    roots = sum(e["total"] for e in reduced.values() if e["layer"] == "bench")
    values["bench.layer_coverage"] = 1.0 - bench / roots if roots else 0.0

    unresolved = set(samples.unresolved)
    unresolved.update(
        metric for metric, probe in PROBE_OF.items() if probe in rec.unresolved
    )
    metrics = {}
    for name in names:
        metrics[name] = None if name in unresolved else values.get(name, 0)
    shares = layer_shares(
        {k: v for k, v in reduced.items() if v["layer"] != "bench"}
    )
    return metrics, sorted(u for u in unresolved if u in metrics), shares
