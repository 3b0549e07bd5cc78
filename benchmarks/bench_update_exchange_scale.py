"""Update-exchange + query-serving benchmarks: the perf-trajectory baseline.

Drives multi-peer publish / update-exchange workloads from the synthetic
workload generator (Section 6.1) and writes ``BENCH_update_exchange.json``
so the repository has a measured perf trajectory:

* **publish** — base entries at every peer, one full exchange (Figure 5's
  "time to join" shape);
* **incremental insertion** — a small batch of fresh entries per peer
  propagated with the insertion delta rules (Figures 7/8's common case,
  and the workload the evaluation hot path is tuned for);
* **deletion** — the same batch deleted again and propagated with
  PropagateDelete (Figure 9's shape; the per-row-churn workload the
  deferred index policy targets).

The exchange series runs under **both index maintenance policies**
(``eager`` and ``deferred``, see ``repro.storage.indexes``) and records
the eager/deferred wall-time ratio per phase (``policy_speedup``), plus a
smaller **string-dataset** series (the paper's SWISS-PROT strings instead
of integer hashes) under both policies.

A second series exercises the serving-side query subsystem and writes
``BENCH_query.json``:

* **prepared** — one ``PreparedQuery`` with a parameter on the key
  column, re-executed with a new binding per repetition (zero replanning:
  the recorded plan-cache hit rate must be 1.0);
* **adhoc** — the same lookups as one-shot ``cdss.query`` text queries
  (parse + rewrite + plan every time);
* **where_pushdown** — the same selection through ``RelationView.where``
  with a structured predicate (indexed probe).

Per cell the JSON records wall seconds, semi-naive rounds, rule
applications, and the engine's plan-cache hit rate.  Run directly::

    PYTHONPATH=src python benchmarks/bench_update_exchange_scale.py
    PYTHONPATH=src python benchmarks/bench_update_exchange_scale.py --quick
    PYTHONPATH=src python benchmarks/bench_update_exchange_scale.py --only query

A **mixed-churn series** (``"mixed_churn"`` in the exchange JSON)
interleaves insertion, deletion, and trust-revocation batches — plus a
``combined`` batch staging all three in one publish — against a live
system, recording per-phase medians across batches.  Revocations delete
*derived* (non-locally-published) output rows, which ``publish`` turns
into rejection insertions: the trust-revocation path of the update
exchange.  This is the deletion-shaped workload the weighted delta core
targets; ``speedup_vs_pr6`` compares it against an embedded pre-refactor
baseline.

``--baseline FILE`` embeds a previously saved run (e.g. from the commit
before an optimization) under ``"baseline"`` and prints the speedups
(exchange series only).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import (  # noqa: E402
    efficiency_footer,
    efficiency_snapshot,
    phase_efficiency_table,
    rows_per_cpu_second,
)
from repro.workload import CDSSWorkloadGenerator, WorkloadConfig  # noqa: E402

RESULT_FORMAT = "repro/bench-update-exchange@6"
QUERY_RESULT_FORMAT = "repro/bench-query@2"

INDEX_POLICIES = ("eager", "deferred")
PRIMARY_POLICY = "deferred"  # the shipped default; fills the legacy "cells"
PHASES = (
    "publish",
    "incremental_insertion",
    "deletion",
    "serving",
    "serving_cold",
)
# The interleaved-churn phases: one update-exchange timing per batch kind.
MIXED_PHASES = ("insertion", "deletion", "revocation", "combined")


def _timed(fn) -> float:
    """Wall seconds for ``fn()`` with the GC quiesced.

    Collection runs *between* measured phases instead of inside them — GC
    pauses landing inside one policy's phase and not the other's were the
    dominant run-to-run variance at these phase durations.
    """
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        fn()
    finally:
        seconds = time.perf_counter() - start
        gc.enable()
    return seconds


def _timed_cpu(fn) -> tuple[float, float]:
    """(wall seconds, process CPU seconds) for ``fn()``, GC quiesced.

    The CPU figure feeds the per-phase ``cpu_seconds`` efficiency metric
    (work-per-resource, per the greenness papers in PAPERS.md).
    """
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        fn()
    finally:
        cpu_seconds = time.process_time() - cpu_start
        seconds = time.perf_counter() - start
        gc.enable()
    return seconds, cpu_seconds


def _engine_stats(cdss) -> dict[str, float] | None:
    """Cumulative evaluation stats, when the engine exposes them.

    Uses ``EvaluationResult.counters()`` where present; the getattr
    fallback lets the same script measure older trees (for baselines).
    """
    engine = cdss.system().engine
    stats = getattr(engine, "stats", None)
    if stats is None:
        return None
    if hasattr(stats, "counters"):
        return stats.counters()
    return {
        "rounds": stats.rounds,
        "rule_applications": stats.rule_applications,
        "plan_cache_hits": getattr(stats, "plan_cache_hits", 0),
        "plan_cache_misses": getattr(stats, "plan_cache_misses", 0),
    }


def _stats_delta(
    after: dict[str, float] | None, before: dict[str, float] | None
) -> dict[str, float]:
    # Mirrors EvaluationResult.counters_delta; kept local so the script
    # also runs against trees that predate that helper.
    if after is None:
        return {}
    before = before or {k: 0 for k in after}
    delta = {key: after[key] - before.get(key, 0) for key in after}
    probes = delta["plan_cache_hits"] + delta["plan_cache_misses"]
    delta["plan_cache_hit_rate"] = (
        delta["plan_cache_hits"] / probes if probes else 0.0
    )
    return delta


def _build_cdss(generator, index_policy: str):
    """Build the workload CDSS under ``index_policy``.

    Feature-detected by signature, not by catching TypeError — a
    swallowed unrelated TypeError would silently run both policy series
    against the default configuration and fabricate ~1.0x comparisons.
    Older trees (baseline measurement) predate index policies and get
    the plain build.
    """
    from inspect import signature

    from repro.core.cdss import CDSS

    parameters = signature(CDSS.__init__).parameters
    kwargs = {}
    if "index_policy" in parameters:
        kwargs["index_policy"] = index_policy
    return generator.build_cdss(**kwargs)


def _prepare_serving_queries(cdss, generator) -> tuple[list, list]:
    """The serving mix: prepared indexed lookups on every relation.

    Executing each query once materializes its probe index on the live
    ``R__o`` table, so the exchange phases measure update propagation
    *while the system serves indexed reads* — the HTAP shape the
    index-maintenance policies differ on.  Returns ``(hot, cold)``:

    * **hot** — a key lookup per relation, re-served after every exchange
      phase (skewed OLTP-style traffic);
    * **cold** — lookups on two non-key attributes per relation, probed
      only once at the end of the cell (the long tail of query shapes
      whose indexes exist but see no traffic between exchanges).

    Eager maintenance patches every one of these indexes inside each
    exchange; the deferred barrier patches the hot ones and retires
    rebuild-scale cold debt to the (single) next probe.
    """
    from repro.api.query import Query, col, param

    hot: list = []
    cold: list = []
    for layout in generator.layouts:
        for part in range(len(layout.partitions)):
            view = cdss.relation(layout.relation_name(part))
            schema = view.schema
            for position, attr in enumerate(schema.attributes[:3]):
                query = cdss.prepare(
                    Query.scan(view).select(col(attr) == param("k"))
                )
                query.execute(k=None).to_rows()  # materialize the index
                (hot if position == 0 else cold).append(query)
    return hot, cold


def _serve(prepared: list[object], keys: list[object]) -> float:
    """Execute every serving query once per key; return wall seconds."""

    def read() -> None:
        for query in prepared:
            for key in keys:
                query.execute(k=key).to_rows()

    return _timed(read)


def run_cell(
    peers: int,
    base_per_peer: int,
    insert_per_peer: int,
    seed: int,
    index_policy: str = PRIMARY_POLICY,
    dataset: str = "integer",
) -> dict[str, object]:
    """One benchmark cell: publish a base load under a serving workload,
    then time an incremental insertion exchange and a deletion exchange,
    re-serving the prepared queries after every phase."""
    generator = CDSSWorkloadGenerator(
        WorkloadConfig(peers=peers, dataset=dataset, seed=seed)
    )
    cdss = _build_cdss(generator, index_policy)
    hot_queries, cold_queries = _prepare_serving_queries(cdss, generator)
    serving_seconds = 0.0

    base_updates = generator.insertions(base_per_peer)
    serve_keys = [update.key for update in base_updates[:10]]
    generator.record_insertions(cdss, base_updates)
    before = _engine_stats(cdss)
    publish_seconds, publish_cpu = _timed_cpu(cdss.update_exchange)
    publish_stats = _stats_delta(_engine_stats(cdss), before)
    serving_seconds += _serve(hot_queries, serve_keys)

    generator.record_insertions(cdss, generator.insertions(insert_per_peer))
    before = _engine_stats(cdss)
    incremental_seconds, incremental_cpu = _timed_cpu(cdss.update_exchange)
    incremental_stats = _stats_delta(_engine_stats(cdss), before)
    serving_seconds += _serve(hot_queries, serve_keys)

    total_tuples = cdss.system().total_tuples()

    # Deletion workload: the freshly inserted entries leave again through
    # PropagateDelete (per-row provenance/output churn).
    generator.record_deletions(cdss, generator.deletions(insert_per_peer))
    before = _engine_stats(cdss)
    deletion_seconds, deletion_cpu = _timed_cpu(cdss.update_exchange)
    deletion_stats = _stats_delta(_engine_stats(cdss), before)
    serving_seconds += _serve(hot_queries, serve_keys)

    # The cold tail, exactly once: pays any maintenance debt the deferred
    # barrier retired to the next probe, so the phase comparison cannot
    # hide deferred work — it lands here, visibly.
    cold_seconds = _serve(cold_queries, serve_keys)

    return {
        "peers": peers,
        "base_per_peer": base_per_peer,
        "insert_per_peer": insert_per_peer,
        "index_policy": index_policy,
        "dataset": dataset,
        "serving_queries": {
            "hot": len(hot_queries),
            "cold": len(cold_queries),
        },
        "total_tuples": total_tuples,
        "publish": {
            "seconds": publish_seconds,
            "cpu_seconds": publish_cpu,
            **publish_stats,
        },
        "incremental_insertion": {
            "seconds": incremental_seconds,
            "cpu_seconds": incremental_cpu,
            **incremental_stats,
        },
        "deletion": {
            "seconds": deletion_seconds,
            "cpu_seconds": deletion_cpu,
            **deletion_stats,
        },
        "serving": {"seconds": serving_seconds},
        "serving_cold": {"seconds": cold_seconds},
    }


def _phase_efficiency(result: dict) -> dict[str, dict[str, float]]:
    """Per-phase rows/CPU accounting from the largest primary-policy cell.

    ``rows`` is the engine's ``tuples_inserted`` delta for the phase, so
    the derived rows-per-CPU-second measures useful derivation output per
    unit of compute (the greenness framing the harness documents).
    """
    cells = result.get("policies", {}).get(PRIMARY_POLICY, {}).get("cells", ())
    if not cells:
        return {}
    cell = max(cells, key=lambda c: c["peers"])
    phases: dict[str, dict[str, float]] = {}
    for phase in ("publish", "incremental_insertion", "deletion"):
        block = cell.get(phase)
        if not isinstance(block, dict):
            continue
        phases[phase] = {
            "rows": float(block.get("tuples_inserted", 0.0)),
            "wall_seconds": float(block.get("seconds", 0.0)),
            "cpu_seconds": float(block.get("cpu_seconds", 0.0)),
            "rows_per_cpu_second": rows_per_cpu_second(
                float(block.get("tuples_inserted", 0.0)),
                float(block.get("cpu_seconds", 0.0)),
            ),
        }
    return phases


def _median_cell(samples: list[dict[str, object]]) -> dict[str, object]:
    """Per-phase medians: for each phase, the sample with the median wall
    time contributes that phase's seconds *and* engine counters (so the
    counters stay from a real run), which de-noises phases independently."""
    cell = dict(samples[0])
    cell["samples"] = len(samples)
    for phase in PHASES:
        if phase not in cell:
            continue
        ordered = sorted(samples, key=lambda c: c[phase]["seconds"])
        median = dict(ordered[len(ordered) // 2][phase])
        median["seconds_all"] = sorted(c[phase]["seconds"] for c in samples)
        cell[phase] = median
    return cell


def _policy_speedup(
    policies: dict[str, dict[str, object]]
) -> dict[str, dict[str, float]]:
    """Eager/deferred wall-time ratios per phase and peer count (>1 means
    the deferred policy is faster)."""
    eager = policies.get("eager", {}).get("cells", ())
    deferred = policies.get("deferred", {}).get("cells", ())
    by_peers = {cell["peers"]: cell for cell in eager}
    out: dict[str, dict[str, float]] = {}
    for cell in deferred:
        base = by_peers.get(cell["peers"])
        if base is None:
            continue
        for phase in PHASES:
            seconds = cell.get(phase, {}).get("seconds", 0.0)
            if seconds <= 0 or phase not in base:
                continue
            out.setdefault(phase, {})[str(cell["peers"])] = (
                base[phase]["seconds"] / seconds
            )
    return out


def run_policy_series(
    peer_counts: tuple[int, ...],
    base_per_peer: int,
    insert_per_peer: int,
    seed: int = 0,
    repeat: int = 1,
    index_policies: tuple[str, ...] = INDEX_POLICIES,
    dataset: str = "integer",
) -> dict[str, object]:
    """The exchange series under every requested index policy.

    Policy samples are interleaved (sample 1 of every policy, then sample
    2, ...) so slow machine-level drift hits all policies evenly instead
    of biasing whichever ran last; per-phase medians de-noise the rest.
    """
    policies: dict[str, dict[str, object]] = {}
    for peers in peer_counts:
        samples: dict[str, list[dict[str, object]]] = {
            policy: [] for policy in index_policies
        }
        for _ in range(max(1, repeat)):
            for policy in index_policies:
                samples[policy].append(
                    run_cell(
                        peers,
                        base_per_peer,
                        insert_per_peer,
                        seed,
                        index_policy=policy,
                        dataset=dataset,
                    )
                )
        for policy in index_policies:
            cell = _median_cell(samples[policy])
            policies.setdefault(policy, {"cells": []})["cells"].append(cell)
            print(
                f"  [{dataset}/{policy}] peers={peers:3d}"
                f"  publish={cell['publish']['seconds']:.3f}s"
                f"  incremental={cell['incremental_insertion']['seconds']:.3f}s"
                f"  deletion={cell['deletion']['seconds']:.3f}s"
                f"  serving={cell['serving']['seconds']:.3f}s"
                f"  hit_rate="
                f"{cell['incremental_insertion'].get('plan_cache_hit_rate', 0.0):.2f}"
            )
    result: dict[str, object] = {
        "workload": {
            "dataset": dataset,
            "topology": "chain",
            "base_per_peer": base_per_peer,
            "insert_per_peer": insert_per_peer,
            "delete_per_peer": insert_per_peer,
            "seed": seed,
            "repeat": repeat,
        },
        "policies": policies,
    }
    speedup = _policy_speedup(policies)
    if speedup:
        result["policy_speedup_deferred_vs_eager"] = speedup
        for phase, ratios in speedup.items():
            rendered = ", ".join(
                f"{peers} peers: {ratio:.2f}x"
                for peers, ratio in ratios.items()
            )
            print(f"  deferred-vs-eager[{phase}]: {rendered}")
    return result


def run_benchmark(
    peer_counts: tuple[int, ...],
    base_per_peer: int,
    insert_per_peer: int,
    seed: int = 0,
    repeat: int = 1,
    index_policies: tuple[str, ...] = INDEX_POLICIES,
    string_base_per_peer: int | None = None,
    churn_per_peer: int | None = None,
    churn_batches: int = 3,
) -> dict[str, object]:
    series = run_policy_series(
        peer_counts,
        base_per_peer,
        insert_per_peer,
        seed=seed,
        repeat=repeat,
        index_policies=index_policies,
    )
    result: dict[str, object] = {"format": RESULT_FORMAT, **series}
    # The legacy top-level cells: the shipped-default policy's series (what
    # --baseline comparisons across PRs read).
    primary = (
        PRIMARY_POLICY
        if PRIMARY_POLICY in series["policies"]
        else next(iter(series["policies"]))
    )
    result["cells"] = series["policies"][primary]["cells"]
    if churn_per_peer:
        print(
            f"mixed-churn series: churn={churn_per_peer}/peer "
            f"batches={churn_batches}"
        )
        result["mixed_churn"] = run_mixed_churn_series(
            peer_counts,
            base_per_peer,
            churn_per_peer,
            churn_batches,
            seed=seed,
            repeat=repeat,
        )
    if string_base_per_peer:
        print(
            f"string-dataset series: base={string_base_per_peer}/peer "
            f"insert={insert_per_peer}/peer"
        )
        result["string_series"] = run_policy_series(
            peer_counts,
            string_base_per_peer,
            insert_per_peer,
            seed=seed,
            repeat=1,
            index_policies=index_policies,
            dataset="string",
        )
    return result


# ---------------------------------------------------------------------------
# Mixed-churn series (interleaved insert / delete / trust-revocation batches)
# ---------------------------------------------------------------------------


def _revocation_picks(
    cdss, generator, local_rows: dict[str, set], per_peer: int
) -> list[tuple[str, tuple]]:
    """Up to ``per_peer`` derived output rows per peer, for revocation.

    A batch ``delete`` of a row the peer never published locally is
    classified by ``publish`` as a *rejection insertion* — the paper's
    trust-revocation edit.  Derived rows are exactly the output rows not
    in the peer's tracked local contributions; the repr sort keeps the
    batch composition deterministic across processes (SkolemValue /
    labeled-null hashes are not)."""
    picks: list[tuple[str, tuple]] = []
    for layout in generator.layouts:
        needed = per_peer
        for part in range(len(layout.partitions)):
            if needed <= 0:
                break
            name = layout.relation_name(part)
            owned = local_rows.get(name, set())
            derived = sorted(
                (
                    row
                    for row in cdss.relation(name).to_rows()
                    if row not in owned
                ),
                key=repr,
            )
            take = derived[:needed]
            picks.extend((name, row) for row in take)
            needed -= len(take)
    return picks


def run_mixed_churn_cell(
    peers: int,
    base_per_peer: int,
    churn_per_peer: int,
    batches: int,
    seed: int,
    index_policy: str = PRIMARY_POLICY,
) -> tuple[dict[str, object], dict[str, list[dict[str, object]]]]:
    """One mixed-churn cell: base publish, then ``batches`` rounds of
    interleaved insertion / deletion / revocation / combined batches,
    each followed by one timed ``update_exchange``.

    Returns ``(metadata, samples)`` where ``samples`` maps each of
    ``MIXED_PHASES`` to one timing dict per batch round.
    """
    generator = CDSSWorkloadGenerator(
        WorkloadConfig(peers=peers, dataset="integer", seed=seed)
    )
    cdss = _build_cdss(generator, index_policy)

    # Locally published rows per relation, mirrored from the staged
    # updates: the complement (within an output view) is derived rows,
    # the revocation targets.
    local_rows: dict[str, set] = {}

    def _track(updates, inserted: bool) -> None:
        for update in updates:
            for relation, row in update.rows.items():
                rows = local_rows.setdefault(relation, set())
                (rows.add if inserted else rows.discard)(row)

    base_updates = generator.insertions(base_per_peer)
    generator.record_insertions(cdss, base_updates)
    _track(base_updates, True)
    base_seconds = _timed(cdss.update_exchange)

    samples: dict[str, list[dict[str, object]]] = {
        phase: [] for phase in MIXED_PHASES
    }

    def _run_phase(phase: str, stage) -> None:
        batch_rows = stage()
        before = _engine_stats(cdss)
        seconds, cpu_seconds = _timed_cpu(cdss.update_exchange)
        stats = _stats_delta(_engine_stats(cdss), before)
        samples[phase].append(
            {
                "seconds": seconds,
                "cpu_seconds": cpu_seconds,
                "batch_rows": batch_rows,
                **stats,
            }
        )

    def _stage_insert() -> int:
        updates = generator.insertions(churn_per_peer)
        staged = generator.record_insertions(cdss, updates)
        _track(updates, True)
        return staged

    def _stage_delete() -> int:
        updates = generator.deletions(churn_per_peer)
        staged = generator.record_deletions(cdss, updates)
        _track(updates, False)
        return staged

    def _stage_revoke() -> int:
        picks = _revocation_picks(cdss, generator, local_rows, churn_per_peer)
        with cdss.batch() as tx:
            for relation, row in picks:
                tx.delete(relation, row)
        return len(picks)

    def _stage_combined() -> int:
        inserted = generator.insertions(churn_per_peer)
        deleted = generator.deletions(churn_per_peer)
        revoked = _revocation_picks(
            cdss, generator, local_rows, churn_per_peer
        )
        with cdss.batch() as tx:
            for update in inserted:
                for relation, row in update.rows.items():
                    tx.insert(relation, row)
            for update in deleted:
                for relation, row in update.rows.items():
                    tx.delete(relation, row)
            for relation, row in revoked:
                tx.delete(relation, row)
            staged = len(tx)
        _track(inserted, True)
        _track(deleted, False)
        return staged

    for _ in range(max(1, batches)):
        _run_phase("insertion", _stage_insert)
        _run_phase("deletion", _stage_delete)
        _run_phase("revocation", _stage_revoke)
        _run_phase("combined", _stage_combined)

    metadata: dict[str, object] = {
        "peers": peers,
        "base_per_peer": base_per_peer,
        "churn_per_peer": churn_per_peer,
        "batches": max(1, batches),
        "index_policy": index_policy,
        "base_publish": {"seconds": base_seconds},
        "total_tuples": cdss.system().total_tuples(),
    }
    return metadata, samples


def _median_phase(samples: list[dict[str, object]]) -> dict[str, object]:
    """The median-wall-time sample (real counters), plus ``seconds_all``."""
    ordered = sorted(samples, key=lambda sample: sample["seconds"])
    median = dict(ordered[len(ordered) // 2])
    median["seconds_all"] = sorted(s["seconds"] for s in samples)
    return median


def run_mixed_churn_series(
    peer_counts: tuple[int, ...],
    base_per_peer: int,
    churn_per_peer: int,
    batches: int,
    seed: int = 0,
    repeat: int = 1,
    index_policy: str = PRIMARY_POLICY,
) -> dict[str, object]:
    """The mixed-churn series: per peer count, ``repeat`` fresh cells of
    ``batches`` interleaved batch rounds, pooled into per-phase medians."""
    cells: list[dict[str, object]] = []
    for peers in peer_counts:
        pooled: dict[str, list[dict[str, object]]] = {
            phase: [] for phase in MIXED_PHASES
        }
        metadata: dict[str, object] = {}
        for _ in range(max(1, repeat)):
            metadata, samples = run_mixed_churn_cell(
                peers,
                base_per_peer,
                churn_per_peer,
                batches,
                seed,
                index_policy=index_policy,
            )
            for phase in MIXED_PHASES:
                pooled[phase].extend(samples[phase])
        cell = dict(metadata)
        cell["samples"] = max(1, repeat) * max(1, batches)
        for phase in MIXED_PHASES:
            cell[phase] = _median_phase(pooled[phase])
        cells.append(cell)
        print(
            f"  [mixed-churn] peers={peers:3d}"
            f"  insertion={cell['insertion']['seconds']:.3f}s"
            f"  deletion={cell['deletion']['seconds']:.3f}s"
            f"  revocation={cell['revocation']['seconds']:.3f}s"
            f"  combined={cell['combined']['seconds']:.3f}s"
        )
    return {
        "workload": {
            "dataset": "integer",
            "topology": "chain",
            "base_per_peer": base_per_peer,
            "churn_per_peer": churn_per_peer,
            "batches": max(1, batches),
            "seed": seed,
            "repeat": repeat,
            "index_policy": index_policy,
        },
        "cells": cells,
    }


# ---------------------------------------------------------------------------
# Query-serving series (BENCH_query.json)
# ---------------------------------------------------------------------------


def run_query_cell(
    peers: int, base_per_peer: int, repeats: int, seed: int
) -> dict[str, object]:
    """One query-benchmark cell over a populated workload CDSS.

    Repeats the same key lookup with a fresh binding each time, through
    three routes that must agree: prepared+parameterized, ad-hoc text, and
    pushdown ``where``.
    """
    from repro.api.query import Query, col, param

    generator = CDSSWorkloadGenerator(
        WorkloadConfig(peers=peers, dataset="integer", seed=seed)
    )
    cdss = generator.build_cdss()
    generator.populate(cdss, base_per_peer)

    relation = generator.layouts[0].relation_name(0)
    view = cdss.relation(relation)
    schema = view.schema
    key_attr = schema.attributes[0]
    keys = sorted(row[0] for row in view.to_rows())
    chosen = [keys[i % len(keys)] for i in range(repeats)]

    # Prepared + parameterized: plan/compile once, re-bind per execute.
    prepared = cdss.prepare(
        Query.scan(view).select(col(key_attr) == param("k"))
    )
    matched = 0
    before = _engine_stats(cdss)
    start = time.perf_counter()
    for key in chosen:
        matched += len(prepared.execute(k=key).to_rows())
    prepared_seconds = time.perf_counter() - start
    prepared_stats = _stats_delta(_engine_stats(cdss), before)

    # Prepared + result cache: one binding re-executed ``repeats`` times.
    # After the first execute the version-keyed result cache serves the
    # materialized rows O(1) (hits recorded on the prepared query).
    hot_key = chosen[0]
    cached_hits_before = getattr(prepared, "result_cache_hits", 0)
    start = time.perf_counter()
    cached_matched = sum(
        len(prepared.execute(k=hot_key).to_rows()) for _ in range(repeats)
    )
    cached_seconds = time.perf_counter() - start
    cached_hits = getattr(prepared, "result_cache_hits", 0) - cached_hits_before

    # Ad hoc: the same lookups as one-shot text queries (plan every time).
    head_vars = ", ".join(f"v{i}" for i in range(1, schema.arity))
    adhoc_matched = 0
    start = time.perf_counter()
    for key in chosen:
        text = f"ans({head_vars}) :- {relation}({key}, {head_vars})"
        adhoc_matched += len(cdss.query(text))
    adhoc_seconds = time.perf_counter() - start

    # Pushdown where: structured predicate -> indexed probe.
    pushdown_matched = 0
    start = time.perf_counter()
    for key in chosen:
        pushdown_matched += len(view.where(col(key_attr) == key).to_rows())
    pushdown_seconds = time.perf_counter() - start

    if not (matched == adhoc_matched == pushdown_matched):
        raise AssertionError(
            "query routes disagree: "
            f"{matched}/{adhoc_matched}/{pushdown_matched}"
        )
    return {
        "peers": peers,
        "base_per_peer": base_per_peer,
        "repeats": repeats,
        "relation": relation,
        "distinct_keys": len(keys),
        "rows_matched": matched,
        "prepared": {"seconds": prepared_seconds, **prepared_stats},
        "prepared_cached": {
            "seconds": cached_seconds,
            "result_cache_hits": cached_hits,
            "rows_per_execute": cached_matched // max(1, repeats),
        },
        "adhoc": {"seconds": adhoc_seconds},
        "where_pushdown": {"seconds": pushdown_seconds},
        "speedups": {
            "prepared_vs_adhoc": (
                adhoc_seconds / prepared_seconds if prepared_seconds > 0 else 0.0
            ),
            "cached_vs_prepared": (
                (prepared_seconds / repeats) / (cached_seconds / repeats)
                if cached_seconds > 0
                else 0.0
            ),
        },
    }


def run_query_benchmark(
    peer_counts: tuple[int, ...],
    base_per_peer: int,
    repeats: int,
    seed: int = 0,
) -> dict[str, object]:
    cells = []
    for peers in peer_counts:
        cell = run_query_cell(peers, base_per_peer, repeats, seed)
        cells.append(cell)
        print(
            f"  peers={peers:3d}  prepared={cell['prepared']['seconds']:.3f}s"
            f"  adhoc={cell['adhoc']['seconds']:.3f}s"
            f"  pushdown={cell['where_pushdown']['seconds']:.3f}s"
            f"  hit_rate="
            f"{cell['prepared'].get('plan_cache_hit_rate', 0.0):.2f}"
        )
    return {
        "format": QUERY_RESULT_FORMAT,
        "workload": {
            "dataset": "integer",
            "topology": "chain",
            "base_per_peer": base_per_peer,
            "repeats": repeats,
            "seed": seed,
        },
        "cells": cells,
    }


def _speedups(
    baseline: dict[str, object],
    current: dict[str, object],
    phases: tuple[str, ...] = PHASES,
) -> dict[str, dict[str, float]]:
    """Per-peer-count baseline/current wall-time ratios, keyed by phase."""
    by_peers = {
        cell["peers"]: cell for cell in baseline.get("cells", ())
    }
    out: dict[str, dict[str, float]] = {}
    for cell in current["cells"]:
        base = by_peers.get(cell["peers"])
        if base is None:
            continue
        for phase in phases:
            if phase not in cell or phase not in base:
                continue  # older baselines predate the deletion series
            current_seconds = cell[phase]["seconds"]
            if current_seconds <= 0:
                continue
            out.setdefault(phase, {})[str(cell["peers"])] = (
                base[phase]["seconds"] / current_seconds
            )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sizes for CI smoke runs",
    )
    parser.add_argument("--peers", type=int, nargs="*", default=None)
    parser.add_argument("--base", type=int, default=None)
    parser.add_argument("--insert", type=int, default=None)
    parser.add_argument(
        "--repeat",
        type=int,
        default=None,
        help=(
            "samples per cell, interleaved across policies; per-phase "
            "medians reported (default: 5, or 1 with --quick)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="embed a previously saved result file and report speedups",
    )
    parser.add_argument(
        "--only",
        choices=("all", "exchange", "query"),
        default="all",
        help="which series to run (default: exchange + query)",
    )
    parser.add_argument(
        "--index-policy",
        choices=("eager", "deferred", "both"),
        default="both",
        help="index maintenance policies for the exchange series "
        "(default: both, so policy regressions are visible per run)",
    )
    parser.add_argument(
        "--churn",
        type=int,
        default=None,
        help="entries/peer per mixed-churn batch (default: --insert; "
        "0 disables the mixed-churn series)",
    )
    parser.add_argument(
        "--churn-batches",
        type=int,
        default=None,
        help="interleaved batch rounds per mixed-churn cell "
        "(default: 3, or 2 with --quick)",
    )
    parser.add_argument(
        "--string-base",
        type=int,
        default=None,
        help="base entries/peer for the string-dataset series "
        "(default: a third of --base; 0 disables the series)",
    )
    parser.add_argument(
        "--query-repeats",
        type=int,
        default=None,
        help="parameter bindings per query cell (default: 200, or 20 with --quick)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=(
            "exchange-series result path (default: BENCH_update_exchange.json "
            "at the repo root; --quick writes BENCH_update_exchange_quick.json "
            "so smoke runs never clobber the committed perf trajectory; the "
            "query series always writes BENCH_query[_quick].json alongside)"
        ),
    )
    args = parser.parse_args(argv)
    suffix = "_quick" if args.quick else ""
    if args.out is None:
        args.out = REPO_ROOT / f"BENCH_update_exchange{suffix}.json"
    query_out = REPO_ROOT / f"BENCH_query{suffix}.json"

    if args.quick:
        peer_counts = tuple(args.peers or (2, 3))
        base = args.base if args.base is not None else 20
        insert = args.insert if args.insert is not None else 2
        repeat = args.repeat if args.repeat is not None else 1
        query_repeats = (
            args.query_repeats if args.query_repeats is not None else 20
        )
    else:
        peer_counts = tuple(args.peers or (2, 5, 10))
        base = args.base if args.base is not None else 400
        insert = args.insert if args.insert is not None else 40
        repeat = args.repeat if args.repeat is not None else 5
        query_repeats = (
            args.query_repeats if args.query_repeats is not None else 200
        )

    index_policies = (
        INDEX_POLICIES
        if args.index_policy == "both"
        else (args.index_policy,)
    )
    string_base = (
        args.string_base
        if args.string_base is not None
        else max(1, base // 3)
    )
    churn = args.churn if args.churn is not None else insert
    churn_batches = (
        args.churn_batches
        if args.churn_batches is not None
        else (2 if args.quick else 3)
    )

    if args.only in ("all", "exchange"):
        print(
            f"update-exchange scale benchmark: peers={peer_counts} "
            f"base={base}/peer insert={insert}/peer repeat={repeat} "
            f"policies={index_policies}"
        )
        result = run_benchmark(
            peer_counts,
            base,
            insert,
            seed=args.seed,
            repeat=repeat,
            index_policies=index_policies,
            string_base_per_peer=string_base,
            churn_per_peer=churn,
            churn_batches=churn_batches,
        )

        if args.baseline is not None and args.baseline.exists():
            baseline = json.loads(args.baseline.read_text())
            result["baseline"] = baseline
            result["speedup_vs_baseline"] = _speedups(baseline, result)
            # speedup_vs_pr6: the same ratios under the name the perf
            # trajectory tracks across the weighted-core refactor, plus
            # the mixed-churn phases when the baseline recorded them.
            pr6 = dict(result["speedup_vs_baseline"])
            mixed_baseline = baseline.get("mixed_churn")
            if mixed_baseline and "mixed_churn" in result:
                mixed_speedup = _speedups(
                    mixed_baseline,
                    result["mixed_churn"],
                    phases=MIXED_PHASES,
                )
                result["mixed_churn"]["speedup_vs_pr6"] = mixed_speedup
                pr6["mixed_churn"] = mixed_speedup
                for phase, ratios in mixed_speedup.items():
                    rendered = ", ".join(
                        f"{peers} peers: {ratio:.2f}x"
                        for peers, ratio in ratios.items()
                    )
                    print(f"  speedup_vs_pr6[mixed/{phase}]: {rendered}")
            result["speedup_vs_pr6"] = pr6
            for phase, ratios in result["speedup_vs_baseline"].items():
                rendered = ", ".join(
                    f"{peers} peers: {ratio:.2f}x"
                    for peers, ratio in ratios.items()
                )
                print(f"  speedup[{phase}]: {rendered}")

        phases = _phase_efficiency(result)
        if phases:
            result["phase_efficiency"] = phases
        result["efficiency"] = efficiency_snapshot()
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
        if phases:
            cell_peers = max(
                c["peers"]
                for c in result["policies"][PRIMARY_POLICY]["cells"]
            )
            print(
                phase_efficiency_table(
                    phases,
                    title=f"phase efficiency ({cell_peers} peers, "
                    f"{PRIMARY_POLICY} policy)",
                )
            )
        print(efficiency_footer())

    if args.only in ("all", "query"):
        print(
            f"repeated-parameterized-query benchmark: peers={peer_counts} "
            f"base={base}/peer repeats={query_repeats}"
        )
        query_result = run_query_benchmark(
            peer_counts, base, query_repeats, seed=args.seed
        )
        query_result["efficiency"] = efficiency_snapshot()
        query_out.write_text(json.dumps(query_result, indent=2) + "\n")
        print(f"wrote {query_out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
