"""Pluggable index maintenance for relation instances.

An :class:`IndexSet` owns the hash indexes of one :class:`~repro.storage.
instance.Instance` and decides *when* maintenance work happens.  Two
policies:

* **eager** (:class:`EagerIndexSet`) — every mutation patches every
  materialized index immediately, the classic OLTP discipline and the
  storage layer's historical behaviour;
* **deferred** (:class:`DeferredIndexSet`) — while a *deferral scope* is
  open (see :meth:`Instance.defer_maintenance
  <repro.storage.instance.Instance.defer_maintenance>`), mutations only
  append insert/delete *runs* to a log.  Each materialized index keeps a
  cursor into that log and catches up in one batched pass when it is next
  probed; a *flush barrier* (scope exit or an explicit ``flush_indexes``)
  catches every index up and truncates the log.  Outside a scope the
  deferred policy applies mutations immediately, exactly like eager.

The deferred policy is the batch-oriented maintenance lever of analytical
engines (cf. Greenplum's hybrid storage): a fixpoint computation that
inserts into a derived table round after round pays one columnar index
pass per *barrier* (or per probed index) instead of one per insert batch,
and per-row churn (delete-then-rederive) coalesces to its net effect
before any index is touched.

**Snapshot-consistency rule**: the row set (``Instance._rows``) is always
maintained eagerly; only index buckets lag.  Every probe entry point
(:meth:`IndexSet.bucket`, :meth:`IndexSet.key_count`) synchronizes the
probed index first, so a reader can never observe stale index state — not
even inside a deferral scope.  Deferral changes *when* maintenance work is
done, never *what* a probe returns.
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Collection, Sequence

from ..obs import tracing as _tracing

Row = tuple[object, ...]

POLICY_EAGER = "eager"
POLICY_DEFERRED = "deferred"
INDEX_POLICIES = (POLICY_EAGER, POLICY_DEFERRED)

_EMPTY_BUCKET: frozenset[Row] = frozenset()

# Deferred-log operation kinds.
_LOG_INSERT = 0
_LOG_DELETE = 1
_LOG_REBUILD = 2  # contents replaced wholesale: rebuild from the live rows


def make_index_set(policy: str, rows: set[Row]) -> "IndexSet":
    """Construct the :class:`IndexSet` for ``policy`` over the live row set.

    ``rows`` is the instance's *live* row storage (aliased, not copied):
    index builds and rebuilds read through it, which is what keeps deferred
    synchronization exact — the rows are always current.
    """
    if policy == POLICY_EAGER:
        return EagerIndexSet(rows)
    if policy == POLICY_DEFERRED:
        return DeferredIndexSet(rows)
    raise ValueError(
        f"unknown index policy {policy!r}; expected one of {INDEX_POLICIES}"
    )


class IndexSet:
    """Base class: the hash indexes of one instance, maintenance-agnostic.

    Subclasses implement the mutation notifications; probes and index
    materialization are shared.  ``_by_cols`` maps an indexed column tuple
    to ``{key tuple -> set of rows}``.
    """

    policy = "abstract"
    # Settle clocks (see DeferredIndexSet); eager maintenance never settles.
    settle_wall_seconds = 0.0
    settle_cpu_seconds = 0.0

    __slots__ = ("_rows", "_by_cols")

    def __init__(self, rows: set[Row]) -> None:
        self._rows = rows
        self._by_cols: dict[tuple[int, ...], dict[Row, set[Row]]] = {}

    # -- introspection -----------------------------------------------------

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._by_cols.keys())

    @property
    def pending_ops(self) -> int:
        """Log entries not yet applied to every index (0 for eager)."""
        return 0

    @property
    def deferring(self) -> bool:
        return False

    # -- materialization ---------------------------------------------------

    def _build(self, cols: tuple[int, ...]) -> dict[Row, set[Row]]:
        index: dict[Row, set[Row]] = {}
        self._patch_one_insert(index, cols, self._rows)
        return index

    def ensure(self, cols: tuple[int, ...]) -> None:
        """Materialize the index on ``cols`` if absent (always current:
        it is built from the live rows)."""
        if cols not in self._by_cols:
            self._by_cols[cols] = self._build(cols)

    # -- probes ------------------------------------------------------------

    def sync(self, cols: tuple[int, ...] | None = None) -> None:
        """Bring one index (or, with ``None``, all of them) up to date."""

    def probe_count(self, cols: tuple[int, ...]) -> int:
        """Hotness counter for one index (0 under eager maintenance)."""
        return 0

    def stats(self) -> dict[str, object]:
        """Maintenance statistics (benchmarks/tests; policy-dependent)."""
        return {"policy": self.policy, "indexes": len(self._by_cols)}

    def bucket(self, cols: tuple[int, ...], key: Row) -> frozenset[Row] | set[Row]:
        """The (synchronized) index bucket for ``key``; empty if absent."""
        self.ensure(cols)
        found = self._by_cols[cols].get(key)
        return found if found is not None else _EMPTY_BUCKET

    def probe(self, cols: tuple[int, ...], key: Row) -> frozenset[Row] | set[Row]:
        """Like :meth:`bucket`, but raises ``KeyError`` for an absent index
        instead of materializing it — the executor's hot path, where the
        caller validates and builds on the (one-time) miss."""
        found = self._by_cols[cols].get(key)
        return found if found is not None else _EMPTY_BUCKET

    def key_count(self, cols: tuple[int, ...]) -> int:
        self.ensure(cols)
        return len(self._by_cols[cols])

    # -- mutation notifications (rows already applied to ``_rows``) --------

    def insert_rows(self, added: Sequence[Row]) -> None:
        raise NotImplementedError

    def delete_rows(self, removed: Sequence[Row]) -> None:
        raise NotImplementedError

    def _patch_insert(self, added: Sequence[Row]) -> None:
        for cols, index in self._by_cols.items():
            self._patch_one_insert(index, cols, added)

    @staticmethod
    def _patch_one_insert(
        index: dict[Row, set[Row]], cols: tuple[int, ...], added: Collection[Row]
    ) -> None:
        # ``get`` + literal-set creation beats ``setdefault(key, set())``,
        # which allocates a throwaway set on every hit; multi-column keys
        # come from one ``itemgetter`` per batch, not a per-row generator.
        get = index.get
        if len(cols) == 1:
            c = cols[0]
            for row in added:
                key = (row[c],)
                bucket = get(key)
                if bucket is None:
                    index[key] = {row}
                else:
                    bucket.add(row)
        else:
            for row, key in zip(added, map(itemgetter(*cols), added)):
                bucket = get(key)
                if bucket is None:
                    index[key] = {row}
                else:
                    bucket.add(row)

    def _patch_delete(self, removed: Sequence[Row]) -> None:
        for cols, index in self._by_cols.items():
            self._patch_one_delete(index, cols, removed)

    @staticmethod
    def _patch_one_delete(
        index: dict[Row, set[Row]],
        cols: tuple[int, ...],
        removed: Collection[Row],
    ) -> None:
        if len(cols) == 1:
            c = cols[0]
            keys = [(row[c],) for row in removed]
        else:
            keys = map(itemgetter(*cols), removed)
        for row, key in zip(removed, keys):
            bucket = index.get(key)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del index[key]

    def _clear_buckets(self) -> None:
        # Keep the dicts (their capacity stays warm), drop the entries.
        for index in self._by_cols.values():
            index.clear()

    def drop_all(self) -> None:
        """The instance was cleared: drop every index definition."""
        self._by_cols.clear()

    def turnover(self) -> None:
        """Contents replaced wholesale; keep definitions, rebuild lazily or
        now (policy-dependent).  Called *before* the new rows land."""
        raise NotImplementedError

    # -- barriers ----------------------------------------------------------

    def begin_defer(self) -> None:
        """Enter a deferral scope (no-op for eager maintenance)."""

    def end_defer(self) -> None:
        """Leave a deferral scope; the outermost exit is a flush barrier."""

    def flush(self) -> None:
        """Apply all pending maintenance now (no-op for eager)."""

    # -- copying -----------------------------------------------------------

    def adopt(self, other: "IndexSet") -> None:
        """Carry ``other``'s index definitions into this (fresh) set.

        Buckets are copied, not rebuilt — cheaper than re-deriving every
        key tuple.  ``other`` is synchronized first so the copy is exact
        (synchronized, not barrier-flushed: a copy must carry every index
        definition, including ones a barrier would retire as cold).
        """
        other.sync(None)
        for cols, index in other._by_cols.items():
            self._by_cols[cols] = {
                key: set(bucket) for key, bucket in index.items()
            }


class EagerIndexSet(IndexSet):
    """Classic immediate maintenance: every mutation patches every index."""

    policy = POLICY_EAGER

    __slots__ = ()

    def insert_rows(self, added: Sequence[Row]) -> None:
        self._patch_insert(added)

    def delete_rows(self, removed: Sequence[Row]) -> None:
        self._patch_delete(removed)

    def turnover(self) -> None:
        self._clear_buckets()


class DeferredIndexSet(IndexSet):
    """Batched maintenance with per-index catch-up cursors.

    While ``deferring``, mutations append ``(op, rows)`` runs to ``_log``;
    ``_cursor[cols]`` records how much of the log index ``cols`` has seen.
    Synchronization replays the unseen suffix *coalesced to its net
    effect* (a row inserted and deleted in the same epoch never touches an
    index), and falls back to a wholesale rebuild when the net change
    outweighs the table — the columnar batch pass.
    """

    policy = POLICY_DEFERRED

    #: Spill threshold: coalesce the log in place once it holds more than
    #: ``max(SPILL_MIN_ROWS, SPILL_FACTOR * live rows)`` logged rows, so
    #: arbitrarily long deferral epochs keep the log O(live rows).
    SPILL_MIN_ROWS = 4096
    SPILL_FACTOR = 4

    #: An index is *hot* if it was probed since the last barrier decay;
    #: barriers settle hot rebuild-scale debt in place instead of retiring
    #: the index to its next probe.
    HOT_PROBES = 1

    __slots__ = (
        "_log",
        "_log_rows",
        "_cursor",
        "_depth",
        "_probes",
        "applied_runs",
        "rebuilds",
        "retired",
        "hot_settled",
        "spills",
        "settle_wall_seconds",
        "settle_cpu_seconds",
    )

    def __init__(self, rows: set[Row]) -> None:
        super().__init__(rows)
        self._log: list[tuple[int, tuple[Row, ...]]] = []
        self._log_rows = 0
        self._cursor: dict[tuple[int, ...], int] = {}
        self._depth = 0
        # Probe-hotness counters, decayed at each barrier (see flush).
        self._probes: dict[tuple[int, ...], int] = {}
        #: Maintenance counters (cumulative; for benchmarks and tests).
        self.applied_runs = 0
        self.rebuilds = 0
        self.retired = 0
        self.hot_settled = 0
        self.spills = 0
        # Always-on settle clocks (timed per catch-up pass, not per row):
        # the ExchangeReport "index_settle" phase reads their movement.
        self.settle_wall_seconds = 0.0
        self.settle_cpu_seconds = 0.0

    # -- introspection -----------------------------------------------------

    @property
    def pending_ops(self) -> int:
        if not self._log:
            return 0
        end = len(self._log)
        if not self._by_cols:
            return end
        return max(end - pos for pos in self._cursor.values())

    @property
    def deferring(self) -> bool:
        return self._depth > 0

    # -- materialization ---------------------------------------------------

    def ensure(self, cols: tuple[int, ...]) -> None:
        if cols not in self._by_cols:
            self._by_cols[cols] = self._build(cols)
            # Built from the live rows: already past the whole log.
            self._cursor[cols] = len(self._log)

    # -- probes ------------------------------------------------------------

    def bucket(self, cols: tuple[int, ...], key: Row) -> frozenset[Row] | set[Row]:
        self.ensure(cols)
        if self._log and self._cursor[cols] < len(self._log):
            self._sync_one(cols)
        found = self._by_cols[cols].get(key)
        return found if found is not None else _EMPTY_BUCKET

    def probe(self, cols: tuple[int, ...], key: Row) -> frozenset[Row] | set[Row]:
        # _cursor[cols] raises KeyError for an absent index (the caller
        # builds and retries); the log check keeps the common synchronized
        # case as cheap as the eager probe.
        if self._log and self._cursor[cols] < len(self._log):
            self._sync_one(cols)
        found = self._by_cols[cols].get(key)
        return found if found is not None else _EMPTY_BUCKET

    def key_count(self, cols: tuple[int, ...]) -> int:
        self.ensure(cols)
        if self._cursor[cols] < len(self._log):
            self._sync_one(cols)
        return len(self._by_cols[cols])

    def sync(self, cols: tuple[int, ...] | None = None) -> None:
        if cols is not None:
            # The targeted-sync entry (one call per probe loop, via
            # Instance.prepare_probe) doubles as the hotness signal: it
            # fires once per pipeline step / pushdown probe, not once per
            # row, so counting here costs nothing on the lookup hot path.
            self.ensure(cols)
            self._probes[cols] = self._probes.get(cols, 0) + 1
            if self._cursor[cols] < len(self._log):
                self._sync_one(cols)
            return
        for indexed in self._by_cols:
            if self._cursor[indexed] < len(self._log):
                self._sync_one(indexed)
        self._truncate_log()

    def probe_count(self, cols: tuple[int, ...]) -> int:
        return self._probes.get(cols, 0)

    def stats(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "indexes": len(self._by_cols),
            "pending_ops": self.pending_ops,
            "applied_runs": self.applied_runs,
            "rebuilds": self.rebuilds,
            "retired": self.retired,
            "hot_settled": self.hot_settled,
            "spills": self.spills,
            "settle_wall_seconds": self.settle_wall_seconds,
            "settle_cpu_seconds": self.settle_cpu_seconds,
            "probe_counts": dict(self._probes),
        }

    # -- mutation notifications --------------------------------------------

    def insert_rows(self, added: Sequence[Row]) -> None:
        if self._depth and self._by_cols:
            self._log.append((_LOG_INSERT, tuple(added)))
            self._log_rows += len(added)
            self._maybe_spill()
        else:
            self._patch_insert(added)

    def delete_rows(self, removed: Sequence[Row]) -> None:
        if self._depth and self._by_cols:
            self._log.append((_LOG_DELETE, tuple(removed)))
            self._log_rows += len(removed)
            self._maybe_spill()
        else:
            self._patch_delete(removed)

    def drop_all(self) -> None:
        self._by_cols.clear()
        self._log.clear()
        self._log_rows = 0
        self._cursor.clear()
        self._probes.clear()

    def turnover(self) -> None:
        if self._depth and self._by_cols:
            # A rebuild marker supersedes anything an index has not yet
            # seen — synchronization from here rebuilds from the live rows.
            self._log.append((_LOG_REBUILD, ()))
            self._log_rows += 1
        else:
            self._clear_buckets()

    # -- barriers ----------------------------------------------------------

    def adopt(self, other: IndexSet) -> None:
        super().adopt(other)
        for cols in self._by_cols:
            self._cursor[cols] = len(self._log)

    def begin_defer(self) -> None:
        self._depth += 1

    def end_defer(self) -> None:
        if self._depth == 0:
            raise RuntimeError("end_defer without a matching begin_defer")
        self._depth -= 1
        if self._depth == 0:
            self.flush()

    def flush(self) -> None:
        """The barrier pass: settle every index's maintenance debt.

        Indexes with a small pending suffix are patched (they stay warm
        for the reads that kept probing them).  An index whose debt is
        *rebuild-scale* — a turnover marker, or net changes outweighing
        the table — is **retired** instead: its definition is dropped and
        the next probe (if any ever comes) rebuilds it from the live rows
        at the same cost the barrier would have paid.  Cold indexes that
        nobody reads again thus cost nothing, which is the deferred
        policy's scan-what-you-read guarantee: maintenance effort is
        proportional to the indexes actually probed, not to the indexes
        that exist.

        **Hotness.**  Retirement defers the rebuild to the next probe —
        the right call for indexes nobody reads, and a first-read stall
        for the ones serving steady traffic.  Each targeted sync bumps a
        per-index probe counter; an index probed at least
        :attr:`HOT_PROBES` times since the previous barrier is *hot* and
        has rebuild-scale debt settled here, at the barrier, instead
        (``hot_settled`` counts these).  Counters halve at every barrier,
        so an index only stays hot while traffic keeps arriving —
        one-shot probes (a cold attribute lookup) decay back to cold by
        the next barrier.
        """
        self._settle_all()
        # Decay: hotness must be earned again between barriers.
        self._probes = {
            cols: count >> 1
            for cols, count in self._probes.items()
            if count > 1 and cols in self._by_cols
        }

    def _settle_all(self) -> None:
        """Settle or retire every index with pending debt; truncate."""
        if self._log:
            end = len(self._log)
            for cols in [
                c for c, pos in self._cursor.items() if pos < end
            ]:
                if self._debt_is_rebuild_scale(cols, end):
                    if self._probes.get(cols, 0) >= self.HOT_PROBES:
                        self._sync_one(cols)
                        self.hot_settled += 1
                    else:
                        del self._by_cols[cols]
                        del self._cursor[cols]
                        self._probes.pop(cols, None)
                        self.retired += 1
                else:
                    self._sync_one(cols)
        self._truncate_log()

    def _maybe_spill(self) -> None:
        """Coalesce the log in place once it outgrows the live table.

        A very long deferral epoch (a huge publish, a migration script
        holding one scope open) would otherwise retain every mutated row
        until the barrier.  Once the logged row count exceeds
        ``max(SPILL_MIN_ROWS, SPILL_FACTOR * live rows)`` the pending
        debt is settled exactly as a barrier would settle it (hot indexes
        patched or rebuilt, cold ones retired — churn nets out through
        the same coalescing paths) and the log is truncated, bounding its
        size by the live row count regardless of epoch length.
        """
        if self._log_rows <= max(
            self.SPILL_MIN_ROWS, self.SPILL_FACTOR * len(self._rows)
        ):
            return
        self.spills += 1
        self._settle_all()

    def _debt_is_rebuild_scale(self, cols: tuple[int, ...], end: int) -> bool:
        start = self._cursor[cols]
        changed = 0
        for position in range(start, end):
            op, rows = self._log[position]
            if op == _LOG_REBUILD:
                return True
            changed += len(rows)
        return changed >= len(self._rows)

    # -- synchronization core ----------------------------------------------

    def _sync_one(self, cols: tuple[int, ...]) -> None:
        """Catch one index up with the log suffix past its cursor."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        span = (
            _tracing.start("index-settle", pending=len(self._log))
            if _tracing.ENABLED
            else None
        )
        self._apply_suffix(cols)
        self._maybe_truncate()
        if span is not None:
            _tracing.finish(span)
        self.settle_wall_seconds += time.perf_counter() - wall0
        self.settle_cpu_seconds += time.process_time() - cpu0

    def _apply_suffix(self, cols: tuple[int, ...]) -> None:
        start = self._cursor[cols]
        log = self._log
        end = len(log)
        self._cursor[cols] = end
        self.applied_runs += end - start
        index = self._by_cols[cols]
        # One classification pass: a rebuild marker voids everything older
        # (the live rows are the only source of truth after a turnover);
        # otherwise note whether the suffix mixes inserts and deletes.
        ops = 0
        changed = 0
        for position in range(start, end):
            op, rows = log[position]
            if op == _LOG_REBUILD:
                self._rebuild(cols)
                return
            ops |= 1 << op
            changed += len(rows)
        if ops != 0b11:
            # Homogeneous suffix: effective runs are pairwise disjoint by
            # construction (a second effective insert of a row requires an
            # intervening delete, and vice versa), so apply them straight
            # through — the same total work eager would have done, in one
            # batched pass per index instead of one per mutation batch.
            if changed >= len(self._rows):
                # At least as cheap to rebuild as to patch: one tight pass
                # over the live rows (the columnar bulk-load case — e.g. a
                # table populated from empty inside the epoch, or a
                # delete-heavy suffix leaving a small table behind).
                self._rebuild(cols)
                return
            patch = (
                self._patch_one_insert if ops == 0b01 else self._patch_one_delete
            )
            for position in range(start, end):
                patch(index, cols, log[position][1])
            return
        # Mixed suffix: coalesce to the net effect first — churn (insert
        # then delete, or delete then re-insert) cancels before any bucket
        # is touched.  Rebuild wholesale when the net change outweighs the
        # table.
        net_add, net_del = self._net(start, end)
        if len(net_add) + len(net_del) > len(self._rows):
            self._rebuild(cols)
            return
        self._patch_one_insert(index, cols, net_add)
        self._patch_one_delete(index, cols, net_del)

    def _maybe_truncate(self) -> None:
        """Opportunistic truncation: drop the log as soon as every index
        has consumed it, so a long deferral epoch with round-by-round
        probes does not retain every mutated row until the barrier."""
        if self._log and min(self._cursor.values()) >= len(self._log):
            self._log.clear()
            self._log_rows = 0
            for cols in self._cursor:
                self._cursor[cols] = 0

    def _net(self, start: int, end: int) -> tuple[list[Row], list[Row]]:
        """Coalesce log runs ``[start, end)`` to their net row effect.

        Runs record *effective* mutations (rows genuinely added/removed
        against the always-current row set), so per row the first op tells
        the epoch-start state and the last op the epoch-end state: only
        first==last=='+' is a net insert, only first==last=='-' a net
        delete; anything else cancelled out within the epoch.
        """
        first: dict[Row, int] = {}
        last: dict[Row, int] = {}
        for position in range(start, end):
            op, rows = self._log[position]
            for row in rows:
                if row not in first:
                    first[row] = op
                last[row] = op
        net_add = [
            row
            for row, op in last.items()
            if op == _LOG_INSERT and first[row] == _LOG_INSERT
        ]
        net_del = [
            row
            for row, op in last.items()
            if op == _LOG_DELETE and first[row] == _LOG_DELETE
        ]
        return net_add, net_del

    def _rebuild(self, cols: tuple[int, ...]) -> None:
        self._by_cols[cols] = self._build(cols)
        self.rebuilds += 1

    def _truncate_log(self) -> None:
        """Drop the log once every index is past it."""
        if not self._log:
            return
        if self._by_cols:
            floor = min(self._cursor.values())
            if floor < len(self._log):
                return
        self._log.clear()
        self._log_rows = 0
        for cols in self._cursor:
            self._cursor[cols] = 0
