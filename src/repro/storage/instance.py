"""Relation instances: set-semantics tuple stores with hash indexes.

This is the storage substrate that stands in for the RDBMS tables of the
paper's Section 5.  An :class:`Instance` stores the extension of one relation
as a set of fixed-arity tuples, and lazily builds hash indexes on the column
subsets that query plans probe.

*When* those indexes are maintained is a pluggable policy (see
:mod:`repro.storage.indexes`): under the default **eager** policy every
mutation patches every materialized index, while the **deferred** policy
accumulates insert/delete runs inside :meth:`defer_maintenance` scopes and
applies them in batched passes at probe time or at flush barriers.  The row
set itself is always maintained eagerly, and every probe synchronizes the
index it touches first — readers never observe stale index state.

Set semantics matches the paper: "in a set-based relational model ... a tuple
is uniquely identified by its values" (Section 4.1.2), which is also what
makes tuples usable as their own provenance tokens.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from .indexes import POLICY_EAGER, IndexSet, make_index_set

Row = tuple[object, ...]


def _row_set(rows: Iterable[Sequence[object]]) -> set[Row]:
    """A ``set`` as it is (set algebra reuses the hashes it stores), any
    other iterable as a new set of tuples."""
    return rows if isinstance(rows, set) else set(map(tuple, rows))


class StorageError(Exception):
    """Base class for storage-layer errors."""


class ArityError(StorageError):
    """A row's arity does not match the relation's arity."""


class Instance:
    """The extension of a single relation, with lazy hash indexes.

    Parameters
    ----------
    name:
        Relation name (used in error messages and statistics).
    arity:
        Number of columns; every stored row must have exactly this length.
    rows:
        Optional initial contents.
    index_policy:
        Index maintenance policy (``"eager"`` or ``"deferred"``, see
        :mod:`repro.storage.indexes`).
    """

    __slots__ = (
        "name",
        "arity",
        "_rows",
        "_indexes",
        "_version",
        "_watchers",
    )

    def __init__(
        self,
        name: str,
        arity: int,
        rows: Iterable[Row] = (),
        index_policy: str = POLICY_EAGER,
    ) -> None:
        self.name = name
        self.arity = arity
        self._rows: set[Row] = set()
        self._indexes: IndexSet = make_index_set(index_policy, self._rows)
        self._version = 0
        self._watchers: tuple[Callable[[], None], ...] = ()
        self.insert_new(rows)

    # -- basic collection protocol ---------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[object]) -> bool:
        return tuple(row) in self._rows

    def __repr__(self) -> str:
        return f"<Instance {self.name}/{self.arity}: {len(self)} rows>"

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation (used by stats caches)."""
        return self._version

    @property
    def index_policy(self) -> str:
        """The index maintenance policy this instance was built with."""
        return self._indexes.policy

    def _bump(self) -> None:
        """Record one mutation: bump the version and notify watchers.

        This is the dirty-bit that keeps :attr:`Database.version` O(1): each
        owning catalog registers a watcher and maintains its own counter
        instead of summing every instance's version on read.
        """
        self._version += 1
        for notify in self._watchers:
            notify()

    def add_watcher(self, notify: Callable[[], None]) -> None:
        """Register a zero-argument callback invoked on every mutation."""
        self._watchers += (notify,)

    def remove_watcher(self, notify: Callable[[], None]) -> None:
        """Unregister a callback added with :meth:`add_watcher`."""
        self._watchers = tuple(w for w in self._watchers if w != notify)

    def rows(self) -> frozenset[Row]:
        """A frozen snapshot of the current contents."""
        return frozenset(self._rows)

    # -- mutation ---------------------------------------------------------

    def _check_arity(self, row: Row) -> None:
        if len(row) != self.arity:
            raise ArityError(
                f"relation {self.name} has arity {self.arity}, "
                f"got row of length {len(row)}: {row!r}"
            )

    def insert(self, row: Sequence[object]) -> bool:
        """Insert ``row``; return True if it was new."""
        row = tuple(row)
        self._check_arity(row)
        if row in self._rows:
            return False
        self._rows.add(row)
        self._bump()
        if self._indexes._by_cols:
            self._indexes.insert_rows((row,))
        return True

    def insert_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert many rows; return the number actually added.

        Index maintenance is bulk: the set of genuinely new rows is handed
        to the index policy in one run, and the version bumps once.
        """
        return len(self.insert_new(rows))

    def insert_new(self, rows: Iterable[Sequence[object]]) -> set[Row]:
        """Bulk insert; return the rows that were genuinely new.

        Semantics match :meth:`insert_many` (one version bump, bulk index
        maintenance); the returned set — in no particular order — is what
        semi-naive evaluation needs to seed the next delta round without
        per-row ``insert`` calls.  A ``set`` of tuples is read in place,
        without re-hashing; it is never kept or mutated.
        """
        # Set-at-a-time and two-phase for exception safety: the fresh rows
        # are computed and arity-checked before anything mutates, so a bad
        # row mid-batch cannot leave rows the indexes have never seen.
        fresh = _row_set(rows) - self._rows
        if not fresh:
            return fresh
        if any(map(self.arity.__ne__, map(len, fresh))):
            for row in fresh:
                self._check_arity(row)
        self._rows |= fresh
        self._bump()
        if self._indexes._by_cols:
            self._indexes.insert_rows(fresh)
        return fresh

    def delete(self, row: Sequence[object]) -> bool:
        """Delete ``row``; return True if it was present."""
        row = tuple(row)
        if row not in self._rows:
            return False
        self._rows.discard(row)
        self._bump()
        if self._indexes._by_cols:
            self._indexes.delete_rows((row,))
        return True

    def delete_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Delete many rows; return the number actually removed.

        Like :meth:`insert_many`, the genuinely removed rows reach the
        index policy as one run and the version bumps once.
        """
        return len(self.delete_existing(rows))

    def delete_existing(self, rows: Iterable[Sequence[object]]) -> set[Row]:
        """Bulk delete; return the rows that were genuinely removed.

        The set mirror of :meth:`insert_new`: one version bump, one bulk
        index-maintenance run, and the effective rows (in no particular
        order) back to the caller — what retraction needs to seed its
        next frontier without per-row ``delete`` calls.
        """
        # Two-phase like insert_new: an unhashable row fails the
        # intersection before anything mutates.
        removed = self._rows.intersection(map(tuple, rows))
        if not removed:
            return removed
        self._rows -= removed
        self._bump()
        if self._indexes._by_cols:
            self._indexes.delete_rows(removed)
        return removed

    def clear(self) -> None:
        self._rows.clear()
        self._indexes.drop_all()
        self._bump()

    def replace(self, rows: Iterable[Sequence[object]]) -> None:
        """Replace the whole extension (drops indexes)."""
        self.clear()
        for row in rows:
            self.insert(row)

    def replace_contents(self, rows: Iterable[Sequence[object]]) -> None:
        """Replace the extension, *keeping* materialized indexes.

        The diff against the current contents is applied with bulk index
        maintenance, so a relation that is repeatedly refilled (the engine's
        persistent Δ-relations) keeps its probe indexes warm instead of
        rebuilding them from scratch on every swap.  A ``set`` of tuples
        is read in place, as by :meth:`insert_new`.
        """
        new_rows = _row_set(rows)
        stale = self._rows - new_rows
        if stale and len(stale) == len(self._rows):
            # Complete turnover (the usual case for Δ-relations: successive
            # rounds are disjoint): keep the index structures but skip the
            # pointless per-row removals.
            self._rows.clear()
            self._indexes.turnover()
            self._bump()
            self.insert_many(new_rows)
            return
        fresh = new_rows - self._rows
        if stale:
            self.delete_many(stale)
        if fresh:
            self.insert_many(fresh)

    # -- indexes ----------------------------------------------------------

    def ensure_index(self, columns: Sequence[int]) -> None:
        """Materialize a hash index on ``columns`` if absent."""
        cols = tuple(columns)
        for c in cols:
            if not 0 <= c < self.arity:
                raise StorageError(
                    f"index column {c} out of range for {self.name}/{self.arity}"
                )
        self._indexes.ensure(cols)

    def lookup(
        self, columns: Sequence[int], values: Sequence[object]
    ) -> AbstractSet[Row]:
        """All rows whose ``columns`` equal ``values`` (index-accelerated).

        Returns a **read-only view** of the live index bucket — no per-probe
        copy is made.  Treat the result as ephemeral: do not mutate this
        instance while iterating it, and materialize (``tuple(...)``) before
        any interleaved mutation.  Use :meth:`rows` for a stable snapshot.

        Probes are snapshot-consistent under every index policy: a deferred
        index is synchronized with its pending runs before the bucket is
        read, so the result always reflects the current row set.
        """
        cols = tuple(columns)
        if not cols:
            # Not on the executor hot path (it snapshots full scans), so
            # return a safe frozen copy rather than the mutable row set.
            return self.rows()
        if len(cols) == self.arity and cols == tuple(range(self.arity)):
            # The whole row, in order: a membership test, answered from
            # the row set without building an index.
            key = tuple(values)
            return frozenset((key,)) if key in self._rows else frozenset()
        try:
            return self._indexes.probe(cols, tuple(values))
        except KeyError:
            # One-time miss: validate the columns and build the index.
            self.ensure_index(cols)
            return self._indexes.probe(cols, tuple(values))

    def matching(
        self, columns: Sequence[int], keys: Iterable[Row]
    ) -> set[Row]:
        """The rows whose projection on ``columns`` is one of ``keys``.

        Set-at-a-time :meth:`lookup`: one intersection of ``keys`` with
        the synchronized index's key view (with the row set for a
        full-width probe), then the union of the hit buckets.
        """
        cols = tuple(columns)
        if cols == tuple(range(self.arity)):
            return self._rows.intersection(keys)
        index = self._key_index(cols)
        return set().union(*[index[key] for key in index.keys() & keys])

    def keys_present(
        self, columns: Sequence[int], keys: Iterable[Row]
    ) -> set[Row]:
        """The ``keys`` some row still projects to on ``columns``: one
        intersection, as :meth:`matching`.  Empty buckets are dropped
        eagerly, so a key in the index view always has a row."""
        cols = tuple(columns)
        if cols == tuple(range(self.arity)):
            return self._rows.intersection(keys)
        return self._key_index(cols).keys() & keys

    def _key_index(self, cols: tuple[int, ...]) -> dict[Row, set[Row]]:
        """The synchronized ``key -> bucket`` index on ``cols``."""
        if not cols:  # every row projects to the empty key
            return {(): self._rows} if self._rows else {}
        self.prepare_probe(cols)
        return self._indexes._by_cols[cols]

    def prepare_probe(self, columns: Sequence[int]) -> None:
        """Make the index on ``columns`` current ahead of a probe loop.

        The plan executor calls this once per pipeline step, so the
        per-probe :meth:`lookup` calls that follow hit an already
        synchronized index (the per-call pending check still guards
        correctness; this just hoists the batched catch-up out of the
        environment loop).
        """
        cols = tuple(columns)
        if cols and cols != tuple(range(self.arity)):
            # (A whole-row probe is a membership test: no index to sync.)
            self.ensure_index(cols)
            self._indexes.sync(cols)

    def index_key_count(self, columns: Sequence[int]) -> int:
        """Number of distinct keys in the index on ``columns``."""
        cols = tuple(columns)
        self.ensure_index(cols)
        return self._indexes.key_count(cols)

    def indexed_columns(self) -> tuple[tuple[int, ...], ...]:
        return self._indexes.columns()

    # -- deferred maintenance barriers -------------------------------------

    @contextmanager
    def defer_maintenance(self):
        """A deferral scope: batch index maintenance until exit.

        Under the deferred policy, mutations inside the scope only append
        to the maintenance log; each index catches up when probed, and the
        outermost scope exit is a flush barrier.  Under the eager policy
        this is a no-op, so engine code can open scopes unconditionally.
        """
        self._indexes.begin_defer()
        try:
            yield self
        finally:
            self._indexes.end_defer()

    def flush_indexes(self) -> None:
        """An explicit maintenance barrier.

        Pending runs are applied to every index whose debt is small; an
        index whose debt is rebuild-scale is retired instead and lazily
        rebuilt on its next probe (see
        :meth:`repro.storage.indexes.DeferredIndexSet.flush`).
        """
        self._indexes.flush()

    def pending_index_ops(self) -> int:
        """Maintenance-log entries some index has not yet applied."""
        return self._indexes.pending_ops

    def index_stats(self) -> dict[str, object]:
        """Maintenance statistics from the index policy (counters such as
        ``rebuilds`` / ``retired`` / ``hot_settled`` / ``spills`` and the
        per-index probe-hotness counts under the deferred policy)."""
        return self._indexes.stats()

    # -- bulk helpers -----------------------------------------------------

    def select(self, predicate: Callable[[Row], bool]) -> frozenset[Row]:
        return frozenset(row for row in self._rows if predicate(row))

    def project(self, columns: Sequence[int]) -> frozenset[Row]:
        cols = tuple(columns)
        return frozenset(tuple(row[c] for c in cols) for row in self._rows)

    def copy(self, name: str | None = None) -> "Instance":
        """A deep copy carrying the index definitions and policy.

        Indexes are copied bucket-wise (cheaper than rebuilding key
        tuples), so probes against the copy start warm.
        """
        clone = Instance(
            name or self.name, self.arity, index_policy=self.index_policy
        )
        clone._rows.update(self._rows)
        if self._rows:
            clone._version = 1
        clone._indexes.adopt(self._indexes)
        return clone

    def estimated_bytes(self) -> int:
        """Rough storage footprint, mirroring the paper's "DB size" metric.

        Strings count their UTF-8 length; everything else counts a fixed
        8-byte word.  This is deliberately simple: Figure 6 only needs the
        string-vs-integer contrast and growth trend to be faithful.
        """
        total = 0
        for row in self._rows:
            for value in row:
                if isinstance(value, str):
                    total += len(value.encode("utf-8"))
                else:
                    total += 8
        return total
