"""Relation instances: set-semantics tuple stores with hash indexes.

This is the storage substrate that stands in for the RDBMS tables of the
paper's Section 5.  An :class:`Instance` stores the extension of one relation
as a set of fixed-arity tuples.  A hash index on a column subset is built
from the live rows the first time a query plan probes it; from then on every
mutation patches every materialized index immediately — in one pass per
batch for the set-at-a-time entry points (:meth:`Instance.insert_new`,
:meth:`Instance.delete_existing`, :meth:`Instance.replace_contents`) — so a
probe always reads current index state.

Set semantics matches the paper: "in a set-based relational model ... a tuple
is uniquely identified by its values" (Section 4.1.2), which is also what
makes tuples usable as their own provenance tokens.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Collection,
    Iterable,
    Iterator,
    Sequence,
)

Row = tuple[object, ...]
Columns = tuple[int, ...]
#: One hash index: key tuple (the row projected on its columns) -> rows.
Index = dict[Row, set[Row]]

_EMPTY_BUCKET: frozenset[Row] = frozenset()


def _row_set(rows: Iterable[Sequence[object]]) -> set[Row]:
    """A ``set`` as it is (set algebra reuses the hashes it stores), any
    other iterable as a new set of tuples."""
    return rows if isinstance(rows, set) else set(map(tuple, rows))


def _index_rows(index: Index, cols: Columns, added: Collection[Row]) -> None:
    """Add ``added`` to the buckets of the index on ``cols``."""
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


def _unindex_rows(
    index: Index, cols: Columns, removed: Collection[Row]
) -> None:
    """Remove ``removed`` from the index on ``cols``; a bucket that
    empties is dropped, so every key in the index has a row."""
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
    """

    __slots__ = (
        "name",
        "arity",
        "_rows",
        "_indexes",
        "_builds",
        "_version",
        "_watchers",
    )

    def __init__(
        self, name: str, arity: int, rows: Iterable[Row] = ()
    ) -> None:
        self.name = name
        self.arity = arity
        self._rows: set[Row] = set()
        self._indexes: dict[Columns, Index] = {}
        #: Indexes built from the live rows (first probes of a column set).
        self._builds = 0
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
        for cols, index in self._indexes.items():
            _index_rows(index, cols, (row,))
        return True

    def insert_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert many rows; return the number actually added.

        Index maintenance is bulk: the set of genuinely new rows patches
        each index in one pass, and the version bumps once.
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
        for cols, index in self._indexes.items():
            _index_rows(index, cols, fresh)
        return fresh

    def delete(self, row: Sequence[object]) -> bool:
        """Delete ``row``; return True if it was present."""
        row = tuple(row)
        if row not in self._rows:
            return False
        self._rows.discard(row)
        self._bump()
        for cols, index in self._indexes.items():
            _unindex_rows(index, cols, (row,))
        return True

    def delete_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Delete many rows; return the number actually removed.

        Like :meth:`insert_many`, the genuinely removed rows patch each
        index in one pass and the version bumps once.
        """
        return len(self.delete_existing(rows))

    def delete_existing(self, rows: Iterable[Sequence[object]]) -> set[Row]:
        """Bulk delete; return the rows that were genuinely removed.

        The set mirror of :meth:`insert_new`: one version bump, one bulk
        pass per index, and the effective rows (in no particular order)
        back to the caller — what retraction needs to seed its next
        frontier without per-row ``delete`` calls.
        """
        # Two-phase like insert_new: an unhashable row fails the
        # intersection before anything mutates.
        removed = self._rows.intersection(map(tuple, rows))
        if not removed:
            return removed
        self._rows -= removed
        self._bump()
        for cols, index in self._indexes.items():
            _unindex_rows(index, cols, removed)
        return removed

    def clear(self) -> None:
        """Empty the extension and drop every index definition."""
        self._rows.clear()
        self._indexes.clear()
        self._bump()

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
            # rounds are disjoint): keep the index dicts (their capacity
            # stays warm) but skip the pointless per-row removals.
            self._rows.clear()
            for index in self._indexes.values():
                index.clear()
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
        if cols not in self._indexes:
            index: Index = {}
            _index_rows(index, cols, self._rows)
            self._indexes[cols] = index
            self._builds += 1

    def lookup(
        self, columns: Sequence[int], values: Sequence[object]
    ) -> AbstractSet[Row]:
        """All rows whose ``columns`` equal ``values`` (index-accelerated).

        Returns a **read-only view** of the live index bucket — no per-probe
        copy is made.  Treat the result as ephemeral: do not mutate this
        instance while iterating it, and materialize (``tuple(...)``) before
        any interleaved mutation.  Use :meth:`rows` for a stable snapshot.
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
        index = self._indexes.get(cols)
        if index is None:
            # One-time miss: validate the columns and build the index.
            self.ensure_index(cols)
            index = self._indexes[cols]
        return index.get(tuple(values), _EMPTY_BUCKET)

    def matching(
        self, columns: Sequence[int], keys: Iterable[Row]
    ) -> set[Row]:
        """The rows whose projection on ``columns`` is one of ``keys``.

        Set-at-a-time :meth:`lookup`: one intersection of ``keys`` with
        the index's key view (with the row set for a
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

    def _key_index(self, cols: Columns) -> Index:
        """The ``key -> bucket`` index on ``cols``."""
        if not cols:  # every row projects to the empty key
            return {(): self._rows} if self._rows else {}
        self.ensure_index(cols)
        return self._indexes[cols]

    def index_key_count(self, columns: Sequence[int]) -> int:
        """Number of distinct keys in the index on ``columns``."""
        cols = tuple(columns)
        self.ensure_index(cols)
        return len(self._indexes[cols])

    def indexed_columns(self) -> tuple[Columns, ...]:
        return tuple(self._indexes)

    def index_stats(self) -> dict[str, int]:
        """``indexes`` materialized now, and ``rebuilds``: how many index
        builds from the live rows this instance has paid for."""
        return {"indexes": len(self._indexes), "rebuilds": self._builds}

    # -- bulk helpers -----------------------------------------------------

    def select(self, predicate: Callable[[Row], bool]) -> frozenset[Row]:
        return frozenset(row for row in self._rows if predicate(row))

    def project(self, columns: Sequence[int]) -> frozenset[Row]:
        cols = tuple(columns)
        return frozenset(tuple(row[c] for c in cols) for row in self._rows)

    def copy(self, name: str | None = None) -> "Instance":
        """A deep copy carrying the index definitions.

        Indexes are copied bucket-wise (cheaper than rebuilding key
        tuples), so probes against the copy start warm.
        """
        clone = Instance(name or self.name, self.arity)
        clone._rows.update(self._rows)
        if self._rows:
            clone._version = 1
        clone._indexes = {
            cols: {key: set(bucket) for key, bucket in index.items()}
            for cols, index in self._indexes.items()
        }
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
