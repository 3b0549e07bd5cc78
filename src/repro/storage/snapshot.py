"""Version-pinned database snapshots: the serving tier's read isolation.

A :class:`DatabaseSnapshot` is a private copy of selected relations of a
live :class:`~repro.storage.database.Database`, pinned at the database's
O(1) ``version`` counter.  It is the storage half of the
snapshot-isolation rule the serving tier (:mod:`repro.serve`) builds on:

* **capture happens at a quiescent point** — the serving tier pins and
  patches only between exchanges, so a snapshot always holds a
  *consistent fixpoint*, never a torn mid-exchange state;
* **reads never touch the live catalog** — prepared queries and programs
  execute against the snapshot's private instances
  (:meth:`PreparedQuery.execute_at <repro.api.query.PreparedQuery.
  execute_at>`), so a concurrently running exchange can mutate the live
  database freely without readers observing intermediate rows or racing
  on live index maintenance;
* **indexes stay warm** — instances are copied via
  :meth:`Instance.copy <repro.storage.instance.Instance.copy>`
  (bucket-wise, synchronized), so the first probe against a snapshot hits
  the same indexes the live table had.  Probes of *new* column subsets
  still build lazily.

Every read of :attr:`DatabaseSnapshot.db` happens under
:attr:`DatabaseSnapshot.lock`.  Nothing changes a snapshot after
capture except the one owner that may: the serving tier's
:class:`~repro.serve.snapshots.SnapshotManager` keeps two pinned
snapshots as *standing replicas* and brings the idle one forward with
:meth:`DatabaseSnapshot._apply_changes` — under the same lock, so a
reader sees the replica either wholly before or wholly after the patch.

Snapshots also carry a small result cache: the serving tier executes the
same prepared statements against the same snapshot over and over.
Entries live until the snapshot's contents change: never, for a plain
pin; at every patch, for a replica.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from .database import Database
from .instance import Instance
from .zset import ZSet, apply_zset

_RESULT_CACHE_LIMIT = 4096
"""Cached answer entries per snapshot before wholesale clearing."""


class DatabaseSnapshot:
    """A version-pinned private copy of selected relations.

    Create one with :meth:`Database.pin
    <repro.storage.database.Database.pin>`.  The snapshot exposes its
    relations through :attr:`db` (a private :class:`Database` that shares
    nothing mutable with the source) and records the source's
    :attr:`~repro.storage.database.Database.version` at capture time.
    """

    __slots__ = ("db", "version", "names", "lock", "_results")

    def __init__(
        self, source: Database, names: Iterable[str] | None = None
    ) -> None:
        snapshot = Database()
        selected = (
            source.relation_names() if names is None else tuple(names)
        )
        for name in selected:
            instance = source.get(name)
            if instance is None:
                continue
            copied = instance.copy()
            # Registered directly: nothing outside this snapshot watches
            # the copies, so they need none of attach()'s watcher wiring.
            snapshot._relations[name] = copied
        self.db = snapshot
        self.version = source.version
        self.names = tuple(snapshot.relation_names())
        #: Serializes every access to :attr:`db`: a probe of a
        #: never-indexed column subset builds its index lazily, the result
        #: cache fills, and a standing replica is patched — all under it.
        self.lock = threading.RLock()
        self._results: dict[tuple, object] = {}

    def instance(self, name: str) -> Instance | None:
        """The pinned copy of relation ``name`` (None if not captured)."""
        return self.db.get(name)

    def total_rows(self) -> int:
        return self.db.total_rows()

    def cached(self, key: tuple, compute: Callable[[], object]) -> object:
        """Serve ``key`` from the snapshot's result cache, else compute.

        The computation runs under :attr:`lock`; the cache is cleared
        whenever the snapshot's contents change, so a hit is always an
        answer over the current rows.  ``key`` conventionally starts with
        the prepared statement object (hashed by identity) followed by the
        binding values and answer mode.
        """
        with self.lock:
            try:
                hit = self._results.get(key)
            except TypeError:  # unhashable binding values: compute uncached
                return compute()
            if hit is not None:
                return hit
            value = compute()
            if len(self._results) >= _RESULT_CACHE_LIMIT:
                self._results.clear()
            self._results[key] = value
            return value

    def _apply_changes(
        self, deltas: Iterable[tuple[str, ZSet]], version: int
    ) -> int:
        """Patch a standing replica forward; return the rows changed.

        ``deltas`` are ``(relation, Z-set)`` pairs in log order, each
        replayed with :func:`~repro.storage.zset.apply_zset` — bulk
        inserts and deletes that patch every materialized index in place.
        The result cache is dropped and :attr:`version` moves to
        ``version``, all under :attr:`lock`.  Only the snapshot's owner
        calls this, and never on a snapshot it has handed out as
        immutable.
        """
        changed = 0
        with self.lock:
            relations = self.db._relations
            for name, delta in deltas:
                inserted, deleted = apply_zset(relations[name], delta)
                changed += inserted + deleted
            self._results.clear()
            self.version = version
        return changed

    def __repr__(self) -> str:
        return (
            f"<DatabaseSnapshot v{self.version}: {len(self.names)} "
            f"relations, {self.total_rows()} rows>"
        )


def pin_database(
    source: Database, names: Iterable[str] | None = None
) -> DatabaseSnapshot:
    """Capture a :class:`DatabaseSnapshot` of ``source`` (see
    :meth:`Database.pin <repro.storage.database.Database.pin>`)."""
    return DatabaseSnapshot(source, names)
