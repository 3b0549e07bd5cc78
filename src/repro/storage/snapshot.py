"""Version-pinned database snapshots: the serving tier's read isolation.

A :class:`DatabaseSnapshot` is an immutable copy of selected relations of
a live :class:`~repro.storage.database.Database`, pinned at the database's
O(1) ``version`` counter (the PR 4 dirty-bit).  It is the storage half of
the snapshot-isolation rule the serving tier (:mod:`repro.serve`) builds
on:

* **capture happens at a quiescent point** — the serving tier copies only
  between exchanges (copy-on-publish), so a snapshot always holds a
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
  still build lazily; :attr:`lock` serializes executions so concurrent
  reader threads cannot race on that lazy build.

Snapshots also carry a small result cache: the serving tier executes the
same prepared statements against the same snapshot over and over, and a
snapshot's contents by construction never change, so cached answers need
no invalidation token at all.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable

from .database import Database
from .instance import Instance

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

_RESULT_CACHE_LIMIT = 4096
"""Cached answer entries per snapshot before wholesale clearing."""


class DatabaseSnapshot:
    """An immutable, version-pinned copy of selected relations.

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
        snapshot = Database(index_policy=source.index_policy)
        selected = (
            source.relation_names() if names is None else tuple(names)
        )
        for name in selected:
            instance = source.get(name)
            if instance is None:
                continue
            copied = instance.copy()
            # Registered directly: the copies are never mutated, so they
            # need none of attach()'s watcher and deferral-scope wiring.
            snapshot._relations[name] = copied
        self.db = snapshot
        self.version = source.version
        self.names = tuple(snapshot.relation_names())
        #: Serializes executions against this snapshot.  Copies are never
        #: row-mutated, but a probe of a never-indexed column subset still
        #: builds its index lazily; the lock makes that build (and the
        #: result-cache fill) safe under multiple reader threads.
        self.lock = threading.RLock()
        self._results: dict[tuple, object] = {}

    def instance(self, name: str) -> Instance | None:
        """The pinned copy of relation ``name`` (None if not captured)."""
        return self.db.get(name)

    def total_rows(self) -> int:
        return self.db.total_rows()

    def cached(self, key: tuple, compute: Callable[[], object]) -> object:
        """Serve ``key`` from the snapshot's result cache, else compute.

        The computation runs under :attr:`lock`; because the snapshot's
        contents never change, entries never need invalidation.  ``key``
        conventionally starts with the prepared statement object (hashed
        by identity) followed by the binding values and answer mode.
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
