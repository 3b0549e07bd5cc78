"""The storage-backend protocol: named buckets behind one interface.

The paper's Tukwila backend keeps peer instances and provenance tables in
auxiliary Berkeley DB storage; this module is the reproduction's seam for
*row storage*: everything that persists relation contents (checkpointing,
the durable node's on-disk state) talks to a :class:`StorageBackend`, and
the two implementations are

* :class:`~repro.storage.kvstore.KeyValueStore` — the historical
  in-memory B+-tree store (one tree per bucket), and
* :class:`~repro.storage.sqlite.SQLiteStore` — an on-disk sqlite3 store
  (one table per bucket), which survives process exit.

The protocol is the bucket surface the Berkeley-DB-style store always
had — ``put`` / ``get`` / ``delete`` / ``cursor`` / ``size`` / ``drop`` /
``bucket_names`` — plus the two things durability needs: a
:meth:`~StorageBackend.transaction` scope (checkpoints must be atomic:
either the old checkpoint or the new one, never a torn mix) and
:meth:`~StorageBackend.close`.  Both are no-ops for the in-memory store.

Backends may iterate cursors in different (but individually
deterministic) key orders; callers that need a specific order sort.  The
parity contract — same contents in, same contents out, labeled nulls
preserved — is property-tested in ``tests/test_storage_sqlite.py``.
"""

from __future__ import annotations

from typing import Iterator, Protocol, runtime_checkable

BACKEND_MEMORY = "memory"
BACKEND_SQLITE = "sqlite"
BACKENDS = (BACKEND_MEMORY, BACKEND_SQLITE)


@runtime_checkable
class StorageBackend(Protocol):
    """Named, ordered buckets of key -> value pairs."""

    def put(self, bucket: str, key: object, value: object) -> None:
        """Insert or replace ``key`` in ``bucket``."""

    def get(
        self, bucket: str, key: object, default: object = None
    ) -> object:
        """The value under ``key``, or ``default``."""

    def delete(self, bucket: str, key: object) -> bool:
        """Remove ``key``; True iff it was present."""

    def cursor(
        self, bucket: str, low: object = None, high: object = None
    ) -> Iterator[tuple[object, object]]:
        """Iterate ``(key, value)`` pairs in the backend's key order."""

    def values(self, bucket: str) -> Iterator[object]:
        """Iterate values in cursor order, without materializing keys.

        Bulk restore reads whole buckets and never looks at the keys;
        durable backends can skip decoding them (measurably half the
        recovery decode cost).
        """

    def size(self, bucket: str) -> int:
        """Number of keys in ``bucket`` (0 for a missing bucket)."""

    def drop(self, bucket: str) -> bool:
        """Remove a whole bucket; True iff it existed."""

    def bucket_names(self) -> tuple[str, ...]:
        """All bucket names, sorted."""

    def transaction(self):
        """A context manager making the enclosed writes atomic.

        Durable backends must guarantee all-or-nothing visibility after a
        crash; in-memory backends may return a no-op scope.
        """

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""


def open_backend(kind: str, path: str | None = None) -> StorageBackend:
    """Construct a backend by name (``memory`` or ``sqlite``)."""
    from .instance import StorageError

    if kind == BACKEND_MEMORY:
        from .kvstore import KeyValueStore

        return KeyValueStore()
    if kind == BACKEND_SQLITE:
        from .sqlite import SQLiteStore

        return SQLiteStore(path if path is not None else ":memory:")
    raise StorageError(
        f"unknown storage backend {kind!r}; expected one of {BACKENDS}"
    )
