"""The checkpoint store: sqlite3 buckets, one table per relation bucket.

This is the reproduction's stand-in for the paper's Berkeley DB auxiliary
storage (Section 5), and it survives process exit.  Following the
EDB/IDB-over-sqlite3 pattern of ``longlodw/pydatalog`` (SNIPPETS.md
snippet 2), every bucket becomes its own two-column table::

    CREATE TABLE "b<N>" (key TEXT PRIMARY KEY, value TEXT NOT NULL)

with a catalog table mapping bucket names (which may contain characters
sqlite identifiers cannot, e.g. ``rel::R__l``) to their table names.
Keys and values round-trip through the stable encoding of
:mod:`repro.storage.codec`, so labeled nulls — the part of a CDSS
instance a naive ``repr`` store would corrupt — come back as the same
:class:`~repro.datalog.ast.SkolemValue` objects that went in.

Cursor order is the text order of the canonical key encoding: not the
keys' Python order, but deterministic; callers that need a specific
order sort.

One connection serves the whole store.  ``check_same_thread=False`` plus
an internal lock make it safe to open on one thread and use on another
(the serving tier's writer thread), matching how the durable node uses
it; concurrent multi-thread writes are serialized by that lock.
"""

from __future__ import annotations

import sqlite3
import threading
from contextlib import contextmanager
from typing import Iterator

from .codec import dumps_value, key_text, loads_value

_CATALOG_SQL = (
    "CREATE TABLE IF NOT EXISTS __buckets__ ("
    "name TEXT PRIMARY KEY, tbl TEXT NOT NULL)"
)


class SQLiteStore:
    """Named buckets of key -> value pairs in one sqlite3 database.

    ``path`` is a filesystem path (created on first use) or ``":memory:"``
    for an ephemeral store.  Every commit fsyncs (``PRAGMA
    synchronous = FULL``): a committed checkpoint survives power loss.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        self._conn.execute("PRAGMA synchronous = FULL")
        self._conn.execute(_CATALOG_SQL)
        self._reload_catalog()
        self._counter = len(self._tables)
        self._depth = 0
        self._closed = False

    # -- bucket management -------------------------------------------------

    def _table(self, bucket: str, create: bool) -> str | None:
        tbl = self._tables.get(bucket)
        if tbl is not None or not create:
            return tbl
        self._counter += 1
        tbl = f"b{self._counter}"
        # After a drop, a reopened store counts fewer live tables than the
        # highest table number it holds.
        while tbl in self._tables.values():
            self._counter += 1
            tbl = f"b{self._counter}"
        self._conn.execute(
            f'CREATE TABLE "{tbl}" (key TEXT PRIMARY KEY, value TEXT NOT NULL)'
        )
        self._conn.execute(
            "INSERT INTO __buckets__ (name, tbl) VALUES (?, ?)", (bucket, tbl)
        )
        self._tables[bucket] = tbl
        return tbl

    def bucket_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._tables))

    def drop(self, bucket: str) -> bool:
        with self._lock:
            tbl = self._tables.pop(bucket, None)
            if tbl is None:
                return False
            self._conn.execute(f'DROP TABLE "{tbl}"')
            self._conn.execute(
                "DELETE FROM __buckets__ WHERE name = ?", (bucket,)
            )
            return True

    # -- key/value operations ----------------------------------------------

    def put(self, bucket: str, key: object, value: object) -> None:
        with self._lock:
            tbl = self._table(bucket, create=True)
            self._conn.execute(
                f'INSERT OR REPLACE INTO "{tbl}" (key, value) VALUES (?, ?)',
                (key_text(key), dumps_value(value)),
            )

    def get(self, bucket: str, key: object, default: object = None) -> object:
        with self._lock:
            tbl = self._tables.get(bucket)
            if tbl is None:
                return default
            row = self._conn.execute(
                f'SELECT value FROM "{tbl}" WHERE key = ?', (key_text(key),)
            ).fetchone()
        return default if row is None else loads_value(row[0])

    def cursor(self, bucket: str) -> Iterator[tuple[object, object]]:
        """All ``(key, value)`` pairs of ``bucket``, in key-text order."""
        with self._lock:
            tbl = self._tables.get(bucket)
            if tbl is None:
                return iter(())
            # Materialize under the lock: the caller may interleave writes
            # with iteration, and sqlite cursors do not like that.
            rows = self._conn.execute(
                f'SELECT key, value FROM "{tbl}" ORDER BY key'
            ).fetchall()
        return iter(
            [(loads_value(k), loads_value(v)) for k, v in rows]
        )

    def values(self, bucket: str) -> Iterator[object]:
        """Values in cursor (key-text) order, skipping key decode.

        Recovery restores whole buckets and never looks at the keys;
        decoding them anyway roughly doubled restore time.
        """
        with self._lock:
            tbl = self._tables.get(bucket)
            if tbl is None:
                return iter(())
            rows = self._conn.execute(
                f'SELECT value FROM "{tbl}" ORDER BY key'
            ).fetchall()
        return iter([loads_value(v) for (v,) in rows])

    def size(self, bucket: str) -> int:
        with self._lock:
            tbl = self._tables.get(bucket)
            if tbl is None:
                return 0
            return self._conn.execute(
                f'SELECT COUNT(*) FROM "{tbl}"'
            ).fetchone()[0]

    # -- durability --------------------------------------------------------

    @contextmanager
    def transaction(self):
        """All-or-nothing visibility for the enclosed writes.

        Nested scopes join the outermost transaction (sqlite has no real
        nesting and the checkpoint path only ever needs one level).
        """
        with self._lock:
            outer = self._depth == 0
            if outer:
                self._conn.execute("BEGIN IMMEDIATE")
            self._depth += 1
            try:
                yield self
            except BaseException:
                self._depth -= 1
                if outer:
                    self._conn.execute("ROLLBACK")
                    # The catalog cache may now disagree with disk.
                    self._reload_catalog()
                raise
            else:
                self._depth -= 1
                if outer:
                    self._conn.execute("COMMIT")

    def _reload_catalog(self) -> None:
        self._tables: dict[str, str] = {
            name: tbl
            for name, tbl in self._conn.execute(
                "SELECT name, tbl FROM __buckets__"
            )
        }

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __repr__(self) -> str:
        return f"<SQLiteStore {self.path}: {len(self._tables)} buckets>"
