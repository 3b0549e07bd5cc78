"""Checkpointing databases into the sqlite checkpoint store.

ORCHESTRA persists peer instances and provenance tables in auxiliary storage
(Berkeley DB for the Tukwila backend — Section 5: "Auxiliary storage holds
and indexes provenance tables for peer instances"; "Between update exchange
operations, it maintains copies of all relations, enabling future operations
to be incremental").  This module provides that persistence for the
reproduction: a :class:`~repro.storage.database.Database` is checkpointed
into a :class:`~repro.storage.sqlite.SQLiteStore` — on disk for a durable
node, ``:memory:`` by default — and restored later, preserving labeled
nulls.  ``checkpoint`` also takes any subset of a database's instances:
the durable node writes only the input relations (``R__l`` / ``R__r``)
and derives the rest on restart.

The representation: one bucket per relation holding (row-key -> row), a
catalog bucket recording relation arities, an index bucket recording each
relation's materialized index definitions, and a meta bucket that older
checkpoints used for database-level settings (``checkpoint`` still wipes
it; ``restore`` ignores what it holds, such as a legacy ``index_policy``).
``restore`` builds a fresh database that mirrors the checkpoint exactly,
recorded indexes included, so a recovered instance probes the same access
paths the checkpointed one did.  A caller loading a checkpoint into a
configured system carries the relations it needs across, as the durable
node does with the input relations.
"""

from __future__ import annotations

from typing import Iterable

from .database import Database
from .instance import Instance, Row, StorageError
from .sqlite import SQLiteStore

CATALOG_BUCKET = "__catalog__"
INDEX_BUCKET = "__indexes__"
META_BUCKET = "__dbmeta__"
DATA_PREFIX = "rel::"

#: Buckets owned by the checkpoint representation (wiped on checkpoint).
_OWN_BUCKETS = (CATALOG_BUCKET, INDEX_BUCKET, META_BUCKET)


def _row_key(row: Row) -> tuple[str, ...]:
    """An order-preserving-enough, totally ordered encoding of a row.

    Heterogeneous Python values are not mutually comparable, so rows are
    keyed by ``(type-tag, repr)`` pairs per column.  Equality is exact, which
    is all set-semantics relation storage needs; ordering is merely *some*
    deterministic total order.
    """
    return tuple(f"{type(v).__name__}:{v!r}" for v in row)


def checkpoint(
    db: Iterable[Instance], store: SQLiteStore | None = None
) -> SQLiteStore:
    """Write a full copy of ``db`` — a :class:`Database`, or any
    collection of its instances — into ``store`` (a fresh ``:memory:``
    store when omitted).

    An existing store is wiped of stale relation buckets first, so the
    result always mirrors ``db`` exactly.  The write runs inside one
    sqlite transaction: a crash mid-checkpoint leaves the previous
    checkpoint intact, never a torn mix.
    """
    if store is None:
        store = SQLiteStore()
    with store.transaction():
        for bucket in store.bucket_names():
            if bucket.startswith(DATA_PREFIX) or bucket in _OWN_BUCKETS:
                store.drop(bucket)
        for instance in db:
            store.put(CATALOG_BUCKET, instance.name, instance.arity)
            indexed = instance.indexed_columns()
            if indexed:
                store.put(
                    INDEX_BUCKET,
                    instance.name,
                    [list(cols) for cols in sorted(indexed)],
                )
            bucket = DATA_PREFIX + instance.name
            for row in instance:
                store.put(bucket, _row_key(row), row)
    return store


def restore(store: SQLiteStore) -> Database:
    """Rebuild a database from a checkpoint.

    Recorded index definitions are rebuilt on every restored relation.
    """
    names = [name for name, _ in store.cursor(CATALOG_BUCKET)]
    if not names:
        raise StorageError("store contains no checkpoint catalog")
    db = Database()
    for name in names:
        arity = store.get(CATALOG_BUCKET, name)
        if not isinstance(name, str) or not isinstance(arity, int):
            raise StorageError(
                f"corrupt checkpoint catalog entry: {name!r} -> {arity!r}"
            )
        instance = db.ensure(name, arity)
        instance.insert_many(store.values(DATA_PREFIX + name))  # type: ignore[arg-type]
        for columns in store.get(INDEX_BUCKET, name, ()) or ():
            instance.ensure_index(tuple(int(c) for c in columns))
    return db
