"""Checkpointing databases into the sqlite checkpoint store.

ORCHESTRA persists peer instances and provenance tables in auxiliary storage
(Berkeley DB for the Tukwila backend — Section 5: "Auxiliary storage holds
and indexes provenance tables for peer instances"; "Between update exchange
operations, it maintains copies of all relations, enabling future operations
to be incremental").  This module provides that persistence for the
reproduction: a :class:`~repro.storage.database.Database` is checkpointed
into a :class:`~repro.storage.sqlite.SQLiteStore` — on disk for a durable
node, ``:memory:`` by default — and restored later, preserving labeled
nulls.

The representation: one bucket per relation holding (row-key -> row), a
catalog bucket recording relation arities, an index bucket recording each
relation's materialized index definitions, and a meta bucket that older
checkpoints used for database-level settings (``checkpoint`` still wipes
it; ``restore`` ignores what it holds, such as a legacy ``index_policy``).
``restore`` mirrors the checkpoint *exactly*: relations present in the
target database but absent from the catalog are dropped (the restore-side
twin of ``checkpoint``'s stale-bucket wipe), and recorded indexes are
rebuilt so a recovered instance probes the same access paths the
checkpointed one did.
"""

from __future__ import annotations

from .database import Database
from .instance import Row, StorageError
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


def checkpoint(db: Database, store: SQLiteStore | None = None) -> SQLiteStore:
    """Write a full copy of ``db`` into ``store`` (a fresh ``:memory:``
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


def restore(store: SQLiteStore, into: Database | None = None) -> Database:
    """Rebuild a database from a checkpoint.

    When ``into`` is given, relations are created/verified there (useful for
    loading a checkpoint into a freshly configured exchange system) and
    relations ``into`` holds that the checkpoint catalog does not are
    dropped, so the result mirrors the checkpoint exactly; otherwise a new
    database is returned.  Recorded index definitions are rebuilt on every
    restored relation.
    """
    names = [name for name, _ in store.cursor(CATALOG_BUCKET)]
    if not names:
        raise StorageError("store contains no checkpoint catalog")
    db = into if into is not None else Database()
    for name in names:
        arity = store.get(CATALOG_BUCKET, name)
        if not isinstance(name, str) or not isinstance(arity, int):
            raise StorageError(
                f"corrupt checkpoint catalog entry: {name!r} -> {arity!r}"
            )
        instance = db.ensure(name, arity)
        instance.clear()
        instance.insert_many(store.values(DATA_PREFIX + name))  # type: ignore[arg-type]
        for columns in store.get(INDEX_BUCKET, name, ()) or ():
            instance.ensure_index(tuple(int(c) for c in columns))
    catalog = set(names)
    for name in db.relation_names():
        if name not in catalog:
            db.drop(name)
    return db


def checkpoint_equal(db: Database, store: SQLiteStore) -> bool:
    """True iff ``store`` holds exactly the contents of ``db``."""
    names = {name for name, _ in store.cursor(CATALOG_BUCKET)}
    if names != set(db.relation_names()):
        return False
    for instance in db:
        bucket = DATA_PREFIX + instance.name
        if store.size(bucket) != len(instance):
            return False
        for _, row in store.cursor(bucket):
            if row not in instance:  # type: ignore[operator]
                return False
    return True
