"""Tests for database checkpointing (the auxiliary-storage persistence)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog.ast import SkolemValue
from repro.storage import (
    Database,
    SQLiteStore,
    StorageError,
    checkpoint,
    checkpoint_equal,
    restore,
)
from repro.storage.codec import CodecError
from repro.storage.persistence import META_BUCKET


class TestCheckpointRestore:
    def test_roundtrip(self):
        db = Database()
        db.create("R", 2, [(1, "a"), (2, "b")])
        db.create("S", 1, [(9,)])
        store = checkpoint(db)
        loaded = restore(store)
        assert loaded.snapshot() == db.snapshot()

    def test_labeled_nulls_survive(self):
        db = Database()
        null = SkolemValue("f_m3_c", (5,))
        db.create("U", 2, [(5, null)])
        loaded = restore(checkpoint(db))
        assert (5, null) in loaded["U"]

    def test_on_disk_text_is_pinned(self, tmp_path):
        """The key and value text of one checkpointed row holding a nested
        labeled null, byte for byte: state files written by earlier
        versions must keep recovering."""
        db = Database()
        null = SkolemValue("f_m3_c", (5, SkolemValue("f_m1_x", ("a", None))))
        db.create("U", 2, [(5, null)])
        store = checkpoint(db, SQLiteStore(str(tmp_path / "state.sqlite3")))
        tables = dict(store._conn.execute("SELECT name, tbl FROM __buckets__"))
        assert sorted(tables) == ["__catalog__", "rel::U"]
        rows = store._conn.execute(f'SELECT key, value FROM "{tables["rel::U"]}"')
        assert rows.fetchall() == [
            (
                '{"$tuple":["int:5","SkolemValue:f_m3_c(5, f_m1_x(\'a\', None))"]}',
                '{"$tuple":[5,{"$null":["f_m3_c",[5,{"$null":["f_m1_x",["a",null]]}]]}]}',
            )
        ]
        catalog = store._conn.execute(
            f'SELECT key, value FROM "{tables["__catalog__"]}"'
        )
        assert catalog.fetchall() == [('"U"', "2")]
        store.close()

    def test_checkpoint_survives_reopen(self, tmp_path):
        """A file checkpoint restores from a fresh connection, as a
        durable node's recovery does."""
        path = str(tmp_path / "state.sqlite3")
        db = Database()
        db.create("R", 2, [(1, SkolemValue("f_m3_c", (5,))), (2, "b")])
        db["R"].ensure_index((1,))
        checkpoint(db, SQLiteStore(path)).close()
        store = SQLiteStore(path)
        loaded = restore(store)
        assert loaded.snapshot() == db.snapshot()
        assert loaded["R"].indexed_columns() == ((1,),)
        assert checkpoint_equal(db, store)
        store.close()

    def test_failed_checkpoint_keeps_the_previous_one(self):
        """A checkpoint that fails part way leaves the earlier checkpoint
        whole: the stale-bucket wipe rolls back with the partial write."""
        db = Database()
        db.create("R", 1, [(1,)])
        store = checkpoint(db)
        bad = Database()
        bad.create("R", 1, [(2,)])
        bad.create("S", 1, [(object(),)])  # the codec cannot encode it
        with pytest.raises(CodecError):
            checkpoint(bad, store)
        assert restore(store).snapshot() == db.snapshot()
        assert checkpoint_equal(db, store)

    def test_checkpoint_overwrites_stale_buckets(self):
        db1 = Database()
        db1.create("R", 1, [(1,)])
        db1.create("OLD", 1, [(9,)])
        store = checkpoint(db1)
        db2 = Database()
        db2.create("R", 1, [(2,)])
        checkpoint(db2, store)
        loaded = restore(store)
        assert loaded.relation_names() == ("R",)
        assert loaded["R"].rows() == {(2,)}

    def test_restore_into_existing_database(self):
        db = Database()
        db.create("R", 1, [(1,)])
        store = checkpoint(db)
        target = Database()
        target.create("R", 1, [(5,)])  # stale contents are replaced
        restore(store, into=target)
        assert target["R"].rows() == {(1,)}

    def test_restore_drops_relations_absent_from_catalog(self):
        """The restore-side twin of the stale-bucket wipe: relations the
        target holds that the checkpoint does not must go away."""
        db = Database()
        db.create("R", 1, [(1,)])
        store = checkpoint(db)
        target = Database()
        target.create("R", 1, [(5,)])
        target.create("GONE", 2, [(1, 2)])
        restored = restore(store, into=target)
        assert restored is target
        assert target.relation_names() == ("R",)

    def test_restore_into_keeps_target_policy(self):
        """Restoring into a target keeps the target's own relation
        objects, and an index the target built over its stale rows
        answers from the restored rows only."""
        db = Database()
        db.create("R", 2, [(1, "a")])
        db["R"].ensure_index((1,))
        store = checkpoint(db)
        target = Database()
        stale = target.create("R", 2, [(5, "a"), (6, "b")])
        stale.ensure_index((0,))
        restore(store, into=target)
        assert target["R"] is stale
        assert set(stale.lookup((0,), (5,))) == set()
        assert set(stale.lookup((0,), (1,))) == {(1, "a")}
        assert set(stale.lookup((1,), ("a",))) == {(1, "a")}

    def test_indexes_survive_roundtrip(self):
        db = Database()
        db.create("R", 3, [(1, 2, 3), (4, 5, 6)])
        db["R"].ensure_index((1,))
        db["R"].ensure_index((0, 2))
        db.create("S", 1, [(9,)])  # no indexes
        loaded = restore(checkpoint(db))
        assert set(loaded["R"].indexed_columns()) == {(1,), (0, 2)}
        assert set(loaded["S"].indexed_columns()) == set()

    @pytest.mark.parametrize("policy", ["eager", "deferred"])
    def test_index_policy_survives_roundtrip(self, policy):
        """Checkpoints once recorded ``index_policy`` in the meta bucket.
        A checkpoint carrying either old value restores its rows and
        indexes; checkpoint no longer writes the key."""
        db = Database()
        db.create("R", 1, [(1,)])
        db["R"].ensure_index((0,))
        store = checkpoint(db)
        assert store.get(META_BUCKET, "index_policy") is None
        store.put(META_BUCKET, "index_policy", policy)
        loaded = restore(store)
        assert loaded.snapshot() == db.snapshot()
        assert loaded["R"].indexed_columns() == ((0,),)
        checkpoint(db, store)
        assert store.get(META_BUCKET, "index_policy") is None

    def test_restore_empty_store_raises(self):
        with pytest.raises(StorageError):
            restore(SQLiteStore())

    def test_checkpoint_equal(self):
        db = Database()
        db.create("R", 1, [(1,)])
        store = checkpoint(db)
        assert checkpoint_equal(db, store)
        db.insert("R", (2,))
        assert not checkpoint_equal(db, store)

    def test_exchange_state_roundtrip(self):
        """Checkpoint a full update-exchange state (with provenance tables
        and labeled nulls) and resume incrementally from the restore."""
        from repro.core.editlog import PublishDelta
        from repro.core.exchange import ExchangeSystem
        from repro.schema import (
            InternalSchema,
            PeerSchema,
            RelationSchema,
            SchemaMapping,
        )

        internal = InternalSchema(
            (
                PeerSchema("P1", (RelationSchema("B", ("i", "n")),)),
                PeerSchema("P2", (RelationSchema("U", ("n", "c")),)),
            ),
            (SchemaMapping.parse("m3", "B(i, n) -> exists c . U(n, c)"),),
        )
        system = ExchangeSystem(internal)
        system.db["B__l"].insert((3, 5))
        system.recompute()
        store = checkpoint(system.db)

        resumed = ExchangeSystem(internal)
        restore(store, into=resumed.db)
        assert resumed.is_consistent()
        delta = PublishDelta(local_inserts={"B": {(4, 5)}})
        resumed.apply_delta(delta)
        assert resumed.is_consistent()
        assert len(resumed.instance("U")) == 1  # same null, shared by n=5


#: Column values a CDSS relation can actually hold: scalars plus labeled
#: nulls whose arguments may themselves nest.
_values = st.recursive(
    st.one_of(
        st.integers(-5, 5),
        st.text(max_size=3),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.builds(
        SkolemValue,
        st.sampled_from(["f_m1_c", "f_m3_x"]),
        st.tuples(children),
    ),
    max_leaves=4,
)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.dictionaries(
        st.sampled_from(["R", "S", "T"]),
        st.frozensets(st.tuples(_values, _values), max_size=8),
        max_size=3,
    )
)
@example(rows={"R": frozenset({(1, 1), ("1", "1"), (None, None)})})
def test_property_checkpoint_roundtrip(rows):
    """Heterogeneous rows that compare unequal — ``1`` and ``"1"`` —
    stay distinct rows through the store (the explicit example)."""
    db = Database()
    for name, contents in rows.items():
        db.create(name, 2, contents)
    if not rows:
        return
    store = checkpoint(db)
    loaded = restore(store)
    assert loaded.snapshot() == db.snapshot()
    assert checkpoint_equal(db, store)
