"""Unit tests for the database catalog, statistics, and key-value store."""

import pytest

from repro.storage import (
    Database,
    KeyValueStore,
    RelationStore,
    StorageError,
    UnknownRelationError,
    compute_stats,
)


class TestDatabase:
    def test_create_and_access(self):
        db = Database()
        db.create("R", 2, [(1, 2)])
        assert (1, 2) in db["R"]
        assert "R" in db

    def test_create_duplicate_raises(self):
        db = Database()
        db.create("R", 1)
        with pytest.raises(StorageError):
            db.create("R", 1)

    def test_ensure_creates_or_checks_arity(self):
        db = Database()
        db.ensure("R", 2)
        db.ensure("R", 2)
        with pytest.raises(StorageError):
            db.ensure("R", 3)

    def test_unknown_relation_raises(self):
        db = Database()
        with pytest.raises(UnknownRelationError):
            db["missing"]

    def test_drop(self):
        db = Database()
        db.create("R", 1, [(1,), (2,)])
        db["R"].clear()
        db["R"].insert((7,))
        assert db.drop("R") is True
        assert db.drop("R") is False
        # A re-created relation starts empty: nothing survives the drop.
        db.create("R", 1).insert((8,))
        assert db.snapshot() == {"R": frozenset({(8,)})}

    def test_total_rows(self):
        db = Database()
        db.create("R", 1, [(1,), (2,)])
        db.create("S", 1, [(3,)])
        assert db.total_rows() == 3

    def test_snapshot_restore_roundtrip(self):
        db = Database()
        db.create("R", 1, [(1,)])
        snap = db.snapshot()
        db.insert("R", (2,))
        db.create("S", 1, [(9,)])
        db.restore(snap)
        assert db["R"].rows() == {(1,)}
        assert db["S"].rows() == frozenset()  # absent from snapshot: emptied

    def test_copy_is_deep(self):
        db = Database()
        db.create("R", 1, [(1,)])
        clone = db.copy()
        clone.insert("R", (2,))
        assert (2,) not in db["R"]

    def test_relation_names_sorted(self):
        db = Database()
        db.create("B", 1)
        db.create("A", 1)
        assert db.relation_names() == ("A", "B")


class TestStats:
    def test_compute_stats_cardinality_and_ndv(self):
        db = Database()
        db.create("R", 2, [(1, "x"), (1, "y"), (2, "x")])
        stats = db.stats_for("R")
        assert stats.cardinality == 3
        assert stats.distinct == (2, 2)

    def test_fanout_estimates(self):
        db = Database()
        db.create("R", 2, [(i, i % 2) for i in range(10)])
        stats = db.stats_for("R")
        assert stats.fanout((0,)) == pytest.approx(1.0)
        assert stats.fanout((1,)) == pytest.approx(5.0)
        assert stats.fanout(()) == pytest.approx(10.0)

    def test_stats_cache_tracks_versions(self):
        db = Database()
        db.create("R", 1, [(1,)])
        assert db.stats_for("R").cardinality == 1
        db.insert("R", (2,))
        assert db.stats_for("R").cardinality == 2

    def test_empty_relation_selectivity_zero(self):
        db = Database()
        db.create("R", 2)
        stats = db.stats_for("R")
        assert stats.selectivity((0,)) == 0.0

    def test_zero_arity_stats(self):
        from repro.storage.instance import Instance

        stats = compute_stats(Instance("N", 0, [()]))
        assert stats.cardinality == 1
        assert stats.distinct == ()


class TestKeyValueStore:
    def test_put_get_delete(self):
        kv = KeyValueStore()
        kv.put("b1", "k", 42)
        assert kv.get("b1", "k") == 42
        assert kv.get("b1", "nope", "dflt") == "dflt"
        assert kv.get("nobucket", "k", "dflt") == "dflt"
        assert kv.delete("b1", "k") is True
        assert kv.delete("b1", "k") is False

    def test_cursor_ordered(self):
        kv = KeyValueStore()
        for key in [3, 1, 2]:
            kv.put("b", key, key)
        assert [k for k, _ in kv.cursor("b")] == [1, 2, 3]
        assert list(kv.cursor("missing")) == []

    def test_bucket_names_and_drop(self):
        kv = KeyValueStore()
        kv.put("x", 1, 1)
        kv.put("a", 1, 1)
        assert kv.bucket_names() == ("a", "x")
        assert kv.drop("x") is True
        assert kv.bucket_names() == ("a",)


class TestRelationStore:
    def test_insert_scan_contains(self):
        rs = RelationStore()
        assert rs.insert("R", (1, "a")) is True
        assert rs.insert("R", (1, "a")) is False
        assert rs.contains("R", (1, "a"))
        assert not rs.contains("R", (2, "b"))
        assert list(rs.scan("R")) == [(1, "a")]
        assert rs.count("R") == 1

    def test_heterogeneous_rows_coexist(self):
        rs = RelationStore()
        rs.insert_many("R", [(1,), ("1",), (None,)])
        assert rs.count("R") == 3
        assert rs.contains("R", ("1",))
        assert rs.delete("R", (1,)) is True
        assert rs.count("R") == 2
