"""Tests for the sqlite checkpoint store and the durable value codec.

The store's contract is a plain mapping of buckets to key -> value dicts:
any operation sequence must leave it with the contents a ``dict`` model
holds (cursor *order* is key-text order, only promised to be
deterministic).
"""

import os
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.ast import SkolemValue
from repro.storage import SQLiteStore
from repro.storage.codec import (
    CodecError,
    decode_value,
    dumps_row,
    encode_value,
    key_text,
    loads_row,
)


# -- codec -----------------------------------------------------------------


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -7,
            3.5,
            "",
            "text",
            SkolemValue("f_m3_c", (5,)),
            SkolemValue("f_m1_x", ("a", None)),
            SkolemValue("f_m1_x", (SkolemValue("f_m2_y", (1,)), 2)),
            (1, "a"),
            (1, (2, SkolemValue("f", ()))),
        ],
    )
    def test_value_roundtrip(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value) or isinstance(value, list)

    def test_bool_int_distinction_survives(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert decode_value(encode_value(1)) is not True

    def test_row_roundtrip_is_canonical(self):
        row = (1, SkolemValue("f_m3_c", (5,)), "x")
        text = dumps_row(row)
        assert loads_row(text) == row
        assert dumps_row(loads_row(text)) == text

    def test_equal_rows_equal_bytes(self):
        a = (SkolemValue("f", (1, "a")), 2)
        b = (SkolemValue("f", (1, "a")), 2)
        assert dumps_row(a) == dumps_row(b)

    def test_unencodable_value_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_undecodable_document_raises(self):
        with pytest.raises(CodecError):
            decode_value({"$null": [1, []], "extra": 2})
        with pytest.raises(CodecError):
            decode_value({"$mystery": []})
        with pytest.raises(CodecError):
            decode_value([1, 2])

    def test_key_text_distinguishes_types(self):
        assert key_text(("int:1",)) != key_text(("str:'1'",))
        assert key_text(1) != key_text("1")


# -- sqlite specifics ------------------------------------------------------


class TestSQLiteStore:
    def test_basic_ops(self):
        store = SQLiteStore()
        store.put("b", "k", (1, "x"))
        assert store.get("b", "k") == (1, "x")
        assert store.get("b", "missing", 42) == 42
        assert store.size("b") == 1
        store.put("b", "k", (2, "y"))  # replaces
        assert store.get("b", "k") == (2, "y")
        assert store.size("b") == 1
        assert store.size("missing") == 0

    def test_bucket_names_may_contain_separators(self):
        store = SQLiteStore()
        store.put("rel::R__l", ("k",), (1,))
        store.put("__catalog__", "R__l", 2)
        assert store.bucket_names() == ("__catalog__", "rel::R__l")
        assert store.drop("rel::R__l")
        assert store.bucket_names() == ("__catalog__",)

    def test_labeled_nulls_roundtrip_through_file(self, tmp_path):
        path = str(tmp_path / "state.sqlite3")
        null = SkolemValue("f_m3_c", (5, SkolemValue("g", ("x",))))
        store = SQLiteStore(path)
        store.put("rows", ("key",), (5, null))
        store.close()
        reopened = SQLiteStore(path)
        value = reopened.get("rows", ("key",))
        assert value == (5, null)
        assert isinstance(value[1], SkolemValue)
        reopened.close()

    def test_cursor_is_sorted(self):
        store = SQLiteStore()
        for key in ("b", "a", "c"):
            store.put("x", key, key.upper())
        assert [k for k, _ in store.cursor("x")] == ["a", "b", "c"]
        assert list(store.values("x")) == ["A", "B", "C"]
        assert list(store.cursor("missing")) == []

    def test_transaction_rolls_back_on_error(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = SQLiteStore(path)
        store.put("b", "committed", 1)
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.put("b", "doomed", 2)
                store.put("new_bucket", "k", 3)
                raise RuntimeError("abort")
        assert store.get("b", "committed") == 1
        assert store.get("b", "doomed") is None
        # The rolled-back bucket is gone from the catalog cache too.
        assert "new_bucket" not in store.bucket_names()
        store.put("new_bucket", "k", 4)  # and is recreatable
        assert store.get("new_bucket", "k") == 4
        store.close()

    def test_nested_transactions_join(self):
        store = SQLiteStore()
        with store.transaction():
            store.put("b", "outer", 1)
            with store.transaction():
                store.put("b", "inner", 2)
        assert store.get("b", "outer") == 1
        assert store.get("b", "inner") == 2

    def test_commits_fsync(self):
        store = SQLiteStore()
        assert store._conn.execute("PRAGMA synchronous").fetchone() == (2,)
        store.close()

    def test_close_is_idempotent(self):
        store = SQLiteStore()
        store.close()
        store.close()

    def test_empty_store(self):
        store = SQLiteStore()
        assert store.bucket_names() == ()
        assert store.get("b", "k") is None
        assert store.get("b", "k", "dflt") == "dflt"
        assert store.size("b") == 0
        assert list(store.cursor("b")) == []
        assert list(store.values("b")) == []
        assert store.drop("b") is False
        # Reads never create buckets.
        assert store.bucket_names() == ()

    def test_same_key_in_two_buckets_is_independent(self):
        store = SQLiteStore()
        store.put("b1", "k", 1)
        store.put("b2", "k", 2)
        assert (store.get("b1", "k"), store.get("b2", "k")) == (1, 2)
        assert store.drop("b1")
        assert store.get("b1", "k") is None
        assert store.get("b2", "k") == 2

    def test_keys_of_different_types_stay_distinct(self):
        """Keys equal under Python's ``==`` or alike under ``str`` are
        still different keys: ``1``/``True`` and ``1``/``"1"``."""
        keys = [1, "1", True, None, (1,), ("1",), SkolemValue("f", (1,))]
        store = SQLiteStore()
        for i, key in enumerate(keys):
            store.put("b", key, i)
        assert store.size("b") == len(keys)
        for i, key in enumerate(keys):
            assert store.get("b", key) == i
        got = [key for key, _ in store.cursor("b")]
        assert sorted(map(key_text, got)) == sorted(map(key_text, keys))

    def test_cursor_order_is_key_text_order(self):
        keys = [("int:10",), ("int:9",), ("str:'a'",), "z", "a", 3, -1]
        store = SQLiteStore()
        for key in keys:
            store.put("b", key, key_text(key))
        texts = [value for _, value in store.cursor("b")]
        assert texts == sorted(key_text(key) for key in keys)

    def test_drop_then_recreate_starts_empty(self):
        store = SQLiteStore()
        store.put("b", "old", 1)
        assert store.drop("b")
        store.put("b", "new", 2)
        assert dict(store.cursor("b")) == {"new": 2}

    def test_reopen_keeps_buckets_and_accepts_new_ones(self, tmp_path):
        """A reopened store whose catalog lost a bucket to ``drop`` still
        names new tables without colliding with the surviving ones."""
        path = str(tmp_path / "s.db")
        store = SQLiteStore(path)
        store.put("gone", "k", 0)
        store.put("kept", "k", 1)
        assert store.drop("gone")
        store.close()
        store = SQLiteStore(path)
        assert store.bucket_names() == ("kept",)
        store.put("fresh", "k", 2)
        assert store.get("kept", "k") == 1
        store.close()
        store = SQLiteStore(path)
        assert store.bucket_names() == ("fresh", "kept")
        assert (store.get("fresh", "k"), store.get("kept", "k")) == (2, 1)
        store.close()

    def test_committed_transaction_survives_reopen(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = SQLiteStore(path)
        with store.transaction():
            store.put("b", "k", (1, "x"))
            store.put("c", "k", 2)
        store.close()
        store = SQLiteStore(path)
        assert store.get("b", "k") == (1, "x")
        assert store.get("c", "k") == 2
        store.close()

    def test_rollback_restores_overwritten_value(self):
        store = SQLiteStore()
        store.put("b", "k", "before")
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.put("b", "k", "after")
                assert store.get("b", "k") == "after"
                raise RuntimeError("abort")
        assert store.get("b", "k") == "before"

    def test_rollback_restores_dropped_bucket(self):
        store = SQLiteStore()
        store.put("b", "k", 1)
        with pytest.raises(RuntimeError):
            with store.transaction():
                assert store.drop("b")
                raise RuntimeError("abort")
        assert store.bucket_names() == ("b",)
        assert store.get("b", "k") == 1
        store.put("b", "k2", 2)  # the catalog cache points at a live table
        assert store.size("b") == 2

    def test_usable_from_another_thread(self):
        store = SQLiteStore()
        store.put("b", "main", 1)
        errors: list[BaseException] = []

        def work():
            try:
                store.put("b", "worker", 2)
                assert store.get("b", "main") == 1
            except BaseException as exc:  # pragma: no cover - reported below
                errors.append(exc)

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and errors == []
        assert dict(store.cursor("b")) == {"main": 1, "worker": 2}
        store.close()

    def test_concurrent_writers_are_serialized(self):
        store = SQLiteStore()

        def work(tag):
            for i in range(50):
                store.put("b", f"{tag}:{i}", i)

        workers = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        assert store.size("b") == 200
        assert store.get("b", "3:49") == 49
        store.close()

    def test_cursor_tolerates_writes_during_iteration(self):
        store = SQLiteStore()
        for i in range(5):
            store.put("b", i, i)
        seen = []
        for key, value in store.cursor("b"):
            seen.append(key)
            store.put("b", key + 100, value)
            store.drop("other")
        assert sorted(seen) == [0, 1, 2, 3, 4]
        assert store.size("b") == 10

    def test_large_bucket_through_file(self, tmp_path):
        path = str(tmp_path / "s.db")
        store = SQLiteStore(path)
        with store.transaction():
            for i in range(1000):
                store.put("b", (f"int:{i}",), (i, SkolemValue("f", (i,))))
        store.close()
        store = SQLiteStore(path)
        assert store.size("b") == 1000
        rows = list(store.values("b"))
        assert sorted(rows, key=lambda r: r[0]) == [
            (i, SkolemValue("f", (i,))) for i in range(1000)
        ]
        assert [key for key, _ in store.cursor("b")] == sorted(
            ((f"int:{i}",) for i in range(1000)), key=key_text
        )
        store.close()

    def test_repr_names_path_and_bucket_count(self):
        store = SQLiteStore()
        store.put("a", "k", 1)
        store.put("b", "k", 1)
        assert repr(store) == "<SQLiteStore :memory:: 2 buckets>"


# -- store against a dict model (property) ---------------------------------

_keys = st.tuples(st.sampled_from(["int:1", "int:2", "str:'a'", "str:'b'"]))
_rows = st.tuples(
    st.integers(-3, 3),
    st.one_of(
        st.text(max_size=2),
        st.booleans(),
        st.none(),
        st.builds(
            SkolemValue,
            st.sampled_from(["f_m1_c", "f_m3_x"]),
            st.tuples(st.integers(0, 3)),
        ),
    ),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(["b1", "b2"]), _keys, _rows),
        st.tuples(st.just("drop"), st.sampled_from(["b1", "b2"])),
    ),
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_property_backend_parity(ops):
    """Any op sequence leaves the store holding what a dict model holds."""
    model: dict[str, dict] = {}
    store = SQLiteStore()
    for op in ops:
        if op[0] == "put":
            _, bucket, key, row = op
            model.setdefault(bucket, {})[key] = row
            store.put(bucket, key, row)
        else:
            _, bucket = op
            assert store.drop(bucket) == (model.pop(bucket, None) is not None)
    assert store.bucket_names() == tuple(sorted(model))
    for bucket, contents in model.items():
        assert store.size(bucket) == len(contents)
        assert dict(store.cursor(bucket)) == contents
        for key, row in contents.items():
            assert store.get(bucket, key) == row
        # values() is cursor order minus the keys.
        values = [value for _, value in store.cursor(bucket)]
        assert list(store.values(bucket)) == values
    store.close()


@settings(max_examples=20, deadline=None)
@given(ops=_ops)
def test_property_reopen_parity(ops):
    """A file-backed store, closed and reopened after any op sequence,
    holds what a dict model holds."""
    model: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.db")
        store = SQLiteStore(path)
        for op in ops:
            if op[0] == "put":
                _, bucket, key, row = op
                model.setdefault(bucket, {})[key] = row
                store.put(bucket, key, row)
            else:
                _, bucket = op
                model.pop(bucket, None)
                store.drop(bucket)
        store.close()
        store = SQLiteStore(path)
        assert store.bucket_names() == tuple(sorted(model))
        for bucket, contents in model.items():
            assert dict(store.cursor(bucket)) == contents
        store.close()
