"""Unit tests for repro.storage.instance."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from index_timing import INDEX_TIMINGS, declare_indexes
from repro.storage.instance import ArityError, Instance


class TestInsertDelete:
    def test_insert_new_row_returns_true(self):
        inst = Instance("R", 2)
        assert inst.insert((1, 2)) is True
        assert (1, 2) in inst

    def test_insert_duplicate_returns_false(self):
        inst = Instance("R", 2, [(1, 2)])
        assert inst.insert((1, 2)) is False
        assert len(inst) == 1

    def test_insert_list_normalized_to_tuple(self):
        inst = Instance("R", 2)
        inst.insert([1, 2])
        assert (1, 2) in inst

    def test_insert_wrong_arity_raises(self):
        inst = Instance("R", 2)
        with pytest.raises(ArityError):
            inst.insert((1, 2, 3))

    def test_delete_present_row(self):
        inst = Instance("R", 2, [(1, 2), (3, 4)])
        assert inst.delete((1, 2)) is True
        assert (1, 2) not in inst
        assert len(inst) == 1

    def test_delete_absent_row_returns_false(self):
        inst = Instance("R", 2)
        assert inst.delete((1, 2)) is False

    def test_insert_many_counts_new_rows_only(self):
        inst = Instance("R", 1, [(1,)])
        assert inst.insert_many([(1,), (2,), (3,)]) == 2
        # insert_new returns the effective rows (in no particular order),
        # without rows already present or repeated within the batch.
        assert inst.insert_new([[4], (3,), (5,), (4,)]) == {(4,), (5,)}
        assert not inst.insert_new([(1,), (5,)])

    def test_delete_many_counts_removed_rows_only(self):
        inst = Instance("R", 1, [(1,), (2,)])
        assert inst.delete_many([(1,), (9,)]) == 1
        # delete_existing returns the effective rows (in no particular
        # order): absent and repeated rows drop out, so the result is
        # exactly what left the relation.
        inst.insert_many([(3,), (4,)])
        assert inst.delete_existing([[4], (9,), (2,), (4,)]) == {(4,), (2,)}
        assert not inst.delete_existing([(2,)])
        assert set(inst) == {(3,)}

    def test_version_bumps_on_mutation(self):
        inst = Instance("R", 1)
        v0 = inst.version
        inst.insert((1,))
        assert inst.version > v0
        v1 = inst.version
        inst.insert((1,))  # duplicate: no change
        assert inst.version == v1

    def test_clear_and_replace(self):
        inst = Instance("R", 1, [(1,), (2,)])
        inst.replace_contents([(5,)])
        assert set(inst) == {(5,)}
        inst.clear()
        assert len(inst) == 0


class TestInsertNew:
    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_batch_duplicates_and_list_rows(self, timing):
        inst = Instance("R", 3, [(1, "a", 10)])
        declare_indexes(inst, timing, [0], [1, 2])
        fresh = inst.insert_new(
            [[2, "b", 20], (2, "b", 20), (1, "a", 10), [3, "b", 20]]
        )
        assert fresh == {(2, "b", 20), (3, "b", 20)}
        assert len(inst) == 3
        assert set(inst.lookup([1, 2], ("b", 20))) == fresh
        assert set(inst.lookup([0], (3,))) == {(3, "b", 20)}

    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_arity_error_mid_batch_changes_nothing(self, timing):
        inst = Instance("R", 3, [(1, "a", 10)])
        declare_indexes(inst, timing, [0], [1, 2])
        version = inst.version
        with pytest.raises(ArityError):
            inst.insert_new([(4, "d", 40), (5, "e"), [6, "f", 60]])
        assert inst.rows() == {(1, "a", 10)}
        assert inst.version == version
        assert not inst.lookup([0], (4,))
        assert not inst.lookup([1, 2], ("f", 60))


class TestBulkConstruction:
    """``Instance(name, arity, rows)`` fills itself through ``insert_new``,
    and a ``set`` of rows is read in place, never kept or changed."""

    ROWS = [(1, "a"), (2, "b"), (1, "a"), (3, "b")]

    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    @pytest.mark.parametrize("kind", [set, list, iter])
    def test_construction_equals_per_row_insertion(self, timing, kind):
        built = Instance("R", 2, kind(self.ROWS))
        by_row = Instance("R", 2)
        declare_indexes(built, timing, [0], [1])
        declare_indexes(by_row, timing, [0], [1])
        for row in self.ROWS:
            by_row.insert(row)
        assert built.rows() == by_row.rows() == {(1, "a"), (2, "b"), (3, "b")}
        assert built.version == 1
        for columns in ([0], [1]):
            for row in self.ROWS:
                key = tuple(row[c] for c in columns)
                assert set(built.lookup(columns, key)) == set(
                    by_row.lookup(columns, key)
                )
        assert built.index_key_count([1]) == by_row.index_key_count([1]) == 2
        assert Instance("R", 2, kind([])).version == 0

    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_bad_arity_row_stores_nothing(self, timing):
        with pytest.raises(ArityError):
            Instance("R", 2, {(1, "a"), (2,)})
        inst = Instance("R", 2, [(1, "a")])
        declare_indexes(inst, timing, [1])
        with pytest.raises(ArityError):
            inst.insert_new({(4, "d"), (5, "e", 0)})
        assert inst.rows() == {(1, "a")}
        assert inst.version == 1
        assert not inst.lookup([1], ("d",))

    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_caller_sets_are_not_aliased_or_mutated(self, timing):
        rows = {(1, "a"), (2, "b")}
        inst = Instance("R", 2, rows)
        declare_indexes(inst, timing, [1])
        inst.insert((3, "c"))
        rows.add((9, "z"))
        assert rows == {(1, "a"), (2, "b"), (9, "z")}
        assert inst.rows() == {(1, "a"), (2, "b"), (3, "c")}

        batch = {(2, "b"), (4, "d")}
        # Into an empty instance every row is fresh: still a new set.
        fresh = Instance("R", 2).insert_new(batch)
        assert fresh == batch and fresh is not batch
        fresh = inst.insert_new(batch)
        assert fresh == {(4, "d")} and fresh is not batch
        assert batch == {(2, "b"), (4, "d")}
        fresh.add((8, "y"))
        inst.delete((4, "d"))
        assert batch == {(2, "b"), (4, "d")}
        assert (8, "y") not in inst

        for replacement in ({(1, "a"), (5, "e")}, {(6, "f")}):
            expected = set(replacement)
            inst.replace_contents(replacement)
            assert replacement == expected
            inst.insert((7, "g"))
            assert replacement == expected
            assert inst.rows() == expected | {(7, "g")}
            assert set(inst.lookup([1], ("g",))) == {(7, "g")}


class TestDeleteExisting:
    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_duplicates_and_absent_rows_leave_state_exact(self, timing):
        rows = {(1, "a", 10), (1, "b", 20), (2, "a", 10), (3, "c", 30)}
        inst = Instance("R", 3, rows)
        declare_indexes(inst, timing, [0], [1, 2])
        version = inst.version
        gone = inst.delete_existing(
            [(1, "a", 10), [1, "a", 10], (9, "z", 0), (2, "a", 10)]
        )
        assert gone == {(1, "a", 10), (2, "a", 10)}
        assert inst.version == version + 1
        # Nothing present: no mutation, no version bump.
        assert not inst.delete_existing([(9, "z", 0), (1, "a", 10)])
        assert inst.version == version + 1
        assert set(inst.lookup([1, 2], ("a", 10))) == set()
        assert inst.rows() == rows - gone
        assert set(inst.lookup([0], (1,))) == {(1, "b", 20)}
        assert not inst.lookup([0], (2,))
        assert inst.index_key_count([0]) == 2
        assert inst.index_key_count([1, 2]) == 2


ROWS = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    max_size=20,
)


class TestSetProbes:
    """``matching`` / ``keys_present`` against a brute-force filter, on
    single-column, multi-column and full-width columns, after a delete run
    and an insert run: with the probed index patched by both, or built
    from the rows they left."""

    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    @pytest.mark.parametrize("columns", [(1,), (2, 0), (0, 1, 2)])
    @settings(max_examples=40, deadline=None)
    @given(
        rows=ROWS,
        deleted=ROWS,
        keys=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
        ),
    )
    def test_matches_brute_force(self, timing, columns, rows, deleted, keys):
        inst = Instance("R", 3, rows)
        declare_indexes(inst, timing, columns, [0])
        keys = {key[: len(columns)] for key in keys}
        inst.delete_existing(deleted)
        inst.insert_new(deleted - rows)
        live = (rows - deleted) | (deleted - rows)

        def project(row):
            return tuple(row[c] for c in columns)

        assert inst.matching(columns, keys) == {
            row for row in live if project(row) in keys
        }
        assert inst.keys_present(columns, keys) == {
            key for key in keys if any(project(r) == key for r in live)
        }
        assert set(inst) == live


class TestFullWidthProbe:
    def test_membership_probe_matches_index_and_builds_none(self):
        rows = [(1, "a", 10), (1, "b", 20), (2, "a", 10)]
        inst = Instance("R", 3, rows)
        for probe in rows + [(9, "z", 0)]:
            answer = set(inst.lookup((0, 1, 2), probe))
            assert (0, 1, 2) not in inst.indexed_columns()
            # The same question through a (permuted) materialized index.
            indexed = set(inst.lookup((2, 1, 0), probe[::-1]))
            assert answer == indexed == ({probe} & set(rows))
        assert inst.indexed_columns() == ((2, 1, 0),)

    def test_exchange_builds_no_full_width_index(self):
        from repro import CDSS

        cdss = CDSS()
        cdss.add_peer("P", {"R": ("k", "v")})
        cdss.add_peer("Q", {"S": ("k", "v")})
        cdss.add_mapping("m", "R(k, v) -> S(k, v)")
        with cdss.batch() as tx:
            tx.insert("R", (1, 2))
            tx.insert("R", (3, 4))
        cdss.update_exchange()
        with cdss.batch() as tx:
            tx.delete("R", (1, 2))
        cdss.update_exchange()
        assert cdss.relation("S").to_rows() == {(3, 4)}
        for inst in cdss.system().db:
            assert tuple(range(inst.arity)) not in inst.indexed_columns()


class TestIndexes:
    def test_lookup_builds_index_and_finds_rows(self):
        inst = Instance("R", 3, [(1, "a", 10), (1, "b", 20), (2, "a", 30)])
        assert inst.lookup([0], (1,)) == {(1, "a", 10), (1, "b", 20)}
        assert inst.lookup([0, 1], (1, "b")) == {(1, "b", 20)}

    def test_lookup_missing_key_returns_empty(self):
        inst = Instance("R", 2, [(1, 2)])
        assert inst.lookup([0], (99,)) == frozenset()

    def test_lookup_no_columns_returns_all(self):
        inst = Instance("R", 2, [(1, 2), (3, 4)])
        assert inst.lookup([], ()) == {(1, 2), (3, 4)}

    def test_index_maintained_after_insert(self):
        inst = Instance("R", 2, [(1, 2)])
        inst.ensure_index([0])
        inst.insert((1, 3))
        assert inst.lookup([0], (1,)) == {(1, 2), (1, 3)}

    def test_index_maintained_after_delete(self):
        inst = Instance("R", 2, [(1, 2), (1, 3)])
        inst.ensure_index([0])
        inst.delete((1, 2))
        assert inst.lookup([0], (1,)) == {(1, 3)}

    def test_index_bucket_removed_when_empty(self):
        inst = Instance("R", 2, [(1, 2)])
        inst.ensure_index([0])
        inst.delete((1, 2))
        assert inst.lookup([0], (1,)) == frozenset()
        assert inst.index_key_count([0]) == 0

    def test_index_out_of_range_column_raises(self):
        inst = Instance("R", 2)
        with pytest.raises(Exception):
            inst.ensure_index([5])

    def test_indexed_columns_reporting(self):
        inst = Instance("R", 2, [(1, 2)])
        inst.ensure_index([1])
        assert (1,) in inst.indexed_columns()


class TestBulkHelpers:
    def test_select(self):
        inst = Instance("R", 2, [(1, 2), (3, 4)])
        assert inst.select(lambda r: r[0] > 1) == {(3, 4)}

    def test_project(self):
        inst = Instance("R", 2, [(1, 2), (1, 3)])
        assert inst.project([0]) == {(1,)}

    def test_copy_is_independent(self):
        inst = Instance("R", 1, [(1,)])
        clone = inst.copy()
        clone.insert((2,))
        assert (2,) not in inst

    def test_estimated_bytes_strings_heavier_than_ints(self):
        small = Instance("R", 1, [(7,)])
        big = Instance("R", 1, [("x" * 100,)])
        assert big.estimated_bytes() > small.estimated_bytes()

    def test_rows_snapshot_is_frozen(self):
        inst = Instance("R", 1, [(1,)])
        snap = inst.rows()
        inst.insert((2,))
        assert snap == {(1,)}
