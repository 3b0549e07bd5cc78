"""The shape of an index bucket (storage/instance.py).

A key with one row maps to that row; only a key with two or more rows
maps to a ``set``.  The invariant, not a probe's answer, is what these
tests check:

* under random ``insert``/``insert_new``/``delete``/``delete_existing``/
  ``replace_contents``/``copy``/``clear`` sequences, every materialized
  index equals one rebuilt from ``rows()`` in that representation, no
  ``set`` bucket holds fewer than 2 rows, and a copy shares no ``set``
  with its source;
* after the exchanges of a generated 10-peer integer chain, every
  relation has exactly as many ``set`` buckets as keys with ≥ 2 rows
  (the chain that ``benchmarks/counters.py`` records under ``structure``).
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Instance
from repro.workload import CDSSWorkloadGenerator, WorkloadConfig

#: One-column and multi-column indexes over small domains, so keys with
#: one row and keys with several both occur.
COLUMN_SETS = ((0,), (2,), (0, 1), (1, 2))

rows = st.tuples(
    st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)
)
batches = st.lists(rows, max_size=8)
steps = st.one_of(
    st.tuples(st.just("insert"), rows),
    st.tuples(st.just("insert_new"), batches),
    st.tuples(st.just("delete"), rows),
    st.tuples(st.just("delete_existing"), batches),
    st.tuples(st.just("replace_contents"), batches),
    st.tuples(st.just("copy"), st.none()),
    st.tuples(st.just("clear"), st.none()),
)


def expected_index(rows, cols):
    """The index on ``cols`` over ``rows``: a key with one row holds the
    row, a key with more a ``set``."""
    buckets = {}
    for row in rows:
        buckets.setdefault(tuple(row[c] for c in cols), set()).add(row)
    return {
        key: bucket if len(bucket) > 1 else next(iter(bucket))
        for key, bucket in buckets.items()
    }


def assert_buckets_exact(inst):
    rows = inst.rows()
    assert set(inst.indexed_columns()) == set(COLUMN_SETS)
    for cols in inst.indexed_columns():
        index = inst._indexes[cols]
        assert index == expected_index(rows, cols), cols
        for bucket in index.values():
            if isinstance(bucket, set):
                assert len(bucket) >= 2, (cols, bucket)


def set_buckets(inst):
    return [
        bucket
        for index in inst._indexes.values()
        for bucket in index.values()
        if isinstance(bucket, set)
    ]


@settings(max_examples=150, deadline=None)
@given(initial=batches, script=st.lists(steps, max_size=25))
def test_every_step_keeps_each_index_exact_and_sets_shared(initial, script):
    inst = Instance("R", 3, initial)
    for cols in COLUMN_SETS:
        inst.ensure_index(cols)
    frozen = []  # (a copy's source, its rows and indexes at the copy)
    for op, arg in script:
        if op == "copy":
            clone = inst.copy()
            assert not set(map(id, set_buckets(clone))) & set(
                map(id, set_buckets(inst))
            )
            frozen.append(
                (inst, inst.rows(), {
                    cols: expected_index(inst.rows(), cols)
                    for cols in COLUMN_SETS
                })
            )
            inst = clone
        elif op == "clear":
            inst.clear()
            for cols in COLUMN_SETS:
                inst.ensure_index(cols)
        else:
            getattr(inst, op)(arg)
        assert_buckets_exact(inst)
    # Mutating a copy never reached the instance it was copied from.
    for source, rows_then, indexes_then in frozen:
        assert source.rows() == rows_then
        for cols, index in indexes_then.items():
            assert source._indexes[cols] == index


def test_generated_chain_holds_sets_only_for_shared_keys():
    # The recipe of ``benchmarks/counters.py`` (``structure``): a 10-peer
    # integer chain, 40 entries per peer exchanged, 10 per peer deleted.
    generator = CDSSWorkloadGenerator(
        WorkloadConfig(peers=10, dataset="integer", seed=0)
    )
    cdss = generator.build_cdss()
    generator.populate(cdss, 40)
    generator.record_deletions(cdss, generator.deletions(10))
    cdss.update_exchange()
    expected, sets = {}, {}
    for inst in cdss.system().db:
        keys = shared = 0
        for cols in inst.indexed_columns():
            counts = Counter(
                tuple(row[c] for c in cols) for row in inst.rows()
            )
            keys += len(counts)
            shared += sum(n >= 2 for n in counts.values())
        expected[inst.name] = {"keys": keys, "set_buckets": shared}
        sets[inst.name] = len(set_buckets(inst))
    assert sets == {
        name: shape["set_buckets"] for name, shape in expected.items()
    }
    assert sum(shape["keys"] for shape in expected.values()) > 0
    assert {
        inst.name: inst.bucket_counts() for inst in cdss.system().db
    } == expected
