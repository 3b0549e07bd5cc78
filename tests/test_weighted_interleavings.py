"""Property tests for the unified weighted Z-set maintenance core.

Random *interleavings* of inserts, local deletions, trust revocations,
and un-revocations — with update exchanges scattered anywhere in the
sequence — must leave the system byte-identical to a full recomputation
from the edbs: same certain answers, same provenance tables, same
``R__o`` output instances.  This is the central contract of the PR that
unified insertion and deletion maintenance on signed deltas: whatever
order edits arrive in, the maintained fixpoint is *the* fixpoint.  The
change stream rides along: every exchange's captured ``R__o`` Z-set must
equal the diff of the output instances around it.

The grid covers both index-maintenance policies (eager / deferred) and
the legacy strategy shims ("incremental" / "dred"), which must route
through the very same weighted pass as the "unified" default.
"""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CDSS
from repro.storage import ZSet


def build_cdss(strategy, index_policy, trust_threshold=None):
    with warnings.catch_warnings():
        # Legacy strategy names warn by design; that is not under test here.
        warnings.simplefilter("ignore", DeprecationWarning)
        cdss = CDSS("zset", strategy=strategy, index_policy=index_policy)
    cdss.add_peer("P1", {"A": ("k", "v")})
    cdss.add_peer("P2", {"B2": ("k", "v")})
    cdss.add_peer("P3", {"C": ("k",)})
    cdss.add_mapping("mab", "A(k, v) -> B2(k, v)")
    cdss.add_mapping("mbc", "B2(k, v) -> C(k)")
    cdss.add_mapping("mca", "C(k) -> exists v . A(k, v)")  # cycle + nulls
    if trust_threshold is not None:
        cdss.peer("P2").trust().condition(
            "mab", lambda row: row[0] < trust_threshold,
            description="threshold",
        )
    return cdss


@st.composite
def interleavings(draw):
    """A flat op sequence: edits and exchanges freely interleaved."""
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"), st.integers(0, 7), st.integers(0, 3)
                ),
                st.tuples(st.just("delete"), st.integers(0, 7)),
                st.tuples(st.just("revoke"), st.integers(0, 7)),
                st.tuples(st.just("unrevoke"), st.integers(0, 7)),
                st.tuples(st.just("exchange")),
            ),
            min_size=1,
            max_size=14,
        )
    )
    threshold = draw(st.one_of(st.none(), st.integers(2, 6)))
    return ops, threshold


def exchange_and_check_changes(cdss, subscription):
    """One exchange; its change batch must be the exact output diff."""
    system = cdss.system()
    before = system.snapshot_outputs()
    cdss.update_exchange()
    after = system.snapshot_outputs()
    (batch,) = subscription.poll()
    for relation, old in before.items():
        expected = ZSet.from_rows(after[relation] - old, 1)
        expected.merge(ZSet.from_rows(old - after[relation], -1))
        assert batch.changes.get(relation, ZSet()) == expected


def apply_ops(cdss, ops):
    from repro.datalog.ast import tuple_has_labeled_null

    subscription = cdss.system().subscribe()
    for op in ops:
        kind = op[0]
        if kind == "insert":
            with cdss.batch() as tx:
                tx.insert("A", (op[1], op[2]))
        elif kind == "delete":
            rows = [
                row
                for row in cdss.relation("A")
                if row[0] == op[1] and not tuple_has_labeled_null(row)
            ]
            if rows:
                with cdss.batch() as tx:
                    for row in rows:
                        tx.delete("A", row)
        elif kind == "revoke":
            # Deleting a non-local (derived) row is a trust revocation:
            # publish turns it into a rejection insert.
            with cdss.batch() as tx:
                tx.delete("C", (op[1],))
        elif kind == "unrevoke":
            with cdss.batch() as tx:
                tx.insert("C", (op[1],))
        else:
            exchange_and_check_changes(cdss, subscription)
    exchange_and_check_changes(cdss, subscription)
    subscription.close()


def state_fingerprint(system) -> str:
    """Certain answers + provenance tables + ``R__o`` as one byte string."""
    relations = tuple(system.internal.relation_names())
    certain = {
        relation: sorted(system.certain_instance(relation), key=repr)
        for relation in relations
    }
    outputs = {
        relation: sorted(system.instance(relation), key=repr)
        for relation in relations
    }
    provenance = {
        name: sorted(system.db[name].rows(), key=repr)
        for name in system.encoding.provenance_relation_names()
    }
    return repr((certain, outputs, provenance))


@pytest.mark.parametrize("index_policy", ["eager", "deferred"])
@pytest.mark.parametrize("strategy", ["unified", "incremental", "dred"])
@settings(max_examples=10, deadline=None)
@given(data=interleavings())
def test_interleavings_match_recompute(strategy, index_policy, data):
    ops, threshold = data
    cdss = build_cdss(strategy, index_policy, threshold)
    apply_ops(cdss, ops)
    system = cdss.system()
    maintained = state_fingerprint(system)
    system.recompute()
    assert state_fingerprint(system) == maintained
