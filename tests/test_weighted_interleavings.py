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

The grid covers two topologies, both index-maintenance policies (eager /
deferred) and both strategies: under "recompute" the fingerprint check is
trivial, but the change stream must still equal the output diff.
Deterministic tests at the end pin the derivability test on cycles and
its one-probe-per-row, linear-slice behaviour on a long chain.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CDSS
from repro.core import STRATEGIES, weighted
from repro.core.derivation import DerivationTest
from repro.provenance.relations import ProvenanceTable
from repro.storage import ZSet


def new_cdss(name, strategy="unified", index_policy=None):
    return CDSS(name, strategy=strategy, index_policy=index_policy)


def build_cdss(strategy, index_policy, trust_threshold=None):
    """A chain closing into a cycle through an existential mapping."""
    cdss = new_cdss("zset", strategy, index_policy)
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


def build_cycle_cdss(strategy, index_policy, trust_threshold=None):
    """A 2-cycle with the trust condition inside it, feeding a relation
    through a constant-and-repeated-variable head and a repeated-variable
    head."""
    cdss = new_cdss("zset-cycle", strategy, index_policy)
    cdss.add_peer("P1", {"A": ("k", "v")})
    cdss.add_peer("P2", {"B2": ("k", "v")})
    cdss.add_peer("P3", {"C": ("a", "b", "c")})
    cdss.add_mapping("mab", "A(k, v) -> B2(k, v)")
    cdss.add_mapping("mba", "B2(k, v) -> A(k, v)")
    cdss.add_mapping("mconst", "A(k, v) -> C(k, k, 'x')")
    cdss.add_mapping("mrep", "B2(k, v) -> C(v, v, k)")
    if trust_threshold is not None:
        cdss.peer("P1").trust().condition(
            "mba", lambda row: row[0] < trust_threshold,
            description="threshold",
        )
    return cdss


# topology -> (builder, curated relation, its row for a key): revocations
# delete that row and every row with the key; un-revocations insert it.
TOPOLOGIES = {
    "chain-nulls": (build_cdss, "C", lambda k: (k,)),
    "cycle-shapes": (build_cycle_cdss, "B2", lambda k: (k, k % 4)),
}


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


def apply_ops(cdss, ops, curated, curated_row):
    """Run ``ops``; revocations and un-revocations edit ``curated``."""
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
            rows = {curated_row(op[1])} | {
                row for row in cdss.relation(curated) if row[0] == op[1]
            }
            with cdss.batch() as tx:
                for row in rows:
                    tx.delete(curated, row)
        elif kind == "unrevoke":
            with cdss.batch() as tx:
                tx.insert(curated, curated_row(op[1]))
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


def check_against_recompute(topology, strategy, index_policy, data):
    ops, threshold = data
    build, curated, curated_row = TOPOLOGIES[topology]
    cdss = build(strategy, index_policy, threshold)
    apply_ops(cdss, ops, curated, curated_row)
    system = cdss.system()
    maintained = state_fingerprint(system)
    system.recompute()
    assert state_fingerprint(system) == maintained


@pytest.mark.parametrize("index_policy", ["eager", "deferred"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=10, deadline=None)
@given(data=interleavings())
def test_interleavings_match_recompute(strategy, index_policy, data):
    check_against_recompute("chain-nulls", strategy, index_policy, data)


@pytest.mark.parametrize("index_policy", ["eager", "deferred"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=10, deadline=None)
@given(data=interleavings())
def test_cycle_interleavings_match_recompute(strategy, index_policy, data):
    check_against_recompute("cycle-shapes", strategy, index_policy, data)


def test_deleting_the_only_local_contribution_of_a_cycle_empties_it():
    cdss = new_cdss("ring")
    for peer, relation in (("P1", "A"), ("P2", "B"), ("P3", "C")):
        cdss.add_peer(peer, {relation: ("k",)})
    cdss.add_mapping("mab", "A(k) -> B(k)")
    cdss.add_mapping("mbc", "B(k) -> C(k)")
    cdss.add_mapping("mca", "C(k) -> A(k)")
    with cdss.batch() as tx:
        tx.insert("A", (1,))
    cdss.update_exchange()
    assert all(set(cdss.relation(r)) == {(1,)} for r in "ABC")
    with cdss.batch() as tx:
        tx.delete("A", (1,))
    cdss.update_exchange()
    # Each row is still supported by its cycle predecessor, but nothing in
    # the cycle is grounded in a local contribution any more.
    assert all(set(cdss.relation(r)) == set() for r in "ABC")
    system = cdss.system()
    for name in system.encoding.provenance_relation_names():
        assert len(system.db[name]) == 0


def test_long_chain_is_sliced_once_and_probed_once_per_row(monkeypatch):
    """N(200) keeps a 200-link derivation after its shortcut is deleted.
    The round that re-checks it walks the chain: every provenance row in
    the slice is visited exactly once, and no row is probed twice — the
    recount's support for N(200) feeds the derivability test."""
    links = 200
    cdss = new_cdss("chain")
    cdss.add_peer("P1", {"N": ("x",)})
    cdss.add_peer("P2", {"E": ("x", "y")})
    cdss.add_mapping("step", "N(x), E(x, y) -> N(y)")
    with cdss.batch() as tx:
        tx.insert("N", (0,))
        for i in range(links):
            tx.insert("E", (i, i + 1))
        tx.insert("N", (-1,))
        tx.insert("E", (-1, links))  # the shortcut
    cdss.update_exchange()

    testers: list[DerivationTest] = []

    class RecordingTest(DerivationTest):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            testers.append(self)

    probes: Counter = Counter()
    probe = ProvenanceTable.supporting_rows

    def counting_probe(self, db, head, row):
        probes[(head.user_relation, tuple(row))] += 1
        return probe(self, db, head, row)

    monkeypatch.setattr(weighted, "DerivationTest", RecordingTest)
    monkeypatch.setattr(ProvenanceTable, "supporting_rows", counting_probe)
    with cdss.batch() as tx:
        tx.delete("N", (-1,))
    cdss.update_exchange()

    assert (links,) in set(cdss.relation("N"))
    (prov,) = cdss.system().encoding.provenance_relation_names()
    assert len(cdss.system().db[prov]) == links
    (checking,) = [t for t in testers if t.slice_tuples_visited]
    assert checking.support_rows_visited == links
    assert probes[("N", (links,))] == 1
    assert max(probes.values()) == 1
