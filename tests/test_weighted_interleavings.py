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

The grid covers three topologies (a chain closing into a cycle, a
2-cycle, and an acyclic diamond mixing trusted and untrusted support for
one row), systems reloaded from spec documents carrying either legacy
``index_policy`` value (eager / deferred), which must change nothing,
and both strategies: under "recompute" the fingerprint check is
trivial, but the change stream must still equal the output diff.  Deterministic tests at
the end pin where the derivability test runs — never outside recursive
components, still on cycles — and its one-probe-per-row, linear-slice
behaviour on a long chain.
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


def new_cdss(name, strategy="unified"):
    return CDSS(name, strategy=strategy)


def reload(cdss, index_policy):
    """``cdss`` rebuilt from its spec document as written while index
    maintenance had two policies, i.e. carrying ``index_policy``.  The
    key loads and is dropped, so nothing downstream may change."""
    if index_policy is None:
        return cdss
    document = {**cdss.to_spec().to_dict(), "index_policy": index_policy}
    return CDSS.from_spec(document)


def build_cdss(strategy, index_policy, trust_threshold=None):
    """A chain closing into a cycle through an existential mapping."""
    cdss = new_cdss("zset", strategy)
    cdss.add_peer("P1", {"A": ("k", "v")})
    cdss.add_peer("P2", {"B2": ("k", "v")})
    cdss.add_peer("P3", {"C": ("k",)})
    cdss.add_mapping("mab", "A(k, v) -> B2(k, v)")
    cdss.add_mapping("mbc", "B2(k, v) -> C(k)")
    cdss.add_mapping("mca", "C(k) -> exists v . A(k, v)")  # cycle + nulls
    cdss = reload(cdss, index_policy)
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
    cdss = new_cdss("zset-cycle", strategy)
    cdss.add_peer("P1", {"A": ("k", "v")})
    cdss.add_peer("P2", {"B2": ("k", "v")})
    cdss.add_peer("P3", {"C": ("a", "b", "c")})
    cdss.add_mapping("mab", "A(k, v) -> B2(k, v)")
    cdss.add_mapping("mba", "B2(k, v) -> A(k, v)")
    cdss.add_mapping("mconst", "A(k, v) -> C(k, k, 'x')")
    cdss.add_mapping("mrep", "B2(k, v) -> C(v, v, k)")
    cdss = reload(cdss, index_policy)
    if trust_threshold is not None:
        cdss.peer("P1").trust().condition(
            "mba", lambda row: row[0] < trust_threshold,
            description="threshold",
        )
    return cdss


def build_diamond_cdss(strategy, index_policy, trust_threshold=None):
    """An acyclic diamond: every D row is derived through B2 and through
    C, and the trust condition on the C side leaves rows with one trusted
    and one untrusted derivation."""
    cdss = new_cdss("zset-diamond", strategy)
    peers = (("P1", "A"), ("P2", "B2"), ("P3", "C"), ("P4", "D"))
    for peer, relation in peers:
        cdss.add_peer(peer, {relation: ("k", "v")})
    cdss.add_mapping("mab", "A(k, v) -> B2(k, v)")
    cdss.add_mapping("mac", "A(k, v) -> C(k, v)")
    cdss.add_mapping("mbd", "B2(k, v) -> D(k, v)")
    cdss.add_mapping("mcd", "C(k, v) -> D(k, v)")
    cdss = reload(cdss, index_policy)
    if trust_threshold is not None:
        cdss.peer("P4").trust().condition(
            "mcd", lambda row: row[0] < trust_threshold,
            description="threshold",
        )
    return cdss


# topology -> (builder, curated relation, its row for a key): revocations
# delete that row and every row with the key; un-revocations insert it.
TOPOLOGIES = {
    "chain-nulls": (build_cdss, "C", lambda k: (k,)),
    "cycle-shapes": (build_cycle_cdss, "B2", lambda k: (k, k % 4)),
    "diamond-trust": (build_diamond_cdss, "B2", lambda k: (k, k % 4)),
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


@pytest.mark.parametrize("index_policy", ["eager", "deferred"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(max_examples=10, deadline=None)
@given(data=interleavings())
def test_diamond_interleavings_match_recompute(strategy, index_policy, data):
    check_against_recompute("diamond-trust", strategy, index_policy, data)


def _deletion(cdss):
    return cdss.update_exchange().details["deletion"]


def _matches_recompute(system) -> bool:
    maintained = state_fingerprint(system)
    system.recompute()
    return state_fingerprint(system) == maintained


def test_acyclic_retraction_runs_no_derivability_test():
    """Outside recursive components weight 0 <=> gone is exact: a row that
    keeps support after losing its local contribution or one of its two
    derivations is kept by the count alone."""
    cdss = build_diamond_cdss("unified", None, trust_threshold=5)
    with cdss.batch() as tx:
        tx.insert("A", (1, 1))
        tx.insert("A", (7, 2))
        tx.insert("D", (1, 1))
    cdss.update_exchange()
    # D(1, 1): local, via B2 (trusted) and via C (trusted, 1 < 5).
    with cdss.batch() as tx:
        tx.delete("D", (1, 1))
    deletion = _deletion(cdss)
    assert deletion.derivability_checks == 0
    assert (1, 1) in set(cdss.relation("D"))
    # One of the two derivations goes: a trust revocation of B2(1, 1).
    with cdss.batch() as tx:
        tx.delete("B2", (1, 1))
    deletion = _deletion(cdss)
    assert deletion.derivability_checks == 0
    assert deletion.provenance_rows_deleted == 1
    assert (1, 1) in set(cdss.relation("D"))
    # D(7, 2) via B2 (trusted) and via C (untrusted: 7 >= 5); revoking
    # B2(7, 2) leaves it an input, but no longer trusted.
    with cdss.batch() as tx:
        tx.delete("B2", (7, 2))
    deletion = _deletion(cdss)
    assert deletion.derivability_checks == 0
    assert (7, 2) not in set(cdss.relation("D"))
    assert (7, 2) in cdss.system().input_instance("D")
    assert (7, 2) not in cdss.system().trusted_instance("D")
    assert _matches_recompute(cdss.system())


def _workload(topology):
    from repro.workload import (
        DATASET_INTEGER,
        CDSSWorkloadGenerator,
        WorkloadConfig,
    )

    generator = CDSSWorkloadGenerator(
        WorkloadConfig(peers=10, topology=topology, dataset=DATASET_INTEGER)
    )
    cdss = generator.build_cdss()
    generator.populate(cdss, 4)
    return generator, cdss


def test_chain_retraction_probes_no_support_row_by_row(monkeypatch):
    generator, cdss = _workload("chain")
    probes = Counter()
    probe = ProvenanceTable.supporting_rows

    def counting_probe(self, db, head, row):
        probes[head.user_relation] += 1
        return probe(self, db, head, row)

    monkeypatch.setattr(ProvenanceTable, "supporting_rows", counting_probe)
    generator.record_deletions(cdss, generator.deletions(2))
    deletion = _deletion(cdss)
    assert deletion.provenance_rows_deleted > 0
    assert deletion.derivability_checks == 0
    assert not probes
    assert _matches_recompute(cdss.system())


def test_pairs_cycles_still_collect_mutual_support():
    """In the bidirectional chain every relation is in one recursive
    component: retraction keeps the derivability test, which is what
    garbage-collects rows that now only support each other."""
    generator, cdss = _workload("pairs")
    deleted = generator.deletions(2)
    generator.record_deletions(cdss, deleted)
    deletion = _deletion(cdss)
    assert deletion.derivability_checks > 0
    keys = {update.key for update in deleted}
    for relation in cdss.system().internal.relation_names():
        assert not {row for row in cdss.relation(relation) if row[0] in keys}
    assert _matches_recompute(cdss.system())


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
