"""Cross-strategy equivalence: incremental maintenance == full recomputation.

The paper's central correctness claim for Section 4.2 is that incremental
maintenance computes the same consistent state (Definition 3.1) as
recomputing from the edbs.
These tests check it on the paper's example, on adversarial cyclic-support
cases, and property-based over random workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CDSS, SpecError, SystemSpec
from repro.core import STRATEGIES, STRATEGY_UNIFIED
from repro.core.editlog import PublishDelta
from repro.core.exchange import ExchangeError, ExchangeSystem
from repro.schema import InternalSchema, PeerSchema, RelationSchema, SchemaMapping


def cyclic_internal() -> InternalSchema:
    """Two peers mapping into each other (full tgds): provenance cycles."""
    return InternalSchema(
        (
            PeerSchema("P1", (RelationSchema("R", ("a", "b")),)),
            PeerSchema("P2", (RelationSchema("S", ("a", "b")),)),
        ),
        (
            SchemaMapping.parse("mrs", "R(x, y) -> S(x, y)"),
            SchemaMapping.parse("msr", "S(x, y) -> R(x, y)"),
        ),
    )


def run_all_strategies(internal, base, delta):
    """Apply ``delta`` with every strategy on identical initial states;
    return the (unified, recompute) output snapshots."""
    snapshots = []
    for strategy in STRATEGIES:
        system = ExchangeSystem(internal)
        for relation, rows in base.items():
            system.db[f"{relation}__l"].insert_many(rows)
        system.recompute()
        system.apply_delta(delta, strategy)
        snapshots.append(
            {name: system.db[name].rows() for name in system.db.relation_names()}
        )
    return snapshots


class TestCyclicSupport:
    def test_cyclic_tuples_garbage_collected(self):
        """R(1,2) and S(1,2) support each other through the mappings; when
        the base contribution is deleted, both must be garbage collected
        even though each still has a direct derivation from the other
        (Section 4.2's motivating case for the derivability test)."""
        internal = cyclic_internal()
        delta = PublishDelta(local_deletes={"R": {(1, 2)}})
        snapshots = run_all_strategies(
            internal, {"R": {(1, 2)}}, delta
        )
        for snapshot in snapshots:
            assert snapshot["R__o"] == frozenset()
            assert snapshot["S__o"] == frozenset()
        assert snapshots[0] == snapshots[1]

    def test_partial_deletion_keeps_other_tuples(self):
        internal = cyclic_internal()
        delta = PublishDelta(local_deletes={"R": {(1, 2)}})
        snapshots = run_all_strategies(
            internal, {"R": {(1, 2), (3, 4)}, "S": {(5, 6)}}, delta
        )
        for snapshot in snapshots:
            assert snapshot["R__o"] == {(3, 4), (5, 6)}
            assert snapshot["S__o"] == {(3, 4), (5, 6)}
        assert snapshots[0] == snapshots[1]

    def test_tuple_locally_contributed_at_both_peers(self):
        """Deleting one peer's contribution keeps the tuple alive through
        the other peer's (it remains edb-derivable)."""
        internal = cyclic_internal()
        delta = PublishDelta(local_deletes={"R": {(1, 2)}})
        snapshots = run_all_strategies(
            internal, {"R": {(1, 2)}, "S": {(1, 2)}}, delta
        )
        for snapshot in snapshots:
            assert snapshot["R__o"] == {(1, 2)}
            assert snapshot["S__o"] == {(1, 2)}

    def test_rejection_breaks_the_cycle(self):
        internal = cyclic_internal()
        delta = PublishDelta(rejection_inserts={"S": {(1, 2)}})
        snapshots = run_all_strategies(internal, {"R": {(1, 2)}}, delta)
        for snapshot in snapshots:
            # S rejects the tuple; R keeps it (local contribution).
            assert snapshot["S__o"] == frozenset()
            assert snapshot["R__o"] == {(1, 2)}
        assert snapshots[0] == snapshots[1]


class TestThreePeerChainDeletions:
    def _cdss(self, strategy):
        cdss = CDSS(strategy=strategy)
        cdss.add_peer("P1", {"A": ("k", "v")})
        cdss.add_peer("P2", {"B2": ("k", "v")})
        cdss.add_peer("P3", {"C": ("k", "v")})
        cdss.add_mapping("mab", "A(k, v) -> B2(k, v)")
        cdss.add_mapping("mbc", "B2(k, v) -> C(k, v)")
        for i in range(10):
            cdss.peer("P1").insert("A", (i, i * 10))
        cdss.peer("P2").insert("B2", (100, 1))
        cdss.update_exchange()
        return cdss

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_chain_deletion_cascades(self, strategy):
        cdss = self._cdss(strategy)
        for i in range(5):
            cdss.peer("P1").delete("A", (i, i * 10))
        cdss.update_exchange()
        assert cdss.relation("A").to_rows() == {(i, i * 10) for i in range(5, 10)}
        assert cdss.relation("C").to_rows() == {(i, i * 10) for i in range(5, 10)} | {
            (100, 1)
        }
        assert cdss.system().is_consistent()
        # A bulk retraction: hundreds of rows leave in one publish.
        with cdss.peer("P1").batch() as tx:
            for i in range(200, 600):
                tx.insert("A", (i, i % 7))
        cdss.update_exchange()
        with cdss.peer("P1").batch() as tx:
            for i in range(200, 500):
                tx.delete("A", (i, i % 7))
        cdss.update_exchange()
        assert cdss.relation("C").to_rows() == {(i, i * 10) for i in range(5, 10)} | {
            (100, 1)
        } | {(i, i % 7) for i in range(500, 600)}
        assert cdss.system().is_consistent()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_mixed_insert_delete_batch(self, strategy):
        cdss = self._cdss(strategy)
        cdss.peer("P1").delete("A", (0, 0))
        cdss.peer("P1").insert("A", (50, 500))
        cdss.peer("P2").delete("B2", (3, 30))  # rejection of imported data
        cdss.update_exchange()
        assert (0, 0) not in cdss.relation("C").to_rows()
        assert (50, 500) in cdss.relation("C").to_rows()
        assert (3, 30) not in cdss.relation("B2").to_rows()
        assert (3, 30) not in cdss.relation("C").to_rows()  # rejection blocks the flow
        assert (3, 30) in cdss.relation("A").to_rows()  # source unaffected
        assert cdss.system().is_consistent()


class TestMultiAtomBodies:
    """Regression: a peer with several relations makes mapping bodies
    multi-atom joins; deleting both join sides in one batch must still
    propagate."""

    def _internal(self):
        return InternalSchema(
            (
                PeerSchema(
                    "P1",
                    (
                        RelationSchema("A1", ("k", "x")),
                        RelationSchema("A2", ("k", "y")),
                    ),
                ),
                PeerSchema("P2", (RelationSchema("B1", ("k", "x", "y")),)),
            ),
            (SchemaMapping.parse("m", "A1(k, x), A2(k, y) -> B1(k, x, y)"),),
        )

    def test_same_batch_deletion_of_both_join_sides(self):
        internal = self._internal()
        delta = PublishDelta(
            local_deletes={"A1": {(1, "x1")}, "A2": {(1, "y1")}}
        )
        snapshots = run_all_strategies(
            internal,
            {"A1": {(1, "x1"), (2, "x2")}, "A2": {(1, "y1"), (2, "y2")}},
            delta,
        )
        for snapshot in snapshots:
            assert snapshot["B1__o"] == {(2, "x2", "y2")}
        assert snapshots[0] == snapshots[1]
        # The provenance row is doomed through both join sides; the
        # bulk retraction counts its effective deletion once.
        system = ExchangeSystem(internal)
        system.db["A1__l"].insert_many([(1, "x1"), (2, "x2")])
        system.db["A2__l"].insert_many([(1, "y1"), (2, "y2")])
        system.recompute()
        report = system.apply_delta(delta)
        assert report.details["deletion"].provenance_rows_deleted == 1

    def test_deleting_one_join_side_only(self):
        internal = self._internal()
        delta = PublishDelta(local_deletes={"A1": {(1, "x1")}})
        snapshots = run_all_strategies(
            internal,
            {"A1": {(1, "x1"), (2, "x2")}, "A2": {(1, "y1"), (2, "y2")}},
            delta,
        )
        for snapshot in snapshots:
            assert snapshot["B1__o"] == {(2, "x2", "y2")}
            # A2's row survives (it is a local contribution).
            assert snapshot["A2__o"] == {(1, "y1"), (2, "y2")}
        assert snapshots[0] == snapshots[1]


@st.composite
def chain_workload(draw):
    base = draw(
        st.sets(st.integers(0, 12), min_size=1, max_size=8)
    )
    deletions = draw(st.sets(st.sampled_from(sorted(base)), max_size=5))
    rejections = draw(st.sets(st.integers(0, 12), max_size=3))
    insertions = draw(st.sets(st.integers(20, 30), max_size=4))
    return base, deletions, rejections, insertions


@settings(max_examples=40, deadline=None)
@given(workload=chain_workload())
def test_property_strategies_agree_on_random_workloads(workload):
    """Property: for random base data and random mixed update batches,
    incremental maintenance produces the same database (including
    provenance tables) as a fresh recomputation."""
    base, deletions, rejections, insertions = workload
    internal = InternalSchema(
        (
            PeerSchema("P1", (RelationSchema("R", ("a",)),)),
            PeerSchema("P2", (RelationSchema("S", ("a",)),)),
            PeerSchema("P3", (RelationSchema("T", ("a",)),)),
        ),
        (
            SchemaMapping.parse("m_rs", "R(x) -> S(x)"),
            SchemaMapping.parse("m_st", "S(x) -> T(x)"),
            SchemaMapping.parse("m_tr", "T(x) -> R(x)"),  # cycle
        ),
    )
    delta = PublishDelta(
        local_deletes={"R": {(x,) for x in deletions}},
        rejection_inserts={"S": {(x,) for x in rejections}},
        local_inserts={"R": {(x,) for x in insertions}},
    )
    snapshots = run_all_strategies(internal, {"R": {(x,) for x in base}}, delta)
    assert snapshots[0] == snapshots[1]


@settings(max_examples=25, deadline=None)
@given(workload=chain_workload())
def test_property_incremental_stays_consistent_over_two_batches(workload):
    base, deletions, rejections, insertions = workload
    cdss = CDSS(strategy=STRATEGY_UNIFIED)
    cdss.add_peer("P1", {"R": ("a",)})
    cdss.add_peer("P2", {"S": ("a",)})
    cdss.add_mapping("m_rs", "R(x) -> S(x)")
    cdss.add_mapping("m_sr", "S(x) -> R(x)")
    for x in base:
        cdss.peer("P1").insert("R", (x,))
    cdss.update_exchange()
    for x in deletions:
        cdss.peer("P1").delete("R", (x,))
    for x in rejections:
        cdss.peer("P2").delete("S", (x,))  # rejection (imported at S)
    for x in insertions:
        cdss.peer("P1").insert("R", (x,))
    cdss.update_exchange()
    assert cdss.system().is_consistent()


class TestNegatedMappings:
    """``unified`` cannot maintain a negated body atom; the combination is
    refused where it is configured, never found at a publish."""

    TGD = "R(x), not S(x) -> T(x)"

    @staticmethod
    def build(strategy=None) -> CDSS:
        cdss = CDSS("neg", strategy=strategy)
        cdss.add_peer("P1", {"R": ("a",), "S": ("a",)})
        cdss.add_peer("P2", {"T": ("a",)})
        return cdss

    def test_add_mapping_refused_under_unified(self):
        cdss = self.build()
        with pytest.raises(ExchangeError, match="'m'.*strategy=\"recompute\""):
            cdss.add_mapping("m", self.TGD)
        assert cdss.mappings() == ()

    def test_unified_publish_refused_before_edits_are_consumed(self):
        cdss = self.build(strategy="recompute")
        cdss.add_mapping("m", self.TGD)
        cdss.peer("P1").insert("R", (1,))
        with pytest.raises(ExchangeError, match="'m'.*strategy=\"recompute\""):
            cdss.update_exchange(strategy="unified")
        assert cdss.pending_edits() == 1
        cdss.update_exchange()
        assert set(cdss.peer("P2").relation("T")) == {(1,)}

    def test_recompute_maintains_the_negation(self):
        cdss = self.build(strategy="recompute")
        cdss.add_mapping("m", self.TGD)
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        assert set(cdss.peer("P2").relation("T")) == {(1,)}
        cdss.peer("P1").insert("S", (1,))
        cdss.update_exchange()
        assert set(cdss.peer("P2").relation("T")) == set()

    def test_spec_load_refused_under_unified(self):
        cdss = self.build(strategy="recompute")
        cdss.add_mapping("m", self.TGD)
        document = cdss.to_spec().to_dict()
        assert SystemSpec.from_dict(document).strategy == "recompute"
        document["strategy"] = "unified"
        with pytest.raises(SpecError, match="'m'.*strategy=\"recompute\""):
            SystemSpec.from_dict(document)

    def test_durable_publish_refused_before_logging(self, tmp_path):
        from repro.durability import DurableNode

        cdss = self.build(strategy="recompute")
        cdss.add_mapping("m", self.TGD)
        cdss.peer("P1").insert("R", (1,))
        node = DurableNode.create(cdss.to_spec(), tmp_path / "node")
        logged = node.wal.last_seq
        with pytest.raises(ExchangeError, match="'m'"):
            node.publish(strategy="unified")
        assert node.wal.last_seq == logged
        node.publish()
        assert set(node.cdss.peer("P2").relation("T")) == {(1,)}
        node.close()

    def test_cli_run_reports_the_refusal(self, tmp_path, capsys):
        from repro.cli import main

        cdss = self.build(strategy="recompute")
        cdss.add_mapping("m", self.TGD)
        path = cdss.to_spec().save(tmp_path / "spec.json")
        assert main(["run", str(path), "--strategy", "unified"]) == 1
        assert "'m'" in capsys.readouterr().err
