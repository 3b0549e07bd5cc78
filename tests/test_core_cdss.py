"""Tests for the CDSS facade: configuration, editing, reconfiguration."""

import pytest

from repro import CDSS, RelationSchema
from repro.core import STRATEGY_RECOMPUTE
from repro.provenance.graph import DerivationTree
from repro.schema import SchemaError


def small_cdss() -> CDSS:
    cdss = CDSS("t")
    cdss.add_peer("P1", {"R": ("a",)})
    cdss.add_peer("P2", {"S": ("a",)})
    cdss.add_mapping("m", "R(x) -> S(x)")
    return cdss


class TestConfiguration:
    def test_duplicate_peer_rejected(self):
        cdss = small_cdss()
        with pytest.raises(SchemaError):
            cdss.add_peer("P1", {"X": ("a",)})

    def test_duplicate_relation_across_peers_rejected(self):
        cdss = small_cdss()
        with pytest.raises(SchemaError):
            cdss.add_peer("P3", {"R": ("a",)})

    def test_duplicate_mapping_rejected(self):
        cdss = small_cdss()
        with pytest.raises(SchemaError):
            cdss.add_mapping("m", "S(x) -> R(x)")

    def test_relation_schemas_accepted_directly(self):
        cdss = CDSS()
        cdss.add_peer("P", [RelationSchema("R", ("a", "b"))])
        assert cdss.internal_schema.arity_of("R") == 2

    def test_unknown_relation_in_edit_rejected(self):
        cdss = small_cdss()
        with pytest.raises(SchemaError):
            cdss.batch().insert("Nope", (1,))

    def test_unknown_peer_rejected(self):
        cdss = small_cdss()
        with pytest.raises(SchemaError):
            cdss.peer("Nope").trust().distrust_peer("P1")

    def test_peers_and_mappings_listing(self):
        cdss = small_cdss()
        assert cdss.peers() == ("P1", "P2")
        assert [m.name for m in cdss.mappings()] == ["m"]

    def test_repr(self):
        assert "2 peers" in repr(small_cdss())


class TestEditingAndExchange:
    def test_pending_edits_counted(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        cdss.peer("P1").delete("R", (2,))
        assert cdss.pending_edits() == 2
        cdss.update_exchange()
        assert cdss.pending_edits() == 0

    def test_unknown_peer_in_exchange_drains_nothing(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        with pytest.raises(SchemaError):
            cdss.update_exchange(["P1", "Nope"])
        assert cdss.pending_edits() == 1

    def test_strategy_override_per_exchange(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        report = cdss.update_exchange(strategy=STRATEGY_RECOMPUTE)
        assert report.strategy == STRATEGY_RECOMPUTE

    def test_exchange_reports_accumulate(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        cdss.peer("P1").insert("R", (2,))
        cdss.update_exchange()
        assert len(cdss.exchange_reports) == 2

    def test_exchange_reports_keep_the_latest_64(self):
        cdss = CDSS("t")
        peer = cdss.add_peer("P1", {"R": ("a",)})
        for i in range(70):
            peer.insert("R", (i,))
            report = cdss.update_exchange()
        assert len(cdss.exchange_reports) == 64
        assert cdss.exchange_reports[-1] is report
        assert isinstance(cdss.exchange_reports, list)

    def test_recompute_entry_point(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        report = cdss.recompute()
        assert report.strategy == STRATEGY_RECOMPUTE
        assert cdss.relation("S").to_rows() == {(1,)}


class TestReconfiguration:
    def test_add_mapping_after_data_preserves_base(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        # Reconfigure: add a peer and a new mapping; base data carries over.
        cdss.add_peer("P3", {"T": ("a",)})
        cdss.add_mapping("m2", "S(x) -> T(x)")
        assert cdss.relation("T").to_rows() == {(1,)}
        assert cdss.relation("S").to_rows() == {(1,)}

    def test_trust_change_after_data_recomputes(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        cdss.peer("P1").insert("R", (2,))
        cdss.update_exchange()
        assert cdss.relation("S").to_rows() == {(1,), (2,)}
        cdss.peer("P2").trust().condition("m", lambda row: row[0] % 2 == 0)
        assert cdss.relation("S").to_rows() == {(2,)}
        # Base data survived the rebuild.
        assert cdss.relation("R").to_rows() == {(1,), (2,)}

    def test_rejections_survive_reconfiguration(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        cdss.peer("P2").delete("S", (1,))  # rejection at P2
        cdss.update_exchange()
        cdss.add_peer("P3", {"T": ("a",)})
        cdss.add_mapping("m2", "S(x) -> T(x)")
        assert cdss.relation("S").to_rows() == frozenset()
        assert cdss.relation("T").to_rows() == frozenset()


class TestProvenanceAccess:
    def test_derivation_trees_via_graph(self):
        cdss = CDSS()
        cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
        cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
        cdss.add_peer("PuBio", {"U": ("nam", "can")})
        cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
        cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
        cdss.peer("PGUS").insert("G", (3, 5, 2))
        cdss.peer("PBioSQL").insert("B", (3, 5))
        cdss.peer("PuBio").insert("U", (2, 5))
        cdss.update_exchange()
        trees = cdss.provenance_graph().derivation_trees("B", (3, 2))
        assert len(trees) == 2
        mappings = sorted(t.mapping for t in trees)
        assert mappings == ["m1", "m4"]
        m1_tree = next(t for t in trees if t.mapping == "m1")
        assert m1_tree.leaves() == (("G", (3, 5, 2)),)
        m4_tree = next(t for t in trees if t.mapping == "m4")
        assert set(m4_tree.leaves()) == {("B", (3, 5)), ("U", (2, 5))}
        assert m4_tree.size() == 3
        assert m4_tree.depth() == 2

    def test_derivation_trees_cyclic_bounded(self):
        cdss = small_cdss()
        cdss.add_mapping("m_back", "S(x) -> R(x)")
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        trees = cdss.provenance_graph().derivation_trees(
            "S", (1,), max_depth=4, limit=10
        )
        assert trees  # at least the direct derivation
        assert len(trees) <= 10
        # Smallest tree first: R(1) local -> S(1) via m.
        assert trees[0].size() == 2

    def test_base_tuple_tree_is_leaf(self):
        cdss = small_cdss()
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        trees = cdss.provenance_graph().derivation_trees("R", (1,))
        assert trees[0] == DerivationTree(("R", (1,)))
        assert trees[0].is_leaf
