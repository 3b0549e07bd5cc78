"""Tests for the v2 API surface: peer handles, transactional batches,
lazy relation views, trust scopes, and the removal of the old facade."""

import pytest

from repro import CDSS, Batch, BatchError, PeerHandle, RelationView, col
from repro.schema import SchemaError


def small_cdss() -> CDSS:
    cdss = CDSS("t")
    cdss.add_peer("P1", {"R": ("a",)})
    cdss.add_peer("P2", {"S": ("a",)})
    cdss.add_mapping("m", "R(x) -> S(x)")
    return cdss


def running_example() -> CDSS:
    cdss = CDSS("bio")
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    return cdss


class TestPeerHandle:
    def test_add_peer_returns_handle(self):
        cdss = CDSS()
        handle = cdss.add_peer("P", {"R": ("a", "b")})
        assert isinstance(handle, PeerHandle)
        assert handle.name == "P"
        assert handle.relations() == ("R",)
        assert handle.schema.relation("R").arity == 2

    def test_peer_lookup_equals_add_peer_handle(self):
        cdss = small_cdss()
        assert cdss.peer("P1") == cdss.peer("P1")
        assert cdss.peer("P1") != cdss.peer("P2")

    def test_unknown_peer_rejected(self):
        with pytest.raises(SchemaError):
            small_cdss().peer("Nope")

    def test_insert_and_delete_scoped_to_owned_relations(self):
        cdss = small_cdss()
        p1 = cdss.peer("P1")
        p1.insert("R", (1,))
        assert p1.pending_edits() == 1
        with pytest.raises(SchemaError):
            p1.insert("S", (1,))  # S belongs to P2
        with pytest.raises(SchemaError):
            p1.delete("S", (1,))
        with pytest.raises(SchemaError):
            p1.relation("S")

    def test_handle_survives_reconfiguration(self):
        cdss = small_cdss()
        p1 = cdss.peer("P1")
        p1.insert("R", (1,))
        cdss.update_exchange()
        cdss.add_peer("P3", {"T": ("a",)})
        cdss.add_mapping("m2", "S(x) -> T(x)")
        # The old handle still reads the rebuilt system.
        assert p1.relation("R").to_rows() == {(1,)}

    def test_peer_handles_listing(self):
        cdss = small_cdss()
        assert [h.name for h in cdss.peer_handles()] == ["P1", "P2"]

    def test_repr(self):
        assert "P1" in repr(small_cdss().peer("P1"))


class TestBatch:
    def test_commit_on_clean_exit(self):
        cdss = small_cdss()
        with cdss.peer("P1").batch() as tx:
            tx.insert("R", (1,))
            tx.insert("R", (2,))
            assert cdss.pending_edits() == 0  # staged, not yet applied
        assert cdss.pending_edits() == 2
        cdss.update_exchange()
        assert cdss.relation("S").to_rows() == {(1,), (2,)}

    def test_rollback_on_exception(self):
        cdss = small_cdss()
        with pytest.raises(RuntimeError, match="boom"):
            with cdss.peer("P1").batch() as tx:
                tx.insert("R", (1,))
                raise RuntimeError("boom")
        assert cdss.pending_edits() == 0

    def test_explicit_rollback(self):
        cdss = small_cdss()
        with cdss.peer("P1").batch() as tx:
            tx.insert("R", (1,))
            assert tx.rollback() == 1
        assert cdss.pending_edits() == 0
        assert tx.closed

    def test_system_batch_routes_to_owning_peers(self):
        cdss = small_cdss()
        with cdss.batch() as tx:
            tx.insert("R", (1,))
            tx.delete("S", (9,))
        assert cdss.peer("P1").pending_edits() == 1
        assert cdss.peer("P2").pending_edits() == 1

    def test_peer_batch_rejects_foreign_relation(self):
        cdss = small_cdss()
        with pytest.raises(SchemaError):
            with cdss.peer("P1").batch() as tx:
                tx.insert("S", (1,))
        # The SchemaError also rolled the batch back.
        assert cdss.pending_edits() == 0

    def test_unknown_relation_rejected_at_staging_time(self):
        cdss = small_cdss()
        tx = cdss.batch()
        tx.insert("R", (1,))
        with pytest.raises(SchemaError):
            tx.insert("Nope", (1,))
        assert len(tx) == 1  # earlier staged edit untouched

    def test_insert_many_and_chaining(self):
        cdss = small_cdss()
        with cdss.batch() as tx:
            tx.insert_many("R", [(1,), (2,)]).delete_many("R", [(3,)])
            assert [u.sign for u in tx.staged] == ["+", "+", "-"]
        assert cdss.pending_edits() == 3

    def test_closed_batch_rejects_everything(self):
        cdss = small_cdss()
        tx = cdss.batch()
        with tx:
            tx.insert("R", (1,))
        for operation in (
            lambda: tx.insert("R", (2,)),
            tx.commit,
            tx.rollback,
            tx.__enter__,
        ):
            with pytest.raises(BatchError):
                operation()

    def test_batch_preserves_edit_order(self):
        cdss = small_cdss()
        with cdss.peer("P1").batch() as tx:
            tx.insert("R", (1,))
            tx.delete("R", (1,))
        cdss.update_exchange()
        # insert-then-delete nets out to nothing.
        assert cdss.relation("R").to_rows() == frozenset()

    def test_batch_is_atomic_bulk_path(self):
        cdss = small_cdss()
        log = cdss._peer("P1").edit_log
        with cdss.peer("P1").batch() as tx:
            tx.insert_many("R", [(i,) for i in range(50)])
        assert len(log) == 50


class TestRelationView:
    def test_view_is_lazy_and_live(self):
        cdss = small_cdss()
        view = cdss.relation("S")  # created before any data exists
        assert len(view) == 0
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        assert len(view) == 1  # same object sees the new state
        assert (1,) in view
        assert view.to_rows() == {(1,)}

    def test_unknown_relation_rejected(self):
        with pytest.raises(SchemaError):
            small_cdss().relation("Nope")

    def test_where_filters_and_composes(self):
        cdss = small_cdss()
        with cdss.peer("P1").batch() as tx:
            tx.insert_many("R", [(i,) for i in range(10)])
        cdss.update_exchange()
        high = cdss.relation("R").where(col("a") >= 5)
        assert len(high) == 5
        assert (6,) in high and (3,) not in high
        small = high.where(col("a") < 7)
        assert small.to_rows() == {(5,), (6,)}
        # Only structured predicates are accepted; callables are refused.
        with pytest.raises(TypeError):
            high.where(lambda r: r[0] < 7)
        # The base view is unchanged.
        assert len(cdss.relation("R")) == 10

    def test_certain_drops_labeled_nulls(self):
        cdss = running_example()
        cdss.peer("PBioSQL").insert("B", (3, 5))
        cdss.update_exchange()
        U = cdss.peer("PuBio").relation("U")
        assert len(U) == 1  # (5, null) via m3
        assert len(U.certain()) == 0
        assert U.certain().to_rows() == frozenset()

    def test_provenance_through_view(self):
        cdss = running_example()
        with cdss.batch() as tx:
            tx.insert("G", (3, 5, 2)).insert("B", (3, 5)).insert("U", (2, 5))
        cdss.update_exchange()
        expression = cdss.relation("B").provenance((3, 2))
        assert "m1" in repr(expression) and "m4" in repr(expression)

    def test_view_metadata(self):
        cdss = small_cdss()
        view = cdss.peer("P1").relation("R")
        assert view.name == "R"
        assert view.peer == "P1"
        assert view.schema.attributes == ("a",)
        assert "RelationView" in repr(view)
        assert "filtered" in repr(view.where(col("a") == 1))

    def test_bool_and_iteration(self):
        cdss = small_cdss()
        assert not cdss.relation("R")
        cdss.peer("P1").insert("R", (7,))
        cdss.update_exchange()
        assert cdss.relation("R")
        assert list(cdss.relation("R")) == [(7,)]


class TestTrustScope:
    def test_condition_filters_at_exchange_time(self):
        cdss = small_cdss()
        cdss.peer("P2").trust().condition("m", lambda row: row[0] % 2 == 0)
        with cdss.peer("P1").batch() as tx:
            tx.insert("R", (1,)).insert("R", (2,))
        cdss.update_exchange()
        assert cdss.relation("S").to_rows() == {(2,)}

    def test_offline_verdicts(self):
        cdss = running_example()
        with cdss.batch() as tx:
            tx.insert("G", (3, 5, 2)).insert("B", (3, 5)).insert("U", (2, 5))
        cdss.update_exchange()
        trust = cdss.peer("PBioSQL").trust()
        trust.distrust_row("U", (2, 5)).distrust_peer("PuBio")
        assert trust.of("B", (3, 2)) is True  # m1 path from GUS survives

    def test_scope_repr(self):
        assert "P1" in repr(small_cdss().peer("P1").trust())


class TestDeprecatedFacade:
    """The pre-v2 string-keyed facade is gone; handles and views replace it."""

    def test_insert_instance_delete_warn_and_work(self):
        cdss = small_cdss()
        for name in ("insert", "delete", "instance"):
            assert not hasattr(cdss, name)
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        assert cdss.relation("S").to_rows() == {(1,)}
        cdss.peer("P1").delete("R", (1,))
        cdss.update_exchange()
        assert cdss.relation("S").to_rows() == frozenset()

    def test_certain_instance_warns(self):
        cdss = small_cdss()
        assert not hasattr(cdss, "certain_instance")
        assert cdss.relation("S").certain().to_rows() == frozenset()

    def test_provenance_of_warns_and_matches_view(self):
        cdss = small_cdss()
        assert not hasattr(cdss, "provenance_of")
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        assert repr(cdss.relation("S").provenance((1,))) == "m(R(1))"

    def test_trust_facade_warns_and_matches_scope(self):
        cdss = small_cdss()
        for name in (
            "set_trust_condition", "distrust_token", "distrust_peer",
            "trust_of",
        ):
            assert not hasattr(cdss, name)
        cdss.peer("P2").trust().condition("m", lambda row: row[0] > 0)
        cdss.peer("P1").insert("R", (1,))
        cdss.update_exchange()
        assert cdss.peer("P2").trust().of("S", (1,)) is True
        cdss.peer("P2").trust().distrust_peer("P1")
        assert cdss.peer("P2").trust().of("S", (1,)) is False

    def test_new_api_does_not_warn(self, recwarn):
        cdss = small_cdss()
        with cdss.peer("P1").batch() as tx:
            tx.insert("R", (1,))
        cdss.update_exchange()
        cdss.relation("S").to_rows()
        cdss.peer("P2").trust().of("S", (1,))
        deprecations = [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]
        assert deprecations == []
