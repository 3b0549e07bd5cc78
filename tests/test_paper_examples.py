"""End-to-end reproduction of the paper's running example (Examples 1-10).

Each test pins a concrete claim from the paper's text against the system's
behaviour; together they certify the semantics, not just the plumbing.
"""

import pytest

from repro import CDSS, TrustCondition
from repro.datalog.ast import SkolemValue, tuple_has_labeled_null
from repro.provenance.expression import mapping_app, product_of, sum_of, token


def paper_cdss(**kwargs) -> CDSS:
    cdss = CDSS("bioinformatics", **kwargs)
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    return cdss


def loaded_cdss(**kwargs) -> CDSS:
    cdss = paper_cdss(**kwargs)
    with cdss.batch() as tx:
        tx.insert("G", (1, 2, 3))
        tx.insert("G", (3, 5, 2))
        tx.insert("B", (3, 5))
        tx.insert("U", (2, 5))
    cdss.update_exchange()
    return cdss


class TestExample3UpdateTranslation:
    def test_instances_match_paper(self):
        cdss = loaded_cdss()
        assert cdss.relation("G").to_rows() == {(1, 2, 3), (3, 5, 2)}
        assert cdss.relation("B").to_rows() == {(3, 5), (3, 2), (1, 3), (3, 3)}
        # U contains (2,5), (3,2) plus three labeled-null rows c1, c2, c3.
        u = cdss.relation("U").to_rows()
        assert {(2, 5), (3, 2)} <= u
        null_rows = {row for row in u if tuple_has_labeled_null(row)}
        assert {row[0] for row in null_rows} == {5, 2, 3}
        assert len(u) == 5

    def test_labeled_nulls_are_skolem_values(self):
        cdss = loaded_cdss()
        null_row = next(
            row for row in cdss.relation("U").to_rows() if tuple_has_labeled_null(row)
        )
        assert isinstance(null_row[1], SkolemValue)
        assert null_row[1].function_name == "f_m3_c"

    def test_certain_query_join_on_nulls(self):
        # ans(x, y) :- U(x, z), U(y, z) returns {(2,2),(3,3),(5,5)}:
        # labeled nulls join on equality but are projected away.
        cdss = loaded_cdss()
        assert cdss.query("ans(x, y) :- U(x, z), U(y, z)") == {
            (2, 2), (3, 3), (5, 5),
        }

    def test_certain_query_drops_null_rows(self):
        # ans(x, y) :- U(x, y) returns {(2,5),(3,2)}.
        cdss = loaded_cdss()
        assert cdss.query("ans(x, y) :- U(x, y)") == {(2, 5), (3, 2)}

    def test_non_certain_query_keeps_nulls(self):
        cdss = loaded_cdss()
        superset = cdss.query("ans(x, y) :- U(x, y)", certain=False)
        assert len(superset) == 5

    def test_curation_deletion_cascade(self):
        """'If the edit log ∆B would have also contained the curation
        deletion (- | 3 2) then B would not only be missing (3,2), but also
        (3,3); and U would be missing (2,c2).'"""
        cdss = loaded_cdss()
        cdss.peer("PBioSQL").delete("B", (3, 2))
        cdss.update_exchange()
        b = cdss.relation("B").to_rows()
        assert (3, 2) not in b
        assert (3, 3) not in b
        assert b == {(3, 5), (1, 3)}
        u = cdss.relation("U").to_rows()
        assert (2, SkolemValue("f_m3_c", (2,))) not in u
        # U(3, c3) survives: B(1,3) still derives it via m3.
        assert (3, SkolemValue("f_m3_c", (3,))) in u

    def test_rejection_persists_across_future_exchanges(self):
        cdss = loaded_cdss()
        cdss.peer("PBioSQL").delete("B", (3, 2))
        cdss.update_exchange()
        # New GUS data re-derives other tuples but (3,2) stays rejected.
        cdss.peer("PGUS").insert("G", (7, 8, 9))
        cdss.update_exchange()
        assert (3, 2) not in cdss.relation("B").to_rows()
        assert (7, 9) in cdss.relation("B").to_rows()
        assert (3, 2) in cdss.system().rejections("B")


class TestExample6Provenance:
    def test_provenance_of_b32(self):
        """Pv(B(3,2)) = m1(p3) + m4(p1 p2) — with m2 in the mapping set,
        Pv(U(2,5)) itself becomes p2 + m2(p3), so the full expansion nests."""
        cdss = loaded_cdss()
        expr = cdss.relation("B").provenance((3, 2))
        p1 = token("B", (3, 5))
        p2 = token("U", (2, 5))
        p3 = token("G", (3, 5, 2))
        expected = sum_of(
            [
                mapping_app("m1", p3),
                mapping_app(
                    "m4",
                    product_of([p1, sum_of([p2, mapping_app("m2", p3)])]),
                ),
            ]
        )
        assert expr == expected

    def test_base_tuple_provenance_is_its_token(self):
        cdss = loaded_cdss()
        assert cdss.relation("G").provenance((3, 5, 2)) == token("G", (3, 5, 2))

    def test_local_and_derived_tuple_has_both(self):
        # U(2,5) is a local insertion AND derivable via m2 (end of
        # Example 3: "the tuple U(2,5) has two different justifications").
        cdss = loaded_cdss()
        expr = cdss.relation("U").provenance((2, 5))
        expected = sum_of(
            [
                token("U", (2, 5)),
                mapping_app("m2", token("G", (3, 5, 2))),
            ]
        )
        assert expr == expected


class TestExample7TrustEvaluation:
    def test_b32_trusted_despite_distrusted_p2(self):
        """T.T + T.T.D = T: distrusting p2 alone keeps B(3,2) trusted via
        the m1 alternative."""
        trust = loaded_cdss().peer("PBioSQL").trust()
        trust.distrust_row("U", (2, 5))
        assert trust.of("B", (3, 2)) is True

    def test_distrusting_p2_and_m1_rejects(self):
        """'Distrusting p2 and m1 leads to rejecting B(3,2)' (Example 6).
        Note the m2 alternative for Pv(U(2,5)) must also be cut: we
        distrust the G source tuple's flow through m2 as well."""
        trust = loaded_cdss().peer("PBioSQL").trust()
        trust.distrust_row("U", (2, 5))
        trust.condition("m1", TrustCondition.never())
        trust.condition("m2", TrustCondition.never())
        assert trust.of("B", (3, 2)) is False

    def test_distrusting_p1_and_p2_does_not_reject(self):
        """'distrusting p1 and p2 does not' reject B(3,2) (Example 6)."""
        trust = loaded_cdss().peer("PBioSQL").trust()
        trust.distrust_row("B", (3, 5)).distrust_row("U", (2, 5))
        assert trust.of("B", (3, 2)) is True


class TestExample4TrustFiltering:
    def test_condition_on_mapping_from_gus(self):
        """PBioSQL distrusts B(i,n) from PGUS (mapping m1) when n >= 3:
        B(1,3) is rejected, and consequently U(3,c3) is not derived from it
        — but B(3,3) requires the second condition too."""
        cdss = paper_cdss()
        trust = cdss.peer("PBioSQL").trust()
        trust.condition(
            "m1", lambda row: row[1] < 3,
            description="distrust GUS-derived B rows with n >= 3",
        )
        trust.condition(
            "m4", lambda row: row[1] == 2,
            description="distrust m4-derived B rows with n != 2",
        )
        with cdss.batch() as tx:
            tx.insert("G", (1, 2, 3))
            tx.insert("G", (3, 5, 2))
            tx.insert("B", (3, 5))
            tx.insert("U", (2, 5))
        cdss.update_exchange()
        b = cdss.relation("B").to_rows()
        assert (1, 3) not in b  # rejected by the first condition
        assert (3, 3) not in b  # rejected by the second condition
        assert (3, 2) in b  # m1-derived with n=2 < 3: trusted
        u = cdss.relation("U").to_rows()
        # U(3, c3) would only come from B(·,3) via m3; both are rejected.
        assert not any(
            row[0] == 3 and tuple_has_labeled_null(row) for row in u
        )

    def test_untrusted_tuples_still_visible_in_input_table(self):
        cdss = paper_cdss()
        cdss.peer("PBioSQL").trust().condition("m1", lambda row: row[1] < 3)
        cdss.peer("PGUS").insert("G", (1, 2, 3))
        cdss.update_exchange()
        system = cdss.system()
        assert (1, 3) in system.input_instance("B")
        assert (1, 3) not in system.trusted_instance("B")
        assert (1, 3) not in system.instance("B")

    def test_trust_filtering_consistent_incrementally(self):
        cdss = paper_cdss()
        cdss.peer("PBioSQL").trust().condition("m1", lambda row: row[1] < 3)
        cdss.peer("PGUS").insert("G", (1, 2, 3))
        cdss.update_exchange()
        cdss.peer("PGUS").insert("G", (5, 6, 7))  # untrusted (n=7 >= 3)
        cdss.peer("PGUS").insert("G", (8, 9, 1))  # trusted (n=1)
        cdss.update_exchange()
        assert (5, 7) not in cdss.relation("B").to_rows()
        assert (8, 1) in cdss.relation("B").to_rows()
        assert cdss.system().is_consistent()


class TestExample10DeletionPropagation:
    def test_deletion_with_alternative_derivation_survives(self):
        """Example 10's shape: deleting one support leaves the tuple alive
        when an inverse path through another mapping still derives it."""
        cdss = loaded_cdss()
        # B(3,2) has two derivations (m1 from G, m4 from B+U).  Deleting
        # U(2,5) kills the m4 path only.
        cdss.peer("PuBio").delete("U", (2, 5))
        cdss.update_exchange()
        assert (3, 2) in cdss.relation("B").to_rows()
        assert cdss.system().is_consistent()

    def test_deleting_both_supports_removes(self):
        cdss = loaded_cdss()
        cdss.peer("PuBio").delete("U", (2, 5))
        cdss.peer("PGUS").delete("G", (3, 5, 2))
        cdss.update_exchange()
        assert (3, 2) not in cdss.relation("B").to_rows()
        assert cdss.system().is_consistent()


class TestPeerAutonomy:
    def test_unpublished_edits_invisible(self):
        """Other peers only see data from the last update exchange
        (Section 2: 'they will not see the effects of any unpublished
        updates at P')."""
        cdss = paper_cdss()
        cdss.peer("PGUS").insert("G", (3, 5, 2))
        cdss.update_exchange(peers=["PBioSQL", "PuBio"])  # GUS not publishing
        assert cdss.relation("B").to_rows() == frozenset()
        cdss.update_exchange(peers=["PGUS"])
        assert (3, 2) in cdss.relation("B").to_rows()

    def test_local_insert_then_delete_nets_out(self):
        cdss = paper_cdss()
        cdss.peer("PBioSQL").insert("B", (9, 9))
        cdss.peer("PBioSQL").delete("B", (9, 9))
        cdss.update_exchange()
        assert (9, 9) not in cdss.relation("B").to_rows()
        # Net effect: neither contributed nor rejected.
        assert (9, 9) not in cdss.system().local_contributions("B")
        assert (9, 9) not in cdss.system().rejections("B")

    def test_reinsert_unrejects(self):
        cdss = loaded_cdss()
        cdss.peer("PBioSQL").delete("B", (3, 2))
        cdss.update_exchange()
        assert (3, 2) not in cdss.relation("B").to_rows()
        cdss.peer("PBioSQL").insert("B", (3, 2))
        cdss.update_exchange()
        assert (3, 2) in cdss.relation("B").to_rows()
        assert (3, 2) not in cdss.system().rejections("B")
        assert cdss.system().is_consistent()
