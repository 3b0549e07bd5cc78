"""Tests for certain-answer query evaluation (Section 2.1)."""

import pytest

from repro import CDSS
from repro.api.query import QueryError, certain_rows
from repro.datalog.ast import SkolemValue


def cdss_with_nulls() -> CDSS:
    cdss = CDSS("q")
    cdss.add_peer("P1", {"B": ("id", "nam")})
    cdss.add_peer("P2", {"U": ("nam", "can")})
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    cdss.peer("P1").batch().insert_many(
        "B", [(1, "x"), (2, "x"), (3, "y")]
    ).commit()
    cdss.peer("P2").insert("U", ("y", "canon"))
    cdss.update_exchange()
    return cdss


class TestCertainAnswers:
    def test_join_on_labeled_nulls(self):
        cdss = cdss_with_nulls()
        # Both B(1,x) and B(2,x) map to U(x, f(x)) — the same null — so the
        # self-join succeeds; nulls themselves are projected away.
        answers = cdss.query("ans(x, y) :- U(x, z), U(y, z)")
        assert ("x", "x") in answers
        assert ("y", "y") in answers

    def test_null_rows_dropped_by_default(self):
        cdss = cdss_with_nulls()
        answers = cdss.query("ans(n, c) :- U(n, c)")
        assert answers == {("y", "canon")}

    def test_superset_mode_keeps_nulls(self):
        cdss = cdss_with_nulls()
        answers = cdss.query("ans(n, c) :- U(n, c)", certain=False)
        assert len(answers) == 3
        assert any(isinstance(row[1], SkolemValue) for row in answers)

    def test_constants_in_query(self):
        cdss = cdss_with_nulls()
        answers = cdss.query("ans(i) :- B(i, 'x')")
        assert answers == {(1,), (2,)}

    def test_negation_in_query(self):
        cdss = cdss_with_nulls()
        answers = cdss.query("ans(i, n) :- B(i, n), not U(n, n)")
        assert answers == {(1, "x"), (2, "x"), (3, "y")}

    def test_multi_relation_join(self):
        cdss = cdss_with_nulls()
        answers = cdss.query("ans(i, c) :- B(i, n), U(n, c)")
        assert answers == {(3, "canon")}

    def test_unknown_relation_rejected(self):
        cdss = cdss_with_nulls()
        with pytest.raises(QueryError):
            cdss.query("ans(x) :- Nope(x)")

    def test_wrong_arity_rejected(self):
        cdss = cdss_with_nulls()
        with pytest.raises(QueryError):
            cdss.query("ans(x) :- B(x)")

    def test_empty_body_rejected(self):
        cdss = cdss_with_nulls()
        with pytest.raises(QueryError):
            cdss.prepare("ans(1)")

    def test_unsafe_query_rejected(self):
        cdss = cdss_with_nulls()
        with pytest.raises(Exception):
            cdss.query("ans(x, y) :- B(x, z)")

    def test_certain_rows_helper(self):
        null = SkolemValue("f", (1,))
        rows = {(1, 2), (1, null)}
        assert certain_rows(rows) == {(1, 2)}

    def test_certain_instance_vs_instance(self):
        cdss = cdss_with_nulls()
        full = cdss.relation("U").to_rows()
        certain = cdss.relation("U").certain().to_rows()
        assert certain < full
        assert certain == {("y", "canon")}
