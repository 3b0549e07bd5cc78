"""Tests for recursive datalog queries over peer instances."""

import importlib

import pytest

from repro import CDSS
from repro.api.query import QueryError


def synonym_cdss() -> CDSS:
    """A taxon-synonym network: U relates names; edges imported from G."""
    cdss = CDSS("syn")
    cdss.add_peer("PGUS", {"G": ("a", "b")})
    cdss.add_peer("PuBio", {"U": ("a", "b")})
    cdss.add_mapping("m", "G(a, b) -> U(a, b)")
    cdss.peer("PGUS").batch().insert_many(
        "G", [(1, 2), (2, 3), (3, 4), (10, 11)]
    ).commit()
    cdss.peer("PuBio").insert("U", (4, 5))
    cdss.update_exchange()
    return cdss


class TestQueryPrograms:
    def test_transitive_closure(self):
        cdss = synonym_cdss()
        answers = cdss.query_program(
            """
            Reach(x, y) :- U(x, y)
            Reach(x, z) :- Reach(x, y), U(y, z)
            ans(x, y) :- Reach(x, y)
            """
        )
        assert (1, 5) in answers  # 1->2->3->4->5 across both peers' data
        assert (10, 11) in answers
        assert (1, 11) not in answers

    def test_custom_answer_predicate(self):
        cdss = synonym_cdss()
        answers = cdss.query_program(
            """
            Reach(x, y) :- U(x, y)
            Reach(x, z) :- Reach(x, y), U(y, z)
            result(x) :- Reach(1, x)
            """,
            answer="result",
        )
        assert answers == {(2,), (3,), (4,), (5,)}

    def test_negation_in_program(self):
        cdss = synonym_cdss()
        answers = cdss.query_program(
            """
            Source(x) :- U(x, y)
            Target(y) :- U(x, y)
            ans(x) :- Source(x), not Target(x)
            """
        )
        assert answers == {(1,), (10,)}  # roots of the synonym chains

    def test_scratch_state_not_persisted(self):
        cdss = synonym_cdss()
        cdss.query_program(
            """
            Reach(x, y) :- U(x, y)
            ans(x, y) :- Reach(x, y)
            """
        )
        system = cdss.system()
        assert "Reach" not in system.db
        assert "ans" not in system.db
        assert system.is_consistent()

    def test_certain_vs_superset_answers(self):
        cdss = CDSS("nulls")
        cdss.add_peer("P1", {"B": ("i", "n")})
        cdss.add_peer("P2", {"U": ("n", "c")})
        cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
        cdss.peer("P1").insert("B", (1, 7))
        cdss.update_exchange()
        program = """
            Pair(n, c) :- U(n, c)
            ans(n, c) :- Pair(n, c)
        """
        assert cdss.query_program(program) == frozenset()
        assert len(cdss.query_program(program, certain=False)) == 1

    def test_missing_answer_predicate_rejected(self):
        cdss = synonym_cdss()
        with pytest.raises(QueryError):
            cdss.query_program("Reach(x, y) :- U(x, y)")

    def test_redefining_peer_relation_rejected(self):
        cdss = synonym_cdss()
        with pytest.raises(QueryError):
            cdss.query_program(
                """
                U(x, y) :- G(x, y)
                ans(x) :- U(x, x)
                """
            )

    def test_unknown_relation_rejected(self):
        cdss = synonym_cdss()
        with pytest.raises(QueryError):
            cdss.query_program("ans(x) :- Ghost(x)")

    def test_arity_mismatch_rejected(self):
        cdss = synonym_cdss()
        with pytest.raises(QueryError):
            cdss.query_program("ans(x) :- U(x)")

    def test_program_over_updated_instance(self):
        cdss = synonym_cdss()
        cdss.peer("PuBio").delete("U", (2, 3))  # reject the imported link
        cdss.update_exchange()
        answers = cdss.query_program(
            """
            Reach(x, y) :- U(x, y)
            Reach(x, z) :- Reach(x, y), U(y, z)
            ans(x, y) :- Reach(x, y)
            """
        )
        assert (1, 5) not in answers  # chain broken at the rejected edge
        assert (3, 5) in answers


class TestPreparedPrograms:
    """Programs folded into the prepared subsystem: plan caching across
    executes, parameters, and the deprecated bypass shim."""

    REACH = """
        Reach(x, y) :- U(x, y)
        Reach(x, z) :- Reach(x, y), U(y, z)
        ans(x, y) :- Reach(x, y)
    """

    def test_repeated_execution_replans_nothing(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(self.REACH)
        first = prepared.execute().certain()
        assert (1, 5) in first
        hits_before = prepared.stats.plan_cache_hits
        misses_before = prepared.stats.plan_cache_misses
        for _ in range(3):
            assert prepared.execute().certain() == first
        assert prepared.stats.plan_cache_misses == misses_before
        assert prepared.stats.plan_cache_hits > hits_before

    def test_query_program_caches_prepared_programs(self):
        cdss = synonym_cdss()
        first = cdss.query_program(self.REACH)
        prepared = cdss._program_cache[(self.REACH, "ans")]
        misses_before = prepared.stats.plan_cache_misses
        assert cdss.query_program(self.REACH) == first
        assert prepared.stats.plan_cache_misses == misses_before

    def test_parameterized_program(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(
            """
            Reach(x, y) :- U(x, y)
            Reach(x, z) :- Reach(x, y), U(y, z)
            ans(y) :- Reach(s, y)
            """,
            params=("s",),
        )
        assert prepared.param_names == ("s",)
        assert prepared.execute(s=1).certain() == {(2,), (3,), (4,), (5,)}
        assert prepared.execute(s=10).certain() == {(11,)}
        # Re-binding an already seen value replans nothing further.
        misses = prepared.stats.plan_cache_misses
        assert prepared.execute(s=1).certain() == {(2,), (3,), (4,), (5,)}
        assert prepared.stats.plan_cache_misses == misses

    def test_parameter_validation(self):
        cdss = synonym_cdss()
        with pytest.raises(QueryError):
            cdss.prepare_program(self.REACH, params=("nope",))
        prepared = cdss.prepare_program(
            "ans(y) :- U(s, y)", params=("s",)
        )
        with pytest.raises(QueryError):
            prepared.execute()  # missing binding
        with pytest.raises(QueryError):
            prepared.execute(s=1, t=2)  # unexpected binding

    def test_prepared_program_sees_live_state(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(self.REACH)
        assert (1, 5) in prepared.execute().certain()
        cdss.peer("PuBio").delete("U", (2, 3))
        cdss.update_exchange()
        answers = prepared.execute().certain()
        assert (1, 5) not in answers
        assert (3, 5) in answers

    def test_prepared_program_rebinds_after_reconfiguration(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(self.REACH)
        prepared.execute()
        cdss.add_peer("P3", {"W": ("a", "b")})  # invalidates the system
        cdss.add_mapping("m2", "W(a, b) -> U(a, b)")
        cdss.peer("P3").insert("W", (5, 6))
        cdss.update_exchange()
        assert (1, 6) in prepared.execute().certain()

    def test_answer_program_shim_is_deprecated_and_agrees(self):
        # The one-shot shim and its module are gone; the prepared program
        # is the only route, and query_program agrees with it.
        import repro.core

        assert not hasattr(repro.core, "answer_program")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.query")
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(self.REACH)
        assert prepared.execute().certain() == cdss.query_program(self.REACH)

    def test_unsafe_parameterized_program_rejected_at_prepare(self):
        from repro.datalog.ast import SafetyError

        cdss = synonym_cdss()
        with pytest.raises(SafetyError):
            # y is unbound even with s bound: unsafe under parameters.
            cdss.prepare_program(
                "ans(y) :- not U(s, y)", params=("s",)
            )
