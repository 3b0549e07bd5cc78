"""Tests for recursive datalog queries over peer instances."""

import importlib
import re
import sys
import threading

import pytest

from repro import CDSS
from repro.api.query import QueryError
from repro.schema.internal import output_name

PARAMETERIZED_REACH = """
    Reach(x, y) :- U(x, y)
    Reach(x, z) :- Reach(x, y), U(y, z)
    ans(y) :- Reach(s, y)
"""

#: Every parameterized program these tests execute, plus a parameter in a
#: head, under negation, and in an auxiliary rule.
PARAMETERIZED_PROGRAMS = (
    PARAMETERIZED_REACH,
    "ans(y) :- U(s, y)",
    "Reach(x, y) :- U(x, y)\nReach(x, z) :- Reach(x, y), U(y, z)\n"
    "ans(s, y) :- Reach(s, y)",
    "From(y) :- U(s, y)\nFrom(z) :- From(y), U(y, z)\nans(y) :- From(y)",
    "Target(y) :- U(x, y)\n"
    "ans(x) :- U(x, y), U(s, z), not Target(x), not U(z, y)",
)


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
    """Programs are prepared statements like queries: plan caching across
    executes, parameters bound into plan slots, and the result caches."""

    REACH = """
        Reach(x, y) :- U(x, y)
        Reach(x, z) :- Reach(x, y), U(y, z)
        ans(x, y) :- Reach(x, y)
    """

    def test_repeated_execution_replans_nothing(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(self.REACH)
        first = prepared.execute().to_rows()
        assert (1, 5) in first
        hits_before = prepared.stats.plan_cache_hits
        misses_before = prepared.stats.plan_cache_misses
        for value in range(3):
            # A publish moves the version, so each execute re-evaluates.
            cdss.peer("PuBio").insert("U", (100 + value, 200 + value))
            cdss.update_exchange()
            assert prepared.execute().to_rows() > first
        assert prepared.stats.plan_cache_misses == misses_before
        assert prepared.stats.plan_cache_hits > hits_before

    def test_repeated_query_program_builds_no_plans(self):
        # One-shot programs plan like one-shot queries: the planner's
        # value-keyed cache serves a repeated text.
        cdss = synonym_cdss()
        first = cdss.query_program(self.REACH)
        planner = cdss.system().engine.planner
        built = planner.plans_built
        assert cdss.query_program(self.REACH) == first
        assert planner.plans_built == built

    def test_parameterized_program(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(PARAMETERIZED_REACH, params=("s",))
        assert prepared.param_names == ("s",)
        assert prepared.execute(s=1).to_rows() == {(2,), (3,), (4,), (5,)}
        assert prepared.execute(s=10).to_rows() == {(11,)}
        # Re-binding an already seen value replans nothing further.
        misses = prepared.stats.plan_cache_misses
        assert prepared.execute(s=1).to_rows() == {(2,), (3,), (4,), (5,)}
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
        assert (1, 5) in prepared.execute()
        cdss.peer("PuBio").delete("U", (2, 3))
        cdss.update_exchange()
        answers = prepared.execute().to_rows()
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
        assert (1, 6) in prepared.execute()

    def test_answer_program_shim_is_deprecated_and_agrees(self):
        # The one-shot shim and its module are gone; the prepared program
        # is the only route, and query_program agrees with it.
        import repro.core

        assert not hasattr(repro.core, "answer_program")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.query")
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(self.REACH)
        assert prepared.execute().to_rows() == cdss.query_program(self.REACH)

    def test_unsafe_parameterized_program_rejected_at_prepare(self):
        from repro.datalog.ast import SafetyError

        cdss = synonym_cdss()
        with pytest.raises(SafetyError):
            # y is unbound even with s bound: unsafe under parameters.
            cdss.prepare_program(
                "ans(y) :- not U(s, y)", params=("s",)
            )


class TestParameterSlots:
    """Program parameters bind into plan slots, as query parameters do,
    and answers go through the prepared statement's result caches."""

    def test_plan_cache_misses_do_not_grow_with_binding_values(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(PARAMETERIZED_REACH, params=("s",))
        engine = cdss.system().engine
        prepared.execute(s=1).to_rows()

        def misses():
            return (
                prepared.stats.plan_cache_misses
                + engine.stats.plan_cache_misses
            )

        before = misses()
        for value in range(2, 22):
            prepared.execute(s=value).to_rows()
        assert misses() == before

    def test_repeated_binding_is_a_result_cache_hit(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(PARAMETERIZED_REACH, params=("s",))
        assert prepared.execute(s=1).to_rows() == {(2,), (3,), (4,), (5,)}
        applications = prepared.stats.rule_applications
        assert prepared.execute(s=1).to_rows() == {(2,), (3,), (4,), (5,)}
        assert prepared.result_cache_hits == 1
        assert prepared.stats.rule_applications == applications
        # A publish moves the version: the entry misses and re-evaluates.
        cdss.peer("PuBio").insert("U", (5, 6))
        cdss.update_exchange()
        assert (6,) in prepared.execute(s=1).to_rows()
        assert prepared.result_cache_misses == 2
        assert prepared.stats.rule_applications > applications

    def test_pinned_repeat_is_served_from_the_snapshot_cache(self):
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(PARAMETERIZED_REACH, params=("s",))
        system = cdss.system()
        snapshot = system.db.pin(
            tuple(
                output_name(name) for name in system.internal.relation_names()
            )
        )
        first = prepared.execute_at(snapshot, s=1).to_rows()
        applications = prepared.stats.rule_applications
        assert prepared.execute_at(snapshot, s=1).to_rows() == first
        assert prepared.stats.rule_applications == applications

    def test_concurrent_executes_share_the_auxiliary_engine(self):
        """Reader threads executing one program with different values
        each get their own value's answers."""
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(PARAMETERIZED_REACH, params=("s",))
        expected = {
            value: cdss.prepare_program(
                re.sub(r"\bs\b", str(value), PARAMETERIZED_REACH)
            ).execute().to_rows()
            for value in (1, 2, 3, 4, 10)
        }
        wrong = []

        def reader(offset):
            try:
                read(offset)
            except Exception as error:  # pragma: no cover - failure path
                wrong.append(error)

        def read(offset):
            for step in range(80):
                # Mostly values no row holds: each is a result-cache miss,
                # so the auxiliary rules run for it.
                value = (
                    (1, 2, 3, 4, 10)[(offset + step) % 5]
                    if step % 4 == 0
                    else 1000 * (offset + 1) + step
                )
                rows = prepared.execute(s=value).to_rows()
                if rows != expected.get(value, frozenset()):
                    wrong.append((value, rows))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    def test_program_object_safe_only_with_parameters(self):
        from repro.datalog.ast import Atom, Program, Rule, SafetyError, Variable

        s, y, z = Variable("s"), Variable("y"), Variable("z")
        program = Program(
            (
                Rule(Atom("Tag", (s, y)), (Atom("U", (y, z)),)),
                Rule(Atom("ans", (s, y)), (Atom("Tag", (s, y)),)),
            )
        )
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(program, params=("s",))
        assert prepared.execute(s=7).to_rows() == {
            (7, 1), (7, 2), (7, 3), (7, 4), (7, 10)
        }
        with pytest.raises(SafetyError):
            cdss.prepare_program(program)

    def test_program_text_safe_only_with_parameters(self):
        """Datalog text whose safety needs a parameter parses: the one
        safety check counts the parameters as bound."""
        from repro.datalog.ast import SafetyError

        text = (
            "Target(y) :- U(x, y)\n"
            "ans(x) :- U(x, y), not Target(x), not U(s, y)"
        )
        cdss = synonym_cdss()
        prepared = cdss.prepare_program(text, params=("s",))
        # U is 1-2, 2-3, 3-4, 4-5, 10-11; Target is {2, 3, 4, 5, 11}.
        assert prepared.execute(s=99).to_rows() == {(1,), (10,)}
        assert prepared.execute(s=1).to_rows() == {(10,)}
        assert prepared.execute(s=10).to_rows() == {(1,)}
        with pytest.raises(SafetyError):
            cdss.prepare_program(text)
        query = cdss.prepare("ans(x) :- U(x, y), not U(s, y)", params=("s",))
        assert query.execute(s=10).to_rows() == {(1,), (2,), (3,), (4,)}

    @pytest.mark.parametrize("program", PARAMETERIZED_PROGRAMS)
    @pytest.mark.parametrize("value", [1, 2, 4, 10, 11, 99])
    def test_bound_parameter_equals_inlined_constant(self, program, value):
        cdss = synonym_cdss()
        bound = cdss.prepare_program(program, params=("s",)).execute(s=value)
        inlined = re.sub(r"\bs\b", str(value), program)
        for mode in ("certain", "with_nulls"):
            assert (
                getattr(bound, mode)().to_rows()
                == getattr(cdss.prepare_program(inlined).execute(), mode)()
                .to_rows()
            )
