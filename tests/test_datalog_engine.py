"""Tests for stratification, planning, and the semi-naive engine."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datalog import (
    CostBasedPlanner,
    IncrementalUnsoundError,
    NaiveEngine,
    PreparedPlanner,
    SemiNaiveEngine,
    SkolemValue,
    StratificationError,
    parse_program,
    parse_rule,
    stratify,
)
from repro.datalog.plan import PlanError, RulePlan, check_plan
from repro.storage import Database


def run(prog_text, tables, planner=None, filters=None):
    db = Database()
    for name, (arity, rows) in tables.items():
        db.create(name, arity, rows)
    engine = SemiNaiveEngine(planner, head_filters=filters)
    result = engine.run(parse_program(prog_text), db)
    return db, result


class TestStratify:
    def test_single_stratum_positive_recursion(self):
        prog = parse_program(
            """
            T(x, y) :- E(x, y)
            T(x, z) :- T(x, y), E(y, z)
            """
        )
        strat = stratify(prog)
        assert len(strat) == 1

    def test_negation_pushes_to_later_stratum(self):
        prog = parse_program(
            """
            A(x) :- E(x)
            B(x) :- E(x), not A(x)
            """
        )
        strat = stratify(prog)
        assert strat.predicate_stratum["A"] < strat.predicate_stratum["B"]

    def test_negation_over_edb_is_fine(self):
        prog = parse_program("A(x) :- E(x), not F(x)")
        assert len(stratify(prog)) == 1

    def test_unstratifiable_program_rejected(self):
        prog = parse_program(
            """
            A(x) :- E(x), not B(x)
            B(x) :- E(x), not A(x)
            """
        )
        with pytest.raises(StratificationError):
            stratify(prog)

    def test_negative_self_loop_rejected(self):
        prog = parse_program("A(x) :- A(y), not A(x), E(x)")
        with pytest.raises(StratificationError):
            stratify(prog)

    def test_chain_of_negations_many_strata(self):
        prog = parse_program(
            """
            A(x) :- E(x)
            B(x) :- E(x), not A(x)
            C(x) :- E(x), not B(x)
            """
        )
        strat = stratify(prog)
        assert strat.predicate_stratum["C"] == 2

    def test_empty_program(self):
        assert len(stratify(parse_program(""))) == 0


class TestPlans:
    def test_check_plan_rejects_non_permutation(self):
        rule = parse_rule("H(x) :- A(x), B(x)")
        with pytest.raises(PlanError):
            check_plan(rule, (0, 0))

    def test_check_plan_rejects_premature_negation(self):
        rule = parse_rule("H(x) :- A(x), not B(x)")
        with pytest.raises(PlanError):
            RulePlan(rule, (1, 0))
        RulePlan(rule, (0, 1))  # valid

    def test_planners_emit_valid_plans(self):
        rule = parse_rule("H(x, z) :- A(x, y), B(y, z), not C(x, z)")
        db = Database()
        for name in ("A", "B"):
            db.create(name, 2)
        db.create("C", 2)
        for planner in (PreparedPlanner(), CostBasedPlanner()):
            plan = planner.plan(rule, db, None)
            check_plan(rule, plan.order)
            plan_delta = planner.plan(rule, db, 1)
            assert plan_delta.order[0] == 1

    def test_prepared_planner_caches(self):
        rule = parse_rule("H(x) :- A(x)")
        db = Database()
        db.create("A", 1)
        planner = PreparedPlanner()
        planner.plan(rule, db, None)
        planner.plan(rule, db, None)
        assert planner.plans_built == 1
        planner.invalidate()
        planner.plan(rule, db, None)
        assert planner.plans_built == 2

    def test_cost_based_planner_prefers_selective_atom(self):
        # B is tiny, A is huge: the cost-based planner should start with B.
        rule = parse_rule("H(x, y) :- A(x, y), B(y)")
        db = Database()
        db.create("A", 2, [(i, i % 100) for i in range(1000)])
        db.create("B", 1, [(1,)])
        plan = CostBasedPlanner().plan(rule, db, None)
        assert plan.order[0] == 1


class TestFixpoint:
    def test_transitive_closure(self):
        db, _ = run(
            """
            T(x, y) :- E(x, y)
            T(x, z) :- T(x, y), E(y, z)
            """,
            {"E": (2, [(1, 2), (2, 3), (3, 4)])},
        )
        assert db["T"].rows() == {
            (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)
        }

    def test_all_planners_and_engines_agree(self):
        prog_text = """
            T(x, y) :- E(x, y)
            T(x, z) :- T(x, y), E(y, z)
            S(x) :- T(x, x)
            Q(x) :- V(x), not S(x)
        """
        edges = [(1, 2), (2, 1), (2, 3), (3, 4), (4, 3)]
        results = []
        for engine_cls in (SemiNaiveEngine, NaiveEngine):
            for planner_cls in (PreparedPlanner, CostBasedPlanner):
                db = Database()
                db.create("E", 2, edges)
                db.create("V", 1, [(i,) for i in range(1, 6)])
                engine_cls(planner_cls()).run(parse_program(prog_text), db)
                results.append(
                    (db["T"].rows(), db["S"].rows(), db["Q"].rows())
                )
        assert all(r == results[0] for r in results)
        assert results[0][1] == {(1,), (2,), (3,), (4,)}
        assert results[0][2] == {(5,)}

    def test_skolem_head_creates_labeled_nulls(self):
        db, _ = run(
            "U(n, f(n)) :- B(i, n)",
            {"B": (2, [(3, 5), (1, 3)])},
        )
        assert (5, SkolemValue("f", (5,))) in db["U"]
        assert (3, SkolemValue("f", (3,))) in db["U"]

    def test_skolem_values_join_on_equality(self):
        # Joining on labeled nulls must work (Section 2.1: "queries can join
        # on their equality").
        db, _ = run(
            """
            U(n, f(n)) :- B(n)
            Same(x, y) :- U(x, z), U(y, z)
            """,
            {"B": (1, [(1,), (2,)])},
        )
        assert db["Same"].rows() == {(1, 1), (2, 2)}

    def test_skolem_recursion_terminates_for_weakly_acyclic_shape(self):
        # f is applied to data from B only (not recursively), so the fixpoint
        # is finite even though U feeds back into V.
        db, _ = run(
            """
            U(n, f(n)) :- B(n)
            V(c) :- U(n, c)
            """,
            {"B": (1, [(1,)])},
        )
        assert len(db["U"]) == 1
        assert len(db["V"]) == 1

    def test_constants_in_rule_bodies(self):
        db, _ = run(
            "H(x) :- E(x, 2)",
            {"E": (2, [(1, 2), (5, 3)])},
        )
        assert db["H"].rows() == {(1,)}

    def test_repeated_variables_in_body(self):
        db, _ = run(
            "H(x) :- E(x, x)",
            {"E": (2, [(1, 1), (1, 2)])},
        )
        assert db["H"].rows() == {(1,)}

    def test_head_filters_reject_derivations(self):
        prog = parse_program("")
        db = Database()
        db.create("E", 2, [(1, 2), (3, 4)])
        rule = parse_rule("H(x, y) :- E(x, y)", label="m1")
        engine = SemiNaiveEngine(
            head_filters={"m1": lambda row: row[0] != 3}
        )
        engine.run(prog.extend([rule]), db)
        assert db["H"].rows() == {(1, 2)}

    def test_head_filter_applies_transitively(self):
        # Rejecting an intermediate tuple stops everything derived from it.
        rules = [
            parse_rule("A(x) :- E(x)", label="m1"),
            parse_rule("B(x) :- A(x)", label="m2"),
        ]
        db = Database()
        db.create("E", 1, [(1,), (2,)])
        engine = SemiNaiveEngine(head_filters={"m1": lambda row: row[0] != 2})
        from repro.datalog.ast import Program

        engine.run(Program(tuple(rules)), db)
        assert db["A"].rows() == {(1,)}
        assert db["B"].rows() == {(1,)}

    def test_idb_relations_created_on_demand(self):
        db, _ = run("H(x) :- E(x)", {"E": (1, [(1,)])})
        assert "H" in db

    def test_mutually_recursive_predicates(self):
        db, _ = run(
            """
            Even(y) :- Succ(x, y), Odd(x)
            Odd(y) :- Succ(x, y), Even(x)
            Even(0) :- Zero(0)
            """,
            {
                "Succ": (2, [(i, i + 1) for i in range(6)]),
                "Zero": (1, [(0,)]),
            },
        )
        assert db["Even"].rows() == {(0,), (2,), (4,), (6,)}
        assert db["Odd"].rows() == {(1,), (3,), (5,)}

    def test_arity_mismatch_rejected(self):
        with pytest.raises(Exception):
            run("H(x) :- E(x), E(x, x)", {"E": (1, [(1,)])})


class TestIncrementalInsertions:
    def _fixture(self):
        prog = parse_program(
            """
            T(x, y) :- E(x, y)
            T(x, z) :- T(x, y), E(y, z)
            """
        )
        db = Database()
        db.create("E", 2, [(1, 2), (2, 3)])
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        return prog, db, engine

    def test_incremental_matches_recompute(self):
        prog, db, engine = self._fixture()
        db["E"].insert((3, 4))
        engine.run_insertions(prog, db, {"E": {(3, 4)}})

        fresh = Database()
        fresh.create("E", 2, [(1, 2), (2, 3), (3, 4)])
        SemiNaiveEngine().run(prog, fresh)
        assert db["T"].rows() == fresh["T"].rows()

    def test_incremental_returns_only_new_rows(self):
        prog, db, engine = self._fixture()
        db["E"].insert((3, 4))
        new = engine.run_insertions(prog, db, {"E": {(3, 4)}})
        assert new["T"] == {(3, 4), (2, 4), (1, 4)}

    def test_noop_insertion(self):
        prog, db, engine = self._fixture()
        new = engine.run_insertions(prog, db, {})
        assert new == {}

    def test_insertion_through_negation_rejected(self):
        prog = parse_program(
            """
            A(x) :- E(x)
            B(x) :- V(x), not A(x)
            """
        )
        db = Database()
        db.create("E", 1)
        db.create("V", 1)
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        db["E"].insert((1,))
        with pytest.raises(IncrementalUnsoundError):
            engine.run_insertions(prog, db, {"E": {(1,)}})

    def test_insertion_with_negation_on_untouched_relation_ok(self):
        prog = parse_program(
            """
            A(x) :- E(x), not R(x)
            B(x) :- A(x)
            """
        )
        db = Database()
        db.create("E", 1, [(1,)])
        db.create("R", 1, [(2,)])
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        db["E"].insert((2,))
        db["E"].insert((3,))
        new = engine.run_insertions(prog, db, {"E": {(2,), (3,)}})
        assert new["A"] == {(3,)}  # (2,) blocked by R
        assert new["B"] == {(3,)}


@st.composite
def random_edges(draw):
    n = draw(st.integers(2, 7))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n), st.integers(0, n)), max_size=20
        )
    )
    return edges


@settings(max_examples=40, deadline=None)
@given(edges=random_edges(), extra=random_edges())
# A long chain with a back edge, extended by insertions that close a
# second cycle through it.
@example(
    edges={(i, i + 1) for i in range(12)} | {(7, 2)},
    extra={(12, 13), (13, 3)},
)
def test_property_incremental_insertion_equals_recompute(edges, extra):
    """Property: semi-naive incremental insertion reaches the same fixpoint
    as recomputation from scratch, for random graphs and random insertions."""
    prog = parse_program(
        """
        T(x, y) :- E(x, y)
        T(x, z) :- T(x, y), E(y, z)
        """
    )
    db = Database()
    db.create("E", 2, edges)
    engine = SemiNaiveEngine()
    engine.run(prog, db)
    new_edges = extra - edges
    for edge in new_edges:
        db["E"].insert(edge)
    engine.run_insertions(prog, db, {"E": new_edges})

    fresh = Database()
    fresh.create("E", 2, edges | extra)
    SemiNaiveEngine().run(prog, fresh)
    assert db["T"].rows() == fresh["T"].rows()


@settings(max_examples=30, deadline=None)
@given(edges=random_edges())
def test_property_naive_equals_seminaive_with_negation(edges):
    prog = parse_program(
        """
        T(x, y) :- E(x, y)
        T(x, z) :- T(x, y), E(y, z)
        NotLoop(x) :- V(x), not Loop(x)
        Loop(x) :- T(x, x)
        """
    )
    nodes = {x for e in edges for x in e}
    db1 = Database()
    db1.create("E", 2, edges)
    db1.create("V", 1, [(x,) for x in nodes])
    SemiNaiveEngine().run(prog, db1)

    db2 = Database()
    db2.create("E", 2, edges)
    db2.create("V", 1, [(x,) for x in nodes])
    NaiveEngine().run(prog, db2)

    assert db1["T"].rows() == db2["T"].rows()
    assert db1["NotLoop"].rows() == db2["NotLoop"].rows()
