"""Focused tests for plan execution details and EXPLAIN rendering."""

import pytest

from repro import CDSS
from repro.datalog import (
    SemiNaiveEngine,
    parse_program,
    parse_rule,
)
from repro.datalog.ast import (
    Atom,
    Constant,
    Rule,
    SkolemFunction,
    SkolemTerm,
    SkolemValue,
    Variable,
)
from repro.datalog.explain import explain_program, explain_rule
from repro.datalog.plan import RulePlan, execute_plan
from repro.datalog.planner import CostBasedPlanner, PreparedPlanner
from repro.storage import Database, Instance

X, Y = Variable("x"), Variable("y")


def run_plan(rule, order, tables):
    db = {name: Instance(name, arity, rows) for name, (arity, rows) in tables.items()}

    def resolve(_index, atom):
        return db[atom.predicate]

    plan = RulePlan(rule, tuple(order))
    return [row for row, _ in execute_plan(plan, resolve)]


class TestExecutionDetails:
    def test_anti_join_filters(self):
        rule = parse_rule("H(x) :- A(x), not B(x)")
        rows = run_plan(
            rule, (0, 1), {"A": (1, [(1,), (2,)]), "B": (1, [(2,)])}
        )
        assert rows == [(1,)]

    def test_probe_uses_constants(self):
        rule = parse_rule("H(x) :- A(x, 5)")
        rows = run_plan(rule, (0,), {"A": (2, [(1, 5), (2, 6)])})
        assert rows == [(1,)]

    def test_head_filter_applied(self):
        rule = parse_rule("H(x) :- A(x)")
        plan = RulePlan(rule, (0,))
        source = Instance("A", 1, [(1,), (2,)])
        rows = [
            row
            for row, _ in execute_plan(
                plan,
                lambda i, a: source,
                head_filter=lambda row, subst: row[0] != 2,
            )
        ]
        assert rows == [(1,)]

    def test_skolem_pattern_in_body_matches_null(self):
        # H(n) :- U(n, f(n)) — matches only rows whose second column is the
        # null produced by f from the first column's value.
        f = SkolemFunction("f")
        rule = Rule(
            Atom("H", (X,)),
            (Atom("U", (X, SkolemTerm(f, (X,)))),),
        )
        rows = run_plan(
            rule,
            (0,),
            {
                "U": (
                    2,
                    [
                        (1, SkolemValue("f", (1,))),
                        (2, SkolemValue("f", (99,))),  # wrong argument
                        (3, SkolemValue("g", (3,))),  # wrong function
                        (4, "plain"),  # not a null
                    ],
                )
            },
        )
        assert rows == [(1,)]

    def test_skolem_pattern_binds_argument(self):
        # H(x) :- U(f(x)) — the null's argument BINDS x.
        f = SkolemFunction("f")
        rule = Rule(Atom("H", (X,)), (Atom("U", (SkolemTerm(f, (X,)),)),))
        rows = run_plan(
            rule,
            (0,),
            {"U": (1, [(SkolemValue("f", (7,)),), ("plain",)])},
        )
        assert rows == [(7,)]

    def test_bound_skolem_pattern_probes_index(self):
        # With x bound first, the Skolem pattern becomes a computable probe.
        f = SkolemFunction("f")
        rule = Rule(
            Atom("H", (X,)),
            (
                Atom("A", (X,)),
                Atom("U", (SkolemTerm(f, (X,)), Constant("tag"))),
            ),
        )
        rows = run_plan(
            rule,
            (0, 1),
            {
                "A": (1, [(1,), (2,)]),
                "U": (
                    2,
                    [
                        (SkolemValue("f", (1,)), "tag"),
                        (SkolemValue("f", (2,)), "other"),
                    ],
                ),
            },
        )
        assert rows == [(1,)]

    def test_engine_supports_skolem_body_rules(self):
        # Full engine roundtrip: derive nulls, then match them back.
        f = SkolemFunction("f_m3_c")
        program = parse_program("U(n, f_m3_c(n)) :- B(i, n)")
        match_rule = Rule(
            Atom("Back", (X,)),
            (Atom("U", (X, SkolemTerm(f, (X,)))),),
        )
        db = Database()
        db.create("B", 2, [(1, 5)])
        engine = SemiNaiveEngine()
        engine.run(program.extend([match_rule]), db)
        assert db["Back"].rows() == {(5,)}


class TestExplain:
    def test_explain_rule_mentions_steps(self):
        db = Database()
        db.create("A", 2, [(1, 2)])
        db.create("B", 1, [(2,)])
        text = explain_rule(parse_rule("H(x) :- A(x, y), not B(x)"), db)
        assert "1." in text and "2." in text
        assert "anti-join" in text
        assert "[1 rows]" in text  # cardinality annotation

    def test_explain_shows_probe_columns(self):
        db = Database()
        db.create("A", 2)
        db.create("B", 2)
        text = explain_rule(parse_rule("H(x, z) :- A(x, y), B(y, z)"), db)
        assert "full scan" in text
        assert "index probe" in text

    def test_explain_mentions_skolem_functions(self):
        text = explain_rule(parse_rule("U(n, f(n)) :- B(i, n)"))
        assert "labeled nulls via f" in text

    def test_explain_program_lists_strata(self):
        program = parse_program(
            """
            A(x) :- E(x)
            B(x) :- E(x), not A(x)
            """
        )
        text = explain_program(program)
        assert "stratum 0" in text and "stratum 1" in text
        assert "2 rules" in text

    def test_explain_program_lists_components_in_evaluation_order(self):
        program = parse_program(
            """
            C(x) :- T(x, x)
            T(x, y) :- E(x, y)
            T(x, z) :- T(x, y), E(y, z)
            """
        )
        text = explain_program(program)
        assert "2 components (1 recursive)" in text
        assert "component 0 (stratum 0, recursive): T" in text
        assert "component 1 (stratum 0, non-recursive): C" in text
        assert text.index("component 0") < text.index("component 1")

    def test_explain_program_marks_shared_head_evaluation(self):
        """On a 2-peer existential program the proj/trust pair of the one
        head shares a plan run; the listing marks the twin that reuses it
        with the twin that evaluates."""
        cdss = CDSS("explain-twins")
        cdss.add_peer("P1", {"R": ("a", "b")})
        cdss.add_peer("P2", {"S": ("a", "c")})
        cdss.add_mapping("m", "R(x, y) -> S(x, z)")
        system = cdss.system()
        text = explain_program(system.program, system.db)
        marks = [line for line in text.splitlines() if "shares" in line]
        # One block per component, keyed by its member list.
        blocks = {
            block.splitlines()[0].split(": ")[1]: block
            for block in text.split("\ncomponent ")[1:]
        }
        proj, trust = blocks["S__i"], blocks["S__t"]
        assert "labeled nulls via f_m_z" in proj and "[trust:m:0]" in trust
        # Whichever twin runs first evaluates; the other is marked.
        leader = "S__i" if text.index(proj) < text.index(trust) else "S__t"
        second = trust if leader == "S__i" else proj
        assert marks == [f"    shares evaluation with {leader}"]
        assert marks[0] in second

    def test_explain_with_cost_based_planner(self):
        db = Database()
        db.create("Big", 2, [(i, i) for i in range(50)])
        db.create("Tiny", 1, [(1,)])
        text = explain_rule(
            parse_rule("H(x, y) :- Big(x, y), Tiny(y)"),
            db,
            planner=CostBasedPlanner(),
        )
        # The tiny relation is scanned first.
        first_step = text.splitlines()[1]
        assert "Tiny" in first_step


class TestPlannerEdgeCases:
    def test_single_atom_rule(self):
        for planner in (PreparedPlanner(), CostBasedPlanner()):
            db = Database()
            db.create("A", 1)
            plan = planner.plan(parse_rule("H(x) :- A(x)"), db, None)
            assert plan.order == (0,)

    def test_delta_position_always_first(self):
        rule = parse_rule("H(x, z) :- A(x, y), B(y, z), C(z, x)")
        db = Database()
        for name in ("A", "B", "C"):
            db.create(name, 2)
        for planner in (PreparedPlanner(), CostBasedPlanner()):
            for delta in range(3):
                plan = planner.plan(rule, db, delta)
                assert plan.order[0] == delta

    def test_missing_relation_planned_gracefully(self):
        # Cost-based planning over a predicate not in the catalog.
        db = Database()
        plan = CostBasedPlanner().plan(parse_rule("H(x) :- Ghost(x)"), db, None)
        assert plan.order == (0,)
