"""Tests for the evaluation hot path: plan caching, persistent deltas,
compiled plan execution, exact round accounting, and bulk index maintenance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    CostBasedPlanner,
    NaiveEngine,
    PreparedPlanner,
    SemiNaiveEngine,
    parse_program,
)
from repro.datalog import stratify
from repro.datalog.stratify import twin_groups
from repro.datalog.plan import run_plan
from repro.storage import Database, Instance
from repro.workload.generator import CDSSWorkloadGenerator, WorkloadConfig

TC_PROGRAM = """
    T(x, y) :- E(x, y)
    T(x, z) :- T(x, y), E(y, z)
"""


def make_db(tables):
    db = Database()
    for name, (arity, rows) in tables.items():
        db.create(name, arity, rows)
    return db


class TestPlanCache:
    def test_prepared_planner_plans_are_cached_in_engine(self):
        db = make_db({"E": (2, [(1, 2), (2, 3), (3, 4)])})
        engine = SemiNaiveEngine(PreparedPlanner())
        prog = parse_program(TC_PROGRAM)
        first = engine.run(prog, db)
        assert first.plan_cache_misses > 0
        # Delta-driven rounds re-request the same (rule, delta) plans.
        assert first.plan_cache_hits > 0

        # The first incremental pass still builds the E-delta plans ...
        db["E"].insert((4, 5))
        engine.run_insertions(prog, db, {"E": {(4, 5)}})
        # ... after which an identically shaped pass is all cache hits.
        db["E"].insert((5, 6))
        engine.run_insertions(prog, db, {"E": {(5, 6)}})
        second = engine.last_result
        assert second.plan_cache_misses == 0
        assert second.plan_cache_hit_rate == 1.0

    def test_program_validated_once_across_insertion_passes(
        self, monkeypatch
    ):
        from repro.datalog import engine as engine_module

        calls = {"stratify": 0, "sound": 0}
        original_stratify = engine_module.stratify
        original_sound = SemiNaiveEngine._check_insertion_soundness

        def counting_stratify(program):
            calls["stratify"] += 1
            return original_stratify(program)

        def counting_sound(self, program, delta_preds):
            calls["sound"] += 1
            return original_sound(self, program, delta_preds)

        monkeypatch.setattr(engine_module, "stratify", counting_stratify)
        monkeypatch.setattr(
            SemiNaiveEngine, "_check_insertion_soundness", counting_sound
        )
        db = make_db({"E": (2, [(1, 2)])})
        engine = SemiNaiveEngine()
        prog = parse_program(TC_PROGRAM)
        engine.run(prog, db)
        for value in range(3, 8):
            db["E"].insert((value - 1, value))
            engine.run_insertions(prog, db, {"E": {(value - 1, value)}})
        assert calls == {"stratify": 1, "sound": 1}
        assert (1, 7) in db["T"]
        # A different delta-predicate set is its own soundness question,
        # and a structurally equal but distinct program is validated anew.
        engine.run_insertions(prog, db, {"T": set()})
        engine.run_insertions(parse_program(TC_PROGRAM), db, {"E": set()})
        assert calls == {"stratify": 2, "sound": 3}

    def test_cost_based_planner_replans_when_data_changes(self):
        db = make_db({"E": (2, [(1, 2), (2, 3), (3, 4)])})
        engine = SemiNaiveEngine(CostBasedPlanner())
        prog = parse_program(TC_PROGRAM)
        result = engine.run(prog, db)
        # Inserts bump the database version between rounds, so the
        # statistics-driven planner can never reuse a stale plan.
        assert result.plan_cache_hits == 0

    def test_invalidate_plans_forces_rebuild(self):
        db = make_db({"E": (2, [(1, 2)])})
        planner = PreparedPlanner()
        engine = SemiNaiveEngine(planner)
        prog = parse_program("T(x, y) :- E(x, y)")
        engine.run(prog, db)
        built = planner.plans_built
        engine.invalidate_plans()
        engine.run(prog, db)
        assert planner.plans_built > built

    def test_cumulative_stats_accumulate_across_runs(self):
        db = make_db({"E": (2, [(1, 2)])})
        engine = SemiNaiveEngine()
        prog = parse_program("T(x, y) :- E(x, y)")
        engine.run(prog, db)
        after_one = engine.stats.rule_applications
        engine.run(prog, db)
        assert engine.stats.rule_applications > after_one
        assert engine.last_result.rule_applications < engine.stats.rule_applications


class TestRoundAccounting:
    def test_full_run_rounds_exact(self):
        db = make_db({"E": (2, [(1, 2), (2, 3), (3, 4)])})
        result = SemiNaiveEngine().run(parse_program(TC_PROGRAM), db)
        # Round 1 (naive pass): T gets the edges via rule 1, then the
        # length-2 paths via rule 2 in the same pass.  Round 2 derives the
        # length-3 path from the deltas; round 3 derives nothing and stops.
        assert result.rounds == 3

    def test_non_recursive_stratum_is_single_round(self):
        db = make_db({"E": (1, [(1,)])})
        result = SemiNaiveEngine().run(parse_program("H(x) :- E(x)"), db)
        # H is not read by any body atom: no delta round should follow the
        # naive pass.
        assert result.rounds == 1

    def test_seeded_run_counts_only_driven_rounds(self):
        db = make_db({"E": (2, [(1, 2)])})
        prog = parse_program(TC_PROGRAM)
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        db["E"].insert((2, 3))
        engine.run_insertions(prog, db, {"E": {(2, 3)}})
        # Round 1 derives T(2,3)/T(1,3); round 2 derives nothing new.
        assert engine.last_result.rounds == 2

    def test_no_phantom_rounds_for_untouched_strata(self):
        # The second stratum's rules never read the seeded predicate, so it
        # must contribute zero rounds (the pre-fix code charged one).
        prog = parse_program(
            """
            A(x) :- E(x)
            B(x) :- V(x), not Z(x)
            """
        )
        db = make_db({"E": (1, [(1,)]), "V": (1, [(9,)]), "Z": (1, [])})
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        db["E"].insert((2,))
        engine.run_insertions(prog, db, {"E": {(2,)}})
        # Only the A-stratum runs: one delta round deriving A(2), then a
        # second showing quiescence... A is not in any body, so exactly 1.
        assert engine.last_result.rounds == 1

    def test_irrelevant_seed_runs_zero_rounds(self):
        prog = parse_program("H(x) :- E(x)")
        db = make_db({"E": (1, [(1,)]), "F": (1, [(5,)])})
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        db["F"].insert((6,))
        derived = engine.run_insertions(prog, db, {"F": {(6,)}})
        assert derived == {}
        assert engine.last_result.rounds == 0


class TestComponentOrder:
    def test_chain_publish_pays_each_hop_once(self):
        """On an acyclic 10-peer chain every predicate is its own
        non-recursive component: a publish evaluates each (twin group,
        Δ-carrying occurrence) pair exactly once and runs one pass per
        touched component — no fixpoint rounds."""
        generator = CDSSWorkloadGenerator(
            WorkloadConfig(peers=10, dataset="integer")
        )
        cdss = generator.build_cdss()
        generator.populate(cdss, 10)
        system = cdss.system()
        components = stratify(system.program).components
        assert not any(component.recursive for component in components)
        sizes = {name: len(system.db[name]) for name in system.db.relation_names()}

        generator.record_insertions(cdss, generator.insertions(per_peer=2))
        report = cdss.update_exchange()
        # The predicates with a non-empty Δ: every relation that grew.
        grown = {
            name
            for name, size in sizes.items()
            if len(system.db[name]) > size
        }
        # A rule without twins is its own group.
        twins = twin_groups(components)
        occurrences = [
            (id(twins.get(id(rule), rule)), index)
            for component in components
            for rule in component.rules
            for index, atom in enumerate(rule.body)
            if not atom.negated and atom.predicate in grown
        ]
        pairs = len(set(occurrences))
        assert pairs < len(occurrences)
        touched = sum(
            1 for component in components if component.inputs & grown
        )
        evaluation = report.details["evaluation"]
        assert evaluation["rule_applications"] == pairs
        assert evaluation["rounds"] == touched
        assert touched > 10

    def test_delta_pool_holds_no_rows_after_a_run(self):
        db = make_db({"E": (2, [(1, 2), (2, 3), (3, 4)])})
        prog = parse_program(TC_PROGRAM + "C(x) :- T(x, x)")
        engine = SemiNaiveEngine()

        def pooled_rows():
            return sum(map(len, engine._delta_pool._instances.values()))

        engine.run(prog, db)
        assert engine._delta_pool._instances
        assert pooled_rows() == 0
        db["E"].insert((4, 1))
        engine.run_insertions(prog, db, {"E": {(4, 1)}})
        assert (1,) in db["C"]
        assert pooled_rows() == 0


class TestPersistentDeltas:
    def test_delta_instances_are_reused_across_runs(self):
        db = make_db({"E": (2, [(1, 2), (2, 3)])})
        prog = parse_program(TC_PROGRAM)
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        deltas_after_run = dict(engine._delta_pool._instances)
        assert deltas_after_run  # the recursion exercised delta relations
        db["E"].insert((3, 4))
        engine.run_insertions(prog, db, {"E": {(3, 4)}})
        for key, instance in deltas_after_run.items():
            assert engine._delta_pool._instances[key] is instance

    def test_replace_contents_keeps_indexes_consistent(self):
        inst = Instance("D", 2, [(1, "a"), (2, "b")])
        assert set(inst.lookup([0], (1,))) == {(1, "a")}  # materialize index
        inst.replace_contents([(2, "b"), (3, "c")])  # partial overlap
        assert set(inst.lookup([0], (3,))) == {(3, "c")}
        assert set(inst.lookup([0], (1,))) == set()
        inst.replace_contents([(4, "d")])  # complete turnover
        assert set(inst.lookup([0], (4,))) == {(4, "d")}
        assert set(inst.lookup([0], (2,))) == set()
        assert inst.rows() == {(4, "d")}


class TestBulkIndexMaintenance:
    def _reference_index(self, rows, cols):
        index = {}
        for row in rows:
            index.setdefault(tuple(row[c] for c in cols), set()).add(row)
        return index

    def test_insert_many_patches_all_indexes(self):
        inst = Instance("R", 3, [(1, "a", 10)])
        inst.ensure_index([0])
        inst.ensure_index([1, 2])
        added = inst.insert_many([(1, "a", 10), (2, "b", 20), (3, "c", 30)])
        assert added == 2
        for cols in ((0,), (1, 2)):
            expected = self._reference_index(inst.rows(), cols)
            for key, bucket in expected.items():
                assert set(inst.lookup(cols, key)) == bucket

    def test_delete_many_patches_all_indexes(self):
        rows = [(i, i % 3) for i in range(12)]
        inst = Instance("R", 2, rows)
        inst.ensure_index([1])
        removed = inst.delete_many([(0, 0), (1, 1), (99, 0)])
        assert removed == 2
        expected = self._reference_index(inst.rows(), (1,))
        for key in {(0,), (1,), (2,)}:
            assert set(inst.lookup([1], key)) == expected.get(key, set())

    def test_bulk_ops_bump_version_once(self):
        inst = Instance("R", 1)
        v0 = inst.version
        inst.insert_many([(1,), (2,), (3,)])
        assert inst.version == v0 + 1
        inst.delete_many([(1,), (2,)])
        assert inst.version == v0 + 2
        inst.insert_many([])  # no-op: version unchanged
        assert inst.version == v0 + 2

    def test_lookup_returns_live_readonly_view(self):
        inst = Instance("R", 2, [(1, "a")])
        view = inst.lookup([0], (1,))
        assert set(view) == {(1, "a")}
        inst.insert((1, "b"))
        # Zero-copy: the view reflects the mutation (it is the live bucket).
        assert set(view) == {(1, "a"), (1, "b")}


class TestExecutorSubstitutions:
    def test_execute_plan_substitution_is_mapping(self):
        from repro.datalog.parser import parse_rule
        from repro.datalog.plan import RulePlan, execute_plan
        from repro.datalog.ast import Variable

        rule = parse_rule("H(x, y) :- A(x, y)")
        source = Instance("A", 2, [(1, 2)])
        results = list(execute_plan(RulePlan(rule, (0,)), lambda i, a: source))
        assert len(results) == 1
        row, subst = results[0]
        assert row == (1, 2)
        assert dict(subst) == {Variable("x"): 1, Variable("y"): 2}
        assert subst[Variable("x")] == 1
        assert len(subst) == 2

    def test_run_plan_applies_row_filter(self):
        from repro.datalog.parser import parse_rule
        from repro.datalog.plan import RulePlan

        rule = parse_rule("H(x) :- A(x)")
        source = Instance("A", 1, [(1,), (2,), (3,)])
        rows = run_plan(
            RulePlan(rule, (0,)),
            lambda i, a: source,
            row_filter=lambda row: row[0] != 2,
        )
        assert sorted(rows) == [(1,), (3,)]


@st.composite
def random_edges(draw):
    n = draw(st.integers(2, 6))
    return draw(
        st.sets(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=18)
    )


@settings(max_examples=30, deadline=None)
@given(edges=random_edges(), extra=random_edges())
def test_property_cached_engine_agrees_with_naive(edges, extra):
    """Plan-cached + persistent-delta evaluation reaches the same fixpoint
    as the naive reference, including across an incremental insertion pass
    reusing the warm engine."""
    prog = parse_program(
        """
        T(x, y) :- E(x, y)
        T(x, z) :- T(x, y), E(y, z)
        Loop(x) :- T(x, x)
        Safe(x) :- V(x), not Loop(x)
        """
    )
    nodes = {x for e in edges | extra for x in e}
    db = Database()
    db.create("E", 2, edges)
    db.create("V", 1, [(x,) for x in nodes])
    engine = SemiNaiveEngine()
    engine.run(prog, db)

    # Warm incremental pass through the same engine (cache + deltas reused).
    new_edges = extra - edges
    # Insertions may not reach the negated stratum incrementally; recompute
    # the negation-free part incrementally and compare the positive idbs.
    positive = parse_program(
        """
        T(x, y) :- E(x, y)
        T(x, z) :- T(x, y), E(y, z)
        """
    )
    for edge in new_edges:
        db["E"].insert(edge)
    engine.run_insertions(positive, db, {"E": new_edges})

    reference = Database()
    reference.create("E", 2, edges | extra)
    reference.create("V", 1, [(x,) for x in nodes])
    NaiveEngine().run(
        parse_program(
            """
            T(x, y) :- E(x, y)
            T(x, z) :- T(x, y), E(y, z)
            """
        ),
        reference,
    )
    assert db["T"].rows() == reference["T"].rows()


@st.composite
def layered_programs(draw):
    """Random programs mixing chains, a recursive component fed by the
    chain (none, self-recursive or mutually recursive), components fed by
    that one, and negation across strata.  ``full`` adds a rule negating a
    predicate derived from ``E``, which only full evaluation may run; the
    ``insert`` program negates only ``W`` (derived from ``V``/``Z``, never
    seeded), so insertions on ``E`` stay sound."""
    rules = ["W(x) :- V(x), not Z(x)"]
    previous = "E"
    for number in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            rules.append(f"C{number}(x, y) :- {previous}(x, y)")
        else:
            rules.append(f"C{number}(x, z) :- {previous}(x, y), E(y, z)")
        previous = f"C{number}"
    kind = draw(st.sampled_from(["none", "self", "mutual"]))
    top = previous
    if kind == "self":
        rules += [
            f"T(x, y) :- {previous}(x, y)",
            f"T(x, z) :- T(x, y), {previous}(y, z)",
        ]
        top = "T"
    elif kind == "mutual":
        rules += [
            f"T(x, y) :- {previous}(x, y)",
            "T(x, z) :- U(x, y), E(y, z)",
            "U(x, y) :- T(x, y)",
        ]
        top = "T"
    rules.append(f"D(x, y) :- {top}(x, y), not W(y)")
    if draw(st.booleans()):
        # Two Δ-carrying occurrences in one non-recursive rule.
        rules.append(f"K(x) :- D(x, y), {top}(y, x)")
    insert = "\n".join(rules)
    full = insert + f"\nSafe(x) :- V(x), not {top}(x, x)"
    return full, insert


@settings(max_examples=40, deadline=None)
@given(
    programs=layered_programs(),
    edges=random_edges(),
    extra=random_edges(),
    excluded=st.sets(st.integers(0, 6), max_size=3),
)
def test_property_component_order_agrees_with_naive(
    programs, edges, extra, excluded
):
    """Component-ordered evaluation reaches the naive fixpoint on random
    layered programs, for both ``run`` and ``run_insertions``."""
    full_text, insert_text = programs
    nodes = {x for e in edges | extra for x in e} | excluded

    def fresh_db(edge_rows):
        db = Database()
        db.create("E", 2, edge_rows)
        db.create("V", 1, [(x,) for x in nodes])
        db.create("Z", 1, [(x,) for x in excluded])
        return db

    def naive(text, edge_rows):
        db = fresh_db(edge_rows)
        NaiveEngine().run(parse_program(text), db)
        return db

    def idb(db, text):
        program = parse_program(text)
        return {
            pred: db[pred].rows() for pred in program.idb_predicates()
        }

    engine = SemiNaiveEngine()
    db = fresh_db(edges)
    engine.run(parse_program(full_text), db)
    assert idb(db, full_text) == idb(naive(full_text, edges), full_text)

    # A warm incremental pass over the insertion program.
    db = fresh_db(edges)
    insert = parse_program(insert_text)
    engine.run(insert, db)
    new_edges = extra - edges
    db["E"].insert_many(new_edges)
    engine.run_insertions(insert, db, {"E": new_edges})
    reference = naive(insert_text, edges | extra)
    assert idb(db, insert_text) == idb(reference, insert_text)
