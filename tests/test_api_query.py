"""Tests for the first-class query subsystem (prepared / parameterized /
plan-cached queries, structured-predicate pushdown, answer modes)."""

import importlib
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CDSS, CountingSemiring, Query, col, param
from repro.api.query import QueryError, _OrderKey, apply_row_order
from repro.datalog.ast import SkolemValue
from repro.provenance.annotated import ExpressionSemiring
from repro.provenance.expression import ZERO
from repro.serve.protocol import StatementRegistry, encode_row


def paper_cdss() -> CDSS:
    cdss = CDSS("q")
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    with cdss.batch() as tx:
        tx.insert("G", (1, 2, 3))
        tx.insert("G", (3, 5, 2))
        tx.insert("B", (3, 5))
        tx.insert("U", (2, 5))
    cdss.update_exchange()
    return cdss


class TestPreparedText:
    def test_prepare_execute_matches_one_shot(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(x, y) :- U(x, z), U(y, z)")
        assert prepared.execute().to_rows() == cdss.query(
            "ans(x, y) :- U(x, z), U(y, z)"
        )

    def test_parameter_binding(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        assert prepared.execute(n=5).to_rows() == {(3,)}
        assert prepared.execute(n=3).to_rows() == {(1,), (3,)}
        assert prepared.execute(n=2).to_rows() == {(3,)}
        assert prepared.execute(n="nope").to_rows() == frozenset()

    def test_parameter_names_property(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        assert prepared.param_names == ("n",)

    def test_parameter_mismatch_rejected(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        with pytest.raises(QueryError):
            prepared.execute()
        with pytest.raises(QueryError):
            prepared.execute(n=1, extra=2)
        with pytest.raises(QueryError):
            cdss.prepare("ans(i) :- B(i, n)").execute(n=1)

    def test_unknown_parameter_rejected(self):
        cdss = paper_cdss()
        with pytest.raises(QueryError):
            cdss.prepare("ans(i) :- B(i, n)", params=("zz",))

    def test_unknown_relation_and_arity_rejected(self):
        cdss = paper_cdss()
        with pytest.raises(QueryError):
            cdss.prepare("ans(x) :- Nope(x)")
        with pytest.raises(QueryError):
            cdss.prepare("ans(x) :- B(x)")

    def test_negation_still_works(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i, n) :- B(i, n), not U(n, n)")
        assert prepared.execute().to_rows() == cdss.query(
            "ans(i, n) :- B(i, n), not U(n, n)"
        )

    def test_explain_mentions_parameters(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        text = prepared.explain()
        assert "parameters (bound at execute): n" in text
        assert "index probe" in text


class TestPlanCacheIntegration:
    def test_zero_replanning_across_bindings(self):
        """The acceptance criterion: re-executing with new bindings is all
        plan-cache hits — no planner invocations, no cache misses."""
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        engine = cdss.system().engine
        planner = engine.planner
        built = planner.plans_built
        hits = engine.stats.plan_cache_hits
        misses = engine.stats.plan_cache_misses
        for value in (5, 3, 2, "x", 5):
            prepared.execute(n=value).to_rows()
        assert planner.plans_built == built
        assert engine.stats.plan_cache_misses == misses
        assert engine.stats.plan_cache_hits == hits + 5

    def test_prepare_is_the_single_miss(self):
        cdss = paper_cdss()
        engine = cdss.system().engine
        misses = engine.stats.plan_cache_misses
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        assert engine.stats.plan_cache_misses == misses + 1
        prepared.execute(n=5).to_rows()
        assert engine.stats.plan_cache_misses == misses + 1

    def test_prepared_query_survives_reconfiguration(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        assert prepared.execute(n=5).to_rows() == {(3,)}
        # Reconfigure: the exchange system is rebuilt lazily; the prepared
        # query must re-bind transparently on the next execute.
        cdss.add_peer("P4", {"W": ("a",)})
        cdss.update_exchange()
        assert prepared.execute(n=5).to_rows() == {(3,)}

    def test_data_changes_visible_without_replanning(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        assert prepared.execute(n=9).to_rows() == frozenset()
        cdss.peer("PBioSQL").insert("B", (7, 9))
        cdss.update_exchange()
        planner = cdss.system().engine.planner
        built = planner.plans_built
        assert prepared.execute(n=9).to_rows() == {(7,)}
        assert planner.plans_built == built


class TestBuilder:
    def test_single_scan_equals_text(self):
        cdss = paper_cdss()
        text = cdss.query("ans(i, n) :- B(i, n)")
        built = cdss.prepare(Query.scan("B")).execute().to_rows()
        assert built == text

    def test_select_constant_pushdown(self):
        cdss = paper_cdss()
        query = cdss.relation("B").select(col("id") == 3)
        rows = cdss.prepare(query).execute().to_rows()
        assert rows == {r for r in cdss.query("ans(i, n) :- B(i, n)") if r[0] == 3}

    def test_join_and_project(self):
        cdss = paper_cdss()
        query = (
            cdss.relation("B")
            .join("U", on=(("nam", "can"),))
            .project("id", "U.nam")
        )
        built = cdss.prepare(query).execute().to_rows()
        assert built == cdss.query("ans(i, n) :- B(i, c), U(n, c)")

    def test_self_join_with_alias(self):
        cdss = paper_cdss()
        query = (
            Query.scan("U")
            .join("U", on="can", alias="U2")
            .project("U.nam", "U2.nam")
        )
        built = cdss.prepare(query).execute().to_rows()
        assert built == cdss.query("ans(x, y) :- U(x, z), U(y, z)")

    def test_builder_parameter(self):
        cdss = paper_cdss()
        query = cdss.relation("B").select(col("nam") == param("n")).project("id")
        prepared = cdss.prepare(query)
        assert prepared.execute(n=5).to_rows() == {(3,)}
        assert prepared.execute(n=3).to_rows() == {(1,), (3,)}
        assert prepared.execute(n=2).to_rows() == {(3,)}

    def test_residual_comparison(self):
        cdss = paper_cdss()
        query = cdss.relation("B").select(col("id") > 1)
        rows = cdss.prepare(query).execute().to_rows()
        assert rows == {r for r in cdss.query("ans(i, n) :- B(i, n)") if r[0] > 1}

    def test_column_vs_column(self):
        cdss = paper_cdss()
        query = cdss.relation("B").select(col("id") == col("nam"))
        rows = cdss.prepare(query).execute().to_rows()
        assert rows == {(3, 3)}

    def test_unsatisfiable_constants(self):
        cdss = paper_cdss()
        query = cdss.relation("B").select(col("id") == 1, col("id") == 2)
        assert cdss.prepare(query).execute().to_rows() == frozenset()

    def test_unknown_and_ambiguous_columns(self):
        cdss = paper_cdss()
        with pytest.raises(QueryError):
            cdss.prepare(Query.scan("B").select(col("zz") == 1))
        joined = Query.scan("B").join("U", on=(("nam", "can"),))
        with pytest.raises(QueryError):
            cdss.prepare(joined.select(col("nam") == 1))  # B.nam or U.nam?
        assert cdss.prepare(joined.select(col("U.nam") == 2)) is not None

    def test_select_before_join_resolves_pre_join_columns(self):
        """A bare column that was unambiguous at select() time must not
        become ambiguous when a later join introduces the same attribute."""
        cdss = paper_cdss()
        query = (
            Query.scan("B")
            .select(col("nam") == 5)  # only B in scope here
            .join("U", on=(("nam", "can"),))
            .project("id", "U.nam")
        )
        built = cdss.prepare(query).execute().to_rows()
        assert built == cdss.query("ans(i, n) :- B(i, 5), U(n, 5)")

    def test_builder_ops_rejected_on_text_queries(self):
        query = Query.parse("ans(x) :- U(x, y)")
        with pytest.raises(QueryError):
            query.select(col("nam") == 1)
        with pytest.raises(QueryError):
            query.project("nam")

    def test_duplicate_alias_rejected(self):
        with pytest.raises(QueryError):
            Query.scan("U").join("U", on="can")


class TestAnswerModes:
    def test_certain_default_drops_nulls(self):
        cdss = paper_cdss()
        answers = cdss.prepare("ans(n, c) :- U(n, c)").execute()
        rows = answers.to_rows()
        assert rows and not any(
            isinstance(v, SkolemValue) for row in rows for v in row
        )

    def test_with_nulls_superset(self):
        cdss = paper_cdss()
        answers = cdss.prepare("ans(n, c) :- U(n, c)").execute()
        certain = answers.to_rows()
        superset = answers.with_nulls().to_rows()
        assert certain < superset
        assert any(
            isinstance(v, SkolemValue) for row in superset for v in row
        )
        # with_nulls equals the deprecated certain=False behaviour.
        assert superset == cdss.query("ans(n, c) :- U(n, c)", certain=False)

    def test_answer_set_is_live(self):
        cdss = paper_cdss()
        answers = cdss.prepare("ans(i) :- B(i, n)", params=("n",)).execute(n=9)
        assert answers.to_rows() == frozenset()
        cdss.peer("PBioSQL").insert("B", (7, 9))
        cdss.update_exchange()
        assert answers.to_rows() == {(7,)}

    def test_answer_set_live_across_reconfiguration(self):
        """An AnswerSet obtained before a system rebuild must follow the
        prepared query onto the new system, not the detached old one."""
        cdss = paper_cdss()
        answers = cdss.prepare("ans(i) :- B(i, n)", params=("n",)).execute(n=9)
        cdss.add_peer("P4", {"W": ("a",)})  # rebuilds the exchange system
        cdss.peer("PBioSQL").insert("B", (7, 9))
        cdss.update_exchange()
        assert answers.to_rows() == {(7,)}

    def test_answer_set_protocols(self):
        cdss = paper_cdss()
        answers = cdss.prepare("ans(i, n) :- B(i, n)").execute()
        assert len(answers) == len(answers.to_rows())
        assert (3, 5) in answers
        assert bool(answers)

    def test_annotated_matches_stored_provenance(self):
        cdss = paper_cdss()
        annotated = cdss.prepare("ans(i, n) :- B(i, n)").execute().annotated()
        graph = cdss.provenance_graph()
        assert annotated  # non-empty
        for row, expression in annotated.items():
            assert expression == graph.expression_for("B", row)
            assert expression != ZERO

    def test_annotated_join_is_product_and_sum(self):
        cdss = paper_cdss()
        annotated = (
            cdss.prepare("ans(i) :- B(i, c), U(n, c)").execute().annotated()
        )
        graph = cdss.provenance_graph()
        semiring = ExpressionSemiring()
        expected: dict = {}
        for i, c in cdss.query("ans(i, c) :- B(i, c)"):
            for n, c2 in cdss.query("ans(n, c) :- U(n, c)", certain=False):
                if c2 != c:
                    continue
                product = semiring.times(
                    graph.expression_for("B", (i, c)),
                    graph.expression_for("U", (n, c2)),
                )
                expected[(i,)] = semiring.plus(
                    expected.get((i,), semiring.zero), product
                )
        # Compare on the certain rows the annotated mode reports.
        for row, expression in annotated.items():
            assert expression == expected[row]

    def test_annotated_in_counting_semiring(self):
        cdss = paper_cdss()
        annotated = (
            cdss.prepare("ans(i, n) :- B(i, n)")
            .execute()
            .annotated(semiring=CountingSemiring())
        )
        counts = cdss.evaluate_provenance(CountingSemiring())
        for row, value in annotated.items():
            assert value == counts[("B", row)]

    def test_annotated_requires_cdss_binding(self):
        cdss = paper_cdss()
        system = cdss.system()
        from repro.api.query import prepare

        prepared = prepare("ans(i) :- B(i, n)", system.db, system.internal)
        with pytest.raises(QueryError):
            prepared.execute().annotated()


class TestWherePushdown:
    def test_structured_where_no_warning(self):
        cdss = paper_cdss()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            rows = cdss.relation("B").where(col("id") == 3).to_rows()
        assert rows == {(3, 2), (3, 3), (3, 5)}

    def test_callable_where_warns_and_agrees(self):
        # Callable predicates were removed: where() refuses them outright.
        cdss = paper_cdss()
        with pytest.raises(TypeError, match="structured predicate"):
            cdss.relation("B").where(lambda r: r[0] == 3)

    def test_answer_query_shim_warns_and_agrees(self):
        # The one-shot answer_query helper and its module are gone; the
        # prepared query is the one route.
        import repro.core

        assert not hasattr(repro.core, "answer_query")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.query")
        cdss = paper_cdss()
        text = "ans(x, y) :- U(x, z), U(y, z)"
        assert cdss.prepare(text).execute().to_rows() == cdss.query(text)

    def test_where_chaining_and_residuals(self):
        cdss = paper_cdss()
        view = cdss.relation("B").where(col("id") == 3).where(col("nam") > 2)
        assert view.to_rows() == {(3, 3), (3, 5)}
        assert (3, 5) in view
        assert (3, 2) not in view
        assert (1, 3) not in view
        assert len(view) == 2

    def test_where_certain_composition(self):
        cdss = paper_cdss()
        certain = cdss.relation("U").where(col("nam") == 2).certain()
        assert certain.to_rows() == {(2, 5)}

    def test_param_in_view_predicate_rejected(self):
        cdss = paper_cdss()
        view = cdss.relation("B").where(col("id") == param("i"))
        with pytest.raises(QueryError):
            view.to_rows()

    def test_view_filtered_by_callable_cannot_become_query(self):
        # No callable-filtered view can exist, and select() refuses a
        # callable in place of a structured predicate.
        cdss = paper_cdss()
        with pytest.raises(TypeError):
            cdss.relation("B").where(lambda r: True)
        with pytest.raises(QueryError):
            cdss.relation("B").select(lambda r: True)

    def test_repr_qualifiers(self):
        cdss = paper_cdss()
        assert "filtered" in repr(cdss.relation("B").where(col("id") == 3))


@st.composite
def random_instance(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=0,
            max_size=12,
        )
    )
    key = draw(st.integers(min_value=0, max_value=5))
    return rows, key


class TestPushdownEquivalenceProperty:
    @given(random_instance())
    @settings(max_examples=25, deadline=None)
    def test_pushdown_equals_naive_filter(self, case):
        rows, key = case
        cdss = CDSS("prop")
        cdss.add_peer("P1", {"R": ("a", "b")})
        cdss.add_peer("P2", {"S": ("a", "b")})
        cdss.add_mapping("m", "R(x, y) -> S(x, y)")
        with cdss.batch() as tx:
            for row in rows:
                tx.insert("R", row)
        cdss.update_exchange()
        naive = frozenset(
            row for row in cdss.relation("S").to_rows() if row[0] == key
        )
        pushdown = cdss.relation("S").where(col("a") == key).to_rows()
        assert pushdown == naive
        # The prepared Query route agrees too.
        prepared = cdss.prepare(
            cdss.relation("S").select(col("a") == param("k"))
        )
        assert prepared.execute(k=key).to_rows() == naive


class TestReviewRegressions:
    def test_residual_recompiled_after_replan(self):
        """A cost-based planner may flip the join order after data
        changes; residual closures must be rebuilt against the new plan's
        slots, not silently read the old ones."""
        from repro.datalog.planner import CostBasedPlanner

        cdss = CDSS("cost", planner=CostBasedPlanner())
        cdss.add_peer("P1", {"R": ("a", "b")})
        cdss.add_peer("P2", {"T": ("b", "c")})
        cdss.add_mapping("m", "R(x, y) -> R(x, y)")  # keep schemas exchanged
        with cdss.batch() as tx:
            tx.insert("R", (1, 0))
            tx.insert("R", (2, 1))
            for i in range(6):
                tx.insert("T", (i % 2, i + 10))
        cdss.update_exchange()
        query = (
            Query.scan("R")
            .join("T", on="b")
            .select(col("c") > col("a"))
            .project("a", "c")
        )
        prepared = cdss.prepare(query)

        def naive():
            return frozenset(
                (a, c)
                for a, b in cdss.relation("R").to_rows()
                for b2, c in cdss.relation("T").to_rows()
                if b == b2 and c > a
            )

        first = prepared.execute().to_rows()
        assert first == naive() and first
        order_before = prepared.plan.order
        # Grow R well past T so the cost planner re-plans with T first,
        # changing the environment slot layout the residual reads.
        with cdss.batch() as tx:
            for i in range(60):
                tx.insert("R", (100 + i, i % 2))
        cdss.update_exchange()
        assert prepared.execute().to_rows() == naive()
        assert prepared.plan.order != order_before  # the replan really flips

    def test_query_program_does_not_leak_watchers(self):
        cdss = paper_cdss()
        program = "ans(x, y) :- U(x, z), U(y, z)"
        first = cdss.query_program(program)
        instance = cdss.system().db["U__o"]
        watchers_before = len(instance._watchers)
        for _ in range(5):
            assert cdss.query_program(program) == first
        assert len(instance._watchers) == watchers_before

    def test_one_shot_query_does_not_grow_engine_plan_cache(self):
        cdss = paper_cdss()
        engine = cdss.system().engine
        cdss.query("ans(i) :- B(i, n)")
        size = len(engine._plan_cache)
        for _ in range(5):
            cdss.query("ans(i) :- B(i, n)")
        assert len(engine._plan_cache) == size

    def test_boolean_and_misuse_raises(self):
        compound = (col("a") == 1) & (col("b") == 2)
        with pytest.raises(QueryError):
            bool(compound)
        with pytest.raises(QueryError):
            compound and (col("c") == 3)
        with pytest.raises(QueryError):
            bool(col("a") == 1)


class TestDatabaseVersionDirtyBit:
    def test_version_monotone_on_instance_mutation(self):
        from repro.storage.database import Database

        db = Database()
        instance = db.create("R", 2)
        v0 = db.version
        instance.insert((1, 2))
        assert db.version > v0
        v1 = db.version
        instance.insert((1, 2))  # no-op insert: no bump required
        assert db.version == v1
        instance.delete((1, 2))
        assert db.version > v1

    def test_attached_instance_bumps_both_catalogs(self):
        from repro.storage.database import Database
        from repro.storage.instance import Instance

        shared = Instance("R", 1)
        db1, db2 = Database(), Database()
        db1.attach(shared)
        db2.attach(shared)
        v1, v2 = db1.version, db2.version
        shared.insert((1,))
        assert db1.version > v1 and db2.version > v2

    def test_drop_stops_watching_and_stays_monotone(self):
        from repro.storage.database import Database

        db = Database()
        instance = db.create("R", 1)
        instance.insert((1,))
        v = db.version
        assert db.drop("R")
        assert db.version > v
        v = db.version
        instance.insert((2,))  # dropped: no longer bumps this catalog
        assert db.version == v


class TestDRedPlanReuse:
    def test_dred_reuses_engine_plans(self):
        """Repeated deletions must not rebuild plans per call."""
        cdss = paper_cdss()
        peer = cdss.peer("PGUS")
        planner = cdss.system().engine.planner
        peer.delete("G", (1, 2, 3))
        cdss.update_exchange()
        built = planner.plans_built
        peer.delete("G", (3, 5, 2))
        cdss.update_exchange()
        # Second deletion exchange: every plan comes from a cache.
        assert planner.plans_built == built

    def test_dred_still_agrees_with_recompute(self):
        results = []
        for strategy in ("unified", "recompute"):
            cdss = paper_cdss()
            cdss.strategy = strategy
            cdss.peer("PBioSQL").delete("B", (3, 2))
            cdss.update_exchange()
            results.append(
                {r: cdss.relation(r).to_rows() for r in ("G", "B", "U")}
            )
        assert results[0] == results[1]


class TestCLIQuery:
    def test_query_command(self, tmp_path, capsys):
        from repro.cli import main

        cdss = paper_cdss()
        spec = tmp_path / "spec.json"
        cdss.to_spec().save(spec)
        assert main(["query", str(spec), "ans(x, y) :- U(x, z), U(y, z)"]) == 0
        out = capsys.readouterr().out
        assert "(2, 2)" in out

    def test_query_command_with_param(self, tmp_path, capsys):
        from repro.cli import main

        cdss = paper_cdss()
        spec = tmp_path / "spec.json"
        cdss.to_spec().save(spec)
        assert (
            main(
                [
                    "query",
                    str(spec),
                    "ans(i) :- B(i, n)",
                    "--param",
                    "n=5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(3,)" in out

    def test_query_command_annotated(self, tmp_path, capsys):
        from repro.cli import main

        cdss = paper_cdss()
        spec = tmp_path / "spec.json"
        cdss.to_spec().save(spec)
        assert (
            main(
                [
                    "query",
                    str(spec),
                    "ans(i, n) :- B(i, n)",
                    "--mode",
                    "annotated",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "<-" in out

    def test_query_command_reports_errors(self, tmp_path, capsys):
        from repro.cli import main

        cdss = paper_cdss()
        spec = tmp_path / "spec.json"
        cdss.to_spec().save(spec)
        assert main(["query", str(spec), "ans(x) :- Nope(x)"]) == 1
        assert "error" in capsys.readouterr().err

    def test_query_command_reports_unsafe_queries(self, tmp_path, capsys):
        """SafetyError (a DatalogError) must exit 1, not traceback."""
        from repro.cli import main

        cdss = paper_cdss()
        spec = tmp_path / "spec.json"
        cdss.to_spec().save(spec)
        unsafe = "ans(i) :- B(i, n), not U(z, z)"
        assert main(["query", str(spec), unsafe]) == 1
        assert "error" in capsys.readouterr().err


class TestResultCache:
    """PreparedQuery's (bindings, Database.version)-keyed result cache:
    repeated identical executes are O(1) serves; any mutation moves the
    version (the PR 3 dirty-bit) and invalidates for free."""

    def test_identical_executes_hit_the_cache(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        first = prepared.execute(n=2).to_rows()
        assert prepared.result_cache_misses == 1
        again = prepared.execute(n=2).to_rows()
        assert again == first
        assert prepared.result_cache_hits == 1
        # A different binding is its own entry.
        prepared.execute(n=5).to_rows()
        assert prepared.result_cache_misses == 2

    def test_cache_is_mode_keyed(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(n, c) :- U(n, c)")
        certain = prepared.execute().to_rows()
        with_nulls = prepared.execute().with_nulls().to_rows()
        assert certain < with_nulls  # m3 invents a labeled null
        assert prepared.result_cache_misses == 2
        assert prepared.execute().with_nulls().to_rows() == with_nulls
        assert prepared.result_cache_hits == 1

    def test_any_mutation_invalidates_for_free(self):
        cdss = paper_cdss()
        pgus = cdss.peer("PGUS")
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        before = prepared.execute(n=3).to_rows()
        assert prepared.execute(n=3).to_rows() == before
        assert prepared.result_cache_hits == 1
        pgus.insert("G", (7, 8, 3))
        cdss.update_exchange()
        after = prepared.execute(n=3).to_rows()
        assert (7,) in after and (7,) not in before
        # The stale entry silently missed; no explicit invalidation ran.
        assert prepared.result_cache_misses == 2

    def test_cache_survives_reconfiguration_by_identity(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        prepared.execute(n=2).to_rows()
        # Reconfiguring rebuilds the system: the old entry's database
        # identity no longer matches, so it cannot serve stale rows.
        cdss.add_peer("P4", {"W": ("w",)})
        cdss.update_exchange()
        prepared.execute(n=2).to_rows()
        assert prepared.result_cache_misses == 2

    def test_len_contains_and_iter_share_the_cache(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)")
        answers = prepared.execute()
        n = len(answers)
        assert bool(answers) == (n > 0)
        assert sorted(answers) == sorted(answers.to_rows())
        assert prepared.result_cache_misses == 1
        assert prepared.result_cache_hits >= 3


class TestOrderLimitOffset:
    """ORDER BY / LIMIT / OFFSET: stable sort on projected columns,
    applied below dedup, on both Query and AnswerSet."""

    def test_order_by_names(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i, n) :- B(i, n)")
        assert list(prepared.execute().order_by("i", "n")) == [
            (1, 3),
            (3, 2),
            (3, 3),
            (3, 5),
        ]

    def test_descending_and_positions(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i, n) :- B(i, n)")
        assert list(prepared.execute().order_by("-i", "-n")) == [
            (3, 5),
            (3, 3),
            (3, 2),
            (1, 3),
        ]
        # 0-based output positions: sort by the second, then first column.
        assert list(prepared.execute().order_by(1, 0)) == [
            (3, 2),
            (1, 3),
            (3, 3),
            (3, 5),
        ]

    def test_limit_offset_paging(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i, n) :- B(i, n)")
        ordered = prepared.execute().order_by("i", "n")
        assert list(ordered.limit(2)) == [(1, 3), (3, 2)]
        assert list(ordered.offset(1)) == [(3, 2), (3, 3), (3, 5)]
        assert list(ordered.offset(1).limit(1)) == [(3, 2)]
        assert list(ordered.offset(9)) == []
        assert list(ordered.limit(0)) == []

    def test_order_applies_below_dedup(self):
        cdss = paper_cdss()
        # B has rows with duplicate i=3: projection dedups first, so
        # LIMIT counts distinct answers, not derivations.
        prepared = cdss.prepare("ans(i) :- B(i, n)")
        assert list(prepared.execute().order_by("i")) == [(1,), (3,)]
        assert list(prepared.execute().order_by("-i").limit(1)) == [(3,)]

    def test_query_level_matches_answer_level(self):
        cdss = paper_cdss()
        query = Query.parse("ans(i, n) :- B(i, n)").order_by("-i", "-n")
        via_query = list(cdss.prepare(query.limit(2).offset(1)).execute())
        via_answers = list(
            cdss.prepare("ans(i, n) :- B(i, n)")
            .execute()
            .order_by("-i", "-n")
            .limit(2)
            .offset(1)
        )
        assert via_query == via_answers == [(3, 3), (3, 2)]

    def test_builder_order_uses_projection_names(self):
        cdss = paper_cdss()
        query = Query.scan("B").order_by("-id", "-nam").limit(1)
        assert list(cdss.prepare(query).execute()) == [(3, 5)]

    def test_col_reference_accepted(self):
        cdss = paper_cdss()
        query = Query.scan("B").order_by(col("nam"), col("id"))
        assert list(cdss.prepare(query).execute()) == [
            (3, 2),
            (1, 3),
            (3, 3),
            (3, 5),
        ]

    def test_mixed_type_columns_sort_deterministically(self):
        cdss = paper_cdss()
        # with_nulls answers put labeled nulls (SkolemValue) next to ints
        # in the same column; ordering falls back to a total type-aware
        # key instead of raising TypeError.
        prepared = cdss.prepare("ans(n, c) :- U(n, c)")
        first = list(prepared.execute().with_nulls().order_by("c", "n"))
        second = list(prepared.execute().with_nulls().order_by("c", "n"))
        assert first == second
        assert len(first) == len(prepared.execute().with_nulls().to_rows())

    def test_annotated_respects_order_and_limit(self):
        cdss = paper_cdss()
        annotated = (
            cdss.prepare("ans(i, n) :- B(i, n)")
            .execute()
            .order_by("-i", "-n")
            .limit(2)
            .annotated()
        )
        assert list(annotated) == [(3, 5), (3, 3)]
        assert all(expr != ZERO for expr in annotated.values())

    def test_bad_arguments_rejected(self):
        cdss = paper_cdss()
        answers = cdss.prepare("ans(i, n) :- B(i, n)").execute()
        with pytest.raises(QueryError):
            answers.order_by("zz")
        with pytest.raises(QueryError):
            answers.order_by(7)
        with pytest.raises(QueryError):
            answers.order_by(1.5)
        with pytest.raises(QueryError):
            answers.order_by()
        with pytest.raises(QueryError):
            answers.limit(-1)
        with pytest.raises(QueryError):
            answers.offset(-2)
        with pytest.raises(QueryError):
            Query.parse("ans(i) :- B(i, n)").order_by()


def reference_row_order(rows, order, limit, offset):
    """Reference ORDER BY: one full stable sort per key, later keys
    first, then the slice."""
    ordered = list(rows)
    for position, desc in reversed(order):
        ordered = sorted(
            ordered,
            key=lambda row, _p=position: _OrderKey(row[_p]),
            reverse=desc,
        )
    if offset:
        ordered = ordered[offset:]
    if limit is not None:
        ordered = ordered[:limit]
    return tuple(ordered)


_SORT_VALUES = {
    "int": st.integers(-3, 3),
    "str": st.sampled_from(["", "a", "b", "ab"]),
    "null": st.builds(
        SkolemValue,
        st.sampled_from(["f_m3_c", "g"]),
        st.tuples(st.integers(0, 2)),
    ),
}


@st.composite
def _sort_case(draw):
    """Rows over three key columns, each of one kind or mixed, plus a
    unique tag column so the order of ties is observable."""
    columns = [
        st.one_of(*_SORT_VALUES.values())
        if kind == "mixed"
        else _SORT_VALUES[kind]
        for kind in draw(
            st.lists(
                st.sampled_from(["int", "str", "null", "mixed"]),
                min_size=3,
                max_size=3,
            )
        )
    ]
    keys = draw(st.lists(st.tuples(*columns), max_size=30))
    rows = [key + (tag,) for tag, key in enumerate(keys)]
    order = tuple(
        draw(
            st.lists(
                st.tuples(st.integers(0, 2), st.booleans()),
                min_size=1,
                max_size=3,
            )
        )
    )
    limit = draw(st.none() | st.integers(0, 35))
    offset = draw(st.integers(0, 10))
    return rows, order, limit, offset


class TestTopKOrder:
    @settings(max_examples=300, deadline=None)
    @given(_sort_case())
    def test_equals_multi_pass_stable_sort(self, case):
        rows, order, limit, offset = case
        assert apply_row_order(rows, order, limit, offset) == (
            reference_row_order(rows, order, limit, offset)
        )

    def test_ties_keep_input_order(self):
        rows = [(1, "c"), (0, "b"), (1, "a"), (0, "d"), (1, "e")]
        assert apply_row_order(rows, ((0, False),), 3, 0) == (
            (0, "b"),
            (0, "d"),
            (1, "c"),
        )
        assert apply_row_order(rows, ((0, True),), 2, 1) == (
            (1, "a"),
            (1, "e"),
        )


    @pytest.mark.parametrize("mode", ["certain", "with_nulls"])
    @pytest.mark.parametrize("order", [(), ("-0",), (1,), ("-1", 0)])
    @pytest.mark.parametrize("limit, offset", [(None, None), (2, None), (2, 1)])
    def test_program_answers_order_as_full_sort_then_order_by(
        self, mode, order, limit, offset
    ):
        """A served program's rows: every column ascending as the base
        order, then the positional ORDER BY, then the slice."""
        statement = StatementRegistry(paper_cdss()).prepare(
            "program", "ans(n, c) :- U(n, c)"
        )
        result = statement.prepared.execute()
        raw = result.with_nulls() if mode == "with_nulls" else result.certain()
        rows = sorted(raw, key=lambda row: tuple(_OrderKey(v) for v in row))
        spec = tuple(
            (int(str(key).lstrip("-")), str(key).startswith("-"))
            for key in order
        )
        expected = reference_row_order(rows, spec, limit, offset or 0)
        served = statement.run(
            {}, mode=mode, order=order, limit=limit, offset=offset
        )
        assert served["rows"] == [encode_row(row) for row in expected]


class TestRebindRace:
    def test_concurrent_executes_rebind_exactly_once(self, monkeypatch):
        """After a reconfiguration, racing executes re-bind exactly once
        (single check-and-swap under the rebind lock) and all threads
        observe the same fresh binding."""
        import repro.api.query as query_module

        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i, n) :- B(i, n)")
        prepared.execute().to_rows()

        real_binding = query_module._Binding
        constructions = []
        construction_lock = threading.Lock()

        class CountingBinding(real_binding):
            def __init__(self, *args, **kwargs):
                with construction_lock:
                    constructions.append(threading.get_ident())
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(query_module, "_Binding", CountingBinding)

        # Reconfigure: the next execute sees a rebuilt system.
        cdss.add_mapping("m5", "U(n, c) -> B(c, n)")
        cdss.update_exchange()

        workers = 8
        barrier = threading.Barrier(workers)
        bindings = []
        errors = []

        def racer():
            try:
                barrier.wait()
                bindings.append(prepared._current_binding())
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=racer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(constructions) == 1
        assert all(binding is bindings[0] for binding in bindings)
        # The rebound query answers against the *new* configuration.
        assert prepared.execute().to_rows() == cdss.query(
            "ans(i, n) :- B(i, n)"
        )
