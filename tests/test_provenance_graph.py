"""Tests for the provenance graph, relational encoding, and equation systems."""

import pytest

from repro.core.weighted import WeightedMaintainer
from repro.datalog import SemiNaiveEngine
from repro.provenance import (
    BooleanSemiring,
    CountingSemiring,
    ENCODING_COMPOSITE,
    ENCODING_PER_RULE,
    ProvenanceEncoding,
    WhySemiring,
    build_provenance_graph,
)
from repro.provenance.expression import (
    EquationSystem,
    ZERO,
    mapping_app,
    product_of,
    ref,
    sum_of,
    token,
)
from repro.schema import InternalSchema, PeerSchema, RelationSchema, SchemaMapping
from repro.storage import Database

G = RelationSchema("G", ("id", "can", "nam"))
B = RelationSchema("B", ("id", "nam"))
U = RelationSchema("U", ("nam", "can"))


def paper_internal() -> InternalSchema:
    return InternalSchema(
        (
            PeerSchema("PGUS", (G,)),
            PeerSchema("PBioSQL", (B,)),
            PeerSchema("PuBio", (U,)),
        ),
        (
            SchemaMapping.parse("m1", "G(i, c, n) -> B(i, n)"),
            SchemaMapping.parse("m3", "B(i, n) -> exists c . U(n, c)"),
            SchemaMapping.parse("m4", "B(i, c), U(n, c) -> B(i, n)"),
        ),
    )


def exchanged_db(style=ENCODING_COMPOSITE):
    internal = paper_internal()
    encoding = ProvenanceEncoding(internal, style=style)
    db = Database()
    encoding.setup_database(db)
    db["G__l"].insert((3, 5, 2))
    db["B__l"].insert((3, 5))
    db["U__l"].insert((2, 5))
    SemiNaiveEngine().run(encoding.full_program(), db)
    return internal, encoding, db


class TestEncoding:
    def test_composite_one_table_per_mapping(self):
        internal = paper_internal()
        encoding = ProvenanceEncoding(internal, style=ENCODING_COMPOSITE)
        assert len(encoding.tables) == 3
        m4 = encoding.tables_for_mapping("m4")[0]
        # Columns are the distinct LHS variables (i, c, n for m4).
        assert len(m4.variables) == 3

    def test_per_rule_tables(self):
        mapping = SchemaMapping.parse("m", "R(a, b) -> S(a, x), T(b, x)")
        internal = InternalSchema(
            (
                PeerSchema("P1", (RelationSchema("R", ("a", "b")),)),
                PeerSchema(
                    "P2",
                    (
                        RelationSchema("S", ("a", "x")),
                        RelationSchema("T", ("b", "x")),
                    ),
                ),
            ),
            (mapping,),
        )
        composite = ProvenanceEncoding(internal, style=ENCODING_COMPOSITE)
        per_rule = ProvenanceEncoding(internal, style=ENCODING_PER_RULE)
        assert len(composite.tables) == 1
        assert len(composite.tables[0].heads) == 2
        assert len(per_rule.tables) == 2
        assert all(len(t.heads) == 1 for t in per_rule.tables)

    def test_unknown_style_rejected(self):
        with pytest.raises(Exception):
            ProvenanceEncoding(paper_internal(), style="bogus")

    def test_both_styles_compute_same_instances(self):
        _, _, db1 = exchanged_db(ENCODING_COMPOSITE)
        _, _, db2 = exchanged_db(ENCODING_PER_RULE)
        for relation in ("G__o", "B__o", "U__o", "B__i", "U__i"):
            assert db1[relation].rows() == db2[relation].rows()

    def test_example9_provenance_tuples(self):
        """Example 9: PB1(3,5,2) and PB4(3,2,5) represent the two derivations
        of B(3,2) (variable order follows first occurrence in the tgd)."""
        internal, encoding, db = exchanged_db()
        m1_table = encoding.tables_for_mapping("m1")[0]
        m4_table = encoding.tables_for_mapping("m4")[0]
        assert (3, 5, 2) in db[m1_table.relation]
        # m4: B(i, c), U(n, c) -> B(i, n) with i=3, c=5, n=2.
        assert (3, 5, 2) in db[m4_table.relation]

    def test_support_probe_finds_derivations(self):
        internal, encoding, db = exchanged_db()
        table, head = encoding.targets_for_relation("B")[0]
        rows = table.supporting_rows(db, head, (3, 2))
        assert rows  # B(3,2) derivable via m1

    def test_support_probe_skolem_mismatch_returns_none(self):
        internal, encoding, db = exchanged_db()
        m3_table = encoding.tables_for_mapping("m3")[0]
        head = m3_table.heads[0]
        # A plain value cannot match the Skolem position.
        assert m3_table.supporting_rows(db, head, (2, "not-a-null")) == (
            frozenset()
        )

    def test_deleting_source_retracts_joined_provenance_row(self):
        internal, encoding, db = exchanged_db()
        m1_table = encoding.tables_for_mapping("m1")[0]
        m4_table = encoding.tables_for_mapping("m4")[0]
        maintainer = WeightedMaintainer(
            db, encoding, encoding.full_program(), SemiNaiveEngine()
        )
        # Deleting U(2,5) must retract the m4 instantiation that joined it;
        # B(3,2) survives through m1.
        maintainer.propagate_deletions({"U": [(2, 5)]})
        assert (3, 5, 2) not in db[m4_table.relation]
        assert (3, 5, 2) in db[m1_table.relation]
        assert (3, 2) in db["B__o"]


class TestGraph:
    def test_graph_structure(self):
        internal, encoding, db = exchanged_db()
        graph = build_provenance_graph(db, encoding)
        assert ("B", (3, 2)) in graph.tuple_nodes
        assert ("G", (3, 5, 2)) in graph.local_tokens
        incoming = graph.incoming[("B", (3, 2))]
        assert sorted(node.mapping for node in incoming) == ["m1", "m4"]

    def test_example6_provenance_expression(self):
        """Pv(B(3,2)) = m1(p3) + m4(p1 . p2) — Example 6."""
        internal, encoding, db = exchanged_db()
        graph = build_provenance_graph(db, encoding)
        expr = graph.expression_for("B", (3, 2))
        expected = sum_of(
            [
                mapping_app("m1", token("G", (3, 5, 2))),
                mapping_app(
                    "m4", product_of([token("B", (3, 5)), token("U", (2, 5))])
                ),
            ]
        )
        assert expr == expected

    def test_example6_nested_expression(self):
        """Pv(U(2, c)) = m3(Pv(B(3,2))) = m3(m1(p3)) + m3(m4(p1 p2))."""
        internal, encoding, db = exchanged_db()
        graph = build_provenance_graph(db, encoding)
        null_row = next(
            row for row in db["U__o"] if row[0] == 2 and row != (2, 5)
        )
        expr = graph.expression_for("U", null_row)
        inner = sum_of(
            [
                mapping_app("m1", token("G", (3, 5, 2))),
                mapping_app(
                    "m4", product_of([token("B", (3, 5)), token("U", (2, 5))])
                ),
            ]
        )
        assert expr == mapping_app("m3", inner)

    def test_unknown_tuple_has_zero_provenance(self):
        internal, encoding, db = exchanged_db()
        graph = build_provenance_graph(db, encoding)
        assert graph.expression_for("B", (99, 99)) is ZERO

    def test_counting_evaluation(self):
        internal, encoding, db = exchanged_db()
        graph = build_provenance_graph(db, encoding)
        counts = graph.evaluate(CountingSemiring())
        assert counts[("B", (3, 2))] == 2  # two derivations
        assert counts[("B", (3, 5))] == 1  # base only

    def test_why_evaluation(self):
        internal, encoding, db = exchanged_db()
        graph = build_provenance_graph(db, encoding)
        values = graph.evaluate(
            WhySemiring(),
            token_value=lambda tok: frozenset({frozenset({tok})}),
        )
        assert values[("B", (3, 2))] == {
            frozenset({("G", (3, 5, 2))}),
            frozenset({("B", (3, 5)), ("U", (2, 5))}),
        }

    def test_grounded_matches_instance(self):
        internal, encoding, db = exchanged_db()
        graph = build_provenance_graph(db, encoding)
        grounded = graph.grounded()
        for relation in ("B", "U", "G"):
            for row in db[f"{relation}__o"]:
                assert (relation, row) in grounded

    def test_grounded_excludes_cyclic_support(self):
        """Two tuples supporting each other through mappings but with no
        base support must not be grounded (the deletion 'garbage')."""
        from repro.provenance.graph import MappingNode, ProvenanceGraph

        graph = ProvenanceGraph()
        a, b = ("R", (1,)), ("S", (1,))
        graph.add_mapping_node(
            MappingNode("ma", "P_ma", (1,), sources=(a,), targets=(b,))
        )
        graph.add_mapping_node(
            MappingNode("mb", "P_mb", (1,), sources=(b,), targets=(a,))
        )
        assert graph.grounded() == set()
        graph.add_local_token(a)
        assert graph.grounded() == {a, b}


class TestEquationSystems:
    def test_cyclic_system_boolean_solution(self):
        # x = token + m(y); y = m(x) — both true when the token is.
        equations = EquationSystem(
            {
                ("R", (1,)): sum_of(
                    [token("R", (1,)), mapping_app("m", ref("S", (1,)))]
                ),
                ("S", (1,)): mapping_app("m", ref("R", (1,))),
            }
        )
        values = equations.solve(BooleanSemiring(), lambda tok: True)
        assert values[("R", (1,))] is True
        assert values[("S", (1,))] is True
        values = equations.solve(BooleanSemiring(), lambda tok: False)
        assert values[("R", (1,))] is False

    def test_pure_cycle_solves_to_zero(self):
        # x = m(y); y = m(x): least fixpoint is zero (no base support).
        equations = EquationSystem(
            {
                ("R", (1,)): mapping_app("m", ref("S", (1,))),
                ("S", (1,)): mapping_app("m", ref("R", (1,))),
            }
        )
        values = equations.solve(BooleanSemiring(), lambda tok: True)
        assert values[("R", (1,))] is False

    def test_counting_saturates_on_cycles(self):
        # x = 1 + x in the counting semiring diverges to the saturation cap
        # (the paper's "infinitely many derivations", Section 3.2).
        equations = EquationSystem(
            {
                ("R", (1,)): sum_of(
                    [token("R", (1,)), ref("R", (1,))]
                ),
            }
        )
        semiring = CountingSemiring(saturation=64)
        values = equations.solve(semiring, lambda tok: 1)
        assert values[("R", (1,))] == 64

    def test_expand_depth_bound(self):
        equations = EquationSystem(
            {
                ("R", (1,)): sum_of(
                    [token("R", (1,)), mapping_app("m", ref("R", (1,)))]
                ),
            }
        )
        shallow = equations.expand(("R", (1,)), max_depth=1)
        deep = equations.expand(("R", (1,)), max_depth=3)
        assert shallow != deep
        # Depth-0 expansion cuts all references.
        cut = equations.expand(("R", (1,)), max_depth=0)
        assert cut == token("R", (1,))

    def test_expand_unknown_start_is_zero(self):
        equations = EquationSystem({})
        assert equations.expand(("R", (1,))) is ZERO
