"""Tests for the literal Section 4.1.3 inverse-rule datalog program,
cross-checked against the direct DerivationTest implementation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_inverse_rules import build_inverse_program, derivable_by_inverse_rules

from repro.core.derivation import DerivationTest
from repro.core.exchange import ExchangeSystem
from repro.datalog.ast import SkolemValue
from repro.provenance import TrustCondition, TrustPolicy
from repro.schema import InternalSchema, PeerSchema, RelationSchema, SchemaMapping


def chain_system(policies=None, mappings=None):
    internal = InternalSchema(
        (
            PeerSchema("P1", (RelationSchema("R", ("a",)),)),
            PeerSchema("P2", (RelationSchema("S", ("a",)),)),
            PeerSchema("P3", (RelationSchema("T", ("a",)),)),
        ),
        mappings
        or (
            SchemaMapping.parse("m_rs", "R(x) -> S(x)"),
            SchemaMapping.parse("m_st", "S(x) -> T(x)"),
        ),
    )
    return ExchangeSystem(internal, policies=policies)


class TestProgramConstruction:
    def test_program_shapes(self):
        system = chain_system()
        program = build_inverse_program(system.encoding)
        # Slice: per (table, head) one inverse rule + per source atom one
        # push-down rule.
        assert len(program.slice_program) == 2 + 2
        # Validation: per table one prov rule + per head one trust rule,
        # plus per relation (local, lR, tR).
        assert len(program.validation_program) == 2 + 2 + 3 * 3

    def test_programs_are_safe_and_stratifiable(self):
        from repro.datalog import stratify

        system = chain_system()
        program = build_inverse_program(system.encoding)
        program.slice_program.check_safety()
        program.validation_program.check_safety()
        stratify(program.slice_program)
        stratify(program.validation_program)


class TestAgainstDirectImplementation:
    def test_simple_chain(self):
        system = chain_system()
        system.db["R__l"].insert_many([(1,), (2,)])
        system.recompute()
        checks = [("T", (1,)), ("T", (9,)), ("R", (2,)), ("S", (1,))]
        by_program = derivable_by_inverse_rules(
            system.db, system.encoding, checks
        )
        tester = DerivationTest(system.db, system.encoding)
        by_direct = {
            node: verdict.output
            for node, verdict in tester.derivable(checks).items()
        }
        assert by_program == by_direct
        assert by_program[("T", (1,))] is True
        assert by_program[("T", (9,))] is False

    def test_cyclic_support_not_validated(self):
        internal = InternalSchema(
            (
                PeerSchema("P1", (RelationSchema("R", ("a",)),)),
                PeerSchema("P2", (RelationSchema("S", ("a",)),)),
            ),
            (
                SchemaMapping.parse("m_rs", "R(x) -> S(x)"),
                SchemaMapping.parse("m_sr", "S(x) -> R(x)"),
            ),
        )
        system = ExchangeSystem(internal)
        system.db["R__l"].insert((1,))
        system.recompute()
        # Remove the base contribution but leave the (now circular) derived
        # state in place: the validation must NOT re-derive it.
        system.db["R__l"].delete((1,))
        verdicts = derivable_by_inverse_rules(
            system.db, system.encoding, [("R", (1,)), ("S", (1,))]
        )
        assert verdicts == {("R", (1,)): False, ("S", (1,)): False}

    def test_skolem_patterns_bind_through_labeled_nulls(self):
        internal = InternalSchema(
            (
                PeerSchema("P1", (RelationSchema("B", ("i", "n")),)),
                PeerSchema("P2", (RelationSchema("U", ("n", "c")),)),
            ),
            (SchemaMapping.parse("m3", "B(i, n) -> exists c . U(n, c)"),),
        )
        system = ExchangeSystem(internal)
        system.db["B__l"].insert((3, 5))
        system.recompute()
        null_row = next(iter(system.instance("U")))
        assert isinstance(null_row[1], SkolemValue)
        verdicts = derivable_by_inverse_rules(
            system.db, system.encoding, [("U", null_row)]
        )
        assert verdicts[("U", null_row)] is True
        # A null from a different (fabricated) argument is not derivable.
        fake = (9, SkolemValue("f_m3_c", (9,)))
        verdicts = derivable_by_inverse_rules(
            system.db, system.encoding, [("U", fake)]
        )
        assert verdicts[("U", fake)] is False

    def test_trust_conditions_respected(self):
        policy = TrustPolicy("P2")
        policy.set_mapping_condition(
            "m_rs", TrustCondition("even", lambda row: row[0] % 2 == 0)
        )
        system = chain_system(policies={"P2": policy})
        system.db["R__l"].insert_many([(1,), (2,)])
        system.recompute()
        verdicts = derivable_by_inverse_rules(
            system.db,
            system.encoding,
            [("S", (1,)), ("S", (2,))],
            head_filters=system.head_filters,
        )
        assert verdicts[("S", (1,))] is False
        assert verdicts[("S", (2,))] is True

    def test_rejections_respected(self):
        system = chain_system()
        system.db["R__l"].insert((1,))
        system.db["S__r"].insert((1,))
        system.recompute()
        verdicts = derivable_by_inverse_rules(
            system.db, system.encoding, [("S", (1,)), ("T", (1,))]
        )
        # S(1) is rejected from its output; T(1) only derives through it.
        assert verdicts[("S", (1,))] is False
        assert verdicts[("T", (1,))] is False

    def test_scratch_relations_cleaned_up(self):
        system = chain_system()
        system.db["R__l"].insert((1,))
        system.recompute()
        before = set(system.db.relation_names())
        derivable_by_inverse_rules(system.db, system.encoding, [("T", (1,))])
        assert set(system.db.relation_names()) == before


@settings(max_examples=25, deadline=None)
@given(
    base=st.sets(st.integers(0, 8), min_size=1, max_size=6),
    removed=st.sets(st.integers(0, 8), max_size=4),
    rejected=st.sets(st.integers(0, 8), max_size=3),
    checks=st.sets(st.integers(0, 8), min_size=1, max_size=5),
)
def test_property_inverse_program_matches_direct(
    base, removed, rejected, checks
):
    """Property: the literal 4.1.3 program and the direct implementation
    agree on output-derivability for random cyclic-mapping states."""
    internal = InternalSchema(
        (
            PeerSchema("P1", (RelationSchema("R", ("a",)),)),
            PeerSchema("P2", (RelationSchema("S", ("a",)),)),
        ),
        (
            SchemaMapping.parse("m_rs", "R(x) -> S(x)"),
            SchemaMapping.parse("m_sr", "S(x) -> R(x)"),
        ),
    )
    system = ExchangeSystem(internal)
    system.db["R__l"].insert_many([(x,) for x in base])
    system.recompute()
    # Perturb the edbs WITHOUT repairing derived state: derivability
    # questions are asked against the stored provenance.
    for x in removed:
        system.db["R__l"].delete((x,))
    for x in rejected:
        system.db["S__r"].insert((x,))
    nodes = [("R", (x,)) for x in checks] + [("S", (x,)) for x in checks]
    by_program = derivable_by_inverse_rules(
        system.db, system.encoding, nodes
    )
    tester = DerivationTest(system.db, system.encoding)
    by_direct = {
        node: verdict.output for node, verdict in tester.derivable(nodes).items()
    }
    assert by_program == by_direct
