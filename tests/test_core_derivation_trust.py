"""Tests for goal-directed derivation testing and trust machinery."""

from repro.core.derivation import DerivationTest
from repro.core.exchange import ExchangeSystem
from repro.provenance import (
    TRUST_ALL,
    TrustCondition,
    TrustPolicy,
    compose_conditions,
    evaluate_trust,
    trust_ranks,
)
from repro.provenance.graph import build_provenance_graph
from repro.schema import InternalSchema, PeerSchema, RelationSchema, SchemaMapping


def chain_system(policies=None, base=((1,), (2,))):
    internal = InternalSchema(
        (
            PeerSchema("P1", (RelationSchema("R", ("a",)),)),
            PeerSchema("P2", (RelationSchema("S", ("a",)),)),
            PeerSchema("P3", (RelationSchema("T", ("a",)),)),
        ),
        (
            SchemaMapping.parse("m_rs", "R(x) -> S(x)"),
            SchemaMapping.parse("m_st", "S(x) -> T(x)"),
        ),
    )
    system = ExchangeSystem(internal, policies=policies)
    system.db["R__l"].insert_many(base)
    system.recompute()
    return system


class TestDerivationTest:
    def test_derivable_through_chain(self):
        system = chain_system()
        tester = DerivationTest(system.db, system.encoding)
        assert tester.is_derivable("T", (1,))
        assert tester.is_derivable("S", (2,))
        assert not tester.is_derivable("T", (99,))

    def test_local_contribution_always_derivable(self):
        system = chain_system()
        tester = DerivationTest(system.db, system.encoding)
        assert tester.is_derivable("R", (1,))

    def test_rejected_tuple_not_output_derivable(self):
        system = chain_system()
        system.db["S__r"].insert((1,))
        tester = DerivationTest(system.db, system.encoding)
        verdict = tester.derivable([("S", (1,))])[("S", (1,))]
        assert verdict.output is False  # rejected from R__o
        assert verdict.trusted is True  # still trusted-derivable (R__t)
        assert verdict.any is True  # still derivable at all (R__i)

    def test_rejection_blocks_downstream_sources(self):
        system = chain_system()
        system.db["S__r"].insert((1,))
        system.db["S__o"].delete((1,))
        # T(1,) can only come via S(1,) which is rejected.
        tester = DerivationTest(system.db, system.encoding)
        assert not tester.is_derivable("T", (1,))

    def test_trust_condition_blocks_derivability(self):
        policy = TrustPolicy("P2")
        policy.set_mapping_condition(
            "m_rs", TrustCondition("only even", lambda row: row[0] % 2 == 0)
        )
        system = chain_system(policies={"P2": policy})
        tester = DerivationTest(
            system.db, system.encoding, system.head_filters
        )
        verdict = tester.derivable([("S", (1,))])[("S", (1,))]
        assert verdict.trusted is False
        assert verdict.any is True  # derivation exists, just untrusted
        assert verdict.output is False  # untrusted support never grounds
        assert tester.is_derivable("S", (2,))

    def test_instrumentation_counts(self):
        system = chain_system()
        tester = DerivationTest(system.db, system.encoding)
        tester.is_derivable("T", (1,))
        assert tester.slice_tuples_visited > 0
        assert tester.support_rows_visited > 0


class TestTrustConditions:
    def test_conjoin(self):
        even = TrustCondition("even", lambda r: r[0] % 2 == 0)
        small = TrustCondition("small", lambda r: r[0] < 10)
        both = even.conjoin(small)
        assert both((2,)) is True
        assert both((12,)) is False
        assert both((3,)) is False

    def test_conjoin_with_trust_all_is_identity(self):
        even = TrustCondition("even", lambda r: r[0] % 2 == 0)
        assert TRUST_ALL.conjoin(even) is even
        assert even.conjoin(TRUST_ALL) is even

    def test_from_attributes(self):
        schema = RelationSchema("B", ("id", "nam"))
        condition = TrustCondition.from_attributes(
            schema, lambda attrs: attrs["nam"] < 3
        )
        assert condition((1, 2)) is True
        assert condition((1, 5)) is False

    def test_compose_conditions_ands_across_peers(self):
        p1 = TrustPolicy("P1")
        p1.set_mapping_condition(
            "m", TrustCondition("even", lambda r: r[0] % 2 == 0)
        )
        p2 = TrustPolicy("P2")
        p2.set_mapping_condition(
            "m", TrustCondition("small", lambda r: r[0] < 10)
        )
        combined = compose_conditions([p1, p2], "m")
        assert combined((2,)) and not combined((12,)) and not combined((3,))

    def test_policy_token_judgments(self):
        policy = TrustPolicy("P")
        policy.distrust_token("R", (1,))
        policy.distrust_peer("Q")
        owner_of = {"R": "P", "S": "Q"}
        assert not policy.trusts_token(("R", (1,)), owner_of)
        assert policy.trusts_token(("R", (2,)), owner_of)
        assert not policy.trusts_token(("S", (5,)), owner_of)

    def test_is_trivial(self):
        assert TrustPolicy("P").is_trivial()
        policy = TrustPolicy("P")
        policy.distrust_peer("Q")
        assert not policy.is_trivial()


class TestTrustEvaluationOverGraph:
    def test_distrusted_peer_cuts_downstream(self):
        system = chain_system()
        graph = build_provenance_graph(system.db, system.encoding)
        policy = TrustPolicy("P3")
        policy.distrust_peer("P1")
        verdicts = evaluate_trust(
            graph, policy, internal=system.internal
        )
        # Everything derives from P1's base data, so nothing is trusted.
        assert verdicts[("T", (1,))] is False
        assert verdicts[("R", (1,))] is False

    def test_trivial_policy_trusts_everything(self):
        system = chain_system()
        graph = build_provenance_graph(system.db, system.encoding)
        verdicts = evaluate_trust(
            graph, TrustPolicy("P3"), internal=system.internal
        )
        assert all(verdicts.values())

    def test_delegation_composition_with_extra_policies(self):
        # P2 constrains m_rs; evaluating P3's trust WITH delegation applies
        # P2's condition on the way through S.
        p2 = TrustPolicy("P2")
        p2.set_mapping_condition(
            "m_rs", TrustCondition("even", lambda r: r[0] % 2 == 0)
        )
        system = chain_system()
        graph = build_provenance_graph(system.db, system.encoding)
        verdicts = evaluate_trust(
            graph,
            TrustPolicy("P3"),
            internal=system.internal,
            extra_policies={"P2": p2},
        )
        assert verdicts[("T", (2,))] is True
        assert verdicts[("T", (1,))] is False  # odd: P2's condition fails


class TestRankedTrust:
    def test_trust_ranks_tropical(self):
        system = chain_system()
        graph = build_provenance_graph(system.db, system.encoding)
        ranks = trust_ranks(
            graph,
            token_costs=lambda tok: 1.0,
            mapping_costs={"m_rs": 1.0, "m_st": 1.0},
        )
        assert ranks[("R", (1,))] == 1.0  # base cost only
        assert ranks[("S", (1,))] == 2.0  # base + m_rs
        assert ranks[("T", (1,))] == 3.0  # base + m_rs + m_st

    def test_cheapest_alternative_wins(self):
        internal = InternalSchema(
            (
                PeerSchema("P1", (RelationSchema("R", ("a",)),)),
                PeerSchema("P2", (RelationSchema("S", ("a",)),)),
                PeerSchema("P3", (RelationSchema("T", ("a",)),)),
            ),
            (
                SchemaMapping.parse("cheap", "R(x) -> T(x)"),
                SchemaMapping.parse("via_s1", "R(x) -> S(x)"),
                SchemaMapping.parse("via_s2", "S(x) -> T(x)"),
            ),
        )
        system = ExchangeSystem(internal)
        system.db["R__l"].insert((1,))
        system.recompute()
        graph = build_provenance_graph(system.db, system.encoding)
        ranks = trust_ranks(
            graph,
            mapping_costs={"cheap": 1.0, "via_s1": 5.0, "via_s2": 5.0},
        )
        assert ranks[("T", (1,))] == 1.0
