"""Unit tests for exchange_head_filters composition and misc corners."""

import gc

from repro.bench.harness import timed
from repro.provenance import (
    ENCODING_COMPOSITE,
    ProvenanceEncoding,
    TrustCondition,
    TrustPolicy,
    exchange_head_filters,
    trust_label,
)
from repro.schema import (
    InternalSchema,
    LOCAL_RULE_PREFIX,
    PeerSchema,
    RelationSchema,
    SchemaMapping,
)


def internal_and_encoding(mappings=None):
    internal = InternalSchema(
        (
            PeerSchema("P1", (RelationSchema("R", ("a",)),)),
            PeerSchema("P2", (RelationSchema("S", ("a",)),)),
        ),
        mappings
        or (SchemaMapping.parse("m", "R(x) -> S(x)"),),
    )
    return internal, ProvenanceEncoding(internal, style=ENCODING_COMPOSITE)


class TestExchangeHeadFilters:
    def test_no_policies_no_filters(self):
        internal, encoding = internal_and_encoding()
        assert exchange_head_filters(internal, encoding, {}) == {}

    def test_trivial_policies_no_filters(self):
        internal, encoding = internal_and_encoding()
        policies = {"P2": TrustPolicy("P2")}
        assert exchange_head_filters(internal, encoding, policies) == {}

    def test_target_peer_condition_attached(self):
        internal, encoding = internal_and_encoding()
        policy = TrustPolicy("P2")
        policy.set_mapping_condition(
            "m", TrustCondition("even", lambda row: row[0] % 2 == 0)
        )
        filters = exchange_head_filters(internal, encoding, {"P2": policy})
        label = trust_label("m", 0)
        assert label in filters
        assert filters[label]((2,)) and not filters[label]((1,))

    def test_source_peer_condition_not_attached(self):
        # P1 is m's SOURCE; its condition on m does not filter derivations
        # into P2 in the neutral (global) exchange.
        internal, encoding = internal_and_encoding()
        policy = TrustPolicy("P1")
        policy.set_mapping_condition(
            "m", TrustCondition("never", lambda row: False)
        )
        filters = exchange_head_filters(internal, encoding, {"P1": policy})
        assert filters == {}

    def test_perspective_condition_conjoined(self):
        internal, encoding = internal_and_encoding()
        p2 = TrustPolicy("P2")
        p2.set_mapping_condition(
            "m", TrustCondition("small", lambda row: row[0] < 10)
        )
        p1 = TrustPolicy("P1")
        p1.set_mapping_condition(
            "m", TrustCondition("even", lambda row: row[0] % 2 == 0)
        )
        filters = exchange_head_filters(
            internal, encoding, {"P1": p1, "P2": p2}, perspective="P1"
        )
        condition = filters[trust_label("m", 0)]
        assert condition((2,))
        assert not condition((3,))  # odd: perspective says no
        assert not condition((12,))  # big: target says no

    def test_perspective_token_filters_on_local_rules(self):
        internal, encoding = internal_and_encoding()
        policy = TrustPolicy("P2")
        policy.distrust_token("R", (1,))
        filters = exchange_head_filters(
            internal, encoding, {"P2": policy}, perspective="P2"
        )
        token_filter = filters[LOCAL_RULE_PREFIX + "R"]
        assert not token_filter((1,))
        assert token_filter((2,))

    def test_multi_head_mapping_gets_filter_per_head(self):
        internal = InternalSchema(
            (
                PeerSchema("P1", (RelationSchema("R", ("a", "b")),)),
                PeerSchema(
                    "P2",
                    (
                        RelationSchema("S", ("a",)),
                        RelationSchema("T", ("b",)),
                    ),
                ),
            ),
            (SchemaMapping.parse("m", "R(a, b) -> S(a), T(b)"),),
        )
        encoding = ProvenanceEncoding(internal)
        policy = TrustPolicy("P2")
        policy.set_mapping_condition(
            "m", TrustCondition("positive", lambda row: row[0] > 0)
        )
        filters = exchange_head_filters(internal, encoding, {"P2": policy})
        assert trust_label("m", 0) in filters
        assert trust_label("m", 1) in filters


class TestEvaluateWithConditions:
    def test_per_target_valuation(self):
        """One mapping node deriving two targets can trust one and not the
        other (data-dependent conditions are per derived tuple)."""
        from repro.core.exchange import ExchangeSystem
        from repro.provenance import BooleanSemiring, build_provenance_graph

        internal = InternalSchema(
            (
                PeerSchema("P1", (RelationSchema("R", ("a", "b")),)),
                PeerSchema(
                    "P2",
                    (
                        RelationSchema("S", ("a",)),
                        RelationSchema("T", ("b",)),
                    ),
                ),
            ),
            (SchemaMapping.parse("m", "R(a, b) -> S(a), T(b)"),),
        )
        system = ExchangeSystem(internal)
        system.db["R__l"].insert((1, 2))
        system.recompute()
        graph = build_provenance_graph(system.db, system.encoding)

        def node_value(node, target, inner):
            # Trust only derivations into S.
            return inner and target[0] == "S"

        values = graph.evaluate_with_conditions(
            BooleanSemiring(), lambda tok: True, node_value
        )
        assert values[("S", (1,))] is True
        assert values[("T", (2,))] is False


class TestHarnessTimed:
    def test_timed_returns_result_and_duration(self):
        result, seconds = timed(lambda: 42)
        assert result == 42
        assert seconds >= 0

    def test_timed_keeps_the_collector_off_inside(self):
        inside, _ = timed(gc.isenabled)
        assert inside is False
        assert gc.isenabled()
