"""Unit tests for ExchangeSystem: recompute, perspectives, reports."""

import pytest

from repro.core.exchange import STRATEGY_UNIFIED, ExchangeError, ExchangeSystem
from repro.datalog.planner import CostBasedPlanner, PreparedPlanner
from repro.provenance import ENCODING_PER_RULE, TrustCondition, TrustPolicy
from repro.schema import InternalSchema, PeerSchema, RelationSchema, SchemaMapping
from repro.storage import ZSet


def simple_internal() -> InternalSchema:
    return InternalSchema(
        (
            PeerSchema("P1", (RelationSchema("R", ("a",)),)),
            PeerSchema("P2", (RelationSchema("S", ("a",)),)),
        ),
        (SchemaMapping.parse("m", "R(x) -> S(x)"),),
    )


class TestRecompute:
    def test_recompute_from_edbs(self):
        system = ExchangeSystem(simple_internal())
        system.db["R__l"].insert_many([(1,), (2,)])
        report = system.recompute()
        assert report.strategy == "recompute"
        assert system.instance("R") == {(1,), (2,)}
        assert system.instance("S") == {(1,), (2,)}
        assert report.inserted > 0
        assert report.seconds >= 0

    def test_recompute_clears_stale_state(self):
        system = ExchangeSystem(simple_internal())
        system.db["R__l"].insert((1,))
        system.recompute()
        system.db["R__l"].delete((1,))
        system.recompute()
        assert system.instance("S") == frozenset()

    def test_recompute_respects_rejections(self):
        system = ExchangeSystem(simple_internal())
        system.db["R__l"].insert((1,))
        system.db["S__r"].insert((1,))
        system.recompute()
        assert system.instance("S") == frozenset()
        assert system.trusted_instance("S") == {(1,)}
        assert system.input_instance("S") == {(1,)}

    def test_unknown_strategy_rejected(self):
        system = ExchangeSystem(simple_internal())
        with pytest.raises(ExchangeError):
            system.apply_delta({}, {}, "bogus")

    def test_accessors(self):
        system = ExchangeSystem(simple_internal())
        system.db["R__l"].insert((1,))
        system.recompute()
        assert system.local_contributions("R") == {(1,)}
        assert system.rejections("R") == frozenset()
        assert system.total_tuples() > 0
        assert system.estimated_bytes() > 0
        snapshot = system.snapshot_outputs()
        assert snapshot["S"] == {(1,)}

    def test_both_planners_supported(self):
        for planner in (PreparedPlanner(), CostBasedPlanner()):
            system = ExchangeSystem(simple_internal(), planner=planner)
            system.db["R__l"].insert((7,))
            system.recompute()
            assert system.instance("S") == {(7,)}

    def test_per_rule_encoding_supported(self):
        system = ExchangeSystem(
            simple_internal(), encoding_style=ENCODING_PER_RULE
        )
        system.db["R__l"].insert((7,))
        system.recompute()
        assert system.instance("S") == {(7,)}
        assert system.is_consistent()


class TestApplyDelta:
    def test_mixed_delta_incremental(self):
        system = ExchangeSystem(simple_internal())
        system.db["R__l"].insert_many([(1,), (2,)])
        system.recompute()
        report = system.apply_delta(
            {"R": ZSet({(3,): 1, (1,): -1})},
            {"S": ZSet({(2,): 1})},
            STRATEGY_UNIFIED,
        )
        assert system.instance("R") == {(2,), (3,)}
        assert system.instance("S") == {(3,)}
        assert report.strategy == STRATEGY_UNIFIED
        assert system.is_consistent()

    def test_unrejection_delta(self):
        system = ExchangeSystem(simple_internal())
        system.db["R__l"].insert((1,))
        system.db["S__r"].insert((1,))
        system.recompute()
        assert system.instance("S") == frozenset()
        system.apply_delta({}, {"S": ZSet({(1,): -1})}, STRATEGY_UNIFIED)
        assert system.instance("S") == {(1,)}
        assert system.is_consistent()

    def test_empty_delta_noop(self):
        system = ExchangeSystem(simple_internal())
        system.db["R__l"].insert((1,))
        system.recompute()
        before = system.db.snapshot()
        system.apply_delta({}, {}, STRATEGY_UNIFIED)
        assert system.db.snapshot() == before


class TestPerspectives:
    """Section 4: each peer recomputes its own copy of all instances,
    'filtering the data with its own trust conditions as it does so'."""

    def _internal(self):
        return InternalSchema(
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

    def test_perspective_token_distrust_filters_base_data(self):
        policy = TrustPolicy("P3")
        policy.distrust_token("R", (1,))
        system = ExchangeSystem(
            self._internal(), policies={"P3": policy}, perspective="P3"
        )
        system.db["R__l"].insert_many([(1,), (2,)])
        system.recompute()
        # In P3's copy of the world, R(1,) is not trusted at all.
        assert system.instance("R") == {(2,)}
        assert system.instance("T") == {(2,)}

    def test_perspective_peer_distrust(self):
        policy = TrustPolicy("P3")
        policy.distrust_peer("P1")
        system = ExchangeSystem(
            self._internal(), policies={"P3": policy}, perspective="P3"
        )
        system.db["R__l"].insert((1,))
        system.recompute()
        assert system.instance("T") == frozenset()

    def test_perspective_mapping_condition_composes(self):
        # P3 constrains the upstream mapping m_rs even though m_rs targets
        # P2 — perspective conditions AND with the target's own.
        policy = TrustPolicy("P3")
        policy.set_mapping_condition(
            "m_rs", TrustCondition("even only", lambda row: row[0] % 2 == 0)
        )
        system = ExchangeSystem(
            self._internal(), policies={"P3": policy}, perspective="P3"
        )
        system.db["R__l"].insert_many([(1,), (2,)])
        system.recompute()
        assert system.instance("S") == {(2,)}
        assert system.instance("T") == {(2,)}

    def test_different_perspectives_see_different_worlds(self):
        p3 = TrustPolicy("P3")
        p3.distrust_peer("P1")
        internal = self._internal()
        neutral = ExchangeSystem(internal, policies={"P3": p3})
        skeptical = ExchangeSystem(
            internal, policies={"P3": p3}, perspective="P3"
        )
        for system in (neutral, skeptical):
            system.db["R__l"].insert((1,))
            system.recompute()
        # The neutral (global) exchange keeps the data: P3's token distrust
        # is a per-perspective judgment, not a mapping condition.
        assert neutral.instance("T") == {(1,)}
        assert skeptical.instance("T") == frozenset()

    def test_perspective_incremental_consistency(self):
        policy = TrustPolicy("P3")
        policy.distrust_token("R", (1,))
        system = ExchangeSystem(
            self._internal(), policies={"P3": policy}, perspective="P3"
        )
        system.recompute()
        system.apply_delta(
            {"R": ZSet({(1,): 1, (2,): 1})}, {}, STRATEGY_UNIFIED
        )
        assert system.instance("T") == {(2,)}
        assert system.is_consistent()
