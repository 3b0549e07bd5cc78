"""Tests for the pluggable index-maintenance policies (storage/indexes.py):

* deferred-policy correctness: probes never see stale index state, not
  even inside a deferral scope (the snapshot-consistency rule);
* flush barriers: scope exits settle or retire every index's debt;
* NaiveEngine-agreement property under the deferred policy;
* Instance.copy carrying index definitions and policy;
* policy plumbing through Database / ExchangeSystem / CDSS / SystemSpec.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import NaiveEngine, SemiNaiveEngine, parse_program
from repro.storage import (
    Database,
    Instance,
    POLICY_DEFERRED,
    POLICY_EAGER,
    StorageError,
)

POLICIES = (POLICY_EAGER, POLICY_DEFERRED)


def reference_index(rows, cols):
    index = {}
    for row in rows:
        index.setdefault(tuple(row[c] for c in cols), set()).add(row)
    return index


def assert_index_exact(inst, cols):
    """Every key of a reference index probes to exactly the right bucket."""
    expected = reference_index(inst.rows(), cols)
    for key, bucket in expected.items():
        assert set(inst.lookup(cols, key)) == bucket
    # And a key that matches nothing probes empty.
    assert set(inst.lookup(cols, ("__missing__",) * len(cols))) == set()


class TestDeferredInstance:
    def test_probe_inside_scope_never_stale(self):
        """The regression test: a probe inside a deferral scope must see
        every mutation issued earlier in the scope."""
        inst = Instance("R", 2, [(1, "a")], index_policy=POLICY_DEFERRED)
        inst.ensure_index([0])
        with inst.defer_maintenance():
            inst.insert((2, "b"))
            assert set(inst.lookup([0], (2,))) == {(2, "b")}
            inst.delete((1, "a"))
            assert set(inst.lookup([0], (1,))) == set()
            inst.insert_many([(3, "c"), (4, "d")])
            assert set(inst.lookup([0], (3,))) == {(3, "c")}
            inst.delete_many([(3, "c")])
            assert set(inst.lookup([0], (3,))) == set()
            assert_index_exact(inst, (0,))

    def test_mutations_defer_until_probe_or_flush(self):
        inst = Instance("R", 2, index_policy=POLICY_DEFERRED)
        inst.ensure_index([0])
        inst.ensure_index([1])
        with inst.defer_maintenance():
            inst.insert_many([(1, "a"), (2, "b")])
            inst.delete((1, "a"))
            assert inst.pending_index_ops() == 2
            # Probing column 0 syncs only that index.
            assert set(inst.lookup([0], (2,))) == {(2, "b")}
            assert inst.pending_index_ops() == 2  # [1] still behind
        assert inst.pending_index_ops() == 0

    def test_scope_exit_is_flush_barrier(self):
        inst = Instance("R", 1, index_policy=POLICY_DEFERRED)
        inst.ensure_index([0])
        with inst.defer_maintenance():
            inst.insert((1,))
            assert inst.pending_index_ops() == 1
        assert inst.pending_index_ops() == 0
        assert set(inst.lookup([0], (1,))) == {(1,)}

    def test_nested_scopes_flush_only_at_outermost_exit(self):
        inst = Instance("R", 1, [(0,)], index_policy=POLICY_DEFERRED)
        inst.ensure_index([0])
        with inst.defer_maintenance():
            with inst.defer_maintenance():
                inst.insert((1,))
            # Inner exit is not a barrier.
            assert inst.pending_index_ops() == 1
            inst.insert((2,))
        assert inst.pending_index_ops() == 0

    def test_churn_cancels_before_touching_buckets(self):
        inst = Instance("R", 1, [(1,)], index_policy=POLICY_DEFERRED)
        inst.ensure_index([0])
        inst.flush_indexes()
        with inst.defer_maintenance():
            inst.insert((2,))
            inst.delete((2,))
            inst.delete((1,))
            inst.insert((1,))
        assert inst.rows() == {(1,)}
        assert set(inst.lookup([0], (1,))) == {(1,)}
        assert set(inst.lookup([0], (2,))) == set()

    def test_cold_rebuild_scale_debt_is_retired_at_barrier(self):
        """An index whose debt outweighs the table is dropped at the
        barrier and lazily rebuilt (exactly once) on its next probe."""
        inst = Instance("R", 2, index_policy=POLICY_DEFERRED)
        inst.ensure_index([1])
        with inst.defer_maintenance():
            inst.insert_many([(i, i % 3) for i in range(30)])
        # Retired: the definition is gone, but a probe self-heals.
        assert inst.indexed_columns() == ()
        assert inst.pending_index_ops() == 0
        assert set(inst.lookup([1], (0,))) == {
            (i, 0) for i in range(0, 30, 3)
        }

    def test_turnover_and_clear_inside_scope(self):
        inst = Instance("R", 1, [(1,), (2,)], index_policy=POLICY_DEFERRED)
        inst.ensure_index([0])
        with inst.defer_maintenance():
            inst.replace_contents([(3,), (4,)])
            assert set(inst.lookup([0], (3,))) == {(3,)}
            assert set(inst.lookup([0], (1,))) == set()
        inst.ensure_index([0])
        with inst.defer_maintenance():
            inst.clear()
            assert set(inst.lookup([0], (3,))) == set()
        assert inst.rows() == frozenset()

    def test_eager_scope_is_noop(self):
        inst = Instance("R", 1, index_policy=POLICY_EAGER)
        inst.ensure_index([0])
        with inst.defer_maintenance():
            inst.insert((1,))
            assert inst.pending_index_ops() == 0
        assert set(inst.lookup([0], (1,))) == {(1,)}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Instance("R", 1, index_policy="bogus")
        with pytest.raises(StorageError):
            Database(index_policy="bogus")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_randomized_mutations_match_reference(self, policy):
        import random

        rng = random.Random(7)
        inst = Instance("R", 2, index_policy=policy)
        inst.ensure_index([0])
        inst.ensure_index([1])
        shadow = set()
        for step in range(300):
            if rng.random() < 0.3 and step % 37 == 0:
                with inst.defer_maintenance():
                    for _ in range(rng.randrange(5)):
                        row = (rng.randrange(6), rng.randrange(4))
                        if rng.random() < 0.5:
                            inst.insert(row)
                            shadow.add(row)
                        else:
                            inst.delete(row)
                            shadow.discard(row)
                    if rng.random() < 0.5:
                        probe_key = (rng.randrange(6),)
                        assert set(inst.lookup([0], probe_key)) == {
                            r for r in shadow if r[0] == probe_key[0]
                        }
            else:
                row = (rng.randrange(6), rng.randrange(4))
                if rng.random() < 0.5:
                    inst.insert(row)
                    shadow.add(row)
                else:
                    inst.delete(row)
                    shadow.discard(row)
        assert inst.rows() == shadow
        assert_index_exact(inst, (0,))
        assert_index_exact(inst, (1,))


class TestInstanceCopy:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_copy_carries_index_definitions_and_policy(self, policy):
        inst = Instance(
            "R", 2, [(1, "a"), (2, "b")], index_policy=policy
        )
        inst.ensure_index([0])
        inst.ensure_index([1])
        clone = inst.copy()
        assert clone.index_policy == policy
        assert set(clone.indexed_columns()) == {(0,), (1,)}
        assert clone.rows() == inst.rows()
        assert_index_exact(clone, (0,))
        # The copy is independent: mutating one leaves the other intact.
        clone.insert((3, "c"))
        assert (3, "c") not in inst
        assert set(inst.lookup([0], (3,))) == set()

    def test_copy_of_deferred_instance_with_pending_debt_is_exact(self):
        inst = Instance("R", 1, [(1,)], index_policy=POLICY_DEFERRED)
        inst.ensure_index([0])
        with inst.defer_maintenance():
            inst.insert((2,))
            clone = inst.copy()  # copy synchronizes, not retires
            assert set(clone.indexed_columns()) == {(0,)}
            assert set(clone.lookup([0], (2,))) == {(2,)}

    def test_database_copy_carries_policy_and_indexes(self):
        db = Database(index_policy=POLICY_DEFERRED)
        db.create("R", 2, [(1, "a")])
        db["R"].ensure_index([0])
        clone = db.copy()
        assert clone.index_policy == POLICY_DEFERRED
        assert clone["R"].index_policy == POLICY_DEFERRED
        assert set(clone["R"].indexed_columns()) == {(0,)}
        assert clone["R"].rows() == {(1, "a")}


class TestDatabaseScopes:
    def test_relations_created_inside_scope_are_enrolled(self):
        db = Database(index_policy=POLICY_DEFERRED)
        with db.defer_maintenance():
            inst = db.create("R", 1)
            inst.ensure_index([0])
            inst.insert((1,))
            assert db.pending_index_ops() == 1
            assert set(inst.lookup([0], (1,))) == {(1,)}
        assert db.pending_index_ops() == 0

    def test_scope_exit_settles_every_relation(self):
        db = Database(index_policy=POLICY_DEFERRED)
        for name in ("R", "S"):
            inst = db.create(name, 1)
            inst.ensure_index([0])
        with db.defer_maintenance():
            db["R"].insert((1,))
            db["S"].insert((2,))
            assert db.pending_index_ops() == 2
        assert db.pending_index_ops() == 0


class TestEngineBarriers:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_run_leaves_no_pending_maintenance(self, policy):
        """Flush-at-stratum-boundary exactness: after an engine run, every
        relation's indexes are settled (synced or retired — no debt)."""
        db = Database(index_policy=policy)
        db.create("E", 2, [(1, 2), (2, 3), (3, 4)])
        prog = parse_program(
            """
            T(x, y) :- E(x, y)
            T(x, z) :- T(x, y), E(y, z)
            """
        )
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        assert db.pending_index_ops() == 0
        db["E"].insert((4, 5))
        engine.run_insertions(prog, db, {"E": {(4, 5)}})
        assert db.pending_index_ops() == 0
        assert (1, 5) in db["T"]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_engines_agree_across_policies(self, policy):
        db = Database(index_policy=policy)
        db.create("E", 2, [(1, 2), (2, 3), (3, 1), (4, 4)])
        prog = parse_program(
            """
            T(x, y) :- E(x, y)
            T(x, z) :- T(x, y), E(y, z)
            """
        )
        SemiNaiveEngine().run(prog, db)
        reference = Database()
        reference.create("E", 2, db["E"])
        NaiveEngine().run(prog, reference)
        assert db["T"].rows() == reference["T"].rows()


@st.composite
def random_edges(draw):
    n = draw(st.integers(2, 6))
    return draw(
        st.sets(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=18)
    )


@settings(max_examples=25, deadline=None)
@given(edges=random_edges(), extra=random_edges())
def test_property_deferred_policy_agrees_with_naive(edges, extra):
    """The NaiveEngine-agreement property under the deferred policy,
    including a warm incremental pass — mirrors the eager-policy property
    in test_engine_hotpath.py."""
    prog = parse_program(
        """
        T(x, y) :- E(x, y)
        T(x, z) :- T(x, y), E(y, z)
        Loop(x) :- T(x, x)
        Safe(x) :- V(x), not Loop(x)
        """
    )
    positive = parse_program(
        """
        T(x, y) :- E(x, y)
        T(x, z) :- T(x, y), E(y, z)
        """
    )
    nodes = {x for e in edges | extra for x in e}
    db = Database(index_policy=POLICY_DEFERRED)
    db.create("E", 2, edges)
    db.create("V", 1, [(x,) for x in nodes])
    engine = SemiNaiveEngine()
    engine.run(prog, db)
    assert db.pending_index_ops() == 0

    new_edges = extra - edges
    for edge in new_edges:
        db["E"].insert(edge)
    engine.run_insertions(positive, db, {"E": new_edges})
    assert db.pending_index_ops() == 0

    reference = Database()
    reference.create("E", 2, edges | extra)
    reference.create("V", 1, [(x,) for x in nodes])
    NaiveEngine().run(positive, reference)
    assert db["T"].rows() == reference["T"].rows()


class TestExchangePolicies:
    def _run_workload(self, policy):
        from repro.core.cdss import CDSS

        cdss = CDSS("t", index_policy=policy)
        cdss.add_peer("P1", {"G": ("id", "can", "nam")})
        cdss.add_peer("P2", {"B": ("id", "nam")})
        cdss.add_peer("P3", {"U": ("nam", "can")})
        cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
        cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
        cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
        with cdss.batch() as tx:
            for i in range(12):
                tx.insert("G", (i, i + 1, i + 2))
            tx.insert("B", (3, 5))
            tx.insert("U", (2, 5))
        cdss.update_exchange()
        # Churn: delete a few base rows, insert replacements, exchange.
        with cdss.batch() as tx:
            for i in range(0, 12, 3):
                tx.delete("G", (i, i + 1, i + 2))
            tx.insert("G", (100, 101, 102))
        cdss.update_exchange()
        return cdss

    @pytest.mark.parametrize("strategy", ("unified", "recompute"))
    def test_policies_reach_identical_state(self, strategy):
        results = {}
        for policy in POLICIES:
            cdss = self._run_workload(policy)
            cdss.strategy = strategy
            with cdss.batch() as tx:
                tx.delete("G", (1, 2, 3))
            cdss.update_exchange()
            assert cdss.system().is_consistent()
            results[policy] = {
                rel: cdss.relation(rel).to_rows() for rel in ("G", "B", "U")
            }
        assert results[POLICY_EAGER] == results[POLICY_DEFERRED]

    def test_exchange_db_has_no_pending_debt_after_exchange(self):
        cdss = self._run_workload(POLICY_DEFERRED)
        assert cdss.system().db.pending_index_ops() == 0
        assert cdss.index_policy == POLICY_DEFERRED
        assert cdss.system().index_policy == POLICY_DEFERRED


class TestSpecPolicyRoundTrip:
    def test_spec_carries_index_policy(self):
        from repro.api.spec import SpecError, SystemSpec

        spec = SystemSpec(name="s", index_policy=POLICY_EAGER)
        document = spec.to_dict()
        assert document["index_policy"] == POLICY_EAGER
        again = SystemSpec.from_json(spec.to_json())
        assert again.index_policy == POLICY_EAGER
        # Default is the deferred policy; bad values are rejected loudly.
        assert SystemSpec().index_policy == POLICY_DEFERRED
        with pytest.raises(SpecError):
            SystemSpec(index_policy="bogus")

    def test_cdss_round_trips_policy(self):
        from repro.core.cdss import CDSS

        cdss = CDSS("t", index_policy=POLICY_EAGER)
        cdss.add_peer("P", {"R": ("a",)})
        spec = cdss.to_spec()
        assert spec.index_policy == POLICY_EAGER
        rebuilt = CDSS.from_spec(spec)
        assert rebuilt.index_policy == POLICY_EAGER
        assert rebuilt.system().db.index_policy == POLICY_EAGER


class TestHotnessTracking:
    """Probe-hotness: hot indexes are settled at barriers, cold ones are
    still retired to their next probe."""

    def _instance_with_indexes(self):
        inst = Instance("R", 2, index_policy=POLICY_DEFERRED)
        inst.insert_many([(i, i % 5) for i in range(50)])
        inst.ensure_index((0,))
        inst.ensure_index((1,))
        return inst

    def test_hot_index_settled_cold_index_retired_at_barrier(self):
        inst = self._instance_with_indexes()
        # Heat up column 0 (the prepare_probe path plans/pipelines use);
        # column 1 stays cold.
        for _ in range(3):
            inst.prepare_probe((0,))
        with inst.defer_maintenance():
            # Rebuild-scale churn: the whole table turns over.
            inst.delete_many([(i, i % 5) for i in range(50)])
            inst.insert_many([(i, i % 5) for i in range(50, 150)])
        stats = inst.index_stats()
        assert stats["hot_settled"] == 1
        assert stats["retired"] == 1
        # The hot index survived the barrier fully settled...
        assert (0,) in inst.indexed_columns()
        assert inst.pending_index_ops() == 0
        # ...and the cold one was dropped (rebuilt on its next probe).
        assert (1,) not in inst.indexed_columns()
        assert_index_exact(inst, (0,))
        assert_index_exact(inst, (1,))

    def test_hotness_decays_across_barriers(self):
        inst = self._instance_with_indexes()
        inst.prepare_probe((0,))  # count 1: hot for exactly one barrier
        with inst.defer_maintenance():
            inst.delete_many([(i, i % 5) for i in range(50)])
            inst.insert_many([(i, 0) for i in range(50, 150)])
        assert inst.index_stats()["hot_settled"] == 1
        # No probes since; the next rebuild-scale barrier retires it.
        with inst.defer_maintenance():
            inst.delete_many([(i, 0) for i in range(50, 150)])
            inst.insert_many([(i, 1) for i in range(150, 350)])
        assert (0,) not in inst.indexed_columns()
        assert_index_exact(inst, (0,))

    def test_small_debt_never_retires_regardless_of_hotness(self):
        inst = self._instance_with_indexes()
        with inst.defer_maintenance():
            inst.insert_many([(100, 1), (101, 2)])  # tiny suffix
        assert (0,) in inst.indexed_columns()
        assert (1,) in inst.indexed_columns()
        assert inst.index_stats()["retired"] == 0

    def test_probe_counts_exposed_in_stats(self):
        inst = self._instance_with_indexes()
        inst.prepare_probe((0,))
        inst.prepare_probe((0,))
        counts = inst.index_stats()["probe_counts"]
        assert counts[(0,)] == 2
        assert counts.get((1,), 0) == 0
        # Eager instances expose the policy-agnostic baseline shape.
        eager = Instance("E", 1, [(1,)], index_policy=POLICY_EAGER)
        assert eager.index_stats()["policy"] == POLICY_EAGER


class TestMaintenanceLogSpill:
    """The size cap: very long deferral epochs keep the log O(live rows)."""

    def test_log_spills_once_cap_exceeded(self, monkeypatch):
        from repro.storage.indexes import DeferredIndexSet

        monkeypatch.setattr(DeferredIndexSet, "SPILL_MIN_ROWS", 64)
        inst = Instance("R", 2, index_policy=POLICY_DEFERRED)
        inst.insert_many([(i, i) for i in range(10)])
        inst.ensure_index((0,))
        max_pending = 0
        with inst.defer_maintenance():
            # Churn far past the cap: rows come and go repeatedly.
            for wave in range(40):
                rows = [(1000 + wave * 10 + j, wave) for j in range(10)]
                inst.insert_many(rows)
                inst.delete_many(rows)
                max_pending = max(max_pending, inst.pending_index_ops())
            stats = inst.index_stats()
            assert stats["spills"] > 0
            # The log was repeatedly coalesced: pending work stayed
            # bounded by the cap instead of growing with the epoch.
            assert max_pending <= 64 + 20
        assert inst.pending_index_ops() == 0
        assert len(inst) == 10
        assert_index_exact(inst, (0,))

    def test_spill_preserves_probe_results(self, monkeypatch):
        from repro.storage.indexes import DeferredIndexSet

        monkeypatch.setattr(DeferredIndexSet, "SPILL_MIN_ROWS", 32)
        inst = Instance("R", 1, index_policy=POLICY_DEFERRED)
        inst.insert_many([(i,) for i in range(20)])
        inst.ensure_index((0,))
        with inst.defer_maintenance():
            for i in range(200):
                inst.insert((1000 + i,))
                if i % 7 == 0:
                    # Interleaved probes stay exact across spills.
                    assert set(inst.lookup((0,), (1000 + i,))) == {(1000 + i,)}
        assert len(inst) == 220
        assert_index_exact(inst, (0,))

    def test_long_epoch_without_probes_stays_bounded(self, monkeypatch):
        from repro.storage.indexes import DeferredIndexSet

        monkeypatch.setattr(DeferredIndexSet, "SPILL_MIN_ROWS", 16)
        inst = Instance("R", 1, index_policy=POLICY_DEFERRED)
        inst.insert_many([(i,) for i in range(8)])
        inst.ensure_index((0,))
        with inst.defer_maintenance():
            for wave in range(50):
                rows = [(100 + wave * 4 + j,) for j in range(4)]
                inst.insert_many(rows)
                inst.delete_many(rows)
                cap = max(
                    DeferredIndexSet.SPILL_MIN_ROWS,
                    DeferredIndexSet.SPILL_FACTOR * len(inst),
                )
                assert inst._indexes._log_rows <= cap + 8
        assert inst.rows() == frozenset((i,) for i in range(8))
        assert_index_exact(inst, (0,))
