"""Tests for the hash indexes of relation instances (storage/instance.py):

* probe exactness: every probe after every mutation agrees with an index
  rebuilt from the rows, including under random insert/delete traffic,
  whether the index was declared up front or built by its first probe;
* churn, turnover and clear leave no stale bucket behind;
* Instance.copy / Database.copy carry exact, independent indexes;
* the semi-naive engine over indexed storage agrees with NaiveEngine and
  leaves every index exact, and so does an update exchange;
* the legacy ``index_policy`` spec key loads with either old value,
  changes nothing, and any other value is rejected.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from index_timing import INDEX_TIMINGS, declare_indexes
from repro.api.spec import SpecError, SystemSpec
from repro.core.cdss import CDSS
from repro.datalog import NaiveEngine, SemiNaiveEngine, parse_program
from repro.storage import Database, Instance

LEGACY_POLICIES = ("eager", "deferred")


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


def assert_all_indexes_exact(db):
    """No index of any relation lags behind its rows."""
    for inst in db:
        for cols in inst.indexed_columns():
            assert_index_exact(inst, cols)


class TestIndexMaintenance:
    def test_probe_after_each_mutation_is_exact(self):
        """A probe sees every mutation issued before it."""
        inst = Instance("R", 2, [(1, "a")])
        inst.ensure_index([0])
        inst.insert((2, "b"))
        assert set(inst.lookup([0], (2,))) == {(2, "b")}
        inst.delete((1, "a"))
        assert set(inst.lookup([0], (1,))) == set()
        inst.insert_many([(3, "c"), (4, "d")])
        assert set(inst.lookup([0], (3,))) == {(3, "c")}
        inst.delete_many([(3, "c")])
        assert set(inst.lookup([0], (3,))) == set()
        assert_index_exact(inst, (0,))

    def test_churn_leaves_index_exact(self):
        inst = Instance("R", 1, [(1,)])
        inst.ensure_index([0])
        inst.insert((2,))
        inst.delete((2,))
        inst.delete((1,))
        inst.insert((1,))
        assert inst.rows() == {(1,)}
        assert set(inst.lookup([0], (1,))) == {(1,)}
        assert set(inst.lookup([0], (2,))) == set()

    def test_turnover_and_clear(self):
        inst = Instance("R", 1, [(1,), (2,)])
        inst.ensure_index([0])
        inst.replace_contents([(3,), (4,)])
        assert set(inst.lookup([0], (3,))) == {(3,)}
        assert set(inst.lookup([0], (1,))) == set()
        assert inst.indexed_columns() == ((0,),)
        inst.clear()
        assert inst.indexed_columns() == ()
        assert set(inst.lookup([0], (3,))) == set()
        assert inst.rows() == frozenset()

    def test_rebuilds_count_builds_from_live_rows(self):
        inst = Instance("R", 2, [(1, "a"), (2, "b")])
        assert inst.index_stats() == {"indexes": 0, "rebuilds": 0}
        inst.lookup([0], (1,))
        inst.lookup([0], (2,))  # already built: patched, never rebuilt
        inst.insert((3, "c"))
        inst.ensure_index([1])
        assert inst.index_stats() == {"indexes": 2, "rebuilds": 2}
        db = Database()
        db.attach(inst)
        assert db.index_stats() == {
            "relations": 1,
            "indexes": 2,
            "rebuilds": 2,
        }


class TestDeferredInstance:
    """An index whose build is deferred to its first probe answers as one
    declared before the mutations and patched by each of them."""

    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_randomized_mutations_match_reference(self, timing):
        rng = random.Random(7)
        inst = Instance("R", 2)
        declare_indexes(inst, timing, [0], [1])
        shadow = set()
        for _ in range(300):
            row = (rng.randrange(6), rng.randrange(4))
            if rng.random() < 0.5:
                inst.insert(row)
                shadow.add(row)
            else:
                inst.delete(row)
                shadow.discard(row)
            if rng.random() < 0.2:
                probe_key = (rng.randrange(6),)
                assert set(inst.lookup([0], probe_key)) == {
                    r for r in shadow if r[0] == probe_key[0]
                }
        assert inst.rows() == shadow
        assert_index_exact(inst, (0,))
        assert_index_exact(inst, (1,))

    def test_unknown_policy_rejected(self):
        """Storage takes no policy at all.  The one place a policy value
        is still read, the legacy spec key, rejects any value it never
        had."""
        with pytest.raises(TypeError):
            Instance("R", 1, index_policy="eager")
        with pytest.raises(TypeError):
            Database(index_policy="eager")
        for bad in ("bogus", "", None, 1):
            with pytest.raises(SpecError, match="index policy"):
                SystemSpec.from_dict({"name": "s", "index_policy": bad})


class TestInstanceCopy:
    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_copy_carries_index_definitions_and_policy(self, timing):
        """A copy carries exactly the indexes built so far; one not built
        yet is built by the copy's own first probe."""
        inst = Instance("R", 2, [(1, "a"), (2, "b")])
        declare_indexes(inst, timing, [0], [1])
        clone = inst.copy()
        built = {(0,), (1,)} if timing == "eager" else set()
        assert set(clone.indexed_columns()) == built
        assert clone.rows() == inst.rows()
        assert_index_exact(clone, (0,))
        assert_index_exact(clone, (1,))
        # The copy is independent: mutating one leaves the other intact.
        clone.insert((3, "c"))
        assert set(clone.lookup([1], ("c",))) == {(3, "c")}
        assert (3, "c") not in inst
        assert set(inst.lookup([0], (3,))) == set()

    def test_copy_of_deferred_instance_with_pending_debt_is_exact(self):
        """A copy taken after mutations have patched a built index
        carries the patched buckets, not those of the build."""
        inst = Instance("R", 1, [(1,)])
        inst.ensure_index([0])
        inst.insert((2,))
        inst.delete((1,))
        clone = inst.copy()
        assert set(clone.indexed_columns()) == {(0,)}
        assert set(clone.lookup([0], (2,))) == {(2,)}
        assert set(clone.lookup([0], (1,))) == set()
        assert_index_exact(clone, (0,))

    def test_database_copy_carries_indexes(self):
        db = Database()
        db.create("R", 2, [(1, "a")])
        db["R"].ensure_index([0])
        clone = db.copy()
        assert set(clone["R"].indexed_columns()) == {(0,)}
        assert clone["R"].rows() == {(1, "a")}


TRANSITIVE_CLOSURE = """
    T(x, y) :- E(x, y)
    T(x, z) :- T(x, y), E(y, z)
"""


class TestEngineBarriers:
    """Engine runs over indexes declared before the run (patched by it)
    or left to the run's own first probes (built mid-run)."""

    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_run_leaves_no_pending_maintenance(self, timing):
        """After a run and after an incremental run, every index of every
        relation answers as one rebuilt from its rows."""
        db = Database()
        db.create("E", 2, [(1, 2), (2, 3), (3, 4)])
        declare_indexes(db["E"], timing, [0], [1])
        prog = parse_program(TRANSITIVE_CLOSURE)
        engine = SemiNaiveEngine()
        engine.run(prog, db)
        assert_all_indexes_exact(db)
        db["E"].insert((4, 5))
        engine.run_insertions(prog, db, {"E": {(4, 5)}})
        assert_all_indexes_exact(db)
        assert (1, 5) in db["T"]

    @pytest.mark.parametrize("timing", INDEX_TIMINGS)
    def test_engines_agree_across_policies(self, timing):
        db = Database()
        db.create("E", 2, [(1, 2), (2, 3), (3, 1), (4, 4)])
        declare_indexes(db["E"], timing, [0], [1])
        prog = parse_program(TRANSITIVE_CLOSURE)
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
    """With no index declared up front, every index is built by the
    engine's first probe and patched from then on: the fixpoint, warm
    incremental pass included, agrees with NaiveEngine, and no index the
    engine left behind lags its rows."""
    prog = parse_program(
        TRANSITIVE_CLOSURE
        + """
        Loop(x) :- T(x, x)
        Safe(x) :- V(x), not Loop(x)
        """
    )
    positive = parse_program(TRANSITIVE_CLOSURE)
    nodes = {x for e in edges | extra for x in e}
    db = Database()
    db.create("E", 2, edges)
    db.create("V", 1, [(x,) for x in nodes])
    engine = SemiNaiveEngine()
    engine.run(prog, db)
    assert_all_indexes_exact(db)

    new_edges = extra - edges
    for edge in new_edges:
        db["E"].insert(edge)
    engine.run_insertions(positive, db, {"E": new_edges})
    assert_all_indexes_exact(db)

    reference = Database()
    reference.create("E", 2, edges | extra)
    reference.create("V", 1, [(x,) for x in nodes])
    NaiveEngine().run(positive, reference)
    assert db["T"].rows() == reference["T"].rows()


def configured_cdss(strategy="unified", legacy_policy=None):
    """The workload's system, built from a spec document; with
    ``legacy_policy`` that document carries the old ``index_policy``
    key."""
    cdss = CDSS("t", strategy=strategy)
    cdss.add_peer("P1", {"G": ("id", "can", "nam")})
    cdss.add_peer("P2", {"B": ("id", "nam")})
    cdss.add_peer("P3", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    document = cdss.to_spec().to_dict()
    if legacy_policy is not None:
        document["index_policy"] = legacy_policy
    return CDSS.from_spec(document)


class TestExchangePolicies:
    def _run_workload(self, strategy="unified", legacy_policy=None):
        cdss = configured_cdss(strategy, legacy_policy)
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
        with cdss.batch() as tx:
            tx.delete("G", (1, 2, 3))
        cdss.update_exchange()
        return cdss

    @pytest.mark.parametrize("strategy", ("unified", "recompute"))
    def test_policies_reach_identical_state(self, strategy):
        """Systems loaded from specs carrying either legacy policy reach
        the state of one loaded from a spec carrying none."""
        results = {}
        for legacy_policy in (None,) + LEGACY_POLICIES:
            cdss = self._run_workload(strategy, legacy_policy)
            assert cdss.system().is_consistent()
            results[legacy_policy] = {
                rel: cdss.relation(rel).to_rows() for rel in ("G", "B", "U")
            }
        assert results["eager"] == results[None]
        assert results["deferred"] == results[None]

    def test_exchange_db_has_no_pending_debt_after_exchange(self):
        """After exchanges with churn, no index of the exchange database
        lags its rows."""
        db = self._run_workload().system().db
        assert any(inst.indexed_columns() for inst in db)
        assert_all_indexes_exact(db)


class TestSpecPolicyRoundTrip:
    def test_spec_carries_index_policy(self, tmp_path):
        """Spec documents written while index maintenance had two policies
        carry ``"index_policy"``; either old value loads and is not
        written back."""
        document = configured_cdss().to_spec().to_dict()
        assert "index_policy" not in document
        for legacy in LEGACY_POLICIES:
            path = tmp_path / f"{legacy}.json"
            path.write_text(json.dumps({**document, "index_policy": legacy}))
            assert SystemSpec.load(path).to_dict() == document

    def test_cdss_round_trips_policy(self):
        """A CDSS built from a spec carrying a legacy policy writes back
        the spec of one built without it."""
        clean = configured_cdss()
        for legacy in LEGACY_POLICIES:
            rebuilt = configured_cdss(legacy_policy=legacy)
            assert rebuilt.to_spec() == clean.to_spec()
            assert "index_policy" not in rebuilt.to_spec().to_dict()
