"""The serving tier's standing snapshot replicas (delta-on-publish).

A :class:`~repro.serve.snapshots.SnapshotManager` keeps two replicas of
the ``R__o`` tables and brings the idle one forward from the change log
on every refresh.  The oracle here is a fresh :meth:`Database.pin` of the
live tables: a hypothesis state machine drives random edits, trust
revocations and re-admissions, publishes under both strategies and one
reconfiguration over a cyclic ``pairs`` topology and a chain with
existential mappings (nested labeled nulls), and after every refresh
checks each replica's rows and materialized index buckets against it,
the served version against the live ``db.version``, and that no cached
prepared answer outlives a patch.  Exact-count tests pin the cost model:
no full pin after boot, and one full pin per replica for each fallback
trigger.
"""

import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro import CDSS
from repro.core import STRATEGIES, exchange
from repro.datalog.ast import tuple_has_labeled_null
from repro.schema.internal import output_name
from repro.serve import SnapshotManager
from repro.storage.database import Database
from repro.storage.snapshot import DatabaseSnapshot


def build_pairs():
    """A bidirectional chain R0 <-> R1 <-> R2 (every edge a 2-cycle)."""
    cdss = CDSS("replicas-pairs")
    for peer in range(3):
        cdss.add_peer(f"P{peer}", {f"R{peer}": ("k", "v")})
    for a, b in ((0, 1), (1, 0), (1, 2), (2, 1)):
        cdss.add_mapping(f"m{a}{b}", f"R{a}(k, v) -> R{b}(k, v)")
    return cdss


def build_chain_nulls():
    """A -> B -> C -> D, the last two mappings existential; D's nulls
    nest C's."""
    cdss = CDSS("replicas-chain")
    cdss.add_peer("P1", {"A": ("k", "v")})
    cdss.add_peer("P2", {"B": ("k", "v")})
    cdss.add_peer("P3", {"C": ("k", "w")})
    cdss.add_peer("P4", {"D": ("k", "w", "z")})
    cdss.add_mapping("mab", "A(k, v) -> B(k, v)")
    cdss.add_mapping("mbc", "B(k, v) -> exists w . C(k, w)")
    cdss.add_mapping("mcd", "C(k, w) -> exists z . D(k, w, z)")
    return cdss


# name -> (builder, source relation, curated (peer, relation, mapping),
#          served query over the far relation)
TOPOLOGIES = {
    "pairs": (
        build_pairs,
        "R0",
        ("P2", "R2", "m12"),
        "ans(v) :- R2(k, v)",
    ),
    "chain-nulls": (
        build_chain_nulls,
        "A",
        ("P2", "B", "mab"),
        "ans(w, z) :- D(k, w, z)",
    ),
}
KEYS = range(6)


def seed(cdss, source):
    with cdss.batch() as tx:
        for key in (0, 1, 2):
            tx.insert(source, (key, key + 10))
    cdss.update_exchange()


def live_pin(cdss):
    """What ``Database.pin`` captures of the live ``R__o`` tables (built
    directly, so the pin counters below only see the manager's pins)."""
    system = cdss.system()
    names = tuple(map(output_name, system.internal.relation_names()))
    return DatabaseSnapshot(system.db, names)


def expected_index(rows, cols):
    """The index on ``cols`` over ``rows`` as ``Instance`` stores it: a
    key with one row holds the row, a key with more a ``set``."""
    buckets = {}
    for row in rows:
        buckets.setdefault(tuple(row[c] for c in cols), set()).add(row)
    return {
        key: bucket if len(bucket) > 1 else next(iter(bucket))
        for key, bucket in buckets.items()
    }


def assert_replica_equals(replica, reference):
    """Rows and every materialized index bucket equal ``reference``'s."""
    assert replica.names == reference.names
    for name in reference.names:
        mine, theirs = replica.instance(name), reference.instance(name)
        rows = theirs.rows()
        assert mine.rows() == rows, name
        for cols in mine.indexed_columns():
            assert mine._indexes[cols] == expected_index(rows, cols)
        for cols in theirs.indexed_columns():
            if cols in mine.indexed_columns():
                assert mine._indexes[cols] == theirs._indexes[cols]


def served_answers(prepared, snapshot):
    with snapshot.lock:
        return {
            key: prepared.execute_at(snapshot, k=key).with_nulls().to_rows()
            for key in KEYS
        }


def live_answers(prepared):
    return {
        key: prepared.execute(k=key).with_nulls().to_rows() for key in KEYS
    }


# ---------------------------------------------------------------------------
# The oracle: a state machine over edits, publishes and one reconfiguration
# ---------------------------------------------------------------------------


class ReplicaMachine(RuleBasedStateMachine):
    @initialize(topology=st.sampled_from(sorted(TOPOLOGIES)))
    def boot(self, topology):
        build, source, curated, query = TOPOLOGIES[topology]
        self.cdss = build()
        self.source = source
        self.curated = curated
        seed(self.cdss, source)
        self.manager = SnapshotManager(self.cdss)
        self.prepared = self.cdss.prepare(query, params=("k",))
        self.previous = live_pin(self.cdss)
        self.reconfigured = False
        # Replicas still mirroring the pre-reconfiguration system.
        self.stale = 0
        self.system_pins = 0
        for snapshot in (self.manager.current, self.manager.idle):
            assert_replica_equals(snapshot, self.previous)
            # Build the lookup indexes and fill the result caches.
            served_answers(self.prepared, snapshot)

    # -- edits -------------------------------------------------------------

    @rule(key=st.sampled_from(KEYS), value=st.integers(0, 3))
    def insert(self, key, value):
        with self.cdss.batch() as tx:
            tx.insert(self.source, (key, value))

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        rows = [
            row
            for row in self.cdss.relation(self.source)
            if row[0] == key and not tuple_has_labeled_null(row)
        ]
        if rows:
            with self.cdss.batch() as tx:
                for row in rows:
                    tx.delete(self.source, row)

    @rule(key=st.sampled_from(KEYS))
    def revoke(self, key):
        """Delete imported rows at the curated peer: trust revocation."""
        _peer, relation, _mapping = self.curated
        rows = [
            row
            for row in self.cdss.relation(relation)
            if row[0] == key and not tuple_has_labeled_null(row)
        ]
        if rows:
            with self.cdss.batch() as tx:
                for row in rows:
                    tx.delete(relation, row)

    @rule(key=st.sampled_from(KEYS), value=st.integers(0, 3))
    def readmit(self, key, value):
        _peer, relation, _mapping = self.curated
        with self.cdss.batch() as tx:
            tx.insert(relation, (key, value))

    @precondition(lambda self: not self.reconfigured)
    @rule(modulus=st.integers(2, 3))
    def reconfigure(self, modulus):
        """A trust condition inside the topology: the CDSS rebuilds its
        exchange system, so both replicas must be re-pinned once each."""
        peer, _relation, mapping = self.curated
        self.cdss.peer(peer).trust().condition(
            mapping, lambda row: row[0] % modulus == 0, description="mod"
        )
        self.reconfigured = True
        self.stale = 2

    # -- publish + refresh -------------------------------------------------

    @rule(strategy=st.sampled_from(STRATEGIES))
    def publish(self, strategy):
        self.cdss.update_exchange(strategy=strategy)
        self._refresh()

    @rule()
    def refresh_only(self):
        self._refresh()

    def _refresh(self):
        manager = self.manager
        # Fill the idle replica's result cache with its (older) answers:
        # none of them may survive the patch that is about to happen.
        served_answers(self.prepared, manager.idle)
        served = manager.refresh()
        assert served is manager.current
        if self.stale:
            self.stale -= 1
            self.system_pins += 1
        assert manager.full_pins == {
            "boot": 2,
            "system": self.system_pins,
            "relations": 0,
            "log_gap": 0,
            "row_count": 0,
        }
        reference = live_pin(self.cdss)
        assert served.version == self.cdss.system().db.version
        assert_replica_equals(served, reference)
        # The replica swapped out is the previous refresh's fixpoint.
        assert_replica_equals(manager.idle, self.previous)
        assert served_answers(self.prepared, served) == live_answers(
            self.prepared
        )
        self.previous = reference

    def teardown(self):
        manager = getattr(self, "manager", None)
        if manager is not None:
            manager.close()


ReplicaMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestReplicaMachine = ReplicaMachine.TestCase


# ---------------------------------------------------------------------------
# Exact counts
# ---------------------------------------------------------------------------


@pytest.fixture
def pin_calls(monkeypatch):
    calls = []
    original = Database.pin

    def counting_pin(self, names=None):
        calls.append(names)
        return original(self, names)

    monkeypatch.setattr(Database, "pin", counting_pin)
    return calls


def publish_cycle(cdss, manager, key, insert):
    with cdss.batch() as tx:
        if insert:
            tx.insert("R0", (key, key))
        else:
            tx.delete("R0", (key, key))
    cdss.update_exchange()
    return manager.refresh()


def test_publishes_never_pin_after_boot(pin_calls):
    cdss = build_pairs()
    seed(cdss, "R0")
    manager = SnapshotManager(cdss)
    assert len(pin_calls) == 2
    publishes = 12
    for cycle in range(publishes):
        publish_cycle(cdss, manager, 100 + cycle // 2, cycle % 2 == 0)
    assert len(pin_calls) == 2
    stats = manager.stats()
    assert stats["full_pins"] == {
        "boot": 2,
        "system": 0,
        "relations": 0,
        "log_gap": 0,
        "row_count": 0,
    }
    assert stats["delta_applies"] == stats["refreshes"] == publishes
    # Each publish moves one row through all three relations, and each
    # replica replays every publish once — except the last one, which the
    # idle replica has yet to see.
    assert stats["delta_rows"] == 3 * (2 * publishes - 1)
    assert stats["last_refresh_seconds"] > 0
    assert_replica_equals(manager.current, live_pin(cdss))
    manager.close()


def _trigger_system(cdss, monkeypatch):
    cdss.peer("P2").trust().condition("m12", lambda row: row[0] % 2 == 0)


def _trigger_relations(cdss, monkeypatch):
    # Refresh-only afterwards: an exchange would need the dropped table.
    cdss.system().db.drop(output_name("R2"))


def _trigger_log_gap(cdss, monkeypatch):
    monkeypatch.setattr(exchange, "CHANGELOG_RETENTION", 1)
    for cycle in range(2):
        with cdss.batch() as tx:
            tx.insert("R0", (50 + cycle, 0))
        cdss.update_exchange()


def _trigger_row_count(cdss, monkeypatch):
    # A mutation of a live output table that bypasses the change log.
    cdss.system().db[output_name("R1")].insert((77, 77))


@pytest.mark.parametrize(
    "reason, trigger",
    [
        ("system", _trigger_system),
        ("relations", _trigger_relations),
        ("log_gap", _trigger_log_gap),
        ("row_count", _trigger_row_count),
    ],
)
def test_each_fallback_pins_each_replica_once(
    reason, trigger, pin_calls, monkeypatch
):
    cdss = build_pairs()
    seed(cdss, "R0")
    manager = SnapshotManager(cdss)
    publish_cycle(cdss, manager, 200, True)
    assert len(pin_calls) == 2
    trigger(cdss, monkeypatch)
    # Both replicas predate the trigger: each is rebuilt once, on its
    # next turn as the idle replica, and patched from the log after.
    for expected in (1, 2, 2, 2):
        manager.refresh()
        assert manager.full_pins[reason] == expected
        assert len(pin_calls) == 2 + expected
        assert_replica_equals(manager.current, live_pin(cdss))
    assert sum(manager.full_pins.values()) == 2 + 2
    assert manager.delta_applies == 1 + 2
    manager.close()


def test_concurrent_readers_see_whole_fixpoints():
    """Readers racing refreshes read each replica wholly before or after
    a patch: every (version, rows) pair they observe is one the live
    system held at that version."""
    cdss = build_pairs()
    seed(cdss, "R0")
    manager = SnapshotManager(cdss)
    prepared = cdss.prepare("ans(k, v) :- R2(k, v)")
    truth = {manager.current.version: prepared.execute().to_rows()}
    observed = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            snapshot = manager.current
            with snapshot.lock:
                rows = prepared.execute_at(snapshot).to_rows()
                observed.append((snapshot.version, rows))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for cycle in range(30):
            served = publish_cycle(cdss, manager, 300 + cycle, True)
            truth[served.version] = prepared.execute().to_rows()
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert observed
    for version, rows in observed:
        assert rows == truth[version]
    manager.close()
