"""Tests for the durability subsystem: WAL, checkpoints, crash recovery.

The crash-point matrix simulates process death at the three interesting
instants — after a checkpoint, losing the un-fsynced WAL tail, and mid-
record (a torn write) — and asserts the recovered node holds *the same
database* (every internal relation: inputs, derived instances, provenance
tables, labeled nulls) as a clean in-memory reference that performed the
surviving operations.

A checkpoint holds the node's inputs only, and the WAL tail after it
holds edits and publish markers, so opening a node folds the tail into
those inputs and derives the rest with a single recompute: no
incremental maintenance, however many publishes the tail holds (checked
by counting the exchange calls an open makes, and the engine work two
tails of different lengths cost).  The recovered change log holds no
batches, so a cursor from before the crash is told to resynchronize.

The WAL holds edits and publish markers only, so each edit must be
logged before it is staged and each marker before a log drains; a
failed append (a full disk) must leave the node as if the call never
happened.  ``DurableMachine`` checks all of it differentially: random
edits, publishes, checkpoints, crashes and disk-full faults against an
in-memory twin, comparing every internal relation after each step.
"""

import errno
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import (
    CDSS,
    DurableNode,
    DurabilitySpec,
    SpecError,
    SystemSpec,
    WriteAheadLog,
)
from repro.core import STRATEGIES, ExchangeSystem
from repro.core.editlog import Update
from repro.durability.node import (
    EDITLOG_PREFIX,
    NODE_META_BUCKET,
    STATE_FILE,
)
from repro.durability.wal import FSYNC_NEVER, read_segment
from repro.schema import SchemaError
from repro.serve.client import ServeClient
from repro.storage import SQLiteStore
from repro.storage.codec import encode_row
from repro.storage.instance import StorageError
from repro.storage.persistence import (
    CATALOG_BUCKET,
    DATA_PREFIX,
    INDEX_BUCKET,
    META_BUCKET,
    checkpoint as checkpoint_db,
)


def paper_spec() -> SystemSpec:
    """The running example (with m3, so labeled nulls + provenance)."""
    cdss = CDSS("dur")
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
    return cdss.to_spec()


def run_script(cdss: CDSS, publish, publishes: int, stage_tail: bool):
    """The scripted workload the crash matrix replays at various depths.

    ``publish`` is either ``node.publish`` or ``cdss.update_exchange`` so
    the same script drives both the durable node and the in-memory
    reference.  ``publishes`` ∈ {1, 2, 3} selects how far to run;
    ``stage_tail`` stages one final unpublished edit.
    """
    assert 1 <= publishes <= 3
    publish()  # the spec's seed edits
    if publishes >= 2:
        with cdss.peer("PGUS").batch() as tx:
            tx.insert("G", (7, 8, 9))
        publish()
    if publishes >= 3:
        with cdss.peer("PBioSQL").batch() as tx:
            tx.delete("B", (3, 2))
        publish()
    if stage_tail:
        cdss.peer("PGUS").insert("G", (5, 5, 5))


def certain_state(cdss: CDSS) -> dict:
    """Byte-comparable certain answers for every user relation."""
    return {
        relation: sorted(cdss.relation(relation).certain(), key=repr)
        for relation in cdss.relations()
    }


def reference_cdss(publishes: int, stage_tail: bool) -> CDSS:
    cdss = paper_spec().build()
    run_script(cdss, cdss.update_exchange, publishes, stage_tail)
    return cdss


def reference_state(publishes: int, stage_tail: bool) -> dict:
    return certain_state(reference_cdss(publishes, stage_tail))


def whole_state(cdss: CDSS) -> dict:
    """Every relation of the internal database, labeled nulls included."""
    return {
        instance.name: sorted(instance, key=repr)
        for instance in cdss.system().db
    }


def open_derived_once(data_dir: Path) -> DurableNode:
    """``DurableNode.open``, checking the recovery contract: exactly one
    recompute and no incremental maintenance, whatever the WAL tail."""
    calls = []
    recompute = ExchangeSystem.recompute
    apply_delta = ExchangeSystem.apply_delta

    def counted_recompute(system):
        calls.append("recompute")
        return recompute(system)

    def counted_apply_delta(system, *args, **kwargs):
        calls.append("apply_delta")
        return apply_delta(system, *args, **kwargs)

    with patch.object(ExchangeSystem, "recompute", counted_recompute):
        with patch.object(ExchangeSystem, "apply_delta", counted_apply_delta):
            node = DurableNode.open(data_dir)
    assert calls == ["recompute"]
    assert node.cdss.exchange_reports == []
    return node


def pending(cdss: CDSS) -> dict:
    """Every peer's staged, unpublished edit-log entries, in order."""
    return {name: list(cdss._peer(name).edit_log) for name in cdss.peers()}


def crash(node: DurableNode) -> None:
    """Process death: no checkpoint, only what reached the WAL survives."""
    node.wal.close()
    node.store.close()


class TornWriteHandle:
    """A WAL segment handle on a filling disk: its first write lands half
    the bytes and raises ENOSPC; later writes pass through."""

    def __init__(self, handle) -> None:
        self._handle = handle
        self._failed = False

    def write(self, data) -> int:
        if self._failed:
            return self._handle.write(data)
        self._failed = True
        self._handle.write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._handle, name)


def fail_next_append(wal: WriteAheadLog) -> None:
    """Make ``wal``'s next append write half its frame, then raise ENOSPC."""
    wal._handle = TornWriteHandle(wal._open_handle())


def newest_wal_segment(data_dir: Path) -> Path:
    segments = [
        path
        for path in sorted((data_dir / "wal").glob("wal-*.log"))
        if path.stat().st_size > 0
    ]
    assert segments, "expected a non-empty WAL segment"
    return segments[-1]


def drop_last_record(path: Path, partial: bool = False) -> None:
    """Simulate a crash while writing the final WAL record.

    ``partial=False`` drops the whole last line (died *before* the write
    hit disk); ``partial=True`` leaves half of it behind (torn write).
    """
    data = path.read_bytes()
    assert data.endswith(b"\n")
    cut = data.rindex(b"\n", 0, len(data) - 1) + 1 if data.count(b"\n") > 1 else 0
    tail = data[cut:]
    if partial:
        data = data[:cut] + tail[: max(1, len(tail) // 2)]
    else:
        data = data[:cut]
    path.write_bytes(data)


# ---------------------------------------------------------------------------
# WAL framing
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_append_read_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            assert wal.append("edits", {"peer": "P", "entries": []}) == 1
            assert wal.append("publish", {"peers": ["P"]}) == 2
        reopened = WriteAheadLog(tmp_path)
        records = list(reopened.records())
        assert [(r.seq, r.kind) for r in records] == [
            (1, "edits"),
            (2, "publish"),
        ]
        assert records[1].body == {"peers": ["P"]}
        assert reopened.last_seq == 2

    def test_after_seq_filters(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            for index in range(5):
                wal.append("edits", {"i": index})
            assert [r.seq for r in wal.records(after_seq=3)] == [4, 5]

    def test_torn_tail_is_ignored(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("edits", {"i": 1})
        wal.append("edits", {"i": 2})
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        drop_last_record(segment, partial=True)
        with WriteAheadLog(tmp_path) as reopened:
            assert [r.body["i"] for r in reopened.records()] == [1]
            assert reopened.last_seq == 1
            # New appends go to a fresh segment past the torn tail.
            assert reopened.append("edits", {"i": 3}) == 2
            assert [r.body["i"] for r in reopened.records()] == [1, 3]

    def test_checksum_corruption_ends_replay(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("edits", {"i": 1})
        wal.append("edits", {"i": 2})
        wal.close()
        segment = sorted(tmp_path.glob("wal-*.log"))[-1]
        data = segment.read_bytes()
        # Flip one payload byte of the FIRST record: its crc fails, and
        # replay must stop there rather than skip over the hole.
        index = data.index(b'"i":1')
        segment.write_bytes(
            data[:index] + b'"i":7' + data[index + 5 :]
        )
        assert list(WriteAheadLog(tmp_path).records()) == []

    def test_rotate_prunes_covered_segments(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("edits", {"i": 1})
        wal.append("edits", {"i": 2})
        pruned = wal.rotate(retain_after_seq=2)
        assert pruned == 1
        wal.append("edits", {"i": 3})
        assert [r.seq for r in wal.records()] == [3]
        # A rotation that covers nothing keeps the segment.
        assert wal.rotate(retain_after_seq=0) == 0
        assert [r.seq for r in wal.records()] == [3]

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(StorageError):
            WriteAheadLog(tmp_path, fsync="sometimes")
        WriteAheadLog(tmp_path, fsync="never").close()

    def test_read_segment_tolerates_garbage(self, tmp_path):
        path = tmp_path / "wal-00000001.log"
        path.write_bytes(b"deadbeef not-json\n")
        assert read_segment(path) == []

    def test_numbering_continues_past_a_pruned_checkpoint(self, tmp_path):
        with WriteAheadLog(tmp_path) as wal:
            wal.append("edits", {"i": 1})
            wal.append("edits", {"i": 2})
            wal.rotate(retain_after_seq=2)
        assert list(WriteAheadLog(tmp_path).records()) == []
        with WriteAheadLog(tmp_path, after_seq=2) as reopened:
            assert reopened.last_seq == 2
            assert reopened.append("edits", {"i": 3}) == 3


# ---------------------------------------------------------------------------
# DurableNode round trips
# ---------------------------------------------------------------------------


class TestDurableNode:
    def test_crash_recovery_derives_the_tail_once(self, tmp_path):
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        run_script(node.cdss, node.publish, publishes=3, stage_tail=True)
        expected = certain_state(node.cdss)
        version = node.cdss.system().version
        # Crash: no close(), no checkpoint — only the WAL survives.
        node.wal.close()
        node.store.close()

        recovered = open_derived_once(tmp_path / "node")
        assert recovered.recovered
        assert recovered.replayed_publish_records == 3
        assert recovered.replayed_edit_records >= 3
        assert certain_state(recovered.cdss) == expected
        assert certain_state(recovered.cdss) == reference_state(3, True)
        assert recovered.cdss.pending_edits() == 1
        assert recovered.cdss.system().is_consistent()
        # Change-stream versions continue the pre-crash sequence (no
        # subscription was open here, so recovery may not undershoot —
        # only match or exceed).
        assert recovered.cdss.system().version >= version
        recovered.close()

    def test_recovery_work_does_not_grow_with_the_tail(self, tmp_path):
        """Two nodes share a checkpoint and reach the same inputs, one
        through a tail of one publish and one through six: recovery
        derives once from those inputs, so both do the same engine
        work."""
        edits = [
            ("PGUS", "insert", "G", (7, 8, 9)),
            ("PGUS", "insert", "G", (8, 9, 10)),
            ("PBioSQL", "delete", "B", (3, 2)),  # imported: a rejection
            ("PuBio", "insert", "U", (9, 9)),
            ("PGUS", "insert", "G", (10, 11, 12)),
            ("PGUS", "delete", "G", (7, 8, 9)),  # local: a retraction
        ]
        work, states = [], []
        for name, publish_each in (("one", False), ("six", True)):
            node = DurableNode.create(paper_spec(), tmp_path / name)
            node.publish()
            node.checkpoint()
            for peer, op, relation, row in edits:
                getattr(node.cdss.peer(peer), op)(relation, row)
                if publish_each:
                    node.publish()
            if not publish_each:
                node.publish()
            live = whole_state(node.cdss)
            crash(node)
            recovered = DurableNode.open(tmp_path / name)
            assert recovered.replayed_publish_records == (
                6 if publish_each else 1
            )
            assert whole_state(recovered.cdss) == live
            counters = recovered.cdss.system().engine.stats.counters()
            work.append(
                (counters["rule_applications"], counters["tuples_inserted"])
            )
            states.append(live)
            recovered.close()
        assert states[0] == states[1]
        assert work[0] == work[1]

    def test_recovered_change_log_starts_at_the_recovered_version(
        self, tmp_path
    ):
        """With a subscription open on the live node (the serving tier's
        case), the recovered version is exactly the pre-crash one.  The
        recovered log holds no batches, so an older cursor is told to
        resynchronize instead of being handed a partial tail."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.cdss.system().subscribe()
        node.publish()
        node.checkpoint()
        cursor = node.cdss.system().version
        with node.cdss.peer("PGUS").batch() as tx:
            tx.insert("G", (7, 8, 9))
        node.publish()
        node.publish(["PBioSQL"], "recompute")
        version = node.cdss.system().version
        assert version == cursor + 2
        crash(node)

        recovered = open_derived_once(tmp_path / "node")
        system = recovered.cdss.system()
        assert system.version == version
        assert system.floor == version
        assert system.changes_since(cursor) == (version, None)
        assert system.changes_since(version) == (version, [])
        # Publishes after recovery continue the log from the floor.
        subscription = system.subscribe()
        with recovered.cdss.peer("PuBio").batch() as tx:
            tx.insert("U", (9, 9))
        recovered.publish()
        assert [batch.version for batch in subscription.poll()] == [
            version + 1
        ]
        recovered.close()

    def test_uncaptured_publish_ticks_no_recovered_version(self, tmp_path):
        """A publish with no subscription open ticks no version live, and
        its marker ticks none in recovery either: a node that published
        before anything subscribed (``serve --data-dir`` boot) comes back
        at exactly its pre-crash version."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.publish()
        assert node.cdss.system().version == 0
        node.cdss.system().subscribe()
        with node.cdss.peer("PGUS").batch() as tx:
            tx.insert("G", (7, 8, 9))
        node.publish()
        assert node.cdss.system().version == 1
        crash(node)

        recovered = open_derived_once(tmp_path / "node")
        system = recovered.cdss.system()
        assert recovered.replayed_publish_records == 2
        assert (system.version, system.floor) == (1, 1)
        assert system.changes_since(1) == (1, [])
        recovered.close()

    def test_recovered_node_resumes_incrementally(self, tmp_path):
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        run_script(node.cdss, node.publish, publishes=2, stage_tail=False)
        node.wal.close()
        node.store.close()
        recovered = DurableNode.open(tmp_path / "node")
        # The staged tail publishes on the recovered node...
        with recovered.cdss.peer("PBioSQL").batch() as tx:
            tx.delete("B", (3, 2))
        recovered.publish()
        assert certain_state(recovered.cdss) == reference_state(3, False)
        recovered.close()
        # ...and survives the NEXT crash/restart cycle too.
        final = DurableNode.open(tmp_path / "node")
        assert final.replayed_publish_records == 0  # graceful close
        assert certain_state(final.cdss) == reference_state(3, False)
        final.close()

    def test_checkpoint_cadence(self, tmp_path):
        node = DurableNode.create(
            paper_spec(), tmp_path / "node", checkpoint_every=2
        )
        assert node.checkpoints == 1  # the initial checkpoint
        node.publish()
        assert node.checkpoints == 1
        node.publish()
        assert node.checkpoints == 2  # cadence hit
        assert list(node.wal.records()) == []  # pruned up to the checkpoint
        assert node.wal.last_seq == 2  # but the sequence never resets
        node.close(checkpoint=False)

    def test_batch_commits_are_wal_logged(self, tmp_path):
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        before = node.wal.last_seq
        with node.cdss.peer("PGUS").batch() as tx:
            tx.insert("G", (7, 8, 9))
            tx.insert("G", (8, 9, 10))
        assert node.wal.last_seq == before + 1  # one record per commit
        records = list(node.wal.records(after_seq=before))
        assert records[0].kind == "edits"
        assert len(records[0].body["entries"]) == 2
        node.close(checkpoint=False)

    def test_create_then_open_guards(self, tmp_path):
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.close()
        with pytest.raises(StorageError):
            DurableNode.create(paper_spec(), tmp_path / "node")
        with pytest.raises(StorageError):
            DurableNode.open(tmp_path / "fresh")
        # launch() picks the right constructor either way.
        opened = DurableNode.launch(paper_spec(), tmp_path / "node")
        assert opened.recovered
        opened.close()
        created = DurableNode.launch(paper_spec(), tmp_path / "fresh")
        assert not created.recovered
        created.close()

    def test_legacy_spec_with_workers_opens(self, tmp_path):
        """Node directories created before parallel evaluation was
        removed hold a spec.json with ``"workers": 1``: they open and
        recover; a spec asking for more workers is refused."""
        data_dir = tmp_path / "node"
        node = DurableNode.create(paper_spec(), data_dir)
        run_script(node.cdss, node.publish, publishes=2, stage_tail=False)
        node.close(checkpoint=False)
        spec_path = data_dir / "spec.json"
        document = json.loads(spec_path.read_text())
        spec_path.write_text(json.dumps({**document, "workers": 1}))
        recovered = DurableNode.open(data_dir)
        assert recovered.recovered
        assert certain_state(recovered.cdss) == reference_state(2, False)
        recovered.close()
        spec_path.write_text(json.dumps({**document, "workers": 2}))
        with pytest.raises(SpecError, match="parallel evaluation was removed"):
            DurableNode.open(data_dir)

    def test_legacy_index_policy_data_dir_opens(self, tmp_path):
        """Node directories written while ``index_policy`` was an option
        hold it in spec.json and in the checkpoint's meta bucket: they
        open and serve the same answers, and the next checkpoint drops
        the meta key."""
        data_dir = tmp_path / "node"
        node = DurableNode.create(paper_spec(), data_dir)
        run_script(node.cdss, node.publish, publishes=2, stage_tail=False)
        node.close()
        spec_path = data_dir / "spec.json"
        document = json.loads(spec_path.read_text())
        spec_path.write_text(
            json.dumps({**document, "index_policy": "deferred"})
        )
        store = SQLiteStore(str(data_dir / STATE_FILE))
        with store.transaction():
            store.put(META_BUCKET, "index_policy", "deferred")
        store.close()
        recovered = DurableNode.open(data_dir)
        assert certain_state(recovered.cdss) == reference_state(2, False)
        recovered.close()
        store = SQLiteStore(str(data_dir / STATE_FILE))
        assert store.get(META_BUCKET, "index_policy") is None
        store.close()

    def test_legacy_derived_row_checkpoint_opens(self, tmp_path):
        """Checkpoints written before derived rows were dropped from them
        hold a bucket per internal relation: they open with the same
        state, and the next checkpoint keeps only the inputs."""
        data_dir = tmp_path / "node"
        node = DurableNode.create(paper_spec(), data_dir)
        run_script(node.cdss, node.publish, publishes=3, stage_tail=True)
        node.checkpoint()
        # The old format: the full internal database, derived rows and
        # provenance tables included, beside the node's own buckets.
        checkpoint_db(node.cdss.system().db, node.store)
        expected = whole_state(node.cdss)
        derived = {DATA_PREFIX + "U__o", DATA_PREFIX + "__prov_m3"}
        assert derived <= set(node.store.bucket_names())
        node.close(checkpoint=False)

        recovered = DurableNode.open(data_dir)
        assert recovered.replayed_publish_records == 0
        assert whole_state(recovered.cdss) == expected
        assert certain_state(recovered.cdss) == reference_state(3, True)
        assert recovered.cdss.pending_edits() == 1
        recovered.checkpoint()
        inputs = {
            DATA_PREFIX + name
            for name in recovered.cdss.internal_schema.edb_names()
        }
        own = {CATALOG_BUCKET, INDEX_BUCKET, META_BUCKET, NODE_META_BUCKET}
        for bucket in recovered.store.bucket_names():
            assert (
                bucket in inputs
                or bucket in own
                or bucket.startswith(EDITLOG_PREFIX)
            ), bucket
        recovered.close()

    def test_rejected_labeled_null_survives_restart(self, tmp_path):
        """A peer's deletion of an imported labeled-null row is an input
        (an ``R__r`` row holding a Skolem value): it survives checkpoint,
        crash and open, and the re-derived state still honours it."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.publish()
        imported = next(
            row
            for row in node.cdss.relation("U")
            if row[0] == 3 and row not in node.cdss.relation("U").certain()
        )
        node.cdss.peer("PuBio").delete("U", imported)
        node.publish()
        assert imported not in node.cdss.relation("U")
        node.checkpoint()
        expected = whole_state(node.cdss)
        node.wal.close()
        node.store.close()

        recovered = DurableNode.open(tmp_path / "node")
        assert recovered.replayed_publish_records == 0
        assert imported in recovered.cdss.system().rejections("U")
        assert imported not in recovered.cdss.relation("U")
        assert whole_state(recovered.cdss) == expected
        recovered.close()

    def test_trust_policy_is_refused(self, tmp_path):
        """A trust condition would not survive recovery (the spec file
        cannot hold it), so a durable node fails closed: publish and
        checkpoint refuse before logging or writing anything."""
        cdss = CDSS("trusting")
        cdss.add_peer("P1", {"R": ("x",)})
        cdss.add_peer("P2", {"S": ("x",)})
        cdss.add_mapping("m", "R(x) -> S(x)")
        node = DurableNode.create(cdss.to_spec(), tmp_path / "node")
        node.cdss.peer("P2").trust().condition(
            "m", lambda row: row[0] % 2 == 0
        )
        with node.cdss.peer("P1").batch() as tx:
            tx.insert("R", (1,))
            tx.insert("R", (2,))
        logged = node.wal.last_seq
        state_file = (tmp_path / "node" / STATE_FILE).read_bytes()
        with pytest.raises(StorageError, match=r"'P2'.*item 11"):
            node.publish()
        with pytest.raises(StorageError, match=r"'P2'.*item 11"):
            node.checkpoint()
        assert node.wal.last_seq == logged
        assert node.cdss.pending_edits() == 2
        assert node.checkpoints == 1
        assert (tmp_path / "node" / STATE_FILE).read_bytes() == state_file
        # close() still releases the WAL and the store when its final
        # checkpoint is refused.
        with pytest.raises(StorageError, match="P2"):
            node.close()
        assert node.closed

        for index, distrust in enumerate(
            (
                lambda trust: trust.distrust_row("R", (1,)),
                lambda trust: trust.distrust_peer("P1"),
            )
        ):
            fresh = DurableNode.create(cdss.to_spec(), tmp_path / f"d{index}")
            distrust(fresh.cdss.peer("P2").trust())
            with pytest.raises(StorageError, match="P2"):
                fresh.publish()
            fresh.close(checkpoint=False)

    def test_reopened_node_numbers_past_its_checkpoint(self, tmp_path):
        """A graceful close checkpoints and prunes every WAL segment.  The
        reopened WAL must not number from 1 again, or the next recovery
        skips its records as covered and drops an acknowledged publish."""
        cdss = CDSS("renumber")
        cdss.add_peer("P1", {"R": ("x",)})
        cdss.add_peer("P2", {"S": ("x",)})
        cdss.add_mapping("m", "R(x) -> S(x)")
        node = DurableNode.create(cdss.to_spec(), tmp_path / "node")
        for key in range(3):
            node.cdss.peer("P1").insert("R", (key,))
            node.publish()
        node.close()
        reopened = DurableNode.open(tmp_path / "node")
        reopened.cdss.peer("P1").insert("R", (99,))
        reopened.publish()
        assert (99,) in reopened.cdss.relation("S")
        live = whole_state(reopened.cdss)
        crash(reopened)

        recovered = DurableNode.open(tmp_path / "node")
        assert recovered.replayed_publish_records == 1
        assert (99,) in recovered.cdss.relation("S")
        assert whole_state(recovered.cdss) == live
        recovered.close()

    def test_failed_edits_append_stages_nothing(self, tmp_path):
        """The WAL is the only durable copy of an edit: a batch whose
        append fails must not be staged, or the next publish would apply
        an edit that no recovery can replay."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.publish()
        fail_next_append(node.wal)
        with pytest.raises(OSError):
            with node.cdss.peer("PGUS").batch() as tx:
                tx.insert("G", (7, 8, 9))
        assert node.cdss.pending_edits() == 0
        node.publish()
        assert (7, 9) not in node.cdss.relation("B")
        live = whole_state(node.cdss)
        assert live == whole_state(reference_cdss(1, False))
        crash(node)
        recovered = DurableNode.open(tmp_path / "node")
        assert whole_state(recovered.cdss) == live
        recovered.close()

    def test_failed_multi_peer_batch_append_stages_nothing(self, tmp_path):
        """A batch spanning two peers is written ahead as one record: a
        disk that fills while it logs leaves neither peer's edits
        staged, on the live node and after recovery."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.publish()
        append = node.wal.append

        def disk_full_on_b(kind, body):
            if any(entry[0] == "B" for entry in body.get("entries", ())):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return append(kind, body)

        node.wal.append = disk_full_on_b
        with pytest.raises(OSError):
            with node.cdss.batch() as tx:
                tx.insert("G", (7, 8, 9))
                tx.insert("B", (4, 4))
        del node.wal.append
        assert node.cdss.pending_edits() == 0
        live = whole_state(node.cdss)
        crash(node)
        recovered = DurableNode.open(tmp_path / "node")
        assert recovered.cdss.pending_edits() == 0
        assert whole_state(recovered.cdss) == live
        recovered.close()

    def test_multi_peer_batch_is_one_record(self, tmp_path):
        """One record per batch, and replay routes each entry to the
        peer owning its relation — old records naming their ``peer``
        replay the same way."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        before = node.wal.last_seq
        with node.cdss.batch() as tx:
            tx.insert("G", (7, 8, 9))
            tx.insert("B", (4, 4))
        node.wal.append(
            "edits",
            {"peer": "PuBio", "entries": [["U", encode_row((9, 9)), True]]},
        )
        assert node.wal.last_seq == before + 2
        live = pending(node.cdss)
        crash(node)
        recovered = DurableNode.open(tmp_path / "node")
        assert recovered.replayed_edit_records == 2
        assert pending(recovered.cdss) == {
            **live,
            "PuBio": list(live["PuBio"]) + [Update("U", (9, 9), True)],
        }
        recovered.close()

    def test_failed_publish_append_keeps_the_edits(self, tmp_path):
        """The publish marker is logged before any edit log drains: when
        its append fails, the edits stay pending, and the retry publishes
        them on the live node and again on recovery."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.publish()
        with node.cdss.peer("PGUS").batch() as tx:
            tx.insert("G", (7, 8, 9))
        before = whole_state(node.cdss)
        fail_next_append(node.wal)
        with pytest.raises(OSError):
            node.publish()
        assert node.cdss.pending_edits() == 1
        assert whole_state(node.cdss) == before
        node.publish()
        live = whole_state(node.cdss)
        assert live == whole_state(reference_cdss(2, False))
        crash(node)
        recovered = DurableNode.open(tmp_path / "node")
        assert whole_state(recovered.cdss) == live
        recovered.close()

    def test_torn_failed_append_strands_no_later_record(self, tmp_path):
        """A failed append that left half a frame on disk must not hide
        the records appended after it from recovery."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.publish()
        fail_next_append(node.wal)
        with pytest.raises(OSError):
            with node.cdss.peer("PGUS").batch() as tx:
                tx.insert("G", (7, 8, 9))
        with node.cdss.peer("PGUS").batch() as tx:
            tx.insert("G", (6, 6, 6))
        node.publish()
        live = whole_state(node.cdss)
        crash(node)
        recovered = DurableNode.open(tmp_path / "node")
        assert recovered.replayed_publish_records == 2
        assert (6, 6, 6) in recovered.cdss.relation("G")
        assert (7, 8, 9) not in recovered.cdss.relation("G")
        assert whole_state(recovered.cdss) == live
        recovered.close()

    def test_unknown_peer_publish_logs_and_drains_nothing(self, tmp_path):
        """A marker naming an unknown peer could never replay."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        logged = node.wal.last_seq
        with pytest.raises(SchemaError):
            node.publish(["PGUS", "Nope"])
        assert node.wal.last_seq == logged
        assert node.cdss.pending_edits() == 4
        node.close(checkpoint=False)

    def test_publish_records_with_a_delta_body_open(self, tmp_path):
        """``publish`` records once carried the publish's net delta beside
        its peers, strategy and version.  A WAL holding such records
        opens to the same state: the edits have their own records, and
        replay re-publishes them."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.publish()
        assert list(node.wal.records())[-1].body == {
            "peers": ["PGUS", "PBioSQL", "PuBio"],
            "strategy": "unified",
            "version": 0,
            "ticks": False,  # no subscription open: no version tick
        }
        with node.cdss.peer("PGUS").batch() as tx:
            tx.insert("G", (7, 8, 9))
        with node.cdss.peer("PBioSQL").batch() as tx:
            tx.delete("B", (3, 2))  # imported: a rejection
        version = node.cdss.system().version
        # Written as the node used to write them, without publishing live.
        node.wal.append(
            "publish",
            {
                "peers": ["PGUS"],
                "strategy": "unified",
                "version": version,
                "delta": {
                    "local_inserts": {"G": [encode_row((7, 8, 9))]},
                },
            },
        )
        node.wal.append(
            "publish",
            {
                "peers": ["PBioSQL"],
                "strategy": "recompute",
                "version": version,
                "delta": {
                    "rejection_inserts": {"B": [encode_row((3, 2))]},
                },
            },
        )
        crash(node)
        recovered = DurableNode.open(tmp_path / "node")
        assert recovered.replayed_publish_records == 3
        assert recovered.cdss.pending_edits() == 0
        assert whole_state(recovered.cdss) == whole_state(
            reference_cdss(3, False)
        )
        recovered.close()

    def test_durability_spec_roundtrip(self, tmp_path):
        spec = paper_spec()
        from dataclasses import replace

        durable = replace(
            spec,
            durability=DurabilitySpec(
                path=str(tmp_path / "node"), fsync="never", checkpoint_every=4
            ),
        )
        loaded = SystemSpec.from_json(durable.to_json())
        assert loaded.durability == durable.durability
        assert SystemSpec.from_json(spec.to_json()).durability is None
        from repro import SpecError

        with pytest.raises(SpecError):
            DurabilitySpec(fsync="sometimes")
        with pytest.raises(SpecError):
            DurabilitySpec(checkpoint_every=-1)
        with pytest.raises(SpecError):
            SystemSpec.from_dict(
                {**spec.to_dict(), "durability": {"surprise": 1}}
            )


# ---------------------------------------------------------------------------
# The crash-point matrix
# ---------------------------------------------------------------------------


class TestCrashMatrix:
    """Kill the node at each interesting instant; the recovered node must
    hold the same database as a clean reference, and so serve
    byte-identical certain answers."""

    def _crashed_node(self, tmp_path, publishes=3, stage_tail=False):
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        run_script(node.cdss, node.publish, publishes, stage_tail)
        return node

    def test_kill_after_checkpoint(self, tmp_path):
        node = self._crashed_node(tmp_path)
        node.checkpoint()
        live = whole_state(node.cdss)
        node.wal.close()
        node.store.close()
        recovered = DurableNode.open(tmp_path / "node")
        # Everything is in the checkpoint: nothing to replay.
        assert recovered.replayed_publish_records == 0
        assert recovered.replayed_edit_records == 0
        assert whole_state(recovered.cdss) == live
        assert live == whole_state(reference_cdss(3, False))
        assert certain_state(recovered.cdss) == reference_state(3, False)
        recovered.close()

    def test_kill_after_checkpoint_and_wal_tail(self, tmp_path):
        """Checkpoint after the first publish, then two more publishes
        reach only the WAL: open folds the tail into the checkpoint's
        inputs and derives once."""
        node = DurableNode.create(paper_spec(), tmp_path / "node")
        node.publish()
        node.checkpoint()
        with node.cdss.peer("PGUS").batch() as tx:
            tx.insert("G", (7, 8, 9))
        node.publish()
        with node.cdss.peer("PBioSQL").batch() as tx:
            tx.delete("B", (3, 2))
        node.publish()
        live = whole_state(node.cdss)
        node.wal.close()
        node.store.close()
        recovered = open_derived_once(tmp_path / "node")
        assert recovered.replayed_publish_records == 2
        assert whole_state(recovered.cdss) == live
        assert certain_state(recovered.cdss) == reference_state(3, False)
        recovered.close()

    def test_kill_before_fsync_loses_only_the_tail(self, tmp_path):
        """The final publish record never reached disk: the node comes
        back at the previous publish, with the tail edits re-staged."""
        node = self._crashed_node(tmp_path)
        node.wal.close()
        node.store.close()
        drop_last_record(newest_wal_segment(tmp_path / "node"))
        recovered = open_derived_once(tmp_path / "node")
        assert recovered.replayed_publish_records == 2
        # The third publish is gone, but its edits record survived: the
        # deletion is staged, invisible until the next publish.
        assert recovered.cdss.pending_edits() == 1
        assert whole_state(recovered.cdss) == whole_state(
            reference_cdss(2, False)
        )
        assert certain_state(recovered.cdss) == reference_state(2, False)
        recovered.publish()
        assert whole_state(recovered.cdss) == whole_state(node.cdss)
        assert certain_state(recovered.cdss) == reference_state(3, False)
        recovered.close()

    def test_kill_mid_record_tolerates_torn_write(self, tmp_path):
        node = self._crashed_node(tmp_path)
        node.wal.close()
        node.store.close()
        drop_last_record(newest_wal_segment(tmp_path / "node"), partial=True)
        recovered = open_derived_once(tmp_path / "node")
        assert recovered.replayed_publish_records == 2
        assert whole_state(recovered.cdss) == whole_state(
            reference_cdss(2, False)
        )
        assert certain_state(recovered.cdss) == reference_state(2, False)
        recovered.close()


# ---------------------------------------------------------------------------
# Differential state machine: a durable node against an in-memory twin
# ---------------------------------------------------------------------------

#: The paper spec's user relations and their arities.
ARITIES = {"G": 3, "B": 2, "U": 2}
PEERS = ("PGUS", "PBioSQL", "PuBio")


class DurableMachine(RuleBasedStateMachine):
    """Drive a :class:`DurableNode` over :func:`paper_spec` (labeled nulls
    through ``m3``) and an in-memory twin with the same calls.  The node
    holds a change subscription, as a serving node does.  Crashes reopen
    the node from its data directory, and must restore its change-stream
    version exactly; a disk-full fault makes the node's next WAL append
    write half its frame and raise ENOSPC, and the twin skips the call
    that failed.  After every step both hold the same internal database
    and the same pending edits."""

    def __init__(self):
        super().__init__()
        self.data_dir = Path(tempfile.mkdtemp(prefix="durable-machine-"))
        self.node = DurableNode.create(
            paper_spec(), self.data_dir / "node", fsync=FSYNC_NEVER
        )
        self.node.cdss.system().subscribe()
        self.twin = paper_spec().build()
        self.disk_full = False

    def _durably(self, call) -> bool:
        """Run ``call`` on the node; ``False`` if the disk-full fault
        armed for it made it fail (the twin then skips it)."""
        if not self.disk_full:
            call(self.node.cdss)
            return True
        self.disk_full = False
        fail_next_append(self.node.wal)
        with pytest.raises(OSError):
            call(self.node.cdss)
        return False

    def _edit(self, relation, rows, insert):
        def stage(cdss):
            with cdss.batch() as tx:
                for row in rows:
                    if insert:
                        tx.insert(relation, row)
                    else:
                        tx.delete(relation, row)

        if self._durably(stage):
            stage(self.twin)

    @rule(relation=st.sampled_from(sorted(ARITIES)), data=st.data())
    def insert(self, relation, data):
        """Fresh rows, or re-inserts of rejected ones (un-rejection)."""
        fresh = st.tuples(*[st.integers(1, 4)] * ARITIES[relation])
        rejected = sorted(self.twin.system().rejections(relation), key=repr)
        row = st.one_of(fresh, st.sampled_from(rejected)) if rejected else fresh
        self._edit(
            relation, data.draw(st.lists(row, min_size=1, max_size=3)), True
        )

    @rule(relation=st.sampled_from(sorted(ARITIES)), data=st.data())
    def delete(self, relation, data):
        """Local rows, or imported ones (a rejection), nulls included."""
        present = sorted(self.twin.relation(relation), key=repr)
        if present:
            rows = data.draw(
                st.lists(
                    st.sampled_from(present), min_size=1, max_size=3, unique=True
                )
            )
            self._edit(relation, rows, False)

    @rule(
        peers=st.lists(st.sampled_from(PEERS), min_size=1, unique=True),
        strategy=st.sampled_from(STRATEGIES),
    )
    def publish(self, peers, strategy):
        def publish_on_node(_cdss):
            self.node.publish(peers, strategy)

        if self._durably(publish_on_node):
            self.twin.update_exchange(peers, strategy)

    @rule()
    def checkpoint(self):
        self.node.checkpoint()

    @rule()
    def crash_and_reopen(self):
        version = self.node.cdss.system().version
        crash(self.node)
        self.node = DurableNode.open(self.data_dir / "node", fsync=FSYNC_NEVER)
        # Live publishes ran under a subscription, so the version comes
        # back exactly, and the log answers from there on only.
        system = self.node.cdss.system()
        assert system.version == system.floor == version
        assert system.changes_since(version) == (version, [])
        if version:
            assert system.changes_since(version - 1) == (version, None)
        system.subscribe()

    @rule()
    def fill_disk(self):
        self.disk_full = True

    @invariant()
    def same_state_as_the_twin(self):
        assert whole_state(self.node.cdss) == whole_state(self.twin)
        assert pending(self.node.cdss) == pending(self.twin)

    def teardown(self):
        self.node.close(checkpoint=False)
        shutil.rmtree(self.data_dir, ignore_errors=True)


DurableMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestDurableMachine = DurableMachine.TestCase


# ---------------------------------------------------------------------------
# SIGKILL a durable serve node (subprocess, end to end)
# ---------------------------------------------------------------------------


class TestServeRecovery:
    def _boot(self, spec_path, data_dir):
        repo_root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(spec_path),
                "--port",
                "0",
                "--data-dir",
                str(data_dir),
            ],
            cwd=repo_root,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        banner = proc.stdout.readline()
        assert "repro-serve listening on " in banner, banner
        return proc, banner.strip().rsplit(" ", 1)[-1]

    def test_sigkill_then_restart_serves_identical_answers(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        paper_spec().save(spec_path)
        data_dir = tmp_path / "node"
        proc, url = self._boot(spec_path, data_dir)
        try:
            with ServeClient.from_url(url, timeout=60) as client:
                cursor = client.changes()["version"]
                client.insert("G", (7, 8, 9))
                client.publish()
                before = client.query(
                    "ans(i, n) :- B(i, n)", order=["i", "n"]
                )["rows"]
                seen = client.changes(since=cursor)
                assert len(seen["changes"]) == 1
                # The last version a caught-up consumer holds.
                last = seen["version"]
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()
            proc.stdout.close()

        proc, url = self._boot(spec_path, data_dir)
        try:
            with ServeClient.from_url(url, timeout=60) as client:
                after = client.query(
                    "ans(i, n) :- B(i, n)", order=["i", "n"]
                )["rows"]
                durability = client.stats()["durability"]
                # The recovered log holds no batch for the client's
                # publish: its old cursor is told to resynchronize, and a
                # long poll on it answers at once instead of parking.
                stale = client.changes(since=cursor)
                started = time.monotonic()
                parked = client.changes(since=cursor, wait=30)
                waited = time.monotonic() - started
                current = client.changes(since=stale["version"])
                caught_up = client.changes(since=last)
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert after == before
        assert durability["recovered"]
        assert "wal_seq" not in durability and durability["wal_last_seq"] > 0
        # Both the seed publish and the client's publish came back from
        # the log.
        assert durability["replayed_publish_records"] == 2
        assert durability["replayed_edit_records"] >= 1
        assert stale["resync"] and stale["changes"] == []
        assert parked["resync"] and waited < 10
        assert not current["resync"] and current["changes"] == []
        # The boot publish of the fresh node ran before the server
        # subscribed, so it ticked no version, and recovery counts it
        # the same way: the node comes back at the version the consumer
        # last saw, which owes it nothing.
        assert stale["version"] == last
        assert not caught_up["resync"] and caught_up["changes"] == []
