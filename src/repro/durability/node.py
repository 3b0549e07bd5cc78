"""A crash-recoverable CDSS node: checkpoint + write-ahead log.

The paper's system archives updates so a participant can rejoin after
disconnection and catch up *incrementally* (Section 5).  A
:class:`DurableNode` gives the reproduction's in-memory
:class:`~repro.core.cdss.CDSS` that property:

* the edit logs are what the :class:`~repro.durability.wal.WriteAheadLog`
  records: every staged edit batch is appended, as one record however
  many peers it spans, before it joins any peer's log, and every publish
  appends a marker (its peers, strategy and change-stream version) before
  any log drains.  A publish's net delta is a function of the edit logs
  and ``R__l`` / ``R__r`` (:func:`~repro.core.editlog.publish`), so it is
  re-derived, not logged;
* periodically (every ``checkpoint_every`` publishes, on demand, and on
  graceful :meth:`close`) the node's *inputs* — every peer's local
  contributions and rejections (``R__l`` / ``R__r``), the pending edit
  logs, and the change-stream version — are checkpointed into a
  :class:`~repro.storage.sqlite.SQLiteStore` in one sqlite transaction,
  whose COMMIT atomically advances the recovery pointer
  (``last_applied_seq``) stored *inside* the same checkpoint.  Derived
  rows (``R__i`` / ``R__t`` / ``R__o`` and the provenance relations) are
  the fixpoint of the mapping program over those inputs (the paper's
  consistent state, Definition 3.1), so they are not stored;
* :meth:`open` loads the checkpointed inputs and folds the WAL records
  after the recovery pointer into them: ``edits`` records restage their
  edits, and each ``publish`` marker drains the recorded peers' logs
  into ``R__l`` / ``R__r``, against the same inputs the live publish
  saw.  Then one recompute derives everything else, however long the
  tail.  No marker runs maintenance, so its logged strategy does not
  matter: both strategies reach the fixpoint of the same inputs.

A crash at any instant therefore loses at most the un-fsynced WAL tail:
between checkpoint COMMIT and WAL pruning, replay simply skips records
with ``seq <= last_applied_seq``; mid-checkpoint, sqlite rolls back to
the previous checkpoint and the WAL tail is still there.  A torn
``publish`` marker leaves its edits pending, as they were before the
publish.  A checkpoint may prune every WAL segment, so the reopened WAL
numbers its records on from the recovery pointer, never from 1.

On-disk layout of a node directory::

    spec.json       the system configuration (edits stripped — data
                    lives in the checkpoint, not the spec)
    state.sqlite3   the checkpoint store
    wal/            redo-log segments

Change-stream versions recover exactly when publishes happen with a
subscription open (the serving tier's case — it always holds one):
each marker moves the version to ``max(version, recorded) + 1``.
Otherwise recovery may advance the version past the pre-crash value,
which is harmless because no client can hold a cursor beyond it.  The
recovered change log holds no batches, so its floor is the recovered
version, and a cursor from before the crash is told to resynchronize.

Route publishes through :meth:`publish` (the serving tier does); a
publish applied behind the node's back (``cdss.update_exchange``)
logs no marker, so recovery restages its edits as pending instead.

Trust policy is not durable: the spec file cannot hold trust conditions,
so a recovered node would derive its state without them.  :meth:`publish`
and :meth:`checkpoint` therefore refuse to run while any peer's policy is
non-trivial, rather than let a restart widen what a peer trusts.

Checkpoints written before derived rows were dropped from them hold a
bucket per internal relation; :meth:`open` reads only the input buckets
of such a file, and the next checkpoint removes the rest.  Likewise,
``publish`` records written before they became markers also carry the
net delta as a ``delta`` body; :meth:`open` ignores it, since every edit
the publish consumed has its own ``edits`` record.  ``edits`` records
written before a batch became one record name their ``peer``; replay
routes every entry to the peer owning its relation, which reads both.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..api.spec import SystemSpec
from ..core.cdss import CDSS
from ..obs import metrics as _metrics
from ..core.editlog import EditLog, Update
from ..core.exchange import ExchangeReport
from ..storage.codec import decode_row, encode_row
from ..storage.instance import StorageError
from ..storage.persistence import CATALOG_BUCKET, checkpoint as checkpoint_db
from ..storage.persistence import restore as restore_db
from ..storage.sqlite import SQLiteStore
from .wal import FSYNC_ALWAYS, WalError, WalRecord, WriteAheadLog

SPEC_FILE = "spec.json"
STATE_FILE = "state.sqlite3"
WAL_DIR = "wal"

EDITLOG_PREFIX = "__editlog__::"
NODE_META_BUCKET = "__node__"

KIND_EDITS = "edits"
KIND_PUBLISH = "publish"

def _node_samples(node: "DurableNode"):
    """Metrics collector: checkpoint + recovery counters of one node."""
    sample = _metrics.Sample
    kind = _metrics.KIND_COUNTER
    yield sample(
        "repro_durability_checkpoints_total", kind, "", (), node.checkpoints
    )
    yield sample(
        "repro_durability_replayed_records_total",
        kind,
        "",
        (("kind", "edit"),),
        node.replayed_edit_records,
    )
    yield sample(
        "repro_durability_replayed_records_total",
        kind,
        "",
        (("kind", "publish"),),
        node.replayed_publish_records,
    )


class DurableNode:
    """A CDSS whose state survives process death.

    Construct with :meth:`create` (fresh directory from a spec),
    :meth:`open` (recover an existing directory), or :meth:`launch`
    (whichever of the two applies).
    """

    def __init__(
        self,
        cdss: CDSS,
        data_dir: Path,
        store: SQLiteStore,
        wal: WriteAheadLog,
        checkpoint_every: int,
    ) -> None:
        self.cdss = cdss
        self.data_dir = data_dir
        self.store = store
        self.wal = wal
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoints = 0
        self.recovered = False
        self.replayed_edit_records = 0
        self.replayed_publish_records = 0
        self._publishes_since_checkpoint = 0
        self._observed: list[EditLog] = []
        self._closed = False
        _metrics.REGISTRY.register(self, _node_samples)

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        spec: SystemSpec,
        data_dir: str | Path,
        fsync: str = FSYNC_ALWAYS,
        checkpoint_every: int = 0,
    ) -> "DurableNode":
        """Initialize a fresh node directory from a spec.

        Spec edits are staged into the peers' edit logs and captured by
        the initial checkpoint; the spec file written to disk is stripped
        of them (the checkpoint, not the spec, is the source of data truth
        from here on).
        """
        data_dir = Path(data_dir)
        spec_path = data_dir / SPEC_FILE
        if spec_path.exists():
            raise StorageError(
                f"{data_dir} already holds a durable node; use open()"
            )
        data_dir.mkdir(parents=True, exist_ok=True)
        cdss = spec.build()
        spec.without_edits().save(spec_path)
        store = SQLiteStore(str(data_dir / STATE_FILE))
        wal = WriteAheadLog(data_dir / WAL_DIR, fsync=fsync)
        node = cls(cdss, data_dir, store, wal, checkpoint_every)
        node.checkpoint()
        node._attach_observers()
        return node

    @classmethod
    def open(
        cls,
        data_dir: str | Path,
        fsync: str = FSYNC_ALWAYS,
        checkpoint_every: int = 0,
    ) -> "DurableNode":
        """Recover a node from disk: the latest checkpoint's inputs plus
        the WAL tail, derived once."""
        data_dir = Path(data_dir)
        spec_path = data_dir / SPEC_FILE
        if not spec_path.exists():
            raise StorageError(
                f"{data_dir} is not a durable node directory "
                f"(no {SPEC_FILE}); use create()"
            )
        cdss = SystemSpec.load(spec_path).build()
        store = SQLiteStore(str(data_dir / STATE_FILE))
        last_applied = int(
            store.get(NODE_META_BUCKET, "last_applied_seq", 0)  # type: ignore[arg-type]
        )
        wal = WriteAheadLog(
            data_dir / WAL_DIR, fsync=fsync, after_seq=last_applied
        )
        node = cls(cdss, data_dir, store, wal, checkpoint_every)
        node._recover(last_applied)
        node._attach_observers()
        return node

    @classmethod
    def launch(
        cls,
        spec: SystemSpec,
        data_dir: str | Path,
        fsync: str = FSYNC_ALWAYS,
        checkpoint_every: int = 0,
    ) -> "DurableNode":
        """Open ``data_dir`` if it holds a node already, else create one."""
        if (Path(data_dir) / SPEC_FILE).exists():
            return cls.open(
                data_dir, fsync=fsync, checkpoint_every=checkpoint_every
            )
        return cls.create(
            spec, data_dir, fsync=fsync, checkpoint_every=checkpoint_every
        )

    # -- recovery ----------------------------------------------------------

    def _recover(self, last_applied: int) -> None:
        system = self.cdss.system()
        version = 0
        if self.store.size(CATALOG_BUCKET):
            # Carry the inputs across, as CDSS.system() does for a
            # reconfigured system; the derivation below does the rest.
            stored = restore_db(self.store)
            for name in system.internal.edb_names():
                rows = stored.get(name)
                if rows is not None:
                    system.db[name].insert_many(rows)
            self._restore_edit_logs()
            version = int(self.store.get(NODE_META_BUCKET, "version", 0))  # type: ignore[arg-type]
        for record in self.wal.records(after_seq=last_applied):
            version = self._replay(record, version)
        # One derivation over the recovered inputs, with no subscription
        # open: it is not a publish and leaves no change batch.
        system.recompute()
        system.restore_version(version)
        self._publishes_since_checkpoint = self.replayed_publish_records
        self.recovered = True

    def _restore_edit_logs(self) -> None:
        for bucket in self.store.bucket_names():
            if bucket.startswith(EDITLOG_PREFIX):
                self.cdss._stage(
                    Update(str(relation), tuple(row), is_insert=bool(flag))
                    for relation, row, flag in self.store.values(bucket)  # type: ignore[misc]
                )

    def _replay(self, record: WalRecord, version: int) -> int:
        """Fold one WAL record into the inputs; returns the change-stream
        version after it."""
        if record.kind == KIND_EDITS:
            self.cdss._stage(
                Update(str(relation), decode_row(row), is_insert=bool(flag))
                for relation, row, flag in record.body["entries"]
            )
            self.replayed_edit_records += 1
            return version
        if record.kind == KIND_PUBLISH:
            # The edits this publish consumed were restaged from "edits"
            # records, and R__l / R__r hold what the live publish saw:
            # draining them again folds the same net delta.
            names = [str(name) for name in record.body["peers"]]
            self.cdss.system().apply_inputs(*self.cdss._publish_logs(names))
            self.replayed_publish_records += 1
            # A live publish under a subscription ticked the version once.
            return max(version, int(record.body.get("version", 0))) + 1
        raise WalError(
            f"unknown WAL record kind {record.kind!r} at seq {record.seq}"
        )

    # -- the write path ----------------------------------------------------

    def _attach_observers(self) -> None:
        for name in self.cdss.peers():
            log = self.cdss._peer(name).edit_log
            log.observe(self._on_edits)
            self._observed.append(log)

    def _on_edits(self, entries: tuple[Update, ...]) -> None:
        self.wal.append(
            KIND_EDITS,
            {
                "entries": [
                    [u.relation, encode_row(u.row), u.is_insert]
                    for u in entries
                ],
            },
        )

    def _refuse_trust_policy(self) -> None:
        """Fail closed: a trust policy would not survive recovery."""
        for name in self.cdss.peers():
            if not self.cdss._peer(name).policy.is_trivial():
                raise StorageError(
                    f"peer {name!r} has a trust policy, which a durable "
                    f"node cannot recover (the spec does not hold trust "
                    f"conditions yet; ROADMAP item 11)"
                )

    def publish(
        self,
        peers: Iterable[str] | None = None,
        strategy: str | None = None,
    ) -> ExchangeReport:
        """Durable :meth:`~repro.core.cdss.CDSS.update_exchange`.

        A ``publish`` marker naming the peers and the strategy is
        WAL-logged (and fsynced, per policy) *before* any edit log drains
        — the redo-log ordering that makes recovery exact: recovery
        drains the same logs, whose edits the WAL already holds.  A
        failed append leaves every edit pending.  Auto-checkpoints on the
        configured cadence.
        """
        self._refuse_trust_policy()
        used = self.cdss.resolve_strategy(strategy)
        names = tuple(peers) if peers is not None else self.cdss.peers()
        for name in names:
            self.cdss._peer(name)  # an unknown peer raises before logging
        self.wal.append(
            KIND_PUBLISH,
            {
                "peers": list(names),
                "strategy": used,
                "version": self.cdss.system().version,
            },
        )
        report = self.cdss.update_exchange(names, used)
        self._publishes_since_checkpoint += 1
        if (
            self.checkpoint_every
            and self._publishes_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return report

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> int:
        """Checkpoint the node's inputs; returns the covered WAL seq.

        One sqlite transaction writes the local-contribution and
        rejection relations, the pending edit logs, the change-stream
        version, and ``last_applied_seq``; its COMMIT is the atomic
        recovery-pointer flip.  The WAL then rotates and prunes segments
        the checkpoint covers.
        """
        self._refuse_trust_policy()
        system = self.cdss.system()
        covered = self.wal.last_seq
        with self.store.transaction():
            checkpoint_db(
                [system.db[name] for name in system.internal.edb_names()],
                self.store,
            )
            for bucket in self.store.bucket_names():
                if bucket.startswith(EDITLOG_PREFIX):
                    self.store.drop(bucket)
            for name in self.cdss.peers():
                log = self.cdss._peer(name).edit_log
                if len(log) == 0:
                    continue
                bucket = EDITLOG_PREFIX + name
                for index, update in enumerate(log):
                    self.store.put(
                        bucket,
                        f"{index:08d}",
                        (update.relation, update.row, update.is_insert),
                    )
            self.store.put(NODE_META_BUCKET, "last_applied_seq", covered)
            self.store.put(NODE_META_BUCKET, "version", system.version)
        self.wal.rotate(retain_after_seq=covered)
        self.checkpoints += 1
        self._publishes_since_checkpoint = 0
        return covered

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, checkpoint: bool = True) -> None:
        """Graceful shutdown: final checkpoint, then release resources.

        Resources are released even when the checkpoint raises (a trust
        policy refused, say); the WAL still holds every logged record.
        """
        if self._closed:
            return
        try:
            if checkpoint:
                self.checkpoint()
        finally:
            for log in self._observed:
                log.unobserve(self._on_edits)
            self._observed.clear()
            self._closed = True
            self.wal.close()
            self.store.close()

    def __enter__(self) -> "DurableNode":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<DurableNode {self.data_dir} wal_seq={self.wal.last_seq} "
            f"checkpoints={self.checkpoints}>"
        )
