"""A crash-recoverable CDSS node: checkpoint + write-ahead log.

The paper's system archives updates so a participant can rejoin after
disconnection and catch up *incrementally* (Section 5).  A
:class:`DurableNode` gives the reproduction's in-memory
:class:`~repro.core.cdss.CDSS` that property:

* every staged edit batch and every committed publish is appended to a
  :class:`~repro.durability.wal.WriteAheadLog` before it takes effect;
* periodically (every ``checkpoint_every`` publishes, on demand, and on
  graceful :meth:`close`) the whole database — peer instances, provenance
  relations, pending edit logs, and the change-stream version — is
  checkpointed into a :class:`~repro.storage.sqlite.SQLiteStore` in one
  sqlite transaction, whose COMMIT atomically advances the recovery
  pointer (``last_applied_seq``) stored *inside* the same checkpoint;
* :meth:`open` restores the latest checkpoint and replays only the WAL
  records after that pointer through the normal incremental maintenance
  path (``apply_delta`` with the logged strategy) — never a full
  recompute.

A crash at any instant therefore loses at most the un-fsynced WAL tail:
between checkpoint COMMIT and WAL pruning, replay simply skips records
with ``seq <= last_applied_seq``; mid-checkpoint, sqlite rolls back to
the previous checkpoint and the WAL tail is still there.

On-disk layout of a node directory::

    spec.json       the system configuration (edits stripped — data
                    lives in the checkpoint, not the spec)
    state.sqlite3   the checkpoint store
    wal/            redo-log segments

Change-stream versions recover exactly when publishes happen with a
subscription open (the serving tier's case — it always holds one);
otherwise recovery may advance the version past the pre-crash value,
which is harmless because no client can hold a cursor beyond it.

Route publishes through :meth:`publish` (the serving tier does); a
publish applied behind the node's back (``cdss.update_exchange``)
is invisible to the log and will be lost on recovery.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from ..api.spec import SystemSpec
from ..core.cdss import CDSS
from ..obs import metrics as _metrics
from ..core.editlog import EditLog, PublishDelta, Update
from ..core.editlog import publish as publish_log
from ..core.exchange import ExchangeReport
from ..storage.codec import decode_row, dumps_row, encode_row
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

_DELTA_FIELDS = (
    "local_inserts",
    "local_deletes",
    "rejection_inserts",
    "rejection_deletes",
)


def _encode_delta(delta: PublishDelta) -> dict:
    document: dict = {}
    for field in _DELTA_FIELDS:
        bucket = getattr(delta, field)
        if bucket:
            document[field] = {
                relation: [
                    encode_row(row) for row in sorted(rows, key=dumps_row)
                ]
                for relation, rows in sorted(bucket.items())
            }
    return document


def _decode_delta(document: dict) -> PublishDelta:
    delta = PublishDelta()
    for field in _DELTA_FIELDS:
        for relation, rows in document.get(field, {}).items():
            getattr(delta, field)[relation] = {
                decode_row(row) for row in rows
            }
    return delta


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
        """Recover a node from disk: latest checkpoint + WAL-tail replay."""
        data_dir = Path(data_dir)
        spec_path = data_dir / SPEC_FILE
        if not spec_path.exists():
            raise StorageError(
                f"{data_dir} is not a durable node directory "
                f"(no {SPEC_FILE}); use create()"
            )
        cdss = SystemSpec.load(spec_path).build()
        store = SQLiteStore(str(data_dir / STATE_FILE))
        wal = WriteAheadLog(data_dir / WAL_DIR, fsync=fsync)
        node = cls(cdss, data_dir, store, wal, checkpoint_every)
        node._recover()
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

    def _recover(self) -> None:
        system = self.cdss.system()
        last_applied = 0
        if self.store.size(CATALOG_BUCKET):
            restore_db(self.store, into=system.db)
            self._restore_edit_logs()
            last_applied = int(
                self.store.get(NODE_META_BUCKET, "last_applied_seq", 0)  # type: ignore[arg-type]
            )
            system.restore_version(
                int(self.store.get(NODE_META_BUCKET, "version", 0))  # type: ignore[arg-type]
            )
        # Replay with a subscription open so replayed publishes tick the
        # change-stream version and repopulate the recent change log.
        subscription = system.subscribe()
        try:
            for record in self.wal.records(after_seq=last_applied):
                self._replay(record)
        finally:
            subscription.close()
        self._publishes_since_checkpoint = self.replayed_publish_records
        self.recovered = True

    def _restore_edit_logs(self) -> None:
        for bucket in self.store.bucket_names():
            if not bucket.startswith(EDITLOG_PREFIX):
                continue
            peer = bucket[len(EDITLOG_PREFIX) :]
            entries = [
                Update(str(relation), tuple(row), is_insert=bool(flag))
                for relation, row, flag in self.store.values(bucket)  # type: ignore[misc]
            ]
            self.cdss._peer(peer).edit_log.extend(entries)

    def _replay(self, record: WalRecord) -> None:
        system = self.cdss.system()
        if record.kind == KIND_EDITS:
            log = self.cdss._peer(str(record.body["peer"])).edit_log
            log.extend(
                Update(
                    str(relation), decode_row(row), is_insert=bool(flag)
                )
                for relation, row, flag in record.body["entries"]
            )
            self.replayed_edit_records += 1
        elif record.kind == KIND_PUBLISH:
            # The staged edits this publish consumed were replayed from
            # "edits" records; drain them and apply the *logged* net delta
            # so recovery is byte-exact rather than re-derived.
            for name in record.body["peers"]:
                self.cdss._peer(str(name)).edit_log.drain()
            recorded = int(record.body.get("version", 0))
            if recorded > system.version:
                system.restore_version(recorded)
            report = system.apply_delta(
                _decode_delta(record.body["delta"]),
                str(record.body["strategy"]),
            )
            self.cdss._record_report(report)
            self.replayed_publish_records += 1
        else:
            raise WalError(
                f"unknown WAL record kind {record.kind!r} at seq {record.seq}"
            )

    # -- the write path ----------------------------------------------------

    def _attach_observers(self) -> None:
        for name in self.cdss.peers():
            log = self.cdss._peer(name).edit_log
            log.observe(self._on_edits)
            self._observed.append(log)

    def _on_edits(self, log: EditLog, entries: tuple[Update, ...]) -> None:
        self.wal.append(
            KIND_EDITS,
            {
                "peer": log.peer,
                "entries": [
                    [u.relation, encode_row(u.row), u.is_insert]
                    for u in entries
                ],
            },
        )

    def publish(
        self,
        peers: Iterable[str] | None = None,
        strategy: str | None = None,
    ) -> ExchangeReport:
        """Durable :meth:`~repro.core.cdss.CDSS.update_exchange`.

        The net delta is WAL-logged (and fsynced, per policy) *before*
        the exchange engine applies it — the redo-log ordering that makes
        recovery exact.  Auto-checkpoints on the configured cadence.
        """
        used = self.cdss.resolve_strategy(strategy)
        system = self.cdss.system()
        names = tuple(peers) if peers is not None else self.cdss.peers()
        delta = PublishDelta()
        for name in names:
            delta.merge(publish_log(self.cdss._peer(name).edit_log, system.db))
        self.wal.append(
            KIND_PUBLISH,
            {
                "peers": list(names),
                "strategy": used,
                "delta": _encode_delta(delta),
                "version": system.version,
            },
        )
        report = system.apply_delta(delta, used)
        self.cdss._record_report(report)
        self._publishes_since_checkpoint += 1
        if (
            self.checkpoint_every
            and self._publishes_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return report

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> int:
        """Checkpoint the full node state; returns the covered WAL seq.

        One sqlite transaction writes the database, the pending edit
        logs, the change-stream version, and ``last_applied_seq``; its
        COMMIT is the atomic recovery-pointer flip.  The WAL then rotates
        and prunes segments the checkpoint covers.
        """
        system = self.cdss.system()
        covered = self.wal.last_seq
        with self.store.transaction():
            checkpoint_db(system.db, self.store)
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
        """Graceful shutdown: final checkpoint, then release resources."""
        if self._closed:
            return
        if checkpoint:
            self.checkpoint()
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
