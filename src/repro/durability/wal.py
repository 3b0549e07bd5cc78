"""A write-ahead log of staged edits and publish markers.

ORCHESTRA's reconciliation algorithm assumes each participant can recover
its state after disconnection without redoing the world's work (Section 5:
updates are archived so peers can catch up incrementally).  The durable
node reproduces that property with the classic redo-log discipline: every
staged edit batch and every publish marker is appended here — framed,
checksummed, fsynced — *before* it mutates in-memory state, so a crash at
any instant leaves a prefix of the log on disk and recovery replays exactly
the tail the latest checkpoint has not absorbed.

Frame format (one record per line, JSON-lines so the log greps cleanly)::

    <crc32 of payload, 8 hex chars> <payload>\n
    payload = {"seq": N, "kind": "...", "body": {...}}

A torn tail — the half-written record a crash mid-``write`` leaves behind —
fails the checksum (or does not parse at all) and cleanly ends replay;
everything before it is intact because records are appended strictly in
``seq`` order and fsynced per the policy.  An append that *fails* (a full
disk) cuts its bytes back off and moves to a fresh segment, so no later
record can land behind a torn one.

The log is segmented: each :class:`WriteAheadLog` open (and each
:meth:`rotate`) starts a new ``wal-<N>.log`` file, and rotation after a
checkpoint prunes segments wholly covered by it.  Appending never touches
an old segment, so a torn tail can only ever be the last line of the
newest file.

Fsync policy: ``"always"`` fsyncs every append (group-committed per
``append`` call — the durable default), ``"never"`` leaves flushing to the
OS (fast, loses the tail on power failure, still torn-tail safe).
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..storage.instance import StorageError

FSYNC_ALWAYS = "always"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_NEVER)

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"


class WalError(StorageError):
    """The write-ahead log is unusable (not: torn — torn tails are normal)."""


@dataclass(frozen=True)
class WalRecord:
    """One committed log entry."""

    seq: int
    kind: str
    body: dict


def _frame(record: WalRecord) -> bytes:
    payload = json.dumps(
        {"seq": record.seq, "kind": record.kind, "body": record.body},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x " % crc + payload + b"\n"


def _unframe(line: bytes) -> WalRecord | None:
    """Decode one framed line; ``None`` for anything torn or corrupt."""
    if len(line) < 10 or line[8:9] != b" " or not line.endswith(b"\n"):
        return None
    payload = line[9:-1]
    try:
        crc = int(line[:8], 16)
    except ValueError:
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        document = json.loads(payload)
    except ValueError:  # pragma: no cover - crc already guards this
        return None
    if (
        not isinstance(document, dict)
        or not isinstance(document.get("seq"), int)
        or not isinstance(document.get("kind"), str)
        or not isinstance(document.get("body"), dict)
    ):
        return None
    return WalRecord(document["seq"], document["kind"], document["body"])


def _segment_index(path: Path) -> int | None:
    name = path.name
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    digits = name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


def read_segment(path: Path) -> list[WalRecord]:
    """All intact records of one segment, stopping at the first bad frame.

    Stopping (rather than skipping) is deliberate: a bad frame mid-file
    would mean records *after* a hole, and replaying past a hole could
    reorder effects.  In practice the only bad frame is the torn tail.
    """
    records: list[WalRecord] = []
    with open(path, "rb") as handle:
        for line in handle:
            record = _unframe(line)
            if record is None:
                break
            records.append(record)
    return records


def _wal_samples(wal: "WriteAheadLog"):
    """Metrics collector: append/fsync counters of one live WAL."""
    sample = _metrics.Sample
    kind = _metrics.KIND_COUNTER
    yield sample("repro_wal_appends_total", kind, "", (), wal.appended)
    yield sample("repro_wal_fsyncs_total", kind, "", (), wal.fsyncs)


class WriteAheadLog:
    """An append-only, segmented redo log in ``directory``.

    ``after_seq`` is the last sequence number a checkpoint already covers:
    numbering continues past it even when rotation pruned every segment,
    so a new record can never reuse a covered number.
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str = FSYNC_ALWAYS,
        after_seq: int = 0,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.appended = 0
        self.fsyncs = 0
        _metrics.REGISTRY.register(self, _wal_samples)
        existing = self.segments()
        last_index = 0
        self._last_seq = after_seq
        for path in existing:
            last_index = _segment_index(path) or last_index
            records = read_segment(path)
            if records:
                self._last_seq = max(self._last_seq, records[-1].seq)
        # Appends always go to a fresh segment: a pre-existing torn tail
        # stays where it is and can never swallow a new record.
        self._segment_index = last_index + 1
        self._handle = None

    # -- reading -----------------------------------------------------------

    def segments(self) -> list[Path]:
        """Segment paths, oldest first."""
        found = [
            (index, path)
            for path in self.directory.iterdir()
            if (index := _segment_index(path)) is not None
        ]
        return [path for _, path in sorted(found)]

    def records(self, after_seq: int = 0) -> Iterator[WalRecord]:
        """Intact records with ``seq > after_seq``, in append order."""
        for path in self.segments():
            for record in read_segment(path):
                if record.seq > after_seq:
                    yield record

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest durable record (0 when empty)."""
        return self._last_seq

    # -- appending ---------------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"{SEGMENT_PREFIX}{index:08d}{SEGMENT_SUFFIX}"

    def _open_handle(self):
        # Unbuffered: a failed append must leave no bytes behind in a
        # buffer that a later flush or close would write after the cut.
        if self._handle is None:
            self._handle = open(
                self._segment_path(self._segment_index), "ab", buffering=0
            )
        return self._handle

    def _abandon_segment(self, start: int) -> None:
        """Undo a failed append: cut the open segment back to ``start``
        and continue in a fresh segment.

        The frame may be torn, or whole but not durable; either way the
        caller saw the append fail, so replay must not see the record.
        If the cut fails too, the fresh segment still keeps every later
        record readable: ``read_segment`` stops at the end of a segment.
        """
        handle, self._handle = self._handle, None
        try:
            os.ftruncate(handle.fileno(), start)
        except OSError:
            pass
        finally:
            handle.close()
        self._segment_index += 1

    def append(self, kind: str, body: dict) -> int:
        """Durably append one record; returns its sequence number.

        The record is on disk (per the fsync policy) when this returns —
        callers apply the logged effect to in-memory state only *after*
        this returns, which is the whole redo-log contract.
        """
        span = (
            _tracing.start("wal-append", kind=kind)
            if _tracing.ENABLED
            else None
        )
        seq = self._last_seq + 1
        frame = memoryview(_frame(WalRecord(seq, kind, body)))
        handle = self._open_handle()
        start = handle.tell()
        try:
            while frame:
                frame = frame[handle.write(frame) :]
            if self.fsync == FSYNC_ALWAYS:
                os.fsync(handle.fileno())
                self.fsyncs += 1
        except BaseException:
            self._abandon_segment(start)
            raise
        self._last_seq = seq
        self.appended += 1
        if span is not None:
            _tracing.finish(span)
        return seq

    def rotate(self, retain_after_seq: int) -> int:
        """Start a new segment and prune segments a checkpoint covers.

        Segments whose every record has ``seq <= retain_after_seq`` are
        deleted — replay will never need them again.  Returns the number
        of segments pruned.
        """
        self.close()
        self._segment_index += 1
        pruned = 0
        for path in self.segments():
            records = read_segment(path)
            if all(record.seq <= retain_after_seq for record in records):
                path.unlink()
                pruned += 1
            else:
                # Later segments only hold later seqs; stop scanning.
                break
        return pruned

    def close(self) -> None:
        if self._handle is not None:
            if self.fsync == FSYNC_ALWAYS:
                os.fsync(self._handle.fileno())
                self.fsyncs += 1
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<WriteAheadLog {self.directory} last_seq={self._last_seq} "
            f"fsync={self.fsync}>"
        )
