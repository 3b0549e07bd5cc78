"""Edit logs and publish semantics (Sections 2 and 3.1).

Users edit their peer's local instance "offline"; every insertion and
deletion is appended to the peer's edit log ``Delta R``.  On *publish*, the
log is folded into the internal edb relations:

* ``R__l`` (local contributions) gains inserted tuples and loses locally
  contributed tuples the log later deletes;
* ``R__r`` (rejections) gains deleted tuples that were *not* local
  contributions — the curation deletions that keep imported data rejected
  across future update exchanges ("that data remains rejected by P in future
  update exchanges", Section 2) — and loses tuples the user re-inserts
  (un-rejection).

:func:`publish` computes the **net** delta between the current internal
state and the state the log prescribes, as one signed
:class:`~repro.storage.zset.ZSet` per touched ``R__l`` and ``R__r``; the
exchange engine applies it with either maintenance strategy.  The delta
is a function of the log and those two tables, so the edit log is all a
durable node needs to write ahead: replaying the logged edits and
re-folding them reproduces every publish.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Mapping

from ..schema.internal import local_name, rejection_name
from ..storage.database import Database
from ..storage.instance import Row
from ..storage.zset import ZSet


@dataclass(frozen=True)
class Update:
    """One edit-log entry: ``(d, row)`` with d in {'+', '-'}."""

    relation: str
    row: Row
    is_insert: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "row", tuple(self.row))

    @property
    def sign(self) -> str:
        return "+" if self.is_insert else "-"

    def __repr__(self) -> str:
        return f"({self.sign} | {self.relation}{self.row!r})"


class EditLog:
    """The ordered edit log of one peer (covering all its relations).

    Observers registered with :meth:`observe` are called with each batch
    of entries about to be *staged* (by :meth:`insert` / :meth:`delete` /
    :meth:`extend`, or :func:`extend_logs` across several logs) — the hook
    the durability layer uses to write-ahead-log edits.  Observers run
    before the entries join the log, so an observer that raises (a failed
    WAL append) stages nothing.  Draining and clearing do not notify:
    consumption is the publish path's business.
    """

    def __init__(self, peer: str) -> None:
        self.peer = peer
        self._entries: list[Update] = []
        self._observers: list = []

    def observe(self, callback) -> None:
        """Register ``callback(entries)`` for newly staged entries."""
        self._observers.append(callback)

    def unobserve(self, callback) -> bool:
        try:
            self._observers.remove(callback)
        except ValueError:
            return False
        return True

    def insert(self, relation: str, row: Iterable[object]) -> Update:
        update = Update(relation, tuple(row), is_insert=True)
        self.extend((update,))
        return update

    def delete(self, relation: str, row: Iterable[object]) -> Update:
        update = Update(relation, tuple(row), is_insert=False)
        self.extend((update,))
        return update

    def extend(self, updates: Iterable[Update]) -> int:
        """Bulk-append prebuilt entries.

        Returns the number of entries appended.  This is the hot insert
        path: one list extension instead of one :meth:`insert` call per
        row.
        """
        return extend_logs({self: updates})

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def drain(self) -> tuple[Update, ...]:
        """Return all entries and empty the log (publish consumes it)."""
        entries = tuple(self._entries)
        self._entries.clear()
        return entries

    def __repr__(self) -> str:
        return f"<EditLog {self.peer}: {len(self._entries)} entries>"


def extend_logs(staged: Mapping[EditLog, Iterable[Update]]) -> int:
    """Append entries to several logs all or nothing (the batch API's
    commit path).

    Every observer of any of the logs is called once, with all the
    entries, before any log changes: a multi-peer batch is one
    write-ahead record, and an observer that raises stages nothing in
    any log.  Returns the number of entries appended.
    """
    groups = [(log, tuple(updates)) for log, updates in staged.items()]
    observers = dict.fromkeys(
        callback for log, _ in groups for callback in log._observers
    )
    entries = tuple(chain.from_iterable(updates for _, updates in groups))
    if entries:
        for callback in observers:
            callback(entries)
    for log, updates in groups:
        log._entries.extend(updates)
    return len(entries)


def publish(
    log: EditLog, db: Database
) -> tuple[dict[str, ZSet], dict[str, ZSet]]:
    """Fold an edit log into its net delta against ``db``.

    The log is replayed in order against the current ``R__l`` / ``R__r``
    contents to obtain the *desired* final state per touched row; the delta
    is the difference, returned as ``(local, rejections)``: per user
    relation, a Z-set over its ``R__l`` and one over its ``R__r`` (``+1``
    rows to add, ``-1`` rows to remove).  The log is drained (its entries
    are consumed).
    """
    desired_local: dict[tuple[str, Row], bool] = {}
    desired_rejected: dict[tuple[str, Row], bool] = {}

    def currently_local(relation: str, row: Row) -> bool:
        key = (relation, row)
        if key in desired_local:
            return desired_local[key]
        return row in db[local_name(relation)]

    def currently_rejected(relation: str, row: Row) -> bool:
        key = (relation, row)
        if key in desired_rejected:
            return desired_rejected[key]
        return row in db[rejection_name(relation)]

    for update in log.drain():
        key = (update.relation, update.row)
        if update.is_insert:
            desired_local[key] = True
            if currently_rejected(update.relation, update.row):
                desired_rejected[key] = False  # re-insertion un-rejects
        else:
            if currently_local(update.relation, update.row):
                desired_local[key] = False
            else:
                desired_rejected[key] = True

    local: dict[str, ZSet] = {}
    rejections: dict[str, ZSet] = {}
    for desired, delta, table_name in (
        (desired_local, local, local_name),
        (desired_rejected, rejections, rejection_name),
    ):
        for (relation, row), want in desired.items():
            if want != (row in db[table_name(relation)]):
                zset = delta.get(relation)
                if zset is None:
                    zset = delta[relation] = ZSet()
                zset.add(row, 1 if want else -1)
    return local, rejections
