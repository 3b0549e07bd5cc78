"""Transactional edit batches.

A :class:`Batch` stages insertions and deletions without touching any edit
log, then applies them **atomically** when its ``with`` block exits
cleanly::

    with peer.batch() as tx:
        tx.insert("G", (1, 2, 3))
        tx.insert("G", (3, 5, 2))
        tx.delete("B", (3, 5))
    # all three entries are now in the owning peers' edit logs

If the block raises, nothing reaches any edit log — the staged entries are
discarded and the exception propagates.  Edits are validated against the
schema (and, for peer-scoped batches, against relation ownership) at
*staging* time, so a batch that enters :meth:`commit` can no longer fail
half-way.

Besides transactionality this is the hot insert path's bulk entry point:
commit groups staged entries per peer and appends every group with one
:func:`~repro.core.editlog.extend_logs` call instead of one facade call
per row.  The workload generator and the figure benchmarks route their
insertion streams through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..core.editlog import Update
from ..schema.relation import SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cdss import CDSS


class BatchError(Exception):
    """Raised on invalid batch usage (re-entry, commit after close, ...)."""


class Batch:
    """A staged, atomically-applied group of edit-log entries.

    ``peer`` restricts the batch to relations owned by that peer (the
    :meth:`PeerHandle.batch` form); a system-wide batch (``cdss.batch()``)
    routes each edit to the owning peer automatically.
    """

    def __init__(self, cdss: "CDSS", peer: str | None = None) -> None:
        self._cdss = cdss
        self._peer = peer
        self._staged: list[Update] = []
        self._closed = False

    # -- staging -----------------------------------------------------------

    def _check_relation(self, relation: str) -> None:
        if self._closed:
            raise BatchError("batch already committed or rolled back")
        owner = self._cdss._owner_peer(relation)
        if self._peer is not None and owner.name != self._peer:
            raise SchemaError(
                f"relation {relation!r} belongs to peer {owner.name!r}, "
                f"not to this batch's peer {self._peer!r}"
            )

    def insert(self, relation: str, row: Iterable[object]) -> "Batch":
        """Stage one insertion.  Returns ``self`` for chaining."""
        self._check_relation(relation)
        self._staged.append(Update(relation, tuple(row), is_insert=True))
        return self

    def delete(self, relation: str, row: Iterable[object]) -> "Batch":
        """Stage one deletion.  Returns ``self`` for chaining."""
        self._check_relation(relation)
        self._staged.append(Update(relation, tuple(row), is_insert=False))
        return self

    def insert_many(
        self, relation: str, rows: Iterable[Iterable[object]]
    ) -> "Batch":
        self._check_relation(relation)
        self._staged.extend(
            Update(relation, tuple(row), is_insert=True) for row in rows
        )
        return self

    def delete_many(
        self, relation: str, rows: Iterable[Iterable[object]]
    ) -> "Batch":
        self._check_relation(relation)
        self._staged.extend(
            Update(relation, tuple(row), is_insert=False) for row in rows
        )
        return self

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._staged)

    @property
    def staged(self) -> tuple[Update, ...]:
        """The staged (not yet applied) entries, in order."""
        return tuple(self._staged)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- terminal operations -----------------------------------------------

    def commit(self) -> int:
        """Apply every staged entry to the owning peers' edit logs.

        Entries were validated when staged, and every peer's share is
        written ahead as one unit (on a durable node, one WAL record), so
        this cannot fail part-way: either the batch was never committed,
        or all of it is in the logs.  Returns the number of entries
        applied.
        """
        if self._closed:
            raise BatchError("batch already committed or rolled back")
        applied = self._cdss._stage(self._staged)
        self._staged.clear()
        self._closed = True
        return applied

    def rollback(self) -> int:
        """Discard every staged entry.  Returns how many were dropped."""
        if self._closed:
            raise BatchError("batch already committed or rolled back")
        dropped = len(self._staged)
        self._staged.clear()
        self._closed = True
        return dropped

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "Batch":
        if self._closed:
            raise BatchError("cannot re-enter a closed batch")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._closed:
            # The body committed or rolled back explicitly; nothing to do.
            return False
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        return False

    def __repr__(self) -> str:
        scope = self._peer or "system"
        state = "closed" if self._closed else f"{len(self._staged)} staged"
        return f"<Batch {scope}: {state}>"
