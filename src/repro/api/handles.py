"""Peer-centric handles: the v2 entry point for editing, reading and trust.

``CDSS.add_peer`` / ``CDSS.peer`` return a :class:`PeerHandle` — a light
object scoped to one participant::

    pgus = cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    pgus.insert("G", (1, 2, 3))
    with pgus.batch() as tx:               # transactional bulk edits
        tx.insert("G", (3, 5, 2))
    view = pgus.relation("G")              # lazy RelationView
    pgus.trust().distrust_peer("PuBio")

Handles hold no state of their own (only the CDSS reference and the peer
name), so they stay valid across reconfiguration and update exchanges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..provenance.trust import TrustCondition
from ..schema.relation import PeerSchema, SchemaError
from ..storage.instance import Row
from .batch import Batch
from .views import RelationView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cdss import CDSS


class TrustScope:
    """One peer's trust policy, exposed as a fluent builder/evaluator.

    Returned by :meth:`PeerHandle.trust`; every mutator reconfigures the
    CDSS (the exchange system is rebuilt lazily) and returns ``self`` so
    judgments chain.
    """

    __slots__ = ("_cdss", "_peer")

    def __init__(self, cdss: "CDSS", peer: str) -> None:
        self._cdss = cdss
        self._peer = peer

    def condition(
        self,
        mapping: str,
        predicate: TrustCondition | Callable[[Row], bool],
        description: str | None = None,
    ) -> "TrustScope":
        """Attach a trust condition to tuples derived through ``mapping``."""
        self._cdss._set_trust_condition(
            self._peer, mapping, predicate, description
        )
        return self

    def distrust_row(
        self, relation: str, row: Iterable[object]
    ) -> "TrustScope":
        """Assign D to one specific base tuple (Section 3.3)."""
        self._cdss._distrust_token(self._peer, relation, row)
        return self

    def distrust_peer(self, other: str) -> "TrustScope":
        """Distrust all of ``other``'s base contributions."""
        self._cdss._distrust_peer(self._peer, other)
        return self

    def of(self, relation: str, row: Iterable[object]) -> bool:
        """Evaluate this peer's trust of a tuple against stored provenance
        (Example 7's offline calculation)."""
        return self._cdss._trust_of(self._peer, relation, row)

    def __repr__(self) -> str:
        return f"<TrustScope {self._peer}>"


class PeerHandle:
    """A rich handle on one peer: edits, batches, views, and trust."""

    __slots__ = ("_cdss", "_name")

    def __init__(self, cdss: "CDSS", name: str) -> None:
        self._cdss = cdss
        self._name = name

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def schema(self) -> PeerSchema:
        return self._cdss._peer(self._name).schema

    def relations(self) -> tuple[str, ...]:
        """Names of the relations this peer owns, in declaration order."""
        return tuple(r.name for r in self.schema.relations)

    # -- reading -----------------------------------------------------------

    def relation(self, name: str) -> RelationView:
        """A lazy view of one of this peer's relations."""
        self._own(name)
        return RelationView(self._cdss, name)

    # -- querying ----------------------------------------------------------

    def prepare(self, query, params: Iterable[str] = ()) -> "object":
        """Prepare a query posed at this peer (Section 2.1: peers answer
        queries over their local instances).  Delegates to
        :meth:`CDSS.prepare <repro.core.cdss.CDSS.prepare>`; the returned
        :class:`~repro.api.query.PreparedQuery` reads the same exchanged
        local instances every peer queries."""
        return self._cdss.prepare(query, tuple(params))

    def query(self, text: str, certain: bool = True):
        """One-shot conjunctive query posed at this peer."""
        return self._cdss.query(text, certain=certain)

    # -- editing (offline) -------------------------------------------------

    def insert(self, relation: str, row: Iterable[object]) -> None:
        """Record an insertion in this peer's edit log."""
        self._own(relation)
        self._cdss._peer(self._name).edit_log.insert(relation, row)

    def delete(self, relation: str, row: Iterable[object]) -> None:
        """Record a deletion (curation) in this peer's edit log."""
        self._own(relation)
        self._cdss._peer(self._name).edit_log.delete(relation, row)

    def batch(self) -> Batch:
        """A transactional batch scoped to this peer's relations."""
        return Batch(self._cdss, peer=self._name)

    def pending_edits(self) -> int:
        """Entries in this peer's edit log awaiting the next exchange."""
        return len(self._cdss._peer(self._name).edit_log)

    # -- trust -------------------------------------------------------------

    def trust(self) -> TrustScope:
        """This peer's trust policy as a fluent scope."""
        return TrustScope(self._cdss, self._name)

    # -- internals ---------------------------------------------------------

    def _own(self, relation: str) -> None:
        owner = self._cdss._owner_peer(relation)
        if owner.name != self._name:
            raise SchemaError(
                f"relation {relation!r} belongs to peer {owner.name!r}, "
                f"not {self._name!r}"
            )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PeerHandle)
            and other._cdss is self._cdss
            and other._name == self._name
        )

    def __hash__(self) -> int:
        return hash((id(self._cdss), self._name))

    def __repr__(self) -> str:
        return f"<PeerHandle {self._name}: {len(self.relations())} relations>"
