"""The CDSS facade: peers, mappings, trust policies, and update exchange.

This is the public entry point of the library — the programmatic equivalent
of the ORCHESTRA system of Section 5.  A typical session (the paper's
running example) uses the peer-centric v2 API (see DESIGN.md)::

    cdss = CDSS("bioinformatics")
    pgus = cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    pbio = cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    pubio = cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")

    with pgus.batch() as tx:                 # transactional offline edits
        tx.insert("G", (1, 2, 3))
        tx.insert("G", (3, 5, 2))
    pbio.insert("B", (3, 5))
    pubio.insert("U", (2, 5))
    cdss.update_exchange()

    B = pbio.relation("B")                   # lazy RelationView
    sorted(B)                                # the local instance of B
    B.provenance((3, 2))                     # m1(...) + m4(... * ...)
    cdss.query("ans(x, y) :- U(x, z), U(y, z)")

Peers edit offline (handle/batch edits append to edit logs);
:meth:`update_exchange` publishes the logs and brings the system to a
consistent state with the configured maintenance strategy.  The whole
configuration round-trips through declarative :class:`~repro.api.spec.SystemSpec`
documents via :meth:`CDSS.from_spec` / :meth:`CDSS.to_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..datalog.planner import Planner
from ..provenance.graph import ProvenanceGraph, build_provenance_graph
from ..provenance.relations import ENCODING_COMPOSITE
from ..provenance.semiring import Semiring, Token
from ..provenance.trust import TrustCondition, TrustPolicy, evaluate_trust
from ..schema.internal import InternalSchema
from ..schema.relation import PeerSchema, RelationSchema, SchemaError
from ..schema.tgd import SchemaMapping
from ..storage.instance import Row
from .editlog import EditLog, PublishDelta, publish
from .exchange import (
    STRATEGY_UNIFIED,
    ExchangeReport,
    ExchangeSystem,
    check_negation,
    check_strategy,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.batch import Batch
    from ..api.handles import PeerHandle
    from ..api.programs import PreparedProgram
    from ..api.query import PreparedQuery, Query
    from ..api.spec import SystemSpec
    from ..api.views import RelationView
    from ..datalog.ast import Rule


_PROGRAM_CACHE_LIMIT = 64
"""query_program's prepared-program entries before wholesale clearing
(each entry pins its own engine + plan cache; parameterize instead of
inlining constants to stay under it)."""

_REPORT_HISTORY = 64
"""How many of the latest exchange reports ``CDSS.exchange_reports``
keeps; older ones are dropped so a long-running node does not grow."""


@dataclass
class Peer:
    """One participant: schema, edit log, and trust policy.

    The edit log and trust policy are always freshly constructed for the
    peer (they carry its name), so they are not constructor parameters.
    """

    name: str
    schema: PeerSchema
    edit_log: EditLog = field(init=False, repr=False)
    policy: TrustPolicy = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.edit_log = EditLog(self.name)
        self.policy = TrustPolicy(self.name)


class CDSS:
    """A collaborative data sharing system (Section 2).

    Configuration (peers, mappings, trust) may be extended at any time;
    the internal schema, provenance encoding, and database are (re)built
    lazily on first use after a configuration change.
    """

    def __init__(
        self,
        name: str = "cdss",
        planner: Planner | None = None,
        encoding_style: str = ENCODING_COMPOSITE,
        perspective: str | None = None,
        strategy: str | None = None,
    ) -> None:
        self.name = name
        self.strategy = check_strategy(strategy or STRATEGY_UNIFIED)
        self._planner = planner
        self._encoding_style = encoding_style
        self._perspective = perspective
        self._peers: dict[str, Peer] = {}
        self._mappings: dict[str, SchemaMapping] = {}
        self._relation_owner: dict[str, str] = {}
        # query_program's per-text cache of PreparedPrograms (prepared
        # programs re-bind themselves after reconfiguration, so entries
        # stay valid for the CDSS's whole lifetime).
        self._program_cache: dict[tuple[str, str], "PreparedProgram"] = {}
        self._system: ExchangeSystem | None = None
        self._previous_system: ExchangeSystem | None = None
        self.exchange_reports: list[ExchangeReport] = []

    # -- configuration -------------------------------------------------------

    def add_peer(
        self,
        name: str,
        relations: Mapping[str, Sequence[str]] | Iterable[RelationSchema],
    ) -> "PeerHandle":
        """Register a peer with its relations; returns its handle.

        ``relations`` is either a mapping ``{relation: (attr, ...)}`` or an
        iterable of :class:`RelationSchema`.
        """
        if name in self._peers:
            raise SchemaError(f"peer {name!r} already exists")
        if isinstance(relations, Mapping):
            schemas = tuple(
                RelationSchema(rel, tuple(attrs))
                for rel, attrs in relations.items()
            )
        else:
            schemas = tuple(relations)
        peer = Peer(name, PeerSchema(name, schemas))
        for schema in schemas:
            if schema.name in self._relation_owner:
                raise SchemaError(
                    f"relation {schema.name!r} already owned by peer "
                    f"{self._relation_owner[schema.name]!r}"
                )
        for schema in schemas:
            self._relation_owner[schema.name] = name
        self._peers[name] = peer
        self._invalidate()
        return self.peer(name)

    def peer(self, name: str) -> "PeerHandle":
        """The handle of an already-registered peer."""
        from ..api.handles import PeerHandle

        self._peer(name)  # raise SchemaError for unknown peers
        return PeerHandle(self, name)

    def add_mapping(self, name: str, tgd: str | SchemaMapping) -> SchemaMapping:
        """Register a schema mapping, given as tgd text or an object."""
        if name in self._mappings:
            raise SchemaError(f"mapping {name!r} already exists")
        mapping = (
            SchemaMapping.parse(name, tgd) if isinstance(tgd, str) else tgd
        )
        check_negation(self.strategy, (mapping,))
        self._mappings[name] = mapping
        self._invalidate()
        return mapping

    # -- declarative specs ---------------------------------------------------

    @classmethod
    def from_spec(
        cls, spec: "SystemSpec | Mapping[str, object] | str | Path"
    ) -> "CDSS":
        """Build a CDSS from a :class:`~repro.api.spec.SystemSpec`.

        Accepts a spec object, a plain dict in the spec's JSON shape, or a
        path to a spec JSON file.  The spec's edits are staged in the
        peers' edit logs; no update exchange is run.
        """
        from ..api.spec import SystemSpec

        if isinstance(spec, (str, Path)):
            spec = SystemSpec.load(spec)
        elif isinstance(spec, Mapping):
            spec = SystemSpec.from_dict(spec)
        cdss = cls(
            name=spec.name,
            encoding_style=spec.encoding_style,
            perspective=spec.perspective,
            strategy=spec.strategy,
        )
        for peer_spec in spec.peers:
            cdss.add_peer(peer_spec.name, peer_spec.to_schemas())
        for mapping_spec in spec.mappings:
            cdss.add_mapping(mapping_spec.name, mapping_spec.to_mapping())
        if spec.edits:
            from ..api.spec import INSERT

            with cdss.batch() as tx:
                for edit in spec.edits:
                    if edit.op == INSERT:
                        tx.insert(edit.relation, edit.row)
                    else:
                        tx.delete(edit.relation, edit.row)
        return cdss

    def to_spec(self, include_data: bool = True) -> "SystemSpec":
        """Capture this system as a declarative spec.

        With ``include_data`` the current base state is exported as signed
        edits — local contributions as ``+``, persistent rejections as
        ``-`` — followed by any unpublished edit-log entries in order, so
        ``CDSS.from_spec(cdss.to_spec())`` then ``update_exchange()``
        reproduces the instances.  Trust conditions are Python callables
        and are not captured.
        """
        from ..api.spec import (
            DELETE,
            INSERT,
            EditSpec,
            MappingSpec,
            PeerSpec,
            SystemSpec,
        )

        edits: list[EditSpec] = []
        if include_data:
            system = self.system()
            for relation in sorted(self._relation_owner):
                for row in sorted(
                    system.local_contributions(relation), key=repr
                ):
                    edits.append(EditSpec(relation, row, INSERT))
                for row in sorted(system.rejections(relation), key=repr):
                    edits.append(EditSpec(relation, row, DELETE))
            for peer in self._peers.values():
                for update in peer.edit_log:
                    edits.append(
                        EditSpec(
                            update.relation,
                            update.row,
                            INSERT if update.is_insert else DELETE,
                        )
                    )
        return SystemSpec(
            name=self.name,
            peers=tuple(
                PeerSpec.of(peer.schema) for peer in self._peers.values()
            ),
            mappings=tuple(
                MappingSpec.of(m) for m in self._mappings.values()
            ),
            edits=tuple(edits),
            strategy=self.strategy,
            encoding_style=self._encoding_style,
            perspective=self._perspective,
        )

    # -- trust (internal entry points; public surface is TrustScope) ---------

    def _set_trust_condition(
        self,
        peer: str,
        mapping: str,
        condition: TrustCondition | Callable[[Row], bool],
        description: str | None = None,
    ) -> None:
        if not isinstance(condition, TrustCondition):
            condition = TrustCondition(
                description or f"{peer} condition on {mapping}", condition
            )
        self._peer(peer).policy.set_mapping_condition(mapping, condition)
        self._invalidate()

    def _distrust_token(
        self, peer: str, relation: str, row: Iterable[object]
    ) -> None:
        self._peer(peer).policy.distrust_token(relation, row)
        self._invalidate()

    def _distrust_peer(self, peer: str, other: str) -> None:
        self._peer(peer).policy.distrust_peer(other)
        self._invalidate()

    def _trust_of(
        self, peer: str, relation: str, row: Iterable[object]
    ) -> bool:
        verdicts = evaluate_trust(
            self.provenance_graph(),
            self._peer(peer).policy,
            internal=self.internal_schema,
            extra_policies={
                name: p.policy for name, p in self._peers.items()
            },
        )
        return verdicts.get((relation, tuple(row)), False)

    # -- editing (offline) -------------------------------------------------------

    def batch(self) -> "Batch":
        """A system-wide transactional batch; edits route to owning peers."""
        from ..api.batch import Batch

        return Batch(self)

    def pending_edits(self) -> int:
        return sum(len(peer.edit_log) for peer in self._peers.values())

    # -- update exchange ------------------------------------------------------------

    def update_exchange(
        self,
        peers: Iterable[str] | None = None,
        strategy: str | None = None,
    ) -> ExchangeReport:
        """Publish edit logs and bring the system to a consistent state.

        ``peers`` limits which peers publish (default: all); other peers'
        unpublished edits stay invisible, matching Section 2's operational
        model.
        """
        strategy = self.resolve_strategy(strategy)
        system = self.system()
        delta = PublishDelta()
        names = tuple(peers) if peers is not None else tuple(self._peers)
        for name in names:
            delta.merge(publish(self._peer(name).edit_log, system.db))
        report = system.apply_delta(delta, strategy)
        self._record_report(report)
        return report

    def resolve_strategy(self, strategy: str | None = None) -> str:
        """The strategy a publish runs: ``strategy``, else the CDSS's own,
        checked to name one and to maintain every registered mapping."""
        strategy = check_strategy(strategy or self.strategy)
        check_negation(strategy, self._mappings.values())
        return strategy

    def recompute(self) -> ExchangeReport:
        report = self.system().recompute()
        self._record_report(report)
        return report

    def _record_report(self, report: ExchangeReport) -> None:
        history = self.exchange_reports
        history.append(report)
        if len(history) > _REPORT_HISTORY:
            del history[:-_REPORT_HISTORY]

    # -- inspection --------------------------------------------------------------------

    def system(self) -> ExchangeSystem:
        """The underlying exchange system (rebuilt on demand).

        Reconfiguring (new peers, mappings, or trust) after data has been
        loaded preserves the base data — local contributions and rejections
        carry over and the derived state is recomputed under the new
        configuration.
        """
        if self._system is not None:
            return self._system
        internal = InternalSchema(
            tuple(p.schema for p in self._peers.values()),
            tuple(self._mappings.values()),
        )
        system = ExchangeSystem(
            internal,
            policies={
                name: peer.policy for name, peer in self._peers.items()
            },
            planner=self._planner,
            encoding_style=self._encoding_style,
            perspective=self._perspective,
        )
        if self._previous_system is not None:
            from ..schema.internal import local_name, rejection_name

            carried = False
            for relation in internal.relation_names():
                old_db = self._previous_system.db
                for name_fn in (local_name, rejection_name):
                    old = old_db.get(name_fn(relation))
                    if old is not None and len(old):
                        system.db[name_fn(relation)].insert_many(old)
                        carried = True
            if carried:
                system.recompute()
            self._previous_system = None
        self._system = system
        return system

    @property
    def internal_schema(self) -> InternalSchema:
        return self.system().internal

    def peers(self) -> tuple[str, ...]:
        return tuple(self._peers)

    def peer_handles(self) -> tuple["PeerHandle", ...]:
        """Handles for every registered peer, in registration order."""
        return tuple(self.peer(name) for name in self._peers)

    def mappings(self) -> tuple[SchemaMapping, ...]:
        return tuple(self._mappings.values())

    def relation(self, name: str) -> "RelationView":
        """A lazy view of one user relation's local instance."""
        from ..api.views import RelationView

        self._owner_peer(name)  # raise SchemaError for unknown relations
        return RelationView(self, name)

    def relations(self) -> tuple[str, ...]:
        """All user relation names, grouped by peer registration order."""
        return tuple(
            schema.name
            for peer in self._peers.values()
            for schema in peer.schema.relations
        )

    # -- queries ----------------------------------------------------------------

    def prepare(
        self,
        query: "str | Rule | Query",
        params: Sequence[str] = (),
    ) -> "PreparedQuery":
        """Prepare a query: plan + compile once, execute many times.

        ``query`` is datalog text over user relation names, a parsed
        :class:`~repro.datalog.ast.Rule`, or a fluent
        :class:`~repro.api.query.Query` built with
        ``select``/``join``/``project``.  ``params`` (text queries only)
        names body variables bound at :meth:`PreparedQuery.execute
        <repro.api.query.PreparedQuery.execute>` time.  The plan is
        registered in the exchange engine's plan cache; re-executing with
        new parameter bindings performs zero replanning.
        """
        from ..api.query import prepare

        system = self.system()
        return prepare(
            query,
            system.db,
            system.internal,
            engine=system.engine,
            params=params,
            cdss=self,
            system=system,
        )

    def query(self, text: str, certain: bool = True) -> frozenset[Row]:
        """One-shot conjunctive query with certain-answer semantics.

        A convenience over :meth:`prepare`; for repeated or parameterized
        execution prepare the query once and re-execute it.  One-shots
        plan through the planner only (their fresh rule objects would
        pollute the engine-level plan cache without ever hitting).
        """
        from ..api.query import prepare

        system = self.system()
        prepared = prepare(
            text,
            system.db,
            system.internal,
            engine=system.engine,
            cdss=self,
            system=system,
            use_engine_cache=False,
        )
        answers = prepared.execute()
        if not certain:
            answers = answers.with_nulls()
        return answers.to_rows()

    def prepare_program(
        self,
        program: str,
        answer: str = "ans",
        params: Sequence[str] = (),
    ) -> "PreparedProgram":
        """Prepare a recursive query program: validate + rewrite once.

        The returned :class:`~repro.api.programs.PreparedProgram` keeps a
        dedicated engine whose plan cache and Δ-relations stay warm
        across :meth:`~repro.api.programs.PreparedProgram.execute` calls;
        ``params`` names program variables bound per execution
        (``prepared.execute(name=value)``).
        """
        from ..api.programs import prepare_program

        system = self.system()
        return prepare_program(
            program,
            system.db,
            system.internal,
            answer=answer,
            params=params,
            planner=self._planner,
            cdss=self,
            system=system,
        )

    def query_program(
        self, text: str, answer: str = "ans", certain: bool = True
    ) -> frozenset[Row]:
        """Evaluate a recursive datalog program over the peer instances.

        Bodies reference user relations; the program may define auxiliary
        intensional predicates (evaluated to fixpoint in scratch space).
        Returns the extension of the ``answer`` predicate.

        A convenience over :meth:`prepare_program`: the prepared program
        is cached per ``(text, answer)``, so repeated calls with the same
        text re-plan nothing.
        """
        if isinstance(text, str):
            key = (text, answer)
            prepared = self._program_cache.get(key)
            if prepared is None:
                prepared = self.prepare_program(text, answer=answer)
                if len(self._program_cache) >= _PROGRAM_CACHE_LIMIT:
                    # Each entry pins a dedicated engine; callers that
                    # inline constants into the text (instead of params=)
                    # must not grow this without bound.
                    self._program_cache.clear()
                self._program_cache[key] = prepared
        else:
            # Pre-parsed Program objects: prepare fresh (identity-keyed
            # caching would never hit for equal-but-distinct objects).
            prepared = self.prepare_program(text, answer=answer)
        answers = prepared.execute()
        return answers.certain() if certain else answers.with_nulls()

    # -- provenance -------------------------------------------------------------

    def provenance_graph(self) -> ProvenanceGraph:
        system = self.system()
        return build_provenance_graph(system.db, system.encoding)

    def evaluate_provenance(
        self,
        semiring: Semiring,
        token_value: Callable[[Token], object] | None = None,
    ) -> dict[Token, object]:
        """Solve the provenance equations of the whole system in a semiring."""
        return self.provenance_graph().evaluate(semiring, token_value)

    # -- internals ------------------------------------------------------------------------

    def _peer(self, name: str) -> Peer:
        try:
            return self._peers[name]
        except KeyError:
            raise SchemaError(f"unknown peer {name!r}") from None

    def _owner_peer(self, relation: str) -> Peer:
        owner = self._relation_owner.get(relation)
        if owner is None:
            raise SchemaError(f"unknown relation {relation!r}")
        return self._peers[owner]

    def _relation_schema(self, relation: str) -> RelationSchema:
        return self._owner_peer(relation).schema.relation(relation)

    def _invalidate(self) -> None:
        if self._system is not None:
            self._previous_system = self._system
        self._system = None

    def __repr__(self) -> str:
        return (
            f"<CDSS {self.name}: {len(self._peers)} peers, "
            f"{len(self._mappings)} mappings>"
        )
