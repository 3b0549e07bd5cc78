"""The unified weighted-delta maintenance core.

One maintainer now serves every update-exchange edit — insertions,
deletions, and trust revocations — by feeding **signed Z-set deltas**
(:class:`repro.storage.zset.ZSet`) through the same compiled plan
pipeline (``repro.datalog.plan``) the insertion fast path has always
used.  This replaces the two separate machines the repository grew up
with: the per-row PropagateDelete interpretation in the old
``core/incremental.py`` and the DRed over-delete/re-derive baseline in
``core/dred.py`` (both remain as thin shims over this class).

How retraction reuses the insertion machinery
---------------------------------------------

Insertion delta rules evaluate a rule with one body atom pinned to a
Δ-relation; the compiled probe template is *sign-agnostic* — it joins
whatever rows the Δ carries.  For a negative output delta ``ΔR__o⁻``,
the affected provenance rows of table ``P`` with an ``R__o`` occurrence
at body index ``i`` are exactly the semijoin ``P ⋉ ΔR__o⁻`` on the
occurrence's columns, which this module expresses as a synthetic delta
rule::

    P(vars) :- R__o(terms_i), P(vars)      (Δ pinned at body index 0)

compiled and cached through the engine's plan cache exactly like an
insertion delta rule — so retraction probes run on the same warm plans
and probe indexes.

Weights and ``distinct``
------------------------

The stored relations are sets, so a derived row's *weight* is its number
of surviving derivations: the provenance rows supporting it.  After the
semijoin pass deletes doomed provenance rows, each affected row's weight
is recounted from the remaining support; rows whose weight reached zero
are deleted outright, and rows with remaining support are checked for
*groundedness* with the goal-directed derivability test (cyclic support
must not keep a row alive — a pure count cannot see that, which is why
:class:`~repro.core.derivation.DerivationTest` stays).  Output tables
then normalize back to set semantics (``distinct``): a row is in
``R__o`` iff its accumulated support is positive and it is not rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..datalog.ast import Atom, DatalogError, Program, Rule
from ..datalog.engine import SemiNaiveEngine
from ..obs import tracing as _tracing
from ..datalog.plan import run_plan
from ..provenance.relations import ProvenanceEncoding, ProvenanceTable
from ..provenance.semiring import Token
from ..schema.internal import (
    LOCAL_RULE_PREFIX,
    input_name,
    local_name,
    output_name,
    rejection_name,
    trusted_name,
)
from ..storage.database import Database
from ..storage.instance import Row
from ..storage.zset import ZSet
from .derivation import DerivationTest, HeadFilters

Rows = Mapping[str, "set[Row] | list[Row] | frozenset[Row]"]


@dataclass
class DeletionReport:
    """What one weighted retraction pass did."""

    iterations: int = 0
    provenance_rows_deleted: int = 0
    tuples_deleted: dict[str, int] = field(default_factory=dict)
    derivability_checks: int = 0
    #: Rows removed from ``R__o``, per user relation (counts, not rows:
    #: the reports outlive the exchange in ``CDSS.exchange_reports``).
    output_deletions: dict[str, int] = field(default_factory=dict)

    @property
    def total_deleted(self) -> int:
        return sum(self.tuples_deleted.values())

    def _count(self, relation: str, n: int = 1) -> None:
        self.tuples_deleted[relation] = (
            self.tuples_deleted.get(relation, 0) + n
        )


@dataclass
class InsertionReport:
    """What one incremental insertion pass derived."""

    #: Newly derived rows per relation (counts; the rows themselves feed
    #: ``/changes`` while the pass runs and are not retained).
    derived: dict[str, int] = field(default_factory=dict)

    @property
    def total_derived(self) -> int:
        return sum(self.derived.values())


def _counts(rows: Mapping[str, set[Row]]) -> dict[str, int]:
    return {name: len(group) for name, group in rows.items()}


class WeightedMaintainer:
    """Signed-delta maintenance over a provenance-encoded database."""

    def __init__(
        self,
        db: Database,
        encoding: ProvenanceEncoding,
        program: Program,
        engine: SemiNaiveEngine,
    ) -> None:
        self.db = db
        self.encoding = encoding
        self.program = program
        self.engine = engine
        # user relation -> [(provenance table, synthetic semijoin rule)]
        # per R__o body occurrence.  The rule objects are held for the
        # life of the maintainer: the engine's plan cache is keyed by
        # rule identity, so every retraction round after the first runs
        # on memoized compiled plans.
        self._deletion_rules: dict[
            str, list[tuple[ProvenanceTable, Rule]]
        ] = {}
        self._table_by_name: dict[str, ProvenanceTable] = {}
        for table in encoding.tables:
            self._table_by_name[table.relation] = table
            prov_atom = Atom(table.relation, table.variables)
            for _, atom in table.positive_body_atoms():
                user_rel = _strip_output(atom.predicate)
                rule = Rule(prov_atom, (atom, prov_atom))
                self._deletion_rules.setdefault(user_rel, []).append(
                    (table, rule)
                )
        self._output_relations = {
            output_name(relation): relation
            for relation in encoding.internal.relation_names()
        }
        # The net R__o change of the apply() in flight, per user relation
        # (None unless the caller asked for it).
        self._changes: dict[str, ZSet] | None = None
        # Mappings with negated LHS atoms make deletion non-monotone (a
        # deletion can create tuples); incremental maintenance then requires
        # full recomputation.
        self.has_negated_mappings = any(
            atom.negated for table in encoding.tables for atom in table.body
        )

    @property
    def head_filters(self) -> HeadFilters:
        return self.engine.head_filters

    # -- unified entry point -----------------------------------------------

    def apply(
        self,
        local: Mapping[str, ZSet],
        rejections: Mapping[str, ZSet],
        changes: dict[str, ZSet] | None = None,
    ) -> tuple[DeletionReport, InsertionReport, InsertionReport]:
        """Apply one signed publish delta in a single maintenance pass.

        ``local`` carries the peer's local-contribution Z-sets (``+1``
        published rows, ``-1`` retracted ones), ``rejections`` the
        rejection-table Z-sets (``+1`` trust revocations, ``-1``
        re-admissions).  The retraction side runs first so a row deleted
        and re-published in the same batch lands in its final state, then
        re-admissions and insertions share the insertion fast path.

        When ``changes`` is given, every effective ``R__o`` insert (+1)
        and delete (-1) accumulates into it per user relation — the net
        output delta the change stream publishes.  It fills in as the
        pass runs, so a pass that raises still reports the changes it
        made.
        """
        self._changes = changes
        try:
            with _tracing.span("retraction"):
                deletion = self.propagate_deletions(
                    {name: z.negative() for name, z in local.items()},
                    {name: z.positive() for name, z in rejections.items()},
                )
            with _tracing.span("unrejection"):
                unrejected = self.apply_unrejections(
                    {name: z.negative() for name, z in rejections.items()}
                )
            with _tracing.span("insertion"):
                inserted = self.apply_insertions(
                    {name: z.positive() for name, z in local.items()}
                )
        finally:
            self._changes = None
        return deletion, unrejected, inserted

    def _note_output(self, relation: str, row: Row, weight: int) -> None:
        if self._changes is not None:
            self._changes.setdefault(relation, ZSet()).add(row, weight)

    def _note_derived(self, derived: Mapping[str, set[Row]]) -> None:
        if self._changes is None:
            return
        for name, rows in derived.items():
            relation = self._output_relations.get(name)
            if relation is not None:
                for row in rows:
                    self._note_output(relation, row, 1)

    # -- shared helpers ------------------------------------------------------

    def _trusted_ok(self, relation: str, row: Row) -> bool:
        return row in self.db[trusted_name(relation)]

    # -- insertions (positive deltas) ---------------------------------------

    def apply_insertions(self, local_inserts: Rows) -> InsertionReport:
        """Insert new local contributions and propagate to fixpoint.

        Trust conditions are enforced during derivation by the engine's head
        filters (Section 4.2's "starting point ... is already-trusted data,
        plus new base insertions which can be directly tested for trust").
        """
        report = InsertionReport()
        with self.db.defer_maintenance():
            seeds: dict[str, set[Row]] = {}
            for relation, rows in local_inserts.items():
                target = self.db[local_name(relation)]
                fresh = {
                    tuple(row) for row in rows if target.insert(tuple(row))
                }
                if fresh:
                    seeds[local_name(relation)] = fresh
            if seeds:
                derived = self.engine.run_insertions(
                    self.program, self.db, seeds
                )
                report.derived = _counts(derived)
                self._note_derived(derived)
        return report

    def apply_unrejections(self, rejection_deletes: Rows) -> InsertionReport:
        """Remove rejections; re-admitted tuples propagate as insertions.

        Deleting from the negated relation ``R__r`` can only *add* tuples to
        ``R__o`` (rule (tR)), which we compute directly for the touched rows
        and then propagate with the insertion delta rules.
        """
        report = InsertionReport()
        with self.db.defer_maintenance():
            seeds: dict[str, set[Row]] = {}
            for relation, rows in rejection_deletes.items():
                rejection = self.db[rejection_name(relation)]
                out = self.db[output_name(relation)]
                for row in map(tuple, rows):
                    if not rejection.delete(row):
                        continue
                    if self._trusted_ok(relation, row) and out.insert(row):
                        seeds.setdefault(output_name(relation), set()).add(row)
                        self._note_output(relation, row, 1)
            if seeds:
                derived = self.engine.run_insertions(
                    self.program, self.db, seeds
                )
                report.derived = _counts(derived)
                self._note_derived(derived)
        return report

    # -- retractions (negative deltas) --------------------------------------

    def propagate_deletions(
        self,
        local_deletes: Rows | None = None,
        rejection_inserts: Rows | None = None,
    ) -> DeletionReport:
        """Propagate a negative delta (deletions + trust revocations)."""
        if self.has_negated_mappings:
            raise NotImplementedError(
                "incremental deletion is unsupported for mappings with "
                "negated LHS atoms (deletions become non-monotone); use the "
                "full-recomputation strategy"
            )
        # One deferral scope around the whole run: the per-row provenance
        # and output deletions append maintenance runs instead of patching
        # every index, and the derivability probes catch up in batched
        # passes (see repro.storage.indexes).
        with self.db.defer_maintenance():
            return self._propagate_deletions_deferred(
                local_deletes, rejection_inserts
            )

    def _propagate_deletions_deferred(
        self,
        local_deletes: Rows | None,
        rejection_inserts: Rows | None,
    ) -> DeletionReport:
        report = DeletionReport()
        output_deltas: dict[str, ZSet] = {}
        pending_affected: set[Token] = set()

        # Phase 0: fold the curation changes into the edbs and compute the
        # initial negative R__o delta.  A deleted local contribution may
        # leave its tuple apparently supported through R__t, but that
        # support can be circular — so such tuples join the affected set
        # and go through the derivability machinery rather than being
        # trusted blindly.
        for relation, rows in (local_deletes or {}).items():
            gone = self._delete(report, local_name(relation), rows)
            pending_affected.update((relation, row) for row in gone)
        for relation, rows in (rejection_inserts or {}).items():
            # Rejection removes the R__o row directly (rule (tR)); R__t
            # itself is unaffected, so no derivability check.
            fresh = self.db[rejection_name(relation)].insert_new(rows)
            self._drop_outputs(relation, fresh, output_deltas)
        self._record_output_deltas(report, output_deltas)

        # Main loop: one round per negative-delta stratum, mirroring the
        # insertion rounds' shape.  Every step is set-at-a-time over the
        # round's whole affected set; none runs per row.
        while any(output_deltas.values()) or pending_affected:
            report.iterations += 1
            affected = pending_affected
            pending_affected = set()

            # Semijoin pass: evaluate every (provenance table, occurrence)
            # delta rule against the round's negative R__o delta — the
            # compiled probe templates are the insertion machinery, fed a
            # negative delta.  All probes read the pre-deletion state (a
            # provenance row doomed through one occurrence must still be
            # visible to the others), then the doomed rows leave in one
            # bulk retraction per table.
            span = _start("retraction.semijoin")
            removed = self._retract_doomed_provenance_rows(output_deltas)
            for name, rows in removed.items():
                table = self._table_by_name[name]
                report.provenance_rows_deleted += len(rows)
                for head in table.heads:
                    relation = head.user_relation
                    affected.update(
                        (relation, table.head_row(head, prow)) for prow in rows
                    )
            _finish(span)

            # Weight bookkeeping: probe each affected row's remaining
            # direct support once.  Weight zero -> the row is gone
            # outright; positive weight -> groundedness check (cyclic
            # support is weight a count cannot distinguish from live
            # derivations), which starts from the support found here.
            span = _start("retraction.recount")
            tester = DerivationTest(self.db, self.encoding, self.head_filters)
            by_relation: dict[str, list[Row]] = {}
            for relation, row in affected:
                by_relation.setdefault(relation, []).append(row)
            support = {
                node: tester.direct_support(*node) for node in affected
            }
            to_check = [node for node, entries in support.items() if entries]
            _finish(span)

            span = _start("retraction.derivability")
            verdicts = tester.derivable(to_check, support) if to_check else {}
            report.derivability_checks += len(to_check)
            _finish(span)

            # Apply the verdicts, one bulk removal per internal table.
            span = _start("retraction.apply")
            output_deltas = {}
            for relation, rows in by_relation.items():
                lost_input: list[Row] = []
                lost_trust: list[Row] = []
                for row in rows:
                    verdict = verdicts.get((relation, row))
                    if verdict is None or not verdict.trusted:
                        lost_trust.append(row)
                        if verdict is None or not verdict.any:
                            lost_input.append(row)
                self._delete(report, input_name(relation), lost_input)
                self._delete(report, trusted_name(relation), lost_trust)
                self._drop_outputs(relation, rows, output_deltas)
            self._record_output_deltas(report, output_deltas)
            _finish(span)

        return report

    def _delete(
        self, report: DeletionReport, name: str, rows: Iterable[Row]
    ) -> list[Row]:
        """One bulk removal from internal table ``name``, counted."""
        gone = self.db[name].delete_existing(rows)
        if gone:
            report._count(name, len(gone))
        return gone

    def _drop_outputs(
        self, relation: str, rows: Iterable[Row], deltas: dict[str, ZSet]
    ) -> None:
        """Remove from ``R__o`` the ``rows`` that lost their membership;
        accumulate ``-1`` for each.

        This is the ``distinct`` normalization at the output boundary:
        membership is "accumulated support is positive" (a surviving
        local contribution, or trusted-and-not-rejected), never a
        multiplicity."""
        local = self.db[local_name(relation)]
        local_filter = self.head_filters.get(LOCAL_RULE_PREFIX + relation)
        trusted = self.db[trusted_name(relation)]
        rejected = self.db[rejection_name(relation)]
        gone = self.db[output_name(relation)].delete_existing(
            row
            for row in rows
            if not (
                row in local and (local_filter is None or local_filter(row))
            )
            and (row not in trusted or row in rejected)
        )
        if gone:
            for zsets in (deltas, self._changes):
                if zsets is not None:
                    zset = zsets.setdefault(relation, ZSet())
                    for row in gone:
                        zset.add(row, -1)

    def _record_output_deltas(
        self, report: DeletionReport, output_deltas: dict[str, ZSet]
    ) -> None:
        for relation, zset in output_deltas.items():
            n = len(zset.negative())
            report._count(output_name(relation), n)
            report.output_deletions[relation] = (
                report.output_deletions.get(relation, 0) + n
            )

    def _retract_doomed_provenance_rows(
        self, output_deltas: dict[str, ZSet]
    ) -> dict[str, set[Row]]:
        """Evaluate and apply the retraction semijoins for one round.

        Returns the *effective* deletions per provenance table (rows that
        were actually present), deduplicated across occurrences: every
        semijoin reads the pre-deletion state, then each table's doomed
        rows leave through one :meth:`Instance.delete_existing
        <repro.storage.instance.Instance.delete_existing>` call.
        """
        doomed: dict[str, set[Row]] = {}
        for relation, zset in output_deltas.items():
            rows = zset.negative()
            if not rows:
                continue
            for table, rule in self._deletion_rules.get(relation, ()):
                matched = self._run_deletion_rule(rule, rows)
                if matched:
                    doomed.setdefault(table.relation, set()).update(matched)
        removed: dict[str, set[Row]] = {}
        for name, rows in doomed.items():
            gone = self.db[name].delete_existing(rows)
            if gone:
                removed[name] = set(gone)
        return removed

    def _run_deletion_rule(self, rule: Rule, delta_rows: list[Row]) -> list[Row]:
        """One semijoin evaluation: the rule's Δ atom (body index 0) pinned
        to the negative delta, everything else resolved from the live db —
        the same memoized plan + pooled Δ-instance path insertion delta
        rules run on."""
        delta_atom = rule.body[0]
        delta_source = self.engine.delta_instance(
            delta_atom.predicate, delta_atom.arity, delta_rows
        )
        plan = self.engine.cached_plan(rule, self.db, 0)

        def resolve(index: int, atom: Atom):
            if index == 0:
                return delta_source
            return self.db[atom.predicate]

        return run_plan(plan, resolve)


def _start(name: str) -> _tracing.Span | None:
    """Open a per-round phase span (no allocation while tracing is off)."""
    return _tracing.start(name) if _tracing.ENABLED else None


def _finish(span: _tracing.Span | None) -> None:
    if span is not None:
        _tracing.finish(span)


def _strip_output(internal_rel: str) -> str:
    # A real error, not an assert: this guards the deletion delta rules'
    # relation naming and must hold under ``python -O`` too.
    if not internal_rel.endswith("__o"):
        raise DatalogError(
            f"expected an output relation (R__o), got {internal_rel!r}"
        )
    return internal_rel[: -len("__o")]
