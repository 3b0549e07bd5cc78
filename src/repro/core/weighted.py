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
from typing import Mapping

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

    def _local_ok(self, relation: str, row: Row) -> bool:
        if row not in self.db[local_name(relation)]:
            return False
        token_filter = self.head_filters.get(LOCAL_RULE_PREFIX + relation)
        return token_filter is None or token_filter(row)

    def _trusted_ok(self, relation: str, row: Row) -> bool:
        return row in self.db[trusted_name(relation)]

    def _output_membership(self, relation: str, row: Row) -> bool:
        """Should ``row`` be in ``R__o`` given the current internal state?

        This is the ``distinct`` normalization at the output boundary:
        membership is "accumulated support is positive" (a surviving
        local contribution, or trusted-and-not-rejected), never a
        multiplicity."""
        if self._local_ok(relation, row):
            return True
        return (
            self._trusted_ok(relation, row)
            and row not in self.db[rejection_name(relation)]
        )

    def _sync_output(
        self, relation: str, row: Row, deltas: dict[str, ZSet]
    ) -> None:
        """Reconcile one R__o membership; accumulate ``-1`` if lost."""
        should = self._output_membership(relation, row)
        out = self.db[output_name(relation)]
        if should:
            if out.insert(row):
                self._note_output(relation, row, 1)
        elif out.delete(row):
            deltas.setdefault(relation, ZSet()).add(row, -1)
            self._note_output(relation, row, -1)

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
            local = self.db[local_name(relation)]
            for row in map(tuple, rows):
                if local.delete(row):
                    report._count(local_name(relation))
                    pending_affected.add((relation, row))
        for relation, rows in (rejection_inserts or {}).items():
            rejection = self.db[rejection_name(relation)]
            for row in map(tuple, rows):
                if rejection.insert(row):
                    # Rejection removes the R__o row directly (rule (tR));
                    # R__t itself is unaffected, so no derivability check.
                    self._sync_output(relation, row, output_deltas)
        self._record_output_deltas(report, output_deltas)

        # Main loop: one round per negative-delta stratum, mirroring the
        # insertion rounds' shape.
        while any(output_deltas.values()) or pending_affected:
            report.iterations += 1
            affected: set[Token] = set(pending_affected)
            pending_affected = set()

            # Semijoin pass: evaluate every (provenance table, occurrence)
            # delta rule against the round's negative R__o delta — the
            # compiled probe templates are the insertion machinery, fed a
            # negative delta.  All probes read the pre-deletion state (a
            # provenance row doomed through one occurrence must still be
            # visible to the others), then the doomed rows leave in one
            # bulk retraction per table.
            removed = self._retract_doomed_provenance_rows(output_deltas)
            for name, rows in removed.items():
                table = self._table_by_name[name]
                report.provenance_rows_deleted += len(rows)
                for prow in rows:
                    for head in table.heads:
                        affected.add(
                            (head.user_relation, table.head_row(head, prow))
                        )

            # Weight bookkeeping: recount each affected row's remaining
            # direct support.  Weight zero -> the row is gone outright;
            # positive weight -> groundedness check (cyclic support is
            # weight a count cannot distinguish from live derivations).
            output_deltas = {}
            direct: dict[Token, tuple[bool, bool]] = {}
            to_check: list[Token] = []
            for node in affected:
                relation, row = node
                any_support = False
                trusted_support = False
                for table, head in self.encoding.targets_for_relation(
                    relation
                ):
                    rows_left = table.supporting_rows(self.db, head, row)
                    if rows_left:
                        any_support = True
                        if self._head_trust_ok(head, row):
                            trusted_support = True
                            break
                direct[node] = (any_support, trusted_support)
                if any_support:
                    to_check.append(node)

            verdicts = {}
            if to_check:
                tester = DerivationTest(
                    self.db, self.encoding, self.head_filters
                )
                verdicts = tester.derivable(to_check)
                report.derivability_checks += len(to_check)

            for node in affected:
                relation, row = node
                any_support, trusted_support = direct[node]
                if not any_support:
                    keep_input = keep_trusted = False
                else:
                    verdict = verdicts[node]
                    keep_input = verdict.any
                    keep_trusted = verdict.trusted and trusted_support
                if not keep_input:
                    if self.db[input_name(relation)].delete(row):
                        report._count(input_name(relation))
                if not keep_trusted:
                    if self.db[trusted_name(relation)].delete(row):
                        report._count(trusted_name(relation))
                self._sync_output(relation, row, output_deltas)

            self._record_output_deltas(report, output_deltas)

        return report

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

    def _head_trust_ok(self, head, row: Row) -> bool:
        condition = self.head_filters.get(head.trust_label)
        return condition is None or condition(row)


def _strip_output(internal_rel: str) -> str:
    # A real error, not an assert: this guards the deletion delta rules'
    # relation naming and must hold under ``python -O`` too.
    if not internal_rel.endswith("__o"):
        raise DatalogError(
            f"expected an output relation (R__o), got {internal_rel!r}"
        )
    return internal_rel[: -len("__o")]
