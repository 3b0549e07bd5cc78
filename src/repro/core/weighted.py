"""The unified weighted-delta maintenance core.

One maintainer serves every update-exchange edit — insertions,
deletions, and trust revocations — by feeding **signed Z-set deltas**
(:class:`repro.storage.zset.ZSet`) through one pass: the retraction side
first, then re-admissions and insertions on the engine's compiled
insertion pipeline (``repro.datalog.plan``).

How retraction works
--------------------

Retraction runs in rounds, one per negative ``R__o`` delta, and every
step of a round is set-at-a-time over the compiled inverse rules of
:class:`~repro.provenance.relations.ProvenanceTable` (Section 4.1.3):

* **semijoin** — the provenance rows that joined a retracted ``R__o``
  row at some body occurrence (``P ⋉ ΔR__o⁻``) are doomed, found by one
  key intersection per occurrence (:meth:`ProvenanceTable.doomed_rows`)
  and removed in one bulk retraction per table;
* **recount** — every head tuple of a doomed row is re-judged.  A
  tuple's *weight* is its number of surviving derivations, and outside
  recursive components of the program "weight 0 ⇔ gone" is exact: its
  ``R__i`` membership is "some head still derives it" and its ``R__t``
  membership "some head whose trust condition passes still derives it",
  one key intersection per head (:meth:`ProvenanceTable.supported`);
* **derivability** — inside a recursive component cyclic support is
  weight a count cannot tell from a live derivation, so those tuples go
  through the goal-directed :class:`~repro.core.derivation.DerivationTest`;
* **apply** — one bulk removal per internal table, then ``distinct`` at
  the output boundary: a row is in ``R__o`` iff it is a surviving local
  contribution or trusted and not rejected.

Counting is exact for non-recursive relations without ordering the
rounds by component: a tuple kept alive by a source that dies in a later
round is judged again in the round after, when the semijoin dooms the
provenance row that joined that source.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping

from ..datalog.ast import Program
from ..datalog.engine import SemiNaiveEngine
from ..datalog.stratify import stratify
from ..obs import tracing as _tracing
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
        # user relation -> the provenance tables whose body reads it
        self._readers: dict[str, list[ProvenanceTable]] = {}
        self._table_by_name: dict[str, ProvenanceTable] = {}
        for table in encoding.tables:
            self._table_by_name[table.relation] = table
            for relation in table.source_relations:
                self._readers.setdefault(relation, []).append(table)
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
        seeds: dict[str, set[Row]] = {}
        for relation, rows in local_inserts.items():
            target = self.db[local_name(relation)]
            fresh = {tuple(row) for row in rows if target.insert(tuple(row))}
            if fresh:
                seeds[local_name(relation)] = fresh
        if seeds:
            derived = self.engine.run_insertions(self.program, self.db, seeds)
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
            derived = self.engine.run_insertions(self.program, self.db, seeds)
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
        report = DeletionReport()
        # user relation -> the R__o rows removed (the negative R__o delta)
        output_deltas: dict[str, set[Row]] = {}
        # user relation -> the rows to judge this round
        affected: dict[str, set[Row]] = defaultdict(set)

        # Phase 0: fold the curation changes into the edbs and compute the
        # initial negative R__o delta.  A deleted local contribution may
        # leave its tuple supported through R__t, so such tuples join the
        # affected set and are judged like any other rather than being
        # trusted blindly (that support can be circular).
        for relation, rows in (local_deletes or {}).items():
            gone = self._delete(report, local_name(relation), rows)
            if gone:
                affected[relation] |= gone
        for relation, rows in (rejection_inserts or {}).items():
            # Rejection removes the R__o row directly (rule (tR)); R__t
            # itself is unaffected, so no derivability check.
            fresh = self.db[rejection_name(relation)].insert_new(rows)
            self._drop_outputs(relation, fresh, output_deltas)
        self._record_output_deltas(report, output_deltas)

        # Main loop: one round per negative-delta stratum, mirroring the
        # insertion rounds' shape.  Every step is set-at-a-time over the
        # round's whole affected set; only rows of recursive components
        # are probed one at a time.
        while any(output_deltas.values()) or affected:
            report.iterations += 1

            # Semijoin pass: every provenance row that joined a row of
            # the round's negative R__o delta, through the compiled
            # body-occurrence inverse rules.  All probes read the
            # pre-deletion state (a provenance row doomed through one
            # occurrence must still be visible to the others), then the
            # doomed rows leave in one bulk retraction per table.
            span = _start("retraction.semijoin")
            removed = self._retract_doomed_provenance_rows(output_deltas)
            for name, rows in removed.items():
                table = self._table_by_name[name]
                report.provenance_rows_deleted += len(rows)
                for head in table.heads:
                    affected[head.user_relation].update(
                        map(table.head_row, repeat(head), rows)
                    )
            _finish(span)

            # Weight bookkeeping.  Outside recursive components weight 0
            # <=> gone is exact, so R__i / R__t membership is read off the
            # remaining support, one key intersection per head.  Inside
            # them each affected row's support is probed once and feeds
            # the groundedness check (cyclic support is weight a count
            # cannot distinguish from live derivations).
            span = _start("retraction.recount")
            kept: dict[str, set[Row]] = defaultdict(set)
            trusted: dict[str, set[Row]] = defaultdict(set)
            tester = DerivationTest(self.db, self.encoding, self.head_filters)
            support: dict[Token, list] = {}
            for relation, rows in affected.items():
                if relation in self._recursive:
                    for row in rows:
                        entries = tester.direct_support(relation, row)
                        if entries:
                            support[(relation, row)] = entries
                else:
                    kept[relation], trusted[relation] = self._supported(
                        relation, rows
                    )
            _finish(span)

            span = _start("retraction.derivability")
            if support:
                verdicts = tester.derivable(list(support), support)
                report.derivability_checks += len(support)
                for (relation, row), verdict in verdicts.items():
                    if verdict.any:
                        kept[relation].add(row)
                    if verdict.trusted:
                        trusted[relation].add(row)
            _finish(span)

            # Apply the verdicts, one bulk removal per internal table.
            span = _start("retraction.apply")
            output_deltas = {}
            for relation, rows in affected.items():
                for name, keep in ((input_name, kept), (trusted_name, trusted)):
                    self._delete(report, name(relation), rows - keep[relation])
                self._drop_outputs(relation, rows, output_deltas)
            self._record_output_deltas(report, output_deltas)
            affected = defaultdict(set)
            _finish(span)

        return report

    @cached_property
    def _recursive(self) -> frozenset[str]:
        """User relations whose ``R__o`` lies in a recursive component."""
        return frozenset(
            self._output_relations[name]
            for component in stratify(self.program).components
            if component.recursive
            for name in component.predicates & self._output_relations.keys()
        )

    def _supported(
        self, relation: str, rows: set[Row]
    ) -> tuple[set[Row], set[Row]]:
        """The ``rows`` some head still derives, and those some head whose
        trust condition passes still derives."""
        kept: set[Row] = set()
        trusted: set[Row] = set()
        for table, head in self.encoding.targets_for_relation(relation):
            live = table.supported(self.db, head, rows)
            kept |= live
            condition = self.head_filters.get(head.trust_label)
            trusted.update(filter(condition, live) if condition else live)
        return kept, trusted

    def _delete(
        self, report: DeletionReport, name: str, rows: Iterable[Row]
    ) -> set[Row]:
        """One bulk removal from internal table ``name``, counted."""
        gone = self.db[name].delete_existing(rows)
        if gone:
            report._count(name, len(gone))
        return gone

    def _drop_outputs(
        self, relation: str, rows: set[Row], deltas: dict[str, set[Row]]
    ) -> None:
        """Remove from ``R__o`` the ``rows`` that lost their membership;
        record them in ``deltas`` and accumulate ``-1`` for each into the
        change stream.

        This is the ``distinct`` normalization at the output boundary:
        membership is "accumulated support is positive" (a surviving
        local contribution, or trusted-and-not-rejected), never a
        multiplicity.  Each membership test is one full-width
        ``keys_present``: an intersection with the table's row set."""
        out = self.db[output_name(relation)]
        whole = range(out.arity)
        keep = self.db[trusted_name(relation)].keys_present(whole, rows)
        keep -= self.db[rejection_name(relation)].keys_present(whole, keep)
        local = self.db[local_name(relation)].keys_present(whole, rows)
        local_filter = self.head_filters.get(LOCAL_RULE_PREFIX + relation)
        keep.update(filter(local_filter, local) if local_filter else local)
        gone = out.delete_existing(rows - keep)
        if gone:
            deltas[relation] = gone
            if self._changes is not None:
                zset = self._changes.setdefault(relation, ZSet())
                for row in gone:
                    zset.add(row, -1)

    def _record_output_deltas(
        self, report: DeletionReport, output_deltas: dict[str, set[Row]]
    ) -> None:
        for relation, rows in output_deltas.items():
            n = len(rows)
            report._count(output_name(relation), n)
            report.output_deletions[relation] = (
                report.output_deletions.get(relation, 0) + n
            )

    def _retract_doomed_provenance_rows(
        self, output_deltas: dict[str, set[Row]]
    ) -> dict[str, set[Row]]:
        """Evaluate and apply the retraction semijoins for one round.

        Returns the *effective* deletions per provenance table (rows that
        were actually present), deduplicated across occurrences: every
        semijoin reads the pre-deletion state, then each table's doomed
        rows leave through one :meth:`Instance.delete_existing
        <repro.storage.instance.Instance.delete_existing>` call.
        """
        doomed: dict[str, set[Row]] = {}
        for relation, rows in output_deltas.items():
            for table in self._readers.get(relation, ()):
                matched = table.doomed_rows(self.db, relation, rows)
                if matched:
                    doomed.setdefault(table.relation, set()).update(matched)
        removed: dict[str, set[Row]] = {}
        for name, rows in doomed.items():
            gone = self.db[name].delete_existing(rows)
            if gone:
                removed[name] = gone
        return removed


def _start(name: str) -> _tracing.Span | None:
    """Open a per-round phase span (no allocation while tracing is off)."""
    return _tracing.start(name) if _tracing.ENABLED else None


def _finish(span: _tracing.Span | None) -> None:
    if span is not None:
        _tracing.finish(span)

