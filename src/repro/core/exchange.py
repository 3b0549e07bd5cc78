"""The update-exchange engine: full and incremental computation of a
consistent CDSS state (Sections 3 and 4).

:class:`ExchangeSystem` owns the internal database (edb tables ``R__l`` /
``R__r``, derived tables ``R__i`` / ``R__t`` / ``R__o``, and provenance
tables), the compiled internal program, and the trust filters.  Two
maintenance strategies remain:

* ``unified``   — the weighted Z-set delta core
  (:class:`~repro.core.weighted.WeightedMaintainer`): insertions,
  deletions, and trust revocations all flow as signed deltas through one
  compiled-plan operator pass;
* ``recompute`` — clear all derived state and re-run the fixpoint from
  the edbs (the "complete recomputation" baseline).

After any strategy the database is in a *consistent state* (Definition 3.1
as amended by the erratum: the instance computed by the chase/datalog
program from the current edbs) — a property the test suite checks by
cross-strategy comparison.

Maintained views are also *subscribable*: :meth:`ExchangeSystem.subscribe`
turns on change capture, after which every publish appends a versioned
batch of per-relation ``R__o`` Z-set deltas to the change log —
:meth:`ExchangeSystem.changes_since` serves any cursor at or above the
log's floor (and tells an older one to resynchronize), and the serving
tier surfaces it as ``GET /changes?since=<version>``.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping

from ..datalog.ast import Program, tuple_has_labeled_null
from ..datalog.engine import EvaluationResult, SemiNaiveEngine
from ..datalog.planner import Planner
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..provenance.relations import ENCODING_COMPOSITE, ProvenanceEncoding
from ..provenance.trust import TrustPolicy, exchange_head_filters
from ..schema.internal import (
    InternalSchema,
    input_name,
    local_name,
    output_name,
    rejection_name,
    trusted_name,
)
from ..schema.tgd import SchemaMapping
from ..storage.database import Database
from ..storage.instance import Row
from ..storage.zset import ZSet, apply_zset
from .weighted import WeightedMaintainer

STRATEGY_UNIFIED = "unified"
STRATEGY_RECOMPUTE = "recompute"
STRATEGIES = (STRATEGY_UNIFIED, STRATEGY_RECOMPUTE)

#: Versioned change batches retained for subscribers.  Trimming raises
#: the change log's floor, so a cursor older than the window is told to
#: resynchronize rather than handed the retained tail.
CHANGELOG_RETENTION = 4096


class ExchangeError(Exception):
    """Raised on invalid exchange operations."""


def check_strategy(strategy: str) -> str:
    """Return ``strategy`` if it names a maintenance strategy, else raise
    :class:`ExchangeError` listing the valid ones."""
    if strategy in STRATEGIES:
        return strategy
    hint = (
        "; insertion and deletion maintenance are one weighted "
        f"maintainer, use {STRATEGY_UNIFIED!r}"
        if strategy in ("incremental", "dred")
        else ""
    )
    raise ExchangeError(
        f"unknown strategy {strategy!r}; expected one of {STRATEGIES}{hint}"
    )


def check_negation(strategy: str, mappings: Iterable[SchemaMapping]) -> None:
    """Raise :class:`ExchangeError` if ``strategy`` cannot maintain one of
    ``mappings``.

    The unified maintainer's retraction side is monotone, and a negated
    body atom makes deletion non-monotone (deleting from ``S`` can add to
    ``T`` in ``R(x), not S(x) -> T(x)``); only recomputation handles it.
    """
    if strategy != STRATEGY_UNIFIED:
        return
    for mapping in mappings:
        if any(atom.negated for atom in mapping.lhs):
            raise ExchangeError(
                f"mapping {mapping.name!r} has a negated body atom, which "
                f"the {STRATEGY_UNIFIED!r} strategy cannot maintain; use "
                f'strategy="{STRATEGY_RECOMPUTE}"'
            )


@dataclass(frozen=True)
class ChangeBatch:
    """One publish's maintained-view delta, at a version cursor.

    ``changes`` maps user relation names to the signed Z-set of their
    ``R__o`` output-table changes (``+1`` rows that appeared, ``-1``
    rows that left).  An empty ``changes`` dict is a publish that
    changed no output — still versioned, so cursors always advance.
    """

    version: int
    changes: dict[str, ZSet]


_batch_version = attrgetter("version")


class Subscription:
    """A change-stream cursor over one :class:`ExchangeSystem`.

    Holding at least one open subscription is what turns change capture
    on (unsubscribed systems pay nothing for it).  :meth:`poll` returns
    the batches published since the previous poll and advances the
    cursor.
    """

    __slots__ = ("_system", "cursor", "_closed")

    def __init__(self, system: "ExchangeSystem") -> None:
        self._system = system
        self.cursor = system.version
        self._closed = False

    def poll(self) -> list[ChangeBatch]:
        """Batches appended since the last poll (advances the cursor).

        Raises :class:`ExchangeError` once the cursor has fallen below
        the change log's floor: the batches in between are gone.
        """
        version, batches = self._system.changes_since(self.cursor)
        if batches is None:
            raise ExchangeError(
                f"cursor {self.cursor} lies before the change log's floor "
                f"{self._system.floor}; resynchronize from the current state"
            )
        self.cursor = version
        return batches

    def close(self) -> None:
        """Detach; capture stops when the last subscription closes."""
        if not self._closed:
            self._closed = True
            self._system._subscriptions.discard(self)

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"cursor={self.cursor}"
        return f"<Subscription {state}>"


@dataclass
class ExchangeReport:
    """Summary of one update-exchange operation."""

    strategy: str
    seconds: float = 0.0
    inserted: int = 0
    deleted: int = 0
    details: dict[str, object] = field(default_factory=dict)
    #: Total CPU seconds of the operation (process-wide clock).
    cpu_seconds: float = 0.0
    #: Per-phase timing: ``{"evaluate": {"wall_seconds": float,
    #: "cpu_seconds": float}}``, rule evaluation to fixpoint.  Always
    #: populated — sourced from the engine's always-on phase clock, not
    #: from opt-in tracing.
    phases: dict[str, dict[str, float]] = field(default_factory=dict)


def _exchange_samples(system: "ExchangeSystem"):
    """Metrics collector: exchange publishes + the owned database's index
    builds (weakref-registered, summed across live systems at scrape
    time)."""
    sample = _metrics.Sample
    kind = _metrics.KIND_COUNTER
    yield sample(
        "repro_exchange_publishes_total", kind, "", (), system.publishes
    )
    yield sample(
        "repro_index_rebuilds_total",
        kind,
        "",
        (),
        system.db.index_stats()["rebuilds"],
    )


class ExchangeSystem:
    """Update exchange over one internal schema + provenance encoding."""

    def __init__(
        self,
        internal: InternalSchema,
        policies: Mapping[str, TrustPolicy] | None = None,
        planner: Planner | None = None,
        encoding_style: str = ENCODING_COMPOSITE,
        perspective: str | None = None,
        db: Database | None = None,
    ) -> None:
        self.internal = internal
        self.policies: dict[str, TrustPolicy] = dict(policies or {})
        self.perspective = perspective
        self.encoding = ProvenanceEncoding(internal, style=encoding_style)
        self.program: Program = self.encoding.full_program()
        self.head_filters = exchange_head_filters(
            internal, self.encoding, self.policies, perspective
        )
        self.engine = SemiNaiveEngine(planner, head_filters=self.head_filters)
        self.db = db if db is not None else Database()
        self.encoding.setup_database(self.db)
        self._maintainer = WeightedMaintainer(
            self.db, self.encoding, self.program, self.engine
        )
        # Change-stream state: capture runs only while at least one
        # subscription is open (see subscribe()).
        self._subscriptions: set[Subscription] = set()
        self._changelog: list[ChangeBatch] = []
        self._version = 0
        self._floor = 0
        #: Publishes applied through :meth:`apply_delta` (cumulative).
        self.publishes = 0
        _metrics.REGISTRY.register(self, _exchange_samples)

    # -- state access ----------------------------------------------------------

    def instance(self, relation: str) -> frozenset[Row]:
        """The local instance of a user relation (its ``R__o`` table)."""
        return self.db[output_name(relation)].rows()

    def output_table(self, relation: str):
        """The live ``R__o`` :class:`~repro.storage.instance.Instance`.

        This is the indexed table that pushdown predicates probe (the
        relation-view ``where`` fast path); treat it as read-only.
        """
        return self.db[output_name(relation)]

    def certain_instance(self, relation: str) -> frozenset[Row]:
        """The local instance with labeled-null rows dropped."""
        return frozenset(
            row
            for row in self.instance(relation)
            if not tuple_has_labeled_null(row)
        )

    def local_contributions(self, relation: str) -> frozenset[Row]:
        return self.db[local_name(relation)].rows()

    def rejections(self, relation: str) -> frozenset[Row]:
        return self.db[rejection_name(relation)].rows()

    def input_instance(self, relation: str) -> frozenset[Row]:
        return self.db[input_name(relation)].rows()

    def trusted_instance(self, relation: str) -> frozenset[Row]:
        return self.db[trusted_name(relation)].rows()

    def snapshot_outputs(self) -> dict[str, frozenset[Row]]:
        return {
            relation: self.instance(relation)
            for relation in self.internal.relation_names()
        }

    def total_tuples(self) -> int:
        return self.db.total_rows()

    def estimated_bytes(self) -> int:
        return self.db.estimated_bytes()

    # -- change subscriptions --------------------------------------------------

    @property
    def version(self) -> int:
        """The current change-stream version (one tick per captured publish)."""
        return self._version

    def subscribe(self) -> Subscription:
        """Open a maintained-view change stream over this system.

        Returns a :class:`Subscription` whose cursor starts *now*: only
        changes applied after the subscribe call are delivered (capture
        is off while nobody subscribes, so there is no history to
        replay).  Close it when done; capture stops with the last open
        subscription.
        """
        subscription = Subscription(self)
        self._subscriptions.add(subscription)
        return subscription

    @property
    def capturing(self) -> bool:
        """Whether a publish now lands in the change log and ticks
        :attr:`version`: some subscription is open."""
        return bool(self._subscriptions)

    @property
    def floor(self) -> int:
        """The oldest cursor the change log answers in full: it holds a
        batch for every version after the floor."""
        return self._floor

    def restore_version(self, version: int) -> None:
        """Seed the change-stream version after recovery.

        A recovered node must hand out version numbers that continue the
        pre-crash sequence — clients hold cursors against it.  The change
        log itself is not restored: a recovered node derives its state in
        one pass, which has no per-publish batches.  So the floor rises to
        ``version``, and an older cursor is told to resynchronize.
        """
        if version < self._version:
            raise ValueError(
                f"cannot move change-stream version backwards "
                f"({self._version} -> {version})"
            )
        self._version = self._floor = int(version)

    def changes_since(
        self, since: int
    ) -> tuple[int, list[ChangeBatch] | None]:
        """``(current version, batches with version > since)``.

        The stateless-cursor read the serving tier's ``/changes`` route
        wraps: clients remember the returned version and pass it back.
        The batches are ``None`` when ``since`` lies below :attr:`floor`
        (trimmed by retention, or from before a restart): the log can no
        longer answer that cursor, and its holder must resynchronize from
        the current state.  Versions increase along the log, so the cut
        is a binary search, not a scan of the whole window.
        """
        if since < self._floor:
            return self._version, None
        log = self._changelog
        start = bisect_right(log, since, key=_batch_version)
        return self._version, log[start:]

    def _append_changes(self, changes: dict[str, ZSet]) -> None:
        self._version += 1
        self._changelog.append(ChangeBatch(self._version, changes))
        if len(self._changelog) > CHANGELOG_RETENTION:
            del self._changelog[: len(self._changelog) - CHANGELOG_RETENTION]
            self._floor = self._changelog[0].version - 1

    def _diff_outputs(
        self, before: Mapping[str, frozenset[Row]]
    ) -> dict[str, ZSet]:
        """Output-table deltas vs. a snapshot (the recompute capture path:
        a full re-derivation has no row-level delta to report)."""
        changes: dict[str, ZSet] = {}
        for relation, old_rows in before.items():
            new_rows = self.instance(relation)
            zset = ZSet.from_rows(new_rows - old_rows, 1)
            zset.merge(ZSet.from_rows(old_rows - new_rows, -1))
            if zset:
                changes[relation] = zset
        return changes

    # -- full recomputation --------------------------------------------------------

    def recompute(self) -> ExchangeReport:
        """Clear all derived state; re-run the fixpoint from the edbs."""
        start = time.perf_counter()
        cpu_start = time.process_time()
        outputs_before = (
            self.snapshot_outputs() if self._subscriptions else None
        )
        for relation in self.internal.relation_names():
            for derived in (
                input_name(relation),
                trusted_name(relation),
                output_name(relation),
            ):
                self.db[derived].clear()
        for name in self.encoding.provenance_relation_names():
            self.db[name].clear()
        self.engine.invalidate_plans()
        result = self.engine.run(self.program, self.db)
        if outputs_before is not None:
            self._append_changes(self._diff_outputs(outputs_before))
        return ExchangeReport(
            strategy=STRATEGY_RECOMPUTE,
            seconds=time.perf_counter() - start,
            cpu_seconds=time.process_time() - cpu_start,
            inserted=result.total_inserted,
            details={
                "rounds": result.rounds,
                "evaluation": EvaluationResult.counters_delta(
                    {}, result.counters()
                ),
            },
            phases={
                "evaluate": {
                    "wall_seconds": result.eval_wall_seconds,
                    "cpu_seconds": result.eval_cpu_seconds,
                }
            },
        )

    # -- incremental application -----------------------------------------------------

    def apply_delta(
        self,
        local: Mapping[str, ZSet],
        rejections: Mapping[str, ZSet],
        strategy: str = STRATEGY_UNIFIED,
    ) -> ExchangeReport:
        """Apply a published delta with the chosen maintenance strategy.

        ``local`` and ``rejections`` are :func:`~repro.core.editlog.publish`'s
        output: per user relation, the signed Z-set over its ``R__l`` and
        its ``R__r``.
        """
        check_strategy(strategy)
        start = time.perf_counter()
        cpu_start = time.process_time()
        stats_before = self.engine.stats.counters()
        span = (
            _tracing.start(
                "exchange", strategy=strategy, perspective=self.perspective
            )
            if _tracing.ENABLED
            else None
        )
        try:
            if strategy == STRATEGY_RECOMPUTE:
                # recompute() fills details["evaluation"] from its own run
                # and captures the change batch by output-snapshot diff.
                report = self._apply_by_recompute(local, rejections)
            else:
                changes = {} if self._subscriptions else None
                try:
                    deletion_report, unreject_report, insert_report = (
                        self._maintainer.apply(local, rejections, changes)
                    )
                finally:
                    if changes is not None:
                        self._append_changes(
                            {r: z for r, z in changes.items() if z}
                        )
                report = ExchangeReport(
                    strategy=strategy,
                    inserted=insert_report.total_derived
                    + unreject_report.total_derived,
                    deleted=deletion_report.total_deleted,
                    details={
                        "deletion": deletion_report,
                        "insertion": insert_report,
                    },
                )
                report.details["evaluation"] = (
                    EvaluationResult.counters_delta(
                        stats_before, self.engine.stats.counters()
                    )
                )
        except BaseException:
            if span is not None:
                _tracing.finish(span)
            raise
        evaluation = report.details.get("evaluation", {})
        report.phases = {
            "evaluate": {
                "wall_seconds": evaluation.get("eval_wall_seconds", 0.0),
                "cpu_seconds": evaluation.get("eval_cpu_seconds", 0.0),
            },
        }
        if span is not None:
            span.rows = report.inserted + report.deleted
            _tracing.finish(span)
        self.publishes += 1
        report.seconds = time.perf_counter() - start
        report.cpu_seconds = time.process_time() - cpu_start
        return report

    def _apply_by_recompute(
        self,
        local: Mapping[str, ZSet],
        rejections: Mapping[str, ZSet],
    ) -> ExchangeReport:
        self.apply_inputs(local, rejections)
        return self.recompute()

    def apply_inputs(
        self,
        local: Mapping[str, ZSet],
        rejections: Mapping[str, ZSet],
    ) -> None:
        """Fold a published delta into ``R__l`` / ``R__r`` only, leaving
        the derived state behind until the next :meth:`recompute`."""
        for relation, zset in local.items():
            apply_zset(self.db[local_name(relation)], zset)
        for relation, zset in rejections.items():
            apply_zset(self.db[rejection_name(relation)], zset)

    # -- consistency (used heavily by tests) -------------------------------------------

    def is_consistent(self) -> bool:
        """Check Definition 3.1: derived state equals a fresh fixpoint from
        the current edbs."""
        reference = ExchangeSystem(
            self.internal,
            self.policies,
            encoding_style=self.encoding.style,
            perspective=self.perspective,
        )
        for relation in self.internal.relation_names():
            reference.db[local_name(relation)].insert_many(
                self.db[local_name(relation)]
            )
            reference.db[rejection_name(relation)].insert_many(
                self.db[rejection_name(relation)]
            )
        reference.recompute()
        for name in self.db.relation_names():
            other = reference.db.get(name)
            if other is None or other.rows() != self.db[name].rows():
                return False
        return True
