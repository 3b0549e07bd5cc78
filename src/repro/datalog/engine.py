"""Stratified semi-naive datalog evaluation with Skolem functions.

This is the fixpoint engine at the heart of update exchange (Section 4.1.1:
"This basic methodology produces a program for recomputing CDSS instances,
given a datalog engine with fixpoint capabilities").  It supports:

* stratified safe negation (needed by the internal mappings of Section 3.1),
* Skolem terms in rule heads producing labeled nulls (Section 4.1.1),
* per-rule head filters, which is how trust conditions are enforced during
  derivation (Sections 3.3 and 4.2),
* full fixpoint computation (:meth:`SemiNaiveEngine.run`) and incremental
  insertion propagation from externally supplied deltas
  (:meth:`SemiNaiveEngine.run_insertions` — the insertion delta rules of
  Section 4.2), and
* a deliberately naive reference evaluator (:class:`NaiveEngine`) used by the
  test suite to cross-check the semi-naive implementation.

The engine is parameterized by a :class:`~repro.datalog.planner.Planner`,
which is where the paper's two backends (DB2-style cost-based vs.
Tukwila-style prepared plans) differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..storage.database import Database
from ..storage.instance import Instance
from .ast import Atom, DatalogError, Program, Rule
from .plan import Row, RowSource, RulePlan, run_plan
from .planner import Planner, PreparedPlanner
from .stratify import Stratification, stratify

HeadFilter = Callable[[Row], bool]
"""Predicate over a derived head row; False rejects the derivation."""

_PLAN_CACHE_LIMIT = 10_000
"""Entries the engine plan cache may hold before it is wholesale cleared
(each entry pins its Rule object; real programs sit far below this)."""


class IncrementalUnsoundError(DatalogError):
    """Insertion deltas would flow through a negated atom.

    Incremental *insertion* is only sound for positive propagation; the
    update-exchange layer routes changes to negated relations (the rejection
    tables ``R_r``) through the deletion machinery instead.
    """


@dataclass
class EvaluationResult:
    """Statistics from one engine run.

    ``rounds`` counts rule-evaluation passes actually performed: for a full
    evaluation, the initial naive pass plus every delta-driven pass; for an
    incremental run, only the delta-driven passes (a stratum whose rules are
    untouched by the seed contributes zero rounds).
    """

    rounds: int = 0
    inserted: dict[str, int] = field(default_factory=dict)
    rule_applications: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    # Always-on stratum-evaluation clocks (cheap: two perf_counter and
    # two process_time calls per stratum, not per round or rule).
    eval_wall_seconds: float = 0.0
    eval_cpu_seconds: float = 0.0

    @property
    def total_inserted(self) -> int:
        return sum(self.inserted.values())

    @property
    def plan_cache_hit_rate(self) -> float:
        """Fraction of plan requests served from the engine's plan cache."""
        probes = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / probes if probes else 0.0

    def counters(self) -> dict[str, int]:
        """The scalar counters as a dict — the single key list shared by
        exchange reports and benchmarks."""
        return {
            "rounds": self.rounds,
            "rule_applications": self.rule_applications,
            "tuples_inserted": self.total_inserted,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
            "eval_wall_seconds": self.eval_wall_seconds,
            "eval_cpu_seconds": self.eval_cpu_seconds,
        }

    @staticmethod
    def counters_delta(
        before: Mapping[str, int], after: Mapping[str, int]
    ) -> dict[str, float]:
        """Counter movement between two :meth:`counters` snapshots, with the
        derived plan-cache hit rate."""
        delta: dict[str, float] = {
            key: after[key] - before.get(key, 0) for key in after
        }
        probes = delta["plan_cache_hits"] + delta["plan_cache_misses"]
        delta["plan_cache_hit_rate"] = (
            delta["plan_cache_hits"] / probes if probes else 0.0
        )
        return delta

    def _record(self, predicate: str, count: int) -> None:
        if count:
            self.inserted[predicate] = self.inserted.get(predicate, 0) + count

    def _absorb(self, other: "EvaluationResult") -> None:
        """Accumulate ``other`` into this result (for cumulative stats)."""
        self.rounds += other.rounds
        self.rule_applications += other.rule_applications
        self.plan_cache_hits += other.plan_cache_hits
        self.plan_cache_misses += other.plan_cache_misses
        self.eval_wall_seconds += other.eval_wall_seconds
        self.eval_cpu_seconds += other.eval_cpu_seconds
        for predicate, count in other.inserted.items():
            self._record(predicate, count)


def ensure_idb_relations(program: Program, db: Database) -> None:
    """Create any missing IDB relations, with arity taken from rule heads."""
    for rule in program:
        db.ensure(rule.head.predicate, rule.head.arity)


def _check_head_arities(program: Program) -> None:
    arities: dict[str, int] = {}
    for rule in program:
        for atom in [rule.head, *rule.body]:
            known = arities.get(atom.predicate)
            if known is None:
                arities[atom.predicate] = atom.arity
            elif known != atom.arity:
                raise DatalogError(
                    f"predicate {atom.predicate!r} used with arities "
                    f"{known} and {atom.arity}"
                )


def _engine_samples(engine: "SemiNaiveEngine"):
    """Metrics collector: surface an engine's cumulative counters.

    Registered per engine via weakref (see :mod:`repro.obs.metrics`);
    samples from every live engine in the process are summed into one
    series per counter at scrape time.
    """
    stats = engine.stats
    sample = _metrics.Sample
    kind = _metrics.KIND_COUNTER
    yield sample("repro_engine_rounds_total", kind, "", (), stats.rounds)
    yield sample(
        "repro_engine_rule_applications_total",
        kind,
        "",
        (),
        stats.rule_applications,
    )
    yield sample(
        "repro_engine_tuples_inserted_total",
        kind,
        "",
        (),
        stats.total_inserted,
    )
    yield sample(
        "repro_engine_plan_cache_hits_total",
        kind,
        "",
        (),
        stats.plan_cache_hits,
    )
    yield sample(
        "repro_engine_plan_cache_misses_total",
        kind,
        "",
        (),
        stats.plan_cache_misses,
    )
    yield sample(
        "repro_engine_eval_seconds_total",
        kind,
        "",
        (),
        stats.eval_wall_seconds,
    )


class DeltaPool:
    """Persistent, reusable Δ-relations keyed by (predicate, arity).

    Contents are replaced diff-wise (:meth:`Instance.replace_contents`)
    so materialized probe indexes are maintained incrementally instead of
    rebuilt every round.  Shared by the engine and the weighted
    maintainer (via :meth:`SemiNaiveEngine.delta_instance`).
    """

    __slots__ = ("_instances",)

    def __init__(self) -> None:
        self._instances: dict[tuple[str, int], Instance] = {}

    def instance(
        self, predicate: str, arity: int, rows: Iterable[Row]
    ) -> Instance:
        key = (predicate, arity)
        delta = self._instances.get(key)
        if delta is None:
            delta = Instance(f"Δ{predicate}", arity, rows)
            self._instances[key] = delta
        else:
            delta.replace_contents(rows)
        return delta


class SemiNaiveEngine:
    """Stratified semi-naive fixpoint evaluator."""

    def __init__(
        self,
        planner: Planner | None = None,
        head_filters: Mapping[str, HeadFilter] | None = None,
    ) -> None:
        self.planner: Planner = planner if planner is not None else PreparedPlanner()
        self.head_filters: dict[str, HeadFilter] = dict(head_filters or {})
        # Planners without a token fall back to the database version
        # (conservative: any change re-plans).
        self._token_fn = getattr(self.planner, "plan_cache_token", None)
        # (id(rule), delta_index) -> (rule, plan, cache token).  The rule is
        # stored to pin its id; the token (from the planner, or the database
        # version for planners without one) invalidates stale plans.
        # id-keying avoids hashing Rule trees on the hot path, at the cost
        # of zero hits for structurally equal but freshly parsed rules —
        # _PLAN_CACHE_LIMIT bounds growth for callers that re-parse
        # programs into a long-lived engine.
        self._plan_cache: dict[
            tuple[int, int | None], tuple[Rule, RulePlan, object]
        ] = {}
        # Programs are frozen, so their validation is memoized the same
        # way: id-keyed, with the program stored to pin its id.
        # id(program) -> (program, stratification)
        self._validated: dict[int, tuple[Program, Stratification]] = {}
        # (id(program), delta predicates) -> program, once found sound
        self._sound: dict[tuple[int, frozenset[str]], Program] = {}
        # Persistent per-predicate delta relations, reused across rounds and
        # runs so their probe indexes stay warm.
        self._delta_pool = DeltaPool()
        #: Cumulative statistics across every run of this engine.
        self.stats = EvaluationResult()
        #: The :class:`EvaluationResult` of the most recent run.
        self.last_result: EvaluationResult | None = None
        _metrics.REGISTRY.register(self, _engine_samples)

    # -- helpers -----------------------------------------------------------

    def invalidate_plans(self) -> None:
        """Drop all cached plans (and the planner's own cache)."""
        self._plan_cache.clear()
        self.planner.invalidate()

    def _plan_for(
        self,
        rule: Rule,
        db: Database,
        delta_index: int | None,
        result: EvaluationResult,
        params: tuple = (),
    ) -> RulePlan:
        """Memoized ``planner.plan`` per (rule, delta occurrence).

        A cached plan is reused only while the planner's cache token is
        unchanged: prepared planners issue a constant token (their plans are
        data-independent), the cost-based planner issues the database
        version (re-planning whenever the data changed, exactly its round-
        trip-per-statement behaviour).  ``params`` are parameter variables
        (prepared-query constant slots) passed through to the planner.
        """
        token_fn = self._token_fn
        token = token_fn(db) if token_fn is not None else db.version
        key = (id(rule), delta_index)
        entry = self._plan_cache.get(key)
        if entry is not None and entry[2] == token:
            result.plan_cache_hits += 1
            return entry[1]
        plan = self.planner.plan(rule, db, delta_index, params)
        if len(self._plan_cache) >= _PLAN_CACHE_LIMIT:
            self._plan_cache.clear()
        self._plan_cache[key] = (rule, plan, token)
        result.plan_cache_misses += 1
        return plan

    def cached_plan(
        self,
        rule: Rule,
        db: Database,
        delta_index: int | None = None,
        params: tuple = (),
    ) -> RulePlan:
        """Public entry to the engine-level plan cache.

        Used by the prepared-query subsystem and the weighted maintainer,
        which plan outside a full engine run; cache hits/misses accrue directly to
        the engine's cumulative :attr:`stats`.
        """
        result = EvaluationResult()
        plan = self._plan_for(rule, db, delta_index, result, params)
        self.stats.plan_cache_hits += result.plan_cache_hits
        self.stats.plan_cache_misses += result.plan_cache_misses
        return plan

    def delta_instance(
        self, predicate: str, arity: int, rows: set[Row]
    ) -> Instance:
        """The reusable Δ-relation for ``predicate``, swapped to ``rows``
        (see :class:`DeltaPool`).  Public so the weighted maintainer shares
        the same persistent Δ pool."""
        return self._delta_pool.instance(predicate, arity, rows)

    def _finish(self, result: EvaluationResult) -> EvaluationResult:
        self.last_result = result
        self.stats._absorb(result)
        return result

    def _filter_for(self, rule: Rule) -> HeadFilter | None:
        if rule.label is None:
            return None
        return self.head_filters.get(rule.label)

    def _evaluate_rule(
        self,
        rule: Rule,
        db: Database,
        delta_index: int | None,
        delta_source: RowSource | None,
        result: EvaluationResult,
    ) -> list[Row]:
        """Evaluate one rule (optionally with a delta occurrence), returning
        the fully materialized list of derived head rows."""
        plan = self._plan_for(rule, db, delta_index, result)
        result.rule_applications += 1

        def resolve(index: int, atom: Atom) -> RowSource:
            if index == delta_index and delta_source is not None:
                return delta_source
            if atom.predicate in db:
                return db[atom.predicate]
            return _EMPTY_SOURCE

        if not _tracing.ENABLED:
            return run_plan(plan, resolve, self._filter_for(rule))
        span = _tracing.start(
            "rule-evaluation",
            head=rule.head.predicate,
            delta_index=delta_index,
        )
        rows = run_plan(plan, resolve, self._filter_for(rule))
        span.rows = len(rows)
        _tracing.finish(span)
        return rows

    # -- full evaluation -----------------------------------------------------

    def _validate(self, program: Program) -> Stratification:
        """Safety, arity and stratification checks, once per program."""
        entry = self._validated.get(id(program))
        if entry is not None and entry[0] is program:
            return entry[1]
        program.check_safety()
        _check_head_arities(program)
        stratification = stratify(program)
        if len(self._validated) >= _PLAN_CACHE_LIMIT:
            self._validated.clear()
        self._validated[id(program)] = (program, stratification)
        return stratification

    def run(self, program: Program, db: Database) -> EvaluationResult:
        """Evaluate ``program`` to fixpoint over ``db`` (inserting tuples)."""
        stratification = self._validate(program)
        ensure_idb_relations(program, db)
        result = EvaluationResult()
        for stratum in stratification.strata:
            self._run_stratum(list(stratum), db, result, seed=None)
        return self._finish(result)

    def run_insertions(
        self,
        program: Program,
        db: Database,
        inserted: Mapping[str, Iterable[Row]],
    ) -> dict[str, set[Row]]:
        """Propagate externally inserted tuples to fixpoint.

        ``inserted`` maps predicate names to rows that have *already been
        inserted* into ``db``.  Returns every newly derived row per
        predicate (not including the seed rows).  Raises
        :class:`IncrementalUnsoundError` if the deltas could reach a negated
        atom occurrence (see class docstring).
        """
        stratification = self._validate(program)
        ensure_idb_relations(program, db)
        key = (id(program), frozenset(inserted))
        if self._sound.get(key) is not program:
            self._check_insertion_soundness(program, set(inserted))
            if len(self._sound) >= _PLAN_CACHE_LIMIT:
                self._sound.clear()
            self._sound[key] = program

        all_new: dict[str, set[Row]] = {
            pred: set(map(tuple, rows)) for pred, rows in inserted.items()
        }
        derived: dict[str, set[Row]] = {}
        result = EvaluationResult()
        for stratum in stratification.strata:
            seed = {pred: set(rows) for pred, rows in all_new.items() if rows}
            new_in_stratum = self._run_stratum(
                list(stratum), db, result, seed=seed
            )
            for pred, rows in new_in_stratum.items():
                all_new.setdefault(pred, set()).update(rows)
                derived.setdefault(pred, set()).update(rows)
        self._finish(result)
        return derived

    def _check_insertion_soundness(
        self, program: Program, delta_preds: set[str]
    ) -> None:
        # Predicates transitively derivable from the deltas.
        reachable = set(delta_preds)
        changed = True
        while changed:
            changed = False
            for rule in program:
                if rule.head.predicate in reachable:
                    continue
                if any(
                    not atom.negated and atom.predicate in reachable
                    for atom in rule.body
                ):
                    reachable.add(rule.head.predicate)
                    changed = True
        for rule in program:
            for atom in rule.body:
                if atom.negated and atom.predicate in reachable:
                    raise IncrementalUnsoundError(
                        f"insertion delta reaches negated atom {atom!r} in "
                        f"rule {rule!r}; route this change through the "
                        "deletion machinery instead"
                    )

    # -- stratum loop ---------------------------------------------------------

    def _run_stratum(
        self,
        rules: list[Rule],
        db: Database,
        result: EvaluationResult,
        seed: dict[str, set[Row]] | None,
    ) -> dict[str, set[Row]]:
        """Run one stratum to fixpoint.

        ``seed=None`` means full evaluation (a naive first pass seeds the
        deltas); otherwise ``seed`` supplies the initial deltas and only
        delta-driven derivations run.  Returns all rows newly inserted by
        this stratum.

        Round accounting is exact: the initial naive pass counts as one
        round, and each delta-driven pass as one more.  Deltas for
        predicates no rule body in this stratum reads are dropped up front,
        so a stratum untouched by the seed contributes zero rounds.

        The whole stratum runs inside one index-maintenance deferral scope
        (a no-op under the eager policy): derived-table inserts only append
        maintenance runs, indexes the stratum actually probes catch up in
        batched passes, and the scope exit is the flush barrier — so the
        database leaves every stratum with fully synchronized indexes.
        """
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        span = (
            _tracing.start("stratum", rules=len(rules))
            if _tracing.ENABLED
            else None
        )
        try:
            with db.defer_maintenance():
                new_total = self._run_stratum_deferred(
                    rules, db, result, seed
                )
            if span is not None:
                span.rows = sum(len(rows) for rows in new_total.values())
            return new_total
        finally:
            if span is not None:
                _tracing.finish(span)
            result.eval_wall_seconds += time.perf_counter() - wall0
            result.eval_cpu_seconds += time.process_time() - cpu0

    def _run_stratum_deferred(
        self,
        rules: list[Rule],
        db: Database,
        result: EvaluationResult,
        seed: dict[str, set[Row]] | None,
    ) -> dict[str, set[Row]]:
        new_total: dict[str, set[Row]] = {}
        delta_sets: dict[str, set[Row]] = {}
        body_preds = {
            atom.predicate
            for rule in rules
            for atom in rule.body
            if not atom.negated
        }

        def stratum_relevant(
            deltas: dict[str, set[Row]]
        ) -> dict[str, set[Row]]:
            return {
                pred: rows
                for pred, rows in deltas.items()
                if rows and pred in body_preds
            }

        rounds = 0
        if seed is None:
            rounds = 1 if rules else 0
            for rule in rules:
                rows = self._evaluate_rule(rule, db, None, None, result)
                added = db[rule.head.predicate].insert_new(rows)
                if added:
                    delta_sets.setdefault(
                        rule.head.predicate, set()
                    ).update(added)
            for pred, rows in delta_sets.items():
                new_total.setdefault(pred, set()).update(rows)
            delta_sets = stratum_relevant(delta_sets)
        else:
            delta_sets = stratum_relevant(
                {pred: set(rows) for pred, rows in seed.items()}
            )

        while delta_sets:
            rounds += 1
            round_span = (
                _tracing.start("round", number=rounds)
                if _tracing.ENABLED
                else None
            )
            next_deltas = self._run_round(rules, db, delta_sets, result)
            if round_span is not None:
                round_span.rows = sum(
                    len(rows) for rows in next_deltas.values()
                )
                _tracing.finish(round_span)
            for pred, rows in next_deltas.items():
                new_total.setdefault(pred, set()).update(rows)
            delta_sets = stratum_relevant(next_deltas)

        result.rounds += rounds
        for pred, rows in new_total.items():
            result._record(pred, len(rows))
        return new_total

    def _run_round(
        self,
        rules: list[Rule],
        db: Database,
        delta_sets: dict[str, set[Row]],
        result: EvaluationResult,
    ) -> dict[str, set[Row]]:
        """One delta-driven pass over the stratum's rules."""
        deltas = {
            pred: self.delta_instance(
                pred,
                db[pred].arity if pred in db else len(next(iter(rows))),
                rows,
            )
            for pred, rows in delta_sets.items()
        }
        next_deltas: dict[str, set[Row]] = {}
        for rule in rules:
            for index, atom in enumerate(rule.body):
                if atom.negated:
                    continue
                delta_source = deltas.get(atom.predicate)
                if delta_source is None:
                    continue
                rows = self._evaluate_rule(
                    rule, db, index, delta_source, result
                )
                added = db[rule.head.predicate].insert_new(rows)
                if added:
                    next_deltas.setdefault(
                        rule.head.predicate, set()
                    ).update(added)
        return next_deltas


class NaiveEngine:
    """Reference evaluator: repeat full rule passes until no change.

    Quadratically slower than :class:`SemiNaiveEngine` but trivially correct;
    the property-based tests check both engines agree on random programs.
    """

    def __init__(
        self,
        planner: Planner | None = None,
        head_filters: Mapping[str, HeadFilter] | None = None,
    ) -> None:
        self._inner = SemiNaiveEngine(planner, head_filters)

    def run(self, program: Program, db: Database) -> EvaluationResult:
        program.check_safety()
        _check_head_arities(program)
        ensure_idb_relations(program, db)
        stratification = stratify(program)
        result = EvaluationResult()
        for stratum in stratification.strata:
            rules = list(stratum)
            changed = True
            while changed:
                changed = False
                result.rounds += 1
                for rule in rules:
                    rows = self._inner._evaluate_rule(
                        rule, db, None, None, result
                    )
                    target = db[rule.head.predicate]
                    for row in rows:
                        if target.insert(row):
                            result._record(rule.head.predicate, 1)
                            changed = True
        return self._inner._finish(result)


class _EmptySource:
    """A permanently empty relation (for predicates absent from the db)."""

    __slots__ = ()

    def __iter__(self):
        return iter(())

    def __contains__(self, row: object) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def lookup(self, columns, values) -> frozenset[Row]:
        return frozenset()


_EMPTY_SOURCE = _EmptySource()
