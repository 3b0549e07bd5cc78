"""Component-ordered semi-naive datalog evaluation with Skolem functions.

This is the fixpoint engine at the heart of update exchange (Section 4.1.1:
"This basic methodology produces a program for recomputing CDSS instances,
given a datalog engine with fixpoint capabilities").  It supports:

* stratified safe negation (needed by the internal mappings of Section 3.1),
  with rules evaluated one strongly connected component at a time, in
  topological order (fixpoint rounds only inside recursive components),
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
from .ast import Atom, DatalogError, Program, Rule, Variable
from .plan import Row, RowSource, RulePlan, run_plan
from .planner import Planner, PreparedPlanner
from .stratify import Component, stratify, twin_groups

HeadFilter = Callable[[Row], bool]
"""Predicate over a derived head row; False rejects the derivation."""

Params = Mapping[Variable, object]
"""Parameter bindings of one run: each rule's plan takes the variables it
mentions as constant slots (see :attr:`~repro.datalog.plan.RulePlan.params`)."""

_NO_PARAMS: Params = {}

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

    ``rounds`` counts evaluation passes actually performed: one per
    non-recursive component evaluated, and one per naive or Δ-driven pass
    inside a recursive component (a component untouched by an incremental
    run's seed contributes zero).  It is not a cost proxy —
    ``rule_applications`` is.
    """

    rounds: int = 0
    inserted: dict[str, int] = field(default_factory=dict)
    rule_applications: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    # Always-on evaluation clocks (cheap: two perf_counter and two
    # process_time calls per run, not per component, round or rule).
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
    rebuilt every round.  The engine empties the pool at the end of every
    run (:meth:`release`), so no Δ outlives the run that built it.
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

    def release(self) -> None:
        """Empty every pooled Δ-instance, keeping its index definitions."""
        for delta in self._instances.values():
            if len(delta):
                delta.replace_contents(())


class SemiNaiveEngine:
    """Component-ordered semi-naive fixpoint evaluator."""

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
        # (id(program), parameter variables)
        #     -> (program, components in order, twin groups)
        self._validated: dict[tuple[int, frozenset], tuple] = {}
        # (id(program), delta predicates) -> program, once found sound
        self._sound: dict[tuple[int, frozenset[str]], Program] = {}
        # Persistent per-predicate delta relations, reused across rounds and
        # runs so their probe indexes stay warm.
        self._delta_pool = DeltaPool()
        # Each twin group's unfiltered head rows per Δ occurrence, kept for
        # the current run only (emptied when it ends, like the pool).
        self._shared: dict[tuple, set[Row]] = {}
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

        Used by the prepared-query subsystem, which plans outside a full
        engine run; cache hits/misses accrue directly to the engine's
        cumulative :attr:`stats`.
        """
        result = EvaluationResult()
        plan = self._plan_for(rule, db, delta_index, result, params)
        self.stats.plan_cache_hits += result.plan_cache_hits
        self.stats.plan_cache_misses += result.plan_cache_misses
        return plan

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
        row_filter: HeadFilter | None,
        params: Params = _NO_PARAMS,
    ) -> list[Row]:
        """Evaluate one rule (optionally with a delta occurrence), returning
        the fully materialized list of head rows that pass ``row_filter``.
        The rule's plan binds the ``params`` variables it mentions."""
        if params:
            variables = tuple(var for var in params if var in rule.variables())
            values = tuple(params[var] for var in variables)
        else:
            variables = values = ()
        plan = self._plan_for(rule, db, delta_index, result, variables)
        result.rule_applications += 1

        def resolve(index: int, atom: Atom) -> RowSource:
            if index == delta_index and delta_source is not None:
                return delta_source
            if atom.predicate in db:
                return db[atom.predicate]
            return _EMPTY_SOURCE

        if not _tracing.ENABLED:
            return run_plan(plan, resolve, row_filter, values)
        span = _tracing.start(
            "rule-evaluation",
            head=rule.head.predicate,
            delta_index=delta_index,
        )
        rows = run_plan(plan, resolve, row_filter, values)
        span.rows = len(rows)
        _tracing.finish(span)
        return rows

    # -- full evaluation -----------------------------------------------------

    def _validate(
        self, program: Program, params: Params = _NO_PARAMS
    ) -> tuple[tuple[Component, ...], dict[int, Rule]]:
        """Safety (``params`` count as bound), arity and stratification
        checks, once per program; returns its components in evaluation
        order and its twin groups."""
        key = (id(program), frozenset(params))
        entry = self._validated.get(key)
        if entry is not None and entry[0] is program:
            return entry[1:]
        program.check_safety(params)
        _check_head_arities(program)
        components = stratify(program).components
        if len(self._validated) >= _PLAN_CACHE_LIMIT:
            self._validated.clear()
        entry = (program, components, twin_groups(components))
        self._validated[key] = entry
        return entry[1:]

    def run(
        self, program: Program, db: Database, params: Params = _NO_PARAMS
    ) -> EvaluationResult:
        """Evaluate ``program`` to fixpoint over ``db`` (inserting tuples).

        ``params`` binds parameter variables.  They fill plan slots, as in
        a prepared query, so a run with new values re-plans nothing."""
        components, twins = self._validate(program, params)
        ensure_idb_relations(program, db)
        result = EvaluationResult()
        self._run_components(components, twins, db, result, None, params)
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
        components, twins = self._validate(program)
        ensure_idb_relations(program, db)
        key = (id(program), frozenset(inserted))
        if self._sound.get(key) is not program:
            self._check_insertion_soundness(components, set(inserted))
            if len(self._sound) >= _PLAN_CACHE_LIMIT:
                self._sound.clear()
            self._sound[key] = program

        seed = {pred: set(map(tuple, rows)) for pred, rows in inserted.items()}
        result = EvaluationResult()
        derived = self._run_components(components, twins, db, result, seed)
        self._finish(result)
        return derived

    def _check_insertion_soundness(
        self, components: tuple[Component, ...], delta_preds: set[str]
    ) -> None:
        # Predicates transitively derivable from the deltas: components
        # arrive in topological order, so one pass settles reachability.
        reachable = set(delta_preds)
        for component in components:
            if not reachable.isdisjoint(component.inputs):
                reachable |= component.predicates
        for component in components:
            for rule in component.rules:
                for atom in rule.body:
                    if atom.negated and atom.predicate in reachable:
                        raise IncrementalUnsoundError(
                            f"insertion delta reaches negated atom {atom!r} "
                            f"in rule {rule!r}; route this change through "
                            "the deletion machinery instead"
                        )

    # -- component loop -------------------------------------------------------

    def _run_components(
        self,
        components: tuple[Component, ...],
        twins: dict[int, Rule],
        db: Database,
        result: EvaluationResult,
        seed: dict[str, set[Row]] | None,
        params: Params = _NO_PARAMS,
    ) -> dict[str, set[Row]]:
        """Evaluate every component once, in topological order.

        ``seed=None`` is full evaluation: each component starts with a
        naive pass.  Otherwise ``seed`` holds rows already in ``db``, only
        Δ-driven evaluations run, and a component none of whose inputs has
        a Δ is skipped.  Components below the running one are final, so
        each predicate's final Δ-instance is built once per run and shared
        by every reader, and each twin group runs one plan per Δ
        occurrence.  The pooled Δ-instances and shared head rows are
        emptied when the run ends.  Returns every row the run inserted, per predicate.
        """
        new = {pred: rows for pred, rows in (seed or {}).items() if rows}
        derived: dict[str, set[Row]] = {}
        finals: dict[str, Instance] = {}
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            for component in components:
                deltas = None
                if seed is not None:
                    if new.keys().isdisjoint(component.inputs):
                        continue
                    deltas = {}
                    for pred in component.inputs & new.keys():
                        if pred not in finals:
                            finals[pred] = self._delta_pool.instance(
                                pred, db[pred].arity, new[pred]
                            )
                        deltas[pred] = finals[pred]
                added = self._run_component(
                    component, twins, db, result, deltas, params
                )
                for pred, rows in added.items():
                    # A recursive component swapped its own Δ-instances.
                    finals.pop(pred, None)
                    derived[pred] = rows
                    if pred in new:
                        new[pred] |= rows
                    else:
                        new[pred] = rows
        finally:
            self._delta_pool.release()
            self._shared.clear()
            result.eval_wall_seconds += time.perf_counter() - wall0
            result.eval_cpu_seconds += time.process_time() - cpu0
        for pred, rows in derived.items():
            result._record(pred, len(rows))
        return derived

    def _run_component(
        self,
        component: Component,
        twins: dict[int, Rule],
        db: Database,
        result: EvaluationResult,
        deltas: dict[str, Instance] | None,
        params: Params,
    ) -> dict[str, set[Row]]:
        """Evaluate one component; return the rows it inserted.

        The first pass is naive (``deltas=None``) or runs one evaluation
        per (rule, Δ-carrying positive occurrence).  That is all a
        non-recursive component needs: no fixpoint test, no Δ swaps.  A
        recursive one runs semi-naive rounds over its own Δ until a round
        adds nothing; ``round`` spans exist only there.
        """
        recursive = component.recursive
        span = (
            _tracing.start(
                "component", recursive=recursive, rules=len(component.rules)
            )
            if _tracing.ENABLED
            else None
        )
        total: dict[str, set[Row]] = {}
        number = 0
        while True:
            number += 1
            round_span = (
                _tracing.start("round", number=number)
                if recursive and span is not None
                else None
            )
            added = self._pass(
                component.rules, twins, db, result, deltas, params
            )
            result.rounds += 1
            if round_span is not None:
                round_span.rows = sum(map(len, added.values()))
                _tracing.finish(round_span)
            for pred, rows in added.items():
                if pred in total:
                    total[pred] |= rows
                else:
                    total[pred] = rows
            if not (recursive and added):
                break
            deltas = {
                pred: self._delta_pool.instance(pred, db[pred].arity, rows)
                for pred, rows in added.items()
            }
        if span is not None:
            span.rows = sum(map(len, total.values()))
            _tracing.finish(span)
        return total

    def _pass(
        self,
        rules: tuple[Rule, ...],
        twins: dict[int, Rule],
        db: Database,
        result: EvaluationResult,
        deltas: Mapping[str, Instance] | None,
        params: Params,
    ) -> dict[str, set[Row]]:
        """One evaluation of ``rules``, inserting what it derives: naive
        when ``deltas`` is None, else once per positive occurrence whose
        predicate ``deltas`` carries.  A rule with ``twins`` reuses their
        head rows when one has run, and applies only its own head filter.
        Returns the genuinely new rows per head predicate."""
        added: dict[str, set[Row]] = {}
        for rule in rules:
            if deltas is None:
                occurrences: Iterable[tuple] = ((None, None),)
            else:
                occurrences = [
                    (index, deltas[atom.predicate])
                    for index, atom in enumerate(rule.body)
                    if not atom.negated and atom.predicate in deltas
                ]
            head = rule.head.predicate
            row_filter = self._filter_for(rule)
            leader = twins.get(id(rule))
            for index, delta in occurrences:
                if leader is None:
                    rows = self._evaluate_rule(
                        rule, db, index, delta, result, row_filter, params
                    )
                else:
                    key = (id(leader), index)
                    rows = self._shared.get(key)
                    if rows is None:
                        rows = self._shared[key] = set(
                            self._evaluate_rule(
                                rule, db, index, delta, result, None, params
                            )
                        )
                    if row_filter is not None:
                        rows = set(filter(row_filter, rows))
                fresh = db[head].insert_new(rows)
                if not fresh:
                    continue
                if head in added:
                    added[head] |= fresh
                else:
                    added[head] = fresh
        return added


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
                        rule, db, None, None, result,
                        self._inner._filter_for(rule),
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
