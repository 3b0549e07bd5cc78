"""Prepared recursive query programs: parse + rewrite + plan-cache once.

Recursive datalog programs over the peer instances (Section 2.1's
query-answering surface, extended with auxiliary intensional predicates)
historically bypassed the prepared subsystem: every
``cdss.query_program(...)`` call re-parsed the text, re-validated it
against the internal schema, and — because the engine plan cache is
id-keyed — re-planned every rule from scratch in a throwaway engine.

:class:`PreparedProgram` folds programs into the prepared subsystem:

* the program is parsed, validated, and rewritten to the internal
  ``R__o`` tables **once** (:func:`rewrite_program_to_internal`),
  pinning the rule objects;
* a dedicated, persistent :class:`~repro.datalog.engine.SemiNaiveEngine`
  evaluates every execution, so the engine-level plan cache
  (``SemiNaiveEngine.cached_plan`` is the same machinery ``run`` uses
  internally) and the persistent Δ-relation pool stay warm across
  executes — re-running a program re-plans nothing;
* ``params`` names program variables bound at execute time.  Bindings
  substitute as constants into a *variant* program, memoized per value
  tuple, so each distinct binding plans once and repeats are pure cache
  hits;
* evaluation runs in a scratch database that attaches the live ``R__o``
  instances (shared, read-only) and is discarded afterwards — the
  exchanged state is never touched, exactly like the old bypass path.

Like :class:`~repro.api.query.PreparedQuery`, a CDSS-bound prepared
program transparently re-binds after the CDSS is reconfigured.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from ..datalog.ast import (
    Atom,
    Constant,
    Program,
    Rule,
    SkolemTerm,
    Variable,
)
from ..datalog.engine import SemiNaiveEngine
from ..datalog.parser import parse_program
from ..schema.internal import InternalSchema, output_name
from ..storage.database import Database
from ..storage.instance import Row
from .query import QueryError, certain_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cdss import CDSS
    from ..datalog.planner import Planner
    from ..storage.snapshot import DatabaseSnapshot

_VARIANT_CACHE_LIMIT = 256
"""Substituted program variants kept per prepared program."""


def rewrite_program_to_internal(
    parsed: Program, internal: InternalSchema, answer: str
) -> Program:
    """Validate a query program and rewrite its EDB atoms to ``R__o``.

    The program's extensional predicates must be user relation names
    (resolved to their output tables); its intensional predicates are
    scratch relations and must not collide with peer relations.
    """
    idb = parsed.idb_predicates()
    if answer not in idb:
        raise QueryError(
            f"program does not define the answer predicate {answer!r}"
        )
    for predicate in idb:
        if predicate in internal.catalog:
            raise QueryError(
                f"query program redefines peer relation {predicate!r}"
            )
    rewritten = []
    for rule in parsed:
        body = []
        for atom in rule.body:
            if atom.predicate in idb:
                body.append(atom)
            elif atom.predicate in internal.catalog:
                if internal.arity_of(atom.predicate) != atom.arity:
                    raise QueryError(
                        f"query uses {atom.predicate!r} with arity "
                        f"{atom.arity}, schema says "
                        f"{internal.arity_of(atom.predicate)}"
                    )
                body.append(
                    Atom(
                        output_name(atom.predicate),
                        atom.terms,
                        negated=atom.negated,
                    )
                )
            else:
                raise QueryError(
                    f"query references unknown relation {atom.predicate!r}"
                )
        rewritten.append(Rule(rule.head, tuple(body), label=rule.label))
    return Program(tuple(rewritten), name="query")


def _substitute_term(term: object, mapping: dict[Variable, Constant]):
    if isinstance(term, Variable):
        return mapping.get(term, term)
    if isinstance(term, SkolemTerm):
        return SkolemTerm(
            term.function,
            tuple(_substitute_term(arg, mapping) for arg in term.args),
        )
    return term


def _substitute_program(
    program: Program, mapping: dict[Variable, Constant]
) -> Program:
    rules = []
    for rule in program:
        rules.append(
            Rule(
                Atom(
                    rule.head.predicate,
                    tuple(
                        _substitute_term(t, mapping) for t in rule.head.terms
                    ),
                ),
                tuple(
                    Atom(
                        atom.predicate,
                        tuple(
                            _substitute_term(t, mapping) for t in atom.terms
                        ),
                        negated=atom.negated,
                    )
                    for atom in rule.body
                ),
                label=rule.label,
            )
        )
    return Program(tuple(rules), name=program.name)


class ProgramAnswers:
    """The materialized answers of one program execution.

    Iteration and ``to_rows`` follow certain-answer semantics (labeled
    nulls dropped, Section 2.1); :meth:`with_nulls` returns the superset.
    """

    __slots__ = ("_rows", "_certain")

    def __init__(self, rows: frozenset[Row]) -> None:
        self._rows = rows
        self._certain: frozenset[Row] | None = None

    def certain(self) -> frozenset[Row]:
        """Answers with labeled-null rows dropped (the default view).

        Computed once and cached — the rows are immutable, and membership
        tests / iteration route through this."""
        if self._certain is None:
            self._certain = certain_rows(self._rows)
        return self._certain

    def with_nulls(self) -> frozenset[Row]:
        """The answer superset including labeled-null rows."""
        return self._rows

    def to_rows(self) -> frozenset[Row]:
        return self.certain()

    def __iter__(self) -> Iterator[Row]:
        return iter(self.certain())

    def __len__(self) -> int:
        return len(self.certain())

    def __contains__(self, row: object) -> bool:
        # Frozenset-like semantics: anything that is not a row simply is
        # not a member (a bare scalar or a string must not crash or match
        # its character tuple).
        if not isinstance(row, (tuple, list)):
            return False
        return tuple(row) in self.certain()

    def __repr__(self) -> str:
        return f"<ProgramAnswers: {len(self._rows)} rows (with nulls)>"


class PreparedProgram:
    """A recursive query program validated and plan-cached once.

    Thread-safe like :class:`~repro.api.query.PreparedQuery`: the mutable
    (system, db, internal, rewritten, variants) state lives in one
    ``_state`` tuple swapped under a lock, and executions of the shared
    engine are serialized — the serving tier runs prepared programs from
    reader threads while a writer reconfigures or exchanges.
    """

    __slots__ = (
        "_program",
        "_answer",
        "_param_names",
        "_cdss",
        "_state",
        "_engine",
        "_rebind_lock",
        "_exec_lock",
    )

    def __init__(
        self,
        program: "str | Program",
        db: Database,
        internal: InternalSchema,
        answer: str = "ans",
        params: Sequence[str] = (),
        planner: "Planner | None" = None,
        cdss: "CDSS | None" = None,
        system: object | None = None,
    ) -> None:
        parsed: Program = (
            parse_program(program) if isinstance(program, str) else program
        )
        self._program = parsed
        self._answer = answer
        names = tuple(params)
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate parameter names: {names!r}")
        variables = {
            variable.name for rule in parsed for variable in rule.variables()
        }
        for name in names:
            if name not in variables:
                raise QueryError(
                    f"parameter {name!r} does not occur in the program"
                )
        self._param_names = names
        self._cdss = cdss
        # Dedicated persistent engine: the rewritten rules are pinned
        # below, so every re-execution hits the engine plan cache and
        # reuses the warm Δ-relation pool.
        self._engine = SemiNaiveEngine(planner)
        self._rebind_lock = threading.Lock()
        # The engine's Δ-relation pool and plan cache are not re-entrant;
        # concurrent reader threads take turns.
        self._exec_lock = threading.Lock()
        # (system, db, internal, rewritten, variants): swapped as ONE
        # tuple so a concurrent re-bind can never pair a new rewritten
        # program with an old schema or a stale variant cache.
        self._state: tuple[
            object | None,
            Database,
            InternalSchema,
            Program,
            dict[tuple[object, ...], Program],
        ] = (system, db, internal, self._rewrite(parsed, internal), {})

    def _rewrite(self, parsed: Program, internal: InternalSchema) -> Program:
        rewritten = rewrite_program_to_internal(
            parsed, internal, self._answer
        )
        if self._param_names:
            # Safety must hold with parameters bound; probe-substitute a
            # placeholder constant so unsafe programs fail at prepare time.
            probe = {
                Variable(name): Constant(object()) for name in self._param_names
            }
            _substitute_program(rewritten, probe).check_safety()
        else:
            rewritten.check_safety()
        return rewritten

    # -- introspection -----------------------------------------------------

    @property
    def param_names(self) -> tuple[str, ...]:
        """Names the execute() keyword bindings must supply."""
        return self._param_names

    @property
    def answer_predicate(self) -> str:
        return self._answer

    @property
    def stats(self):
        """The dedicated engine's cumulative :class:`EvaluationResult` —
        ``plan_cache_hit_rate`` approaches 1.0 across re-executions."""
        return self._engine.stats

    # -- execution ---------------------------------------------------------

    def _current(
        self,
    ) -> tuple[
        object | None,
        Database,
        InternalSchema,
        Program,
        dict[tuple[object, ...], Program],
    ]:
        state = self._state
        if self._cdss is not None:
            current = self._cdss.system()
            if current is not state[0]:
                # The CDSS was reconfigured: re-validate and re-pin against
                # the rebuilt system (one-time re-plan, like preparation).
                # Double-checked: racing executes re-bind exactly once.
                with self._rebind_lock:
                    state = self._state
                    if current is not state[0]:
                        rewritten = self._rewrite(
                            self._program, current.internal
                        )
                        with self._exec_lock:
                            self._engine.invalidate_plans()
                        state = (
                            current,
                            current.db,
                            current.internal,
                            rewritten,
                            {},
                        )
                        self._state = state
        return state

    def _variant(
        self,
        rewritten: Program,
        variants: dict[tuple[object, ...], Program],
        values: tuple[object, ...],
    ) -> Program:
        if not self._param_names:
            return rewritten
        variant = variants.get(values)
        if variant is None:
            mapping = {
                Variable(name): Constant(value)
                for name, value in zip(self._param_names, values)
            }
            variant = _substitute_program(rewritten, mapping)
            if len(variants) >= _VARIANT_CACHE_LIMIT:
                variants.clear()
            variants[values] = variant
        return variant

    def _bind_values(
        self, bindings: Mapping[str, object]
    ) -> tuple[object, ...]:
        names = self._param_names
        missing = [n for n in names if n not in bindings]
        extra = [n for n in bindings if n not in names]
        if missing or extra:
            raise QueryError(
                f"parameter mismatch: missing {missing!r}, unexpected {extra!r}"
                if missing
                else f"unexpected parameters {extra!r}"
            )
        return tuple(bindings[n] for n in names)

    def _run(
        self,
        source: Database,
        internal: InternalSchema,
        rewritten: Program,
        variants: dict[tuple[object, ...], Program],
        values: tuple[object, ...],
    ) -> ProgramAnswers:
        program = self._variant(rewritten, variants, values)
        scratch = Database()
        attached: list[str] = []
        for relation in internal.relation_names():
            instance = source.get(output_name(relation))
            if instance is not None:
                scratch.attach(instance)
                attached.append(instance.name)
        try:
            with self._exec_lock:
                self._engine.run(program, scratch)
            answers = scratch[self._answer].rows()
        finally:
            # Detach the shared instances: attach registered the scratch
            # database as a mutation watcher, which must not outlive this
            # call (it would leak the scratch db and slow every write).
            for name in attached:
                scratch.drop(name)
        return ProgramAnswers(frozenset(answers))

    def execute(self, **bindings: object) -> ProgramAnswers:
        """Bind parameters, evaluate to fixpoint, return the answers.

        Evaluation runs in a throwaway scratch database sharing the live
        ``R__o`` instances; the exchanged state is never modified.
        """
        values = self._bind_values(bindings)
        _system, db, internal, rewritten, variants = self._current()
        return self._run(db, internal, rewritten, variants, values)

    def execute_at(
        self, snapshot: "DatabaseSnapshot", **bindings: object
    ) -> ProgramAnswers:
        """Evaluate against a pinned snapshot instead of the live system.

        The scratch database attaches the snapshot's private ``R__o``
        copies, so a concurrently running exchange never tears the
        fixpoint this program reads — the serving tier's snapshot-isolated
        program path.  Runs under the snapshot's lock (it serializes lazy
        index builds across reader threads).
        """
        values = self._bind_values(bindings)
        _system, _db, internal, rewritten, variants = self._current()
        with snapshot.lock:
            return self._run(
                snapshot.db, internal, rewritten, variants, values
            )

    def __repr__(self) -> str:
        suffix = f" params={list(self._param_names)}" if self._param_names else ""
        return (
            f"<PreparedProgram {len(self._state[3])} rules -> "
            f"{self._answer!r}{suffix}>"
        )


def prepare_program(
    program: "str | Program",
    db: Database,
    internal: InternalSchema,
    answer: str = "ans",
    params: Sequence[str] = (),
    planner: "Planner | None" = None,
    cdss: "CDSS | None" = None,
    system: object | None = None,
) -> PreparedProgram:
    """Validate + rewrite a program once; the low-level entry point.

    :meth:`CDSS.prepare_program <repro.core.cdss.CDSS.prepare_program>`
    calls this with the live system (and keeps a per-text cache so
    ``query_program`` re-executions share one prepared program).
    """
    return PreparedProgram(
        program,
        db,
        internal,
        answer=answer,
        params=params,
        planner=planner,
        cdss=cdss,
        system=system,
    )
