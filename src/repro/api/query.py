"""First-class queries: composable, prepared, parameterized, plan-cached.

The paper's peers answer conjunctive queries over their local instances
with certain-answer semantics (Section 2.1) and provenance annotations
(Section 3.2).  This module is the serving-oriented query surface of the
v2 API — the counterpart of the transactional update path:

* :class:`Query` — an immutable query description: a program whose
  one *final* rule streams the answers.  Datalog text
  (``Query.parse("ans(x, y) :- U(x, z), U(y, z)")``) and the fluent
  builder over relations / :class:`~repro.api.views.RelationView`
  (``select`` / ``join`` / ``project`` with structured predicates like
  ``col("city") == param("c")``) give one-rule programs;
  :meth:`Query.program` takes recursive ones with auxiliary predicates;
* :meth:`CDSS.prepare <repro.core.cdss.CDSS.prepare>` →
  :class:`PreparedQuery` — rewrites the program to the internal ``R__o``
  relations, plans it through the engine plan caches, and compiles it
  through :func:`~repro.datalog.plan.compile_plan` exactly **once**;
  parameters occupy reserved environment slots in every compiled plan, so
  re-executing with new bindings changes only the initial environment —
  zero replanning, zero recompilation.  Auxiliary rules run to fixpoint
  first, in a scratch database;
* :meth:`PreparedQuery.execute` → :class:`AnswerSet` — a lazy answer
  stream with the three answer modes of Section 2.1: ``certain`` (default;
  labeled-null rows dropped), ``with_nulls`` (the superset), and
  ``annotated`` (each row paired with its provenance-semiring expression,
  computed via :mod:`repro.provenance.annotated`).

Structured predicates are also what :meth:`RelationView.where
<repro.api.views.RelationView.where>` pushes down to indexed probes; the
compilation helper for that single-relation case
(:func:`compile_row_condition`) lives here too.
"""

from __future__ import annotations

import heapq
import operator
import threading
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from ..datalog.ast import (
    Atom,
    Constant,
    Program,
    Rule,
    Variable,
    tuple_has_labeled_null,
)
from ..datalog.parser import parse_program, parse_rule
from ..datalog.plan import CompiledPlan, RulePlan, compile_plan, execute_plan
from ..schema.internal import InternalSchema, output_name
from ..schema.relation import RelationSchema
from ..storage.database import Database
from ..storage.instance import Instance, Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cdss import CDSS
    from ..datalog.engine import SemiNaiveEngine
    from ..storage.snapshot import DatabaseSnapshot

_OPS: dict[str, Callable[[object, object], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

ANSWER_PREDICATE = "ans"


class QueryError(Exception):
    """Raised for malformed queries."""


def certain_rows(rows: Iterable[Row]) -> frozenset[Row]:
    """Filter labeled-null-carrying rows out of a relation instance."""
    return frozenset(
        row for row in rows if not tuple_has_labeled_null(row)
    )


def _split_program(
    rules: Sequence[Rule], answer: str
) -> tuple[tuple[Rule, ...], Rule]:
    """``(auxiliary rules, final rule)`` of a program answering ``answer``:
    a one-rule program is its own final rule; a longer one is all
    auxiliary, and its final rule scans the answer relation they derive."""
    defining = [rule for rule in rules if rule.head.predicate == answer]
    if not defining:
        raise QueryError(
            f"program does not define the answer predicate {answer!r}"
        )
    if len(rules) == 1:
        return (), rules[0]
    terms = tuple(Variable(f"${i}") for i in range(defining[0].head.arity))
    return tuple(rules), Rule(Atom(answer, terms), (Atom(answer, terms),))


def _rewrite_to_internal(
    resolved: "_Resolved", internal: InternalSchema
) -> tuple[Program | None, Rule]:
    """``(auxiliary program or None, final rule)`` with body atoms over
    user relations rewritten to their ``R__o`` tables.  Auxiliary
    predicates must not collide with peer relations."""
    idb = {rule.head.predicate: rule.head.arity for rule in resolved.aux}
    for predicate in idb:
        if predicate in internal.catalog:
            raise QueryError(
                f"query program redefines peer relation {predicate!r}"
            )

    def rewrite(rule: Rule) -> Rule:
        body = []
        for atom in rule.body:
            if atom.predicate in idb:
                expected = idb[atom.predicate]
            elif atom.predicate in internal.catalog:
                expected = internal.arity_of(atom.predicate)
            else:
                raise QueryError(
                    f"query references unknown relation {atom.predicate!r}"
                )
            if expected != atom.arity:
                raise QueryError(
                    f"query uses {atom.predicate!r} with arity {atom.arity}, "
                    f"schema says {expected}"
                )
            if atom.predicate not in idb:
                atom = Atom(
                    output_name(atom.predicate), atom.terms, negated=atom.negated
                )
            body.append(atom)
        return Rule(rule.head, tuple(body), label=rule.label)

    final = rewrite(resolved.rule)
    if not resolved.aux:
        return None, final
    return Program(tuple(map(rewrite, resolved.aux)), name="query"), final


# ---------------------------------------------------------------------------
# The structured-predicate DSL: col / param / comparisons / conjunction
# ---------------------------------------------------------------------------


class Parameter:
    """A named query parameter, bound at :meth:`PreparedQuery.execute`."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise QueryError(f"parameter name must be a non-empty string, got {name!r}")
        self.name = name

    def __repr__(self) -> str:
        return f"param({self.name!r})"


class ColumnRef:
    """A reference to a column, by attribute name or ``Relation.attribute``.

    Comparison operators build :class:`Comparison` conditions instead of
    booleans — this is a tiny expression DSL, not a value.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"col({self.name!r})"

    def __hash__(self) -> int:  # identity: comparisons are not equality
        return object.__hash__(self)

    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("==", self, other)

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison("!=", self, other)

    def __lt__(self, other: object) -> "Comparison":
        return Comparison("<", self, other)

    def __le__(self, other: object) -> "Comparison":
        return Comparison("<=", self, other)

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(">", self, other)

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(">=", self, other)


def col(name: str) -> ColumnRef:
    """A column reference for structured predicates: ``col("city")``."""
    return ColumnRef(name)


def param(name: str) -> Parameter:
    """A named parameter placeholder: ``col("city") == param("c")``."""
    return Parameter(name)


class Condition:
    """Base class of structured predicates; ``&`` conjoins conditions."""

    __slots__ = ()

    def __and__(self, other: "Condition") -> "Condition":
        if not isinstance(other, Condition):
            return NotImplemented
        return And(self.conjuncts() + other.conjuncts())

    def __bool__(self) -> bool:
        # Catch `cond1 and cond2` (which short-circuits through bool and
        # silently drops conditions) for comparisons AND conjunctions.
        raise QueryError(
            f"{self!r} is a structured predicate, not a boolean; combine "
            "with & and pass it to .where()/.select() instead of using "
            "'and'/'or' or evaluating it"
        )

    def conjuncts(self) -> tuple["Comparison", ...]:
        raise NotImplementedError


class Comparison(Condition):
    """One comparison between a column and a value / parameter / column."""

    __slots__ = ("op", "column", "value")

    def __init__(self, op: str, column: ColumnRef, value: object) -> None:
        self.op = op
        self.column = column
        self.value = value

    def conjuncts(self) -> tuple["Comparison", ...]:
        return (self,)

    def __repr__(self) -> str:
        return f"({self.column!r} {self.op} {self.value!r})"


class And(Condition):
    """A conjunction of comparisons."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Comparison]) -> None:
        self.parts = tuple(parts)

    def conjuncts(self) -> tuple[Comparison, ...]:
        return self.parts

    def __repr__(self) -> str:
        return " & ".join(repr(p) for p in self.parts)


# ---------------------------------------------------------------------------
# Single-relation condition compilation (the RelationView.where pushdown)
# ---------------------------------------------------------------------------


def compile_row_condition(
    condition: Condition, schema: RelationSchema
) -> tuple[tuple[int, ...], tuple[object, ...], Callable[[Row], bool] | None]:
    """Compile a condition against one relation's rows.

    Returns ``(probe_columns, probe_values, residual)``: equality
    comparisons against literals become an indexed probe template
    (column positions + values for :meth:`Instance.lookup`); everything
    else becomes a residual row predicate.  Parameters are rejected —
    they only make sense under :meth:`CDSS.prepare`.
    """
    probes: dict[int, object] = {}
    residuals: list[Callable[[Row], bool]] = []
    for comparison in condition.conjuncts():
        position = schema.position_of(_bare_attribute(comparison.column, schema))
        value = comparison.value
        if isinstance(value, Parameter):
            raise QueryError(
                f"parameter {value.name!r} in a view predicate; parameters "
                "require a prepared query (cdss.prepare)"
            )
        if isinstance(value, ColumnRef):
            other = schema.position_of(_bare_attribute(value, schema))
            fn = _OPS[comparison.op]
            residuals.append(
                lambda row, fn=fn, i=position, j=other: fn(row[i], row[j])
            )
        elif comparison.op == "==":
            if position in probes and probes[position] != value:
                # Contradictory equalities: nothing can match.
                return ((), (), lambda row: False)
            probes[position] = value
        else:
            fn = _OPS[comparison.op]
            residuals.append(
                lambda row, fn=fn, i=position, v=value: fn(row[i], v)
            )
    cols = tuple(sorted(probes))
    values = tuple(probes[c] for c in cols)
    if not residuals:
        return (cols, values, None)
    if len(residuals) == 1:
        return (cols, values, residuals[0])
    return (
        cols,
        values,
        lambda row, checks=tuple(residuals): all(c(row) for c in checks),
    )


def _bare_attribute(column: ColumnRef, schema: RelationSchema) -> str:
    name = column.name
    if "." in name:
        relation, _, attribute = name.partition(".")
        if relation != schema.name:
            raise QueryError(
                f"column {name!r} does not belong to relation {schema.name!r}"
            )
        return attribute
    return name


# ---------------------------------------------------------------------------
# Ordering and pagination (ORDER BY / LIMIT / OFFSET)
# ---------------------------------------------------------------------------


class _OrderKey:
    """A totally ordered wrapper for heterogeneous column values.

    Same-type values compare natively; across types (or when a native
    comparison is unsupported, e.g. labeled nulls) the fallback orders by
    ``(type name, repr)`` — arbitrary but *stable and total*, which is
    what pagination needs.
    """

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_OrderKey") -> bool:
        a, b = self.value, other.value
        try:
            return bool(a < b)  # type: ignore[operator]
        except TypeError:
            return (type(a).__name__, repr(a)) < (type(b).__name__, repr(b))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderKey) and self.value == other.value


OrderSpec = tuple[tuple[int, bool], ...]
"""Resolved ordering: ``((column position, descending), ...)``."""


def _parse_order_column(column: object) -> tuple[object, bool]:
    """Normalize one ``order_by`` argument to ``(name_or_position, desc)``.

    Strings may carry a leading ``-`` for descending (``"-city"``);
    integers and digit strings (``"-0"``: no column is named by digits)
    are 0-based output column positions; :func:`col` references are
    accepted too.
    """
    if isinstance(column, ColumnRef):
        return (column.name, False)
    if isinstance(column, int) and not isinstance(column, bool):
        return (column, False)
    if isinstance(column, str):
        desc = column.startswith("-")
        name = column[1:] if desc else column
        return (int(name) if name.isdecimal() else name, desc)
    raise QueryError(
        f"order_by expects column names, positions, or col(...), "
        f"got {column!r}"
    )


def resolve_order_spec(
    columns: Sequence[tuple[object, bool]], names: Sequence[str]
) -> OrderSpec:
    """Resolve ``(name_or_position, desc)`` pairs against output columns.

    Bare names match an output column exactly, or — for qualified
    ``Alias.attr`` outputs — match the attribute part when unambiguous.
    """
    resolved: list[tuple[int, bool]] = []
    for key, desc in columns:
        if isinstance(key, int) and not isinstance(key, bool):
            if not 0 <= key < len(names):
                raise QueryError(
                    f"order_by position {key} out of range for "
                    f"{len(names)} output column(s)"
                )
            resolved.append((key, desc))
            continue
        matches = [i for i, name in enumerate(names) if name == key]
        if not matches:
            matches = [
                i
                for i, name in enumerate(names)
                if "." in name and name.partition(".")[2] == key
            ]
        if not matches:
            raise QueryError(
                f"order_by column {key!r} is not an output column of "
                f"{tuple(names)!r}"
            )
        if len(matches) > 1:
            raise QueryError(
                f"order_by column {key!r} is ambiguous; qualify it as "
                "'Alias.attr'"
            )
        resolved.append((matches[0], desc))
    return tuple(resolved)


def apply_row_order(
    rows: Sequence[Row],
    order: OrderSpec,
    limit: int | None,
    offset: int,
) -> tuple[Row, ...]:
    """Stable sort + slice, applied *below* the dedup step.

    Rows arrive deduplicated (set semantics) in first-derivation order;
    sorting is a stable multi-key sort, then ``offset``/``limit`` slice
    the sorted sequence — so a limit counts distinct answers, exactly
    what pagination wants.

    Consecutive keys that run in one direction share one stable pass
    over a composite key, later runs first.  The last pass — the whole
    sort when every key runs one way — selects only the first ``offset +
    limit`` rows when a limit is given (``heapq.nsmallest``/``nlargest``,
    documented equal to ``sorted(...)[:n]``, so ties keep their order).
    """
    runs: list[tuple[list[int], bool]] = []
    for position, desc in order:
        if runs and runs[-1][1] == desc:
            runs[-1][0].append(position)
        else:
            runs.append(([position], desc))
    ordered: Sequence[Row] = rows
    for index, (positions, desc) in enumerate(reversed(runs)):
        last_pass = index == len(runs) - 1
        n = offset + limit if last_pass and limit is not None else len(rows)
        ordered = _sorted_run(ordered, positions, desc, n)
    if offset:
        ordered = ordered[offset:]
    if limit is not None:
        ordered = ordered[:limit]
    return tuple(ordered)


def _sorted_run(
    rows: Sequence[Row], positions: Sequence[int], desc: bool, n: int
) -> list[Row]:
    """``sorted(rows, key=<positions>, reverse=desc)[:n]``.

    Plain values compare natively; a key column holding values that do
    not (labeled nulls, mixed types) falls back to :class:`_OrderKey`.
    """
    select = heapq.nlargest if desc else heapq.nsmallest
    try:
        return select(n, rows, key=operator.itemgetter(*positions))
    except TypeError:
        return select(
            n,
            rows,
            key=lambda row: tuple(_OrderKey(row[p]) for p in positions),
        )


def _check_page_arg(value: object, what: str, minimum: int = 0) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise QueryError(
            f"{what} must be an integer >= {minimum}, got {value!r}"
        )
    return value


# ---------------------------------------------------------------------------
# Query: an immutable description (datalog text or fluent builder)
# ---------------------------------------------------------------------------


class _Scan:
    """One builder scan: a relation occurrence under an alias."""

    __slots__ = ("relation", "alias", "schema")

    def __init__(
        self, relation: str, alias: str, schema: RelationSchema | None
    ) -> None:
        self.relation = relation
        self.alias = alias
        self.schema = schema


def _scan_of(source: object, alias: str | None) -> _Scan:
    """Normalize a relation name / RelationView / handle-ish into a scan."""
    schema = None
    if isinstance(source, str):
        name = source
    elif hasattr(source, "name") and hasattr(source, "schema"):
        name = source.name  # a RelationView (duck-typed: no import cycle)
        schema = source.schema
    else:
        raise QueryError(
            f"cannot scan {source!r}: expected a relation name or RelationView"
        )
    return _Scan(name, alias or name, schema)


class _Resolved:
    """A query lowered to user-level rules + metadata: the ``aux`` rules
    run to fixpoint first, then the final ``rule`` streams the answers."""

    __slots__ = (
        "rule",
        "aux",
        "sort_rows",
        "params",
        "param_names",
        "residuals",
        "unsat",
        "columns",
        "order",
        "limit",
        "offset",
    )

    def __init__(
        self,
        rule: Rule,
        params: tuple[Variable, ...],
        param_names: tuple[str, ...],
        residuals: tuple[tuple[str, object, object], ...],
        unsat: bool = False,
        columns: tuple[str, ...] = (),
        order: OrderSpec = (),
        limit: int | None = None,
        offset: int = 0,
        aux: tuple[Rule, ...] = (),
        sort_rows: bool = False,
    ) -> None:
        self.rule = rule
        self.aux = aux
        # Programs' rows come out fully sorted (no derivation order to keep).
        self.sort_rows = sort_rows
        self.params = params
        self.param_names = param_names
        self.residuals = residuals
        self.unsat = unsat
        self.columns = columns
        self.order = order
        self.limit = limit
        self.offset = offset


class Query:
    """An immutable, composable query over user relations.

    Build one from datalog text::

        Query.parse("ans(x, y) :- U(x, z), U(y, z)")
        Query.parse("ans(n) :- U(n, c)", params=("c",))   # c bound at execute

    fluently over relations / views (each method returns a new query)::

        (Query.scan(B)
              .join(U, on=(("nam", "can"),))   # B.nam == U.can
              .select(col("id") == param("i"))
              .project("id", "U.nam"))

    or from a recursive program with auxiliary predicates::

        Query.program("R(x, y) :- U(x, y)\nR(x, z) :- R(x, y), U(y, z)\n"
                      "ans(y) :- R(s, y)", params=("s",))

    Queries hold no system reference; :meth:`CDSS.prepare
    <repro.core.cdss.CDSS.prepare>` binds them to a system, plans and
    compiles them once, and returns a :class:`PreparedQuery`.
    """

    __slots__ = (
        "_rules",
        "_answer",
        "_program",
        "_text_params",
        "_scans",
        "_conditions",
        "_projection",
        "_order",
        "_limit",
        "_offset",
    )

    def __init__(self) -> None:
        # Text and program queries: their rules and answer predicate.
        self._rules: tuple[Rule, ...] = ()
        self._answer = ANSWER_PREDICATE
        self._program = False
        self._text_params: tuple[str, ...] = ()
        self._scans: tuple[_Scan, ...] = ()
        # (comparison, visible): bare column names in the comparison's left
        # side resolve among the first ``visible`` scans (None = all) — this
        # keeps natural-join names like on="nam" unambiguous after the
        # joined relation introduces the same attribute again.
        self._conditions: tuple[tuple[Comparison, int | None], ...] = ()
        self._projection: tuple[str, ...] | None = None
        # Pagination: (name_or_position, desc) pairs resolved to output
        # column positions at prepare time; applies to text queries too.
        self._order: tuple[tuple[object, bool], ...] = ()
        self._limit: int | None = None
        self._offset: int = 0

    # -- construction ------------------------------------------------------

    @staticmethod
    def parse(text: str | Rule, params: Sequence[str] = ()) -> "Query":
        """A query from datalog text over user relation names.

        ``params`` names body variables to treat as execute-time
        parameters (prepared-statement constant slots).
        """
        bound = tuple(Variable(name) for name in params)
        if isinstance(text, str):
            rule = parse_rule(text, bound=bound)
        else:
            rule = text
            rule.check_safety(bound)
        if not rule.body:
            raise QueryError("query must have a non-empty body")
        return Query._of_rules((rule,), rule.head.predicate, params, False)

    @staticmethod
    def program(
        text: "str | Program",
        answer: str = ANSWER_PREDICATE,
        params: Sequence[str] = (),
    ) -> "Query":
        """A query from a datalog program over user relation names: the
        ``answer`` predicate's rows, fully sorted.  Its other heads are
        auxiliary predicates, evaluated to fixpoint in scratch space.
        Rules must be safe with the ``params`` counted as bound."""
        bound = tuple(Variable(name) for name in params)
        if isinstance(text, str):
            parsed = parse_program(text, bound=bound)
        else:
            parsed = text
            parsed.check_safety(bound)
        return Query._of_rules(parsed.rules, answer, params, True)

    @staticmethod
    def _of_rules(
        rules: tuple[Rule, ...],
        answer: str,
        params: Sequence[str],
        program: bool,
    ) -> "Query":
        names = tuple(params)
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate parameter names: {names!r}")
        rule_vars = {v.name for rule in rules for v in rule.variables()}
        for name in names:
            if name not in rule_vars:
                raise QueryError(
                    f"parameter {name!r} does not occur in the query"
                )
        query = Query()
        query._rules = rules
        query._answer = answer
        query._program = program
        query._text_params = names
        return query

    @staticmethod
    def scan(source: object, alias: str | None = None) -> "Query":
        """A builder query scanning one relation (name or view)."""
        query = Query()
        query._scans = (_scan_of(source, alias),)
        return query

    def _copy(self) -> "Query":
        query = Query()
        query._rules = self._rules
        query._answer = self._answer
        query._program = self._program
        query._text_params = self._text_params
        query._scans = self._scans
        query._conditions = self._conditions
        query._projection = self._projection
        query._order = self._order
        query._limit = self._limit
        query._offset = self._offset
        return query

    def _require_builder(self, method: str) -> None:
        if self._rules:
            raise QueryError(
                f"Query.{method} is a builder operation; this query was "
                "constructed from datalog text"
            )
        if not self._scans:
            raise QueryError("empty query: start with Query.scan(relation)")

    # -- builder operations ------------------------------------------------

    def select(self, *conditions: Condition) -> "Query":
        """Conjoin structured predicates (``col(...) == param(...)``)."""
        self._require_builder("select")
        # Bare column names resolve among the scans present *now*: a later
        # join introducing the same attribute must not retroactively make
        # an already-written select ambiguous.
        visible = len(self._scans)
        extra: list[tuple[Comparison, int | None]] = []
        for condition in conditions:
            if not isinstance(condition, Condition):
                raise QueryError(
                    f"select expects structured predicates, got "
                    f"{condition!r}"
                )
            extra.extend((c, visible) for c in condition.conjuncts())
        query = self._copy()
        query._conditions = self._conditions + tuple(extra)
        return query

    def join(
        self,
        source: object,
        on: object,
        alias: str | None = None,
    ) -> "Query":
        """Join another relation.

        ``on`` is an attribute name (equal in both), an iterable of names
        or of ``(left, right)`` pairs, or a structured condition over
        qualified columns.
        """
        self._require_builder("join")
        scan = _scan_of(source, alias)
        if any(s.alias == scan.alias for s in self._scans):
            raise QueryError(
                f"alias {scan.alias!r} already used; pass alias= for self-joins"
            )
        visible = len(self._scans)  # bare left names resolve pre-join
        conditions: list[tuple[Comparison, int | None]] = []
        if isinstance(on, Condition):
            conditions.extend((c, None) for c in on.conjuncts())
        else:
            pairs: list[tuple[str, str]]
            if isinstance(on, str):
                pairs = [(on, on)]
            else:
                pairs = []
                for item in on:
                    if isinstance(item, str):
                        pairs.append((item, item))
                    else:
                        left, right = item
                        pairs.append((left, right))
            if not pairs:
                raise QueryError("join requires at least one column pair")
            for left, right in pairs:
                right_name = right if "." in right else f"{scan.alias}.{right}"
                conditions.append(
                    (
                        Comparison("==", ColumnRef(left), ColumnRef(right_name)),
                        visible,
                    )
                )
        query = self._copy()
        query._scans = self._scans + (scan,)
        query._conditions = self._conditions + tuple(conditions)
        return query

    def project(self, *columns: str | ColumnRef) -> "Query":
        """Choose and order the output columns (default: every column)."""
        self._require_builder("project")
        if not columns:
            raise QueryError("project requires at least one column")
        names = tuple(
            c.name if isinstance(c, ColumnRef) else c for c in columns
        )
        query = self._copy()
        query._projection = names
        return query

    # -- pagination (applies to text *and* builder queries) ----------------

    def order_by(self, *columns: object) -> "Query":
        """Order answers by output columns (stable sort, below dedup).

        Columns are output column names (head variables for text queries,
        projection entries for builder queries — a leading ``-`` sorts
        descending, as in ``order_by("city", "-id")``) or 0-based output
        positions (``1``, ``"-0"``).  Replaces any previous ordering.
        """
        if not columns:
            raise QueryError("order_by requires at least one column")
        query = self._copy()
        query._order = tuple(_parse_order_column(c) for c in columns)
        return query

    def limit(self, count: int | None) -> "Query":
        """Keep at most ``count`` answers (after dedup, sort, offset)."""
        query = self._copy()
        query._limit = (
            None if count is None else _check_page_arg(count, "limit")
        )
        return query

    def offset(self, count: int) -> "Query":
        """Skip the first ``count`` answers (after dedup and sort)."""
        query = self._copy()
        query._offset = _check_page_arg(count, "offset")
        return query

    # -- lowering ----------------------------------------------------------

    def _resolve(self, catalog: Mapping[str, RelationSchema]) -> _Resolved:
        """Lower to user-level rules + params + residual comparisons."""
        if self._rules:
            aux, rule = _split_program(self._rules, self._answer)
            params = tuple(Variable(name) for name in self._text_params)
            columns = tuple(
                term.name if isinstance(term, Variable) else f"${position}"
                for position, term in enumerate(rule.head.terms)
            )
            return _Resolved(
                rule,
                params,
                self._text_params,
                (),
                columns=columns,
                order=resolve_order_spec(self._order, columns),
                limit=self._limit,
                offset=self._offset,
                aux=aux,
                sort_rows=self._program,
            )
        return self._resolve_builder(catalog)

    def _resolve_builder(
        self, catalog: Mapping[str, RelationSchema]
    ) -> _Resolved:
        scans = list(self._scans)
        schemas: list[RelationSchema] = []
        for scan in scans:
            schema = scan.schema or catalog.get(scan.relation)
            if schema is None:
                raise QueryError(
                    f"query references unknown relation {scan.relation!r}"
                )
            schemas.append(schema)

        def locate(name: str, visible: int | None = None) -> tuple[int, int]:
            """(scan index, position) for a column name.

            Qualified names (``Alias.attr``) resolve globally; bare names
            resolve among the first ``visible`` scans (all by default) and
            must be unambiguous there.
            """
            if "." in name:
                alias, _, attribute = name.partition(".")
                for index, scan in enumerate(scans):
                    if scan.alias == alias:
                        if attribute not in schemas[index].attributes:
                            raise QueryError(
                                f"relation {scan.relation!r} (alias "
                                f"{alias!r}) has no attribute {attribute!r}"
                            )
                        return (
                            index,
                            schemas[index].attributes.index(attribute),
                        )
                raise QueryError(f"unknown relation alias in column {name!r}")
            limit = len(scans) if visible is None else visible
            matches = [
                (index, schemas[index].attributes.index(name))
                for index in range(limit)
                if name in schemas[index].attributes
            ]
            if not matches:
                raise QueryError(f"unknown column {name!r}")
            if len(matches) > 1:
                raise QueryError(
                    f"column {name!r} is ambiguous; qualify it as 'Alias.attr'"
                )
            return matches[0]

        # One variable per column position, then unify through the
        # equality conditions (union-find over term assignments).
        variables = [
            [
                Variable(f"{scan.alias}.{attribute}")
                for attribute in schema.attributes
            ]
            for scan, schema in zip(scans, schemas)
        ]
        assign: dict[Variable, object] = {}

        def resolve_term(term: object) -> object:
            while isinstance(term, Variable) and term in assign:
                term = assign[term]
            return term

        param_vars: dict[str, Variable] = {}

        def term_for_value(value: object, visible: int | None) -> object:
            if isinstance(value, Parameter):
                var = param_vars.get(value.name)
                if var is None:
                    var = Variable(f"${value.name}")
                    param_vars[value.name] = var
                return var
            if isinstance(value, ColumnRef):
                index, position = locate(value.name, visible)
                return variables[index][position]
            return Constant(value)

        def is_param(term: object) -> bool:
            return isinstance(term, Variable) and term.name.startswith("$")

        residuals: list[tuple[str, object, object]] = []
        unsat = False
        for comparison, visible in self._conditions:
            index, position = locate(comparison.column.name, visible)
            left = resolve_term(variables[index][position])
            right = resolve_term(term_for_value(comparison.value, visible))
            if comparison.op != "==":
                residuals.append((comparison.op, left, right))
                continue
            if left == right:
                continue
            # Parameter variables stay roots: binding them to a constant or
            # each other must remain a runtime check, not a rewrite, or a
            # later execute() binding would be silently ignored.
            if isinstance(left, Variable) and not is_param(left):
                assign[left] = right
            elif isinstance(right, Variable) and not is_param(right):
                assign[right] = left
            elif isinstance(left, Constant) and isinstance(right, Constant):
                if left.value != right.value:
                    unsat = True
            else:
                # parameter vs. constant, or two parameters: runtime check.
                residuals.append(("==", left, right))

        body = tuple(
            Atom(
                scan.relation,
                tuple(
                    resolve_term(variables[index][position])
                    for position in range(schemas[index].arity)
                ),
            )
            for index, scan in enumerate(scans)
        )
        if self._projection is None:
            projection = tuple(
                f"{scan.alias}.{attribute}"
                for scan, schema in zip(scans, schemas)
                for attribute in schema.attributes
            )
        else:
            projection = self._projection
        head_terms = []
        for name in projection:
            index, position = locate(name)
            head_terms.append(resolve_term(variables[index][position]))
        rule = Rule(Atom(ANSWER_PREDICATE, tuple(head_terms)), body)
        # Residual terms must survive resolution too (a later equality may
        # have re-rooted them).
        final_residuals = tuple(
            (op, resolve_term(left), resolve_term(right))
            for op, left, right in residuals
        )
        names = tuple(param_vars)
        params = tuple(param_vars[name] for name in names)
        return _Resolved(
            rule,
            params,
            names,
            final_residuals,
            unsat,
            columns=projection,
            order=resolve_order_spec(self._order, projection),
            limit=self._limit,
            offset=self._offset,
        )

    def __repr__(self) -> str:
        if self._rules:
            suffix = f" params={list(self._text_params)}" if self._text_params else ""
            body = "; ".join(repr(rule) for rule in self._rules)
            return f"<Query {body}{suffix}>"
        parts = ", ".join(
            s.relation if s.alias == s.relation else f"{s.relation} as {s.alias}"
            for s in self._scans
        )
        return (
            f"<Query scan[{parts}] "
            f"where {len(self._conditions)} condition(s)>"
        )


# ---------------------------------------------------------------------------
# Preparation and execution
# ---------------------------------------------------------------------------


def _residual_closure(
    specs: Sequence[tuple[str, object, object]],
    slot_of: Mapping[Variable, int],
) -> Callable[[tuple], bool] | None:
    """Compile residual comparisons into one environment predicate."""
    if not specs:
        return None

    def getter(spec: object) -> Callable[[tuple], object]:
        if isinstance(spec, Variable):
            slot = slot_of[spec]
            return lambda env, _s=slot: env[_s]
        if isinstance(spec, Constant):
            return lambda env, _v=spec.value: _v
        raise QueryError(f"cannot compile residual term {spec!r}")

    checks = tuple(
        (_OPS[op], getter(left), getter(right)) for op, left, right in specs
    )
    if len(checks) == 1:
        fn, lf, rf = checks[0]
        return lambda env: fn(lf(env), rf(env))
    return lambda env: all(fn(lf(env), rf(env)) for fn, lf, rf in checks)


class _Binding:
    """Everything a prepared query needs against one concrete system.

    Auxiliary rules run on an engine of their own (reader threads must
    not share the exchange engine's Δ-relations), one run at a time, and
    plan through the system's planner, whose cache is value-keyed.
    """

    __slots__ = (
        "db",
        "engine",
        "internal",
        "internal_rule",
        "auxiliary",
        "aux_engine",
        "aux_lock",
        "params",
        "residual_specs",
        "use_engine_cache",
        "_exec",
    )

    def __init__(
        self,
        resolved: _Resolved,
        db: Database,
        internal: InternalSchema,
        engine: "SemiNaiveEngine",
        use_engine_cache: bool = True,
    ) -> None:
        self.db = db
        self.engine = engine
        self.internal = internal
        self.params = resolved.params
        self.auxiliary, self.internal_rule = _rewrite_to_internal(
            resolved, internal
        )
        if self.auxiliary is not None:
            from ..datalog.engine import SemiNaiveEngine

            self.aux_engine = SemiNaiveEngine(engine.planner)
            self.aux_lock = threading.Lock()
        self.residual_specs = resolved.residuals
        self.use_engine_cache = use_engine_cache
        self._set_plan(self._plan())
        self._check_safety(resolved)

    # The (plan, compiled, residual) triple is always swapped as ONE tuple
    # (``_exec``): the residual closure indexes the compiled plan's
    # environment slots, so a concurrent reader must never observe a new
    # plan paired with an old residual (or vice versa).
    @property
    def plan(self) -> RulePlan:
        return self._exec[0]

    @property
    def compiled(self) -> CompiledPlan:
        return self._exec[1]

    def _plan(self) -> RulePlan:
        """Plan through the engine cache, or straight through the planner.

        One-shot queries (``CDSS.query``) bypass the engine-level cache:
        its id-keyed entries would never hit for freshly built rules and
        would crowd out the exchange program's warm plans.  The planner's
        own value-keyed cache still deduplicates repeated identical text.
        """
        if self.use_engine_cache:
            return self.engine.cached_plan(
                self.internal_rule, self.db, None, self.params
            )
        if self.params:
            return self.engine.planner.plan(
                self.internal_rule, self.db, None, self.params
            )
        return self.engine.planner.plan(self.internal_rule, self.db, None)

    def _set_plan(self, plan: RulePlan) -> None:
        """Compile ``plan`` and swap the execution triple atomically.

        The residual closure indexes the compiled plan's environment
        slots, so it must be rebuilt whenever the plan changes (e.g. a
        cost-based planner re-planning after a data change) — and the
        three pieces land in one attribute assignment.
        """
        compiled = compile_plan(plan)
        residual = _residual_closure(self.residual_specs, compiled.slot_of)
        self._exec: tuple[
            RulePlan, CompiledPlan, Callable[[tuple], bool] | None
        ] = (plan, compiled, residual)

    def _check_safety(self, resolved: _Resolved) -> None:
        # Residual comparisons are not rule atoms: everything they mention
        # must have landed in a slot.
        for op, left, right in resolved.residuals:
            for spec in (left, right):
                if isinstance(spec, Variable) and spec not in self.compiled.slot_of:
                    raise QueryError(
                        f"residual comparison references unbound {spec!r}"
                    )

    def refresh_plan(self) -> None:
        """Re-probe the plan cache (a hit unless invalidated/re-planned)."""
        plan = self._plan()
        if plan is not self._exec[0]:
            self._set_plan(plan)

    def resolver(
        self, db: Database | None = None, values: tuple[object, ...] = ()
    ) -> Callable[[int, Atom], object]:
        """An atom resolver over ``db`` (default: the bound live database).

        Passing a pinned snapshot's database executes the compiled plan
        against the snapshot instead — relations absent from the snapshot
        (e.g. provenance tables a query never reads) resolve empty.  A
        program's auxiliary relations resolve from the scratch database
        its auxiliary rules were just evaluated into, under ``values``.
        """
        if db is None:
            db = self.db
        scratch = (
            None if self.auxiliary is None else self._auxiliary(db, values)
        )

        def resolve(_index: int, atom: Atom) -> object:
            # Auxiliary names shadow the database's own relations.
            instance = None if scratch is None else scratch.get(atom.predicate)
            if instance is None:
                instance = db.get(atom.predicate)
            if instance is not None:
                return instance
            return Instance(atom.predicate, atom.arity)

        return resolve

    def _auxiliary(
        self, source: Database, values: tuple[object, ...]
    ) -> Database:
        """A scratch database of the auxiliary relations, evaluated to
        fixpoint over ``source``'s ``R__o`` tables.  It attaches those only
        for the run: an attached database watches their mutations."""
        program = self.auxiliary
        scratch = Database()
        attached = []
        for name in program.edb_predicates():
            instance = source.get(name)
            if instance is not None:
                attached.append(scratch.attach(instance).name)
        try:
            with self.aux_lock:
                self.aux_engine.run(
                    program, scratch, dict(zip(self.params, values))
                )
        finally:
            for name in attached:
                scratch.drop(name)
        return scratch


_RESULT_CACHE_LIMIT = 1024
"""Result-cache entries per prepared query before wholesale clearing."""


def _binding_derivations(
    binding: "_Binding",
    values: tuple[object, ...],
    db: Database | None = None,
) -> Iterator[tuple[Row, Mapping[Variable, object]]]:
    """(row, substitution) pairs from one binding's compiled pipeline,
    with its residual comparisons applied as the head filter — the single
    execution path shared by the result cache, the annotated-answers
    stream, and snapshot-pinned executions (``db`` overrides the source).

    The execution triple is read **once**: a concurrent
    :meth:`_Binding.refresh_plan` can swap ``_exec`` mid-call, but this
    iterator keeps using the consistent (plan, compiled, residual) it
    started with.
    """
    plan, _compiled, residual = binding._exec
    head_filter = (
        None
        if residual is None
        else (lambda _row, subst: residual(subst._env))
    )
    return execute_plan(
        plan,
        binding.resolver(db, values),
        head_filter=head_filter,
        params=values,
    )


class PreparedQuery:
    """A query planned and compiled once, executable with new bindings.

    Created by :meth:`CDSS.prepare <repro.core.cdss.CDSS.prepare>` and
    :meth:`CDSS.prepare_program <repro.core.cdss.CDSS.prepare_program>`.
    The final rule's compiled plan is registered in the engine-level plan
    cache; every :meth:`execute` probes that cache (a hit — zero
    replanning) and swaps only the parameter values in the initial
    environment.  A program's auxiliary rules bind the same values into
    their own plans' slots, so a new value re-plans nothing there either.
    If the CDSS is reconfigured, the prepared query transparently re-binds
    against the rebuilt system on the next execute.

    Materialized answers are additionally cached per ``(bindings, answer
    mode)`` with :attr:`Database.version <repro.storage.database.Database.
    version>` as the invalidation token (the O(1) dirty-bit counter): while
    no relation changes, re-executing with identical bindings serves the
    previous rows without touching the pipeline at all.  Any mutation moves
    the version and the entry silently misses — invalidation is free.

    Prepared queries are safe to execute from multiple threads: the
    (system, binding) pair lives in one ``_bound`` tuple swapped under a
    lock (a single check-and-swap), so a concurrent re-bind after CDSS
    reconfiguration can never pair an old binding with a new system.
    """

    __slots__ = (
        "_resolved",
        "_cdss",
        "_bound",
        "_rebind_lock",
        "_result_cache",
        "result_cache_hits",
        "result_cache_misses",
    )

    def __init__(
        self,
        resolved: _Resolved,
        binding: _Binding,
        cdss: "CDSS | None" = None,
        system: object | None = None,
    ) -> None:
        self._resolved = resolved
        self._cdss = cdss
        # The (system, binding) pair is one atomically-swapped tuple; the
        # lock makes the reconfiguration re-bind a single check-and-swap.
        self._bound: tuple[object | None, _Binding] = (system, binding)
        self._rebind_lock = threading.Lock()
        # (values, mode) -> (database, version, rows); the database is
        # compared by identity so a re-bind after CDSS reconfiguration can
        # never collide with a stale entry from the previous system.
        self._result_cache: dict[
            tuple[tuple[object, ...], str],
            tuple[Database, int, tuple[Row, ...]],
        ] = {}
        #: Result-cache statistics (hits are O(1) serves).
        self.result_cache_hits = 0
        self.result_cache_misses = 0

    # -- introspection -----------------------------------------------------

    @property
    def param_names(self) -> tuple[str, ...]:
        """Names the execute() keyword bindings must supply, in order."""
        return self._resolved.param_names

    @property
    def columns(self) -> tuple[str, ...]:
        """Output column names (head variables / projection entries)."""
        return self._resolved.columns

    @property
    def plan(self) -> RulePlan:
        return self._bound[1].plan

    @property
    def stats(self):
        """The auxiliary rules' engine's cumulative ``EvaluationResult``
        (``None`` for a one-rule statement), reset by a re-bind."""
        binding = self._bound[1]
        return None if binding.auxiliary is None else binding.aux_engine.stats

    def explain(self) -> str:
        """Render the bind-join pipeline this query runs (EXPLAIN)."""
        from ..datalog.explain import explain_plan

        _system, binding = self._bound
        return explain_plan(binding.plan, binding.db)

    # -- execution ---------------------------------------------------------

    def _current_binding(self) -> _Binding:
        system, binding = self._bound
        if self._cdss is not None:
            current = self._cdss.system()
            if current is not system:
                # The CDSS was reconfigured and rebuilt: re-prepare against
                # the new system (a one-time plan-cache miss, like prepare).
                # Double-checked: racing executes re-bind exactly once.
                with self._rebind_lock:
                    system, binding = self._bound
                    if current is not system:
                        binding = _Binding(
                            self._resolved,
                            current.db,
                            current.internal,
                            current.engine,
                            binding.use_engine_cache,
                        )
                        # A *fresh* dict, not clear(): old entries pinned
                        # the superseded database (by identity) and can
                        # never hit again; readers mid-flight may still
                        # write to the old dict harmlessly.
                        self._result_cache = {}
                        self._bound = (current, binding)
        binding.refresh_plan()
        return binding

    def _materialize(
        self,
        binding: _Binding,
        values: tuple[object, ...],
        mode: str,
        db: Database | None = None,
    ) -> tuple[Row, ...]:
        """Run the compiled pipeline to deduplicated, mode-filtered rows.

        Rows keep their first-derivation order (a program's are sorted);
        ``db`` overrides the atom source (a pinned snapshot's database).
        """
        drop_nulls = mode == AnswerSet.MODE_CERTAIN
        seen: set[Row] = set()
        answers: list[Row] = []
        for row, _subst in _binding_derivations(binding, values, db):
            if row in seen:
                continue
            seen.add(row)
            if drop_nulls and tuple_has_labeled_null(row):
                continue
            answers.append(row)
        if self._resolved.sort_rows:
            every_column = tuple(
                (position, False) for position in range(len(self.columns))
            )
            return apply_row_order(answers, every_column, None, 0)
        return tuple(answers)

    def _cached_answers(
        self, values: tuple[object, ...], mode: str
    ) -> tuple[Row, ...]:
        """The materialized answer rows for one (bindings, mode) pair.

        Served from the result cache while ``Database.version`` is
        unchanged; recomputed (and re-cached) otherwise.
        """
        binding = self._current_binding()
        db = binding.db
        version = db.version
        # Read the cache reference once: a concurrent re-bind swaps in a
        # fresh dict, and writing a stale entry into the *old* dict must
        # stay harmless.
        cache = self._result_cache
        key: tuple[tuple[object, ...], str] | None = (values, mode)
        try:
            entry = cache.get(key)  # type: ignore[arg-type]
        except TypeError:
            # Unhashable binding values: execute uncached.
            key = None
            entry = None
        if (
            entry is not None
            and entry[0] is db
            and entry[1] == version
        ):
            self.result_cache_hits += 1
            return entry[2]
        self.result_cache_misses += 1
        rows = self._materialize(binding, values, mode)
        if key is not None:
            if len(cache) >= _RESULT_CACHE_LIMIT:
                cache.clear()
            cache[key] = (db, version, rows)
        return rows

    def _pinned_answers(
        self, snapshot: "DatabaseSnapshot", values: tuple[object, ...], mode: str
    ) -> tuple[Row, ...]:
        """Answers computed against (and cached on) a pinned snapshot.

        The snapshot's contents never change, so its result cache needs no
        version token; the compute runs under the snapshot's lock, which
        also serializes lazy index builds across reader threads.
        """
        binding = self._current_binding()
        return snapshot.cached(  # type: ignore[return-value]
            (self, values, mode),
            lambda: self._materialize(binding, values, mode, db=snapshot.db),
        )

    def _bind_values(self, bindings: Mapping[str, object]) -> tuple[object, ...]:
        names = self._resolved.param_names
        missing = [n for n in names if n not in bindings]
        extra = [n for n in bindings if n not in names]
        if missing or extra:
            raise QueryError(
                f"parameter mismatch: missing {missing!r}, unexpected {extra!r}"
                if missing
                else f"unexpected parameters {extra!r}"
            )
        return tuple(bindings[n] for n in names)

    def execute(self, **bindings: object) -> "AnswerSet":
        """Bind parameters and return an :class:`AnswerSet`.

        Every parameter named at preparation must be bound by keyword;
        unknown keywords are rejected.  No planning or compilation happens
        here; the first *consumption* of the answer set runs the compiled
        plan against the then-current system state and materializes the
        rows into the result cache — repeated consumptions with the same
        bindings and mode are O(1) serves until any relation changes.
        """
        values = self._bind_values(bindings)
        return AnswerSet(self, values, empty=self._resolved.unsat)

    def execute_at(
        self, snapshot: "DatabaseSnapshot", **bindings: object
    ) -> "AnswerSet":
        """Execute against a pinned snapshot instead of the live system.

        The answer set resolves every relation from the snapshot's private
        copies: a concurrently running exchange can mutate the live
        database freely without this execution observing it — the serving
        tier's snapshot-isolated read path.  Annotated answers are not
        available (provenance tables live only in the live system).
        """
        values = self._bind_values(bindings)
        return AnswerSet(
            self, values, empty=self._resolved.unsat, pinned=snapshot
        )

    def __repr__(self) -> str:
        return f"<PreparedQuery {self._bound[1].internal_rule!r}>"


class AnswerSet:
    """A stream of query answers with selectable answer mode.

    An answer set observes the current state each time it is consumed —
    like :class:`~repro.api.views.RelationView`.  Consumption goes through
    the prepared query's version-keyed result cache: the first iteration
    after a data change runs the compiled plan and materializes the rows,
    repeated consumptions with the same bindings and mode are O(1) serves
    of the cached tuple (``Database.version`` is the invalidation token,
    so "current state" semantics are preserved exactly).  Rows are
    deduplicated (set semantics).  Modes:

    * :meth:`certain` (default) — labeled-null rows dropped (§2.1);
    * :meth:`with_nulls` — the superset including labeled nulls;
    * :meth:`annotated` — materialized ``{row: provenance}`` computed
      through :mod:`repro.provenance.annotated`.

    An answer set created by :meth:`PreparedQuery.execute_at` is *pinned*
    to a :class:`~repro.storage.snapshot.DatabaseSnapshot` instead: it
    always serves the pinned fixpoint, regardless of live mutations.
    :meth:`order_by` / :meth:`limit` / :meth:`offset` refine (or override)
    the ordering declared on the :class:`Query`.
    """

    MODE_CERTAIN = "certain"
    MODE_WITH_NULLS = "with_nulls"

    __slots__ = (
        "_prepared",
        "_values",
        "_mode",
        "_empty",
        "_pinned",
        "_order",
        "_limit",
        "_offset",
    )

    def __init__(
        self,
        prepared: PreparedQuery,
        values: tuple[object, ...],
        mode: str = MODE_CERTAIN,
        empty: bool = False,
        pinned: "DatabaseSnapshot | None" = None,
    ) -> None:
        self._prepared = prepared
        self._values = values
        self._mode = mode
        self._empty = empty
        self._pinned = pinned
        # Ordering/pagination start from what the Query declared.
        resolved = prepared._resolved
        self._order: OrderSpec = resolved.order
        self._limit: int | None = resolved.limit
        self._offset: int = resolved.offset

    def _clone(self, **overrides: object) -> "AnswerSet":
        clone = AnswerSet.__new__(AnswerSet)
        for slot in AnswerSet.__slots__:
            setattr(clone, slot, overrides.get(slot, getattr(self, slot)))
        return clone

    # -- modes -------------------------------------------------------------

    def certain(self) -> "AnswerSet":
        """Answers with labeled-null rows dropped (the default)."""
        return self._clone(_mode=self.MODE_CERTAIN)

    def with_nulls(self) -> "AnswerSet":
        """The answer superset including labeled-null rows."""
        return self._clone(_mode=self.MODE_WITH_NULLS)

    # -- ordering and pagination -------------------------------------------

    def order_by(self, *columns: object) -> "AnswerSet":
        """Order answers by output columns (stable sort, below dedup).

        Accepts the same column forms as :meth:`Query.order_by` (names,
        ``-name`` for descending, 0-based positions, :func:`col` refs);
        replaces any ordering declared on the query.
        """
        if not columns:
            raise QueryError("order_by requires at least one column")
        parsed = tuple(_parse_order_column(c) for c in columns)
        spec = resolve_order_spec(parsed, self._prepared.columns)
        return self._clone(_order=spec)

    def limit(self, count: int | None) -> "AnswerSet":
        """Keep at most ``count`` answers (after dedup, sort, offset)."""
        return self._clone(
            _limit=None if count is None else _check_page_arg(count, "limit")
        )

    def offset(self, count: int) -> "AnswerSet":
        """Skip the first ``count`` answers (after dedup and sort)."""
        return self._clone(_offset=_check_page_arg(count, "offset"))

    # -- streaming ---------------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        if self._empty:
            return iter(())
        if self._pinned is not None:
            rows = self._prepared._pinned_answers(
                self._pinned, self._values, self._mode
            )
        else:
            rows = self._prepared._cached_answers(self._values, self._mode)
        if self._order or self._limit is not None or self._offset:
            rows = apply_row_order(
                rows, self._order, self._limit, self._offset
            )
        return iter(rows)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __contains__(self, row: Iterable[object]) -> bool:
        row = tuple(row)
        return any(answer == row for answer in self)

    def __bool__(self) -> bool:
        return any(True for _ in self)

    def to_rows(self) -> frozenset[Row]:
        """Materialize the current answers as a plain frozenset."""
        return frozenset(self)

    # -- provenance-annotated answers --------------------------------------

    def annotated(
        self, semiring=None, max_depth: int = 8
    ) -> dict[Row, object]:
        """Each answer row paired with its provenance annotation.

        The annotation of an answer is the sum over its derivations of the
        product of the body tuples' annotations — evaluated through
        :class:`~repro.provenance.annotated.AnnotatedDatabase`.  With the
        default (expression) semiring each row maps to a
        :class:`~repro.provenance.expression.ProvenanceExpression` built
        from the body tuples' stored provenance (cycles unfolded to
        ``max_depth``); pass any other semiring to get values in it.
        """
        cdss = self._prepared._cdss
        if cdss is None:
            raise QueryError(
                "annotated answers need a CDSS-bound prepared query "
                "(use cdss.prepare)"
            )
        if self._pinned is not None:
            raise QueryError(
                "annotated answers read the live provenance tables and "
                "cannot be served from a pinned snapshot; execute() "
                "against the live system instead"
            )
        if self._prepared._resolved.aux:
            raise QueryError(
                "annotated answers are not available for programs with "
                "auxiliary rules: their relations carry no provenance"
            )
        if self._empty:
            return {}
        from ..datalog.ast import instantiate_atom
        from ..provenance.annotated import AnnotatedDatabase, ExpressionSemiring
        from ..schema.internal import OUTPUT_SUFFIX

        graph = cdss.provenance_graph()
        if semiring is None:
            semiring = ExpressionSemiring()
            cache: dict[tuple[str, Row], object] = {}

            def base_value(relation: str, row: Row) -> object:
                key = (relation, row)
                value = cache.get(key)
                if value is None:
                    value = graph.expression_for(
                        relation, row, max_depth=max_depth
                    )
                    cache[key] = value
                return value

        else:
            solved = graph.evaluate(semiring)

            def base_value(relation: str, row: Row) -> object:
                return solved.get((relation, row), semiring.zero)

        drop_nulls = self._mode == self.MODE_CERTAIN
        accumulator = AnnotatedDatabase(semiring)
        # Through the prepared query, which re-binds after a CDSS
        # reconfiguration (a plan-cache hit otherwise).
        binding = self._prepared._current_binding()
        rule = binding.internal_rule
        for row, subst in _binding_derivations(binding, self._values):
            if drop_nulls and tuple_has_labeled_null(row):
                continue
            contribution = semiring.one
            for atom in rule.body:
                if atom.negated:
                    continue
                body_row = instantiate_atom(atom, subst)
                user_relation = atom.predicate[: -len(OUTPUT_SUFFIX)]
                contribution = semiring.times(
                    contribution, base_value(user_relation, body_row)
                )
            accumulator.annotate(ANSWER_PREDICATE, row, contribution)
        # AnnotatedDatabase preserves first-seen row order (dict-backed).
        result = accumulator.rows(ANSWER_PREDICATE)
        if self._order or self._limit is not None or self._offset:
            kept = apply_row_order(
                tuple(result), self._order, self._limit, self._offset
            )
            result = {row: result[row] for row in kept}
        return result

    def __repr__(self) -> str:
        return f"<AnswerSet [{self._mode}] of {self._prepared!r}>"


# ---------------------------------------------------------------------------
# Preparation entry points
# ---------------------------------------------------------------------------


def as_query(query: "str | Rule | Query", params: Sequence[str] = ()) -> Query:
    """Coerce datalog text / a Rule / a Query into a :class:`Query`."""
    if isinstance(query, Query):
        if params:
            raise QueryError(
                "params= applies to datalog text; builder queries declare "
                "parameters with param(name)"
            )
        return query
    return Query.parse(query, params)


def prepare(
    query: "str | Rule | Query",
    db: Database,
    internal: InternalSchema,
    engine: "SemiNaiveEngine | None" = None,
    params: Sequence[str] = (),
    cdss: "CDSS | None" = None,
    system: object | None = None,
    use_engine_cache: bool = True,
) -> PreparedQuery:
    """Plan + compile ``query`` once against ``db``; the low-level entry.

    :meth:`CDSS.prepare <repro.core.cdss.CDSS.prepare>` calls this with
    the exchange system's engine (sharing its plan cache); standalone
    callers may pass their own engine or none (a private engine is made).
    ``use_engine_cache=False`` plans through the planner only — for
    one-shot queries whose fresh rule objects would pollute the engine's
    id-keyed cache.
    """
    if engine is None:
        from ..datalog.engine import SemiNaiveEngine

        engine = SemiNaiveEngine()
    query_obj = as_query(query, params)
    resolved = query_obj._resolve(internal.catalog)
    binding = _Binding(resolved, db, internal, engine, use_engine_cache)
    return PreparedQuery(resolved, binding, cdss=cdss, system=system)
