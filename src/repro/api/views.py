"""Lazy, composable views over peer relation instances.

A :class:`RelationView` is a *live window* onto one user relation of a
CDSS: it holds no rows itself, and every iteration / length / membership
test reads the current instance through the exchange system.  Views built
before an :meth:`~repro.core.cdss.CDSS.update_exchange` therefore observe
the post-exchange state — there is nothing to refresh.

Views compose: :meth:`~RelationView.where` conjoins a structured
predicate and :meth:`~RelationView.certain` drops labeled-null rows, each
returning a new (equally lazy) view.  Predicates
(``view.where(col("nam") == 5)``) are compiled once and *pushed down*:
equality comparisons against literals probe the relation's hash index
through the live ``R__o`` table instead of scanning and filtering in
Python.

Views are also the entry point to the query builder:
:meth:`~RelationView.select` / :meth:`~RelationView.join` /
:meth:`~RelationView.project` return a composable
:class:`~repro.api.query.Query` for :meth:`CDSS.prepare
<repro.core.cdss.CDSS.prepare>`.  :meth:`~RelationView.to_rows`
materializes a view as a plain ``frozenset``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..datalog.ast import tuple_has_labeled_null
from ..provenance.expression import ProvenanceExpression
from ..schema.relation import RelationSchema
from ..storage.instance import Row
from .query import Condition, Query, compile_row_condition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.cdss import CDSS

_CompiledCondition = tuple[
    tuple[int, ...], tuple[object, ...], "Callable[[Row], bool] | None"
]


class RelationView:
    """A lazy view of one user relation's local instance.

    Supports iteration, ``len``, ``in``, structured predicate filtering
    (pushed down to indexes), certain-answer restriction, provenance
    lookup, query building, and materialization::

        B = cdss.relation("B")
        len(B)                          # live count
        (3, 2) in B                     # membership
        B.where(col("id") == 3).to_rows()   # indexed pushdown
        B.provenance((3, 2))            # Pv(B(3,2))
        B.select(col("id") == param("i"))   # -> Query, for cdss.prepare
    """

    __slots__ = (
        "_cdss",
        "_relation",
        "_condition",
        "_certain_only",
        "_compiled_condition",
    )

    def __init__(
        self,
        cdss: "CDSS",
        relation: str,
        certain_only: bool = False,
        condition: Condition | None = None,
    ) -> None:
        self._cdss = cdss
        self._relation = relation
        self._condition = condition
        self._certain_only = certain_only
        self._compiled_condition: _CompiledCondition | None = None

    # -- identity ----------------------------------------------------------

    @property
    def name(self) -> str:
        return self._relation

    @property
    def schema(self) -> RelationSchema:
        return self._cdss._relation_schema(self._relation)

    @property
    def peer(self) -> str:
        """Name of the peer that owns this relation."""
        return self._cdss._owner_peer(self._relation).name

    # -- row access (always live) ------------------------------------------

    def _base_rows(self) -> frozenset[Row]:
        system = self._cdss.system()
        if self._certain_only:
            return system.certain_instance(self._relation)
        return system.instance(self._relation)

    def _compiled(self) -> _CompiledCondition:
        # Only reached when self._condition is not None.
        if self._compiled_condition is None:
            self._compiled_condition = compile_row_condition(
                self._condition, self.schema
            )
        return self._compiled_condition

    def _iter_live(self) -> Iterator[Row]:
        """Iterate matching rows, probing indexes for pushdown equalities."""
        if self._condition is None:
            yield from self._base_rows()
            return
        system = self._cdss.system()
        cols, values, residual = self._compiled()
        table = system.output_table(self._relation)
        if cols:
            # lookup returns a live index bucket view: snapshot it so the
            # caller may mutate the system between yields.
            rows: Iterable[Row] = tuple(table.lookup(cols, values))
        else:
            rows = table.rows()
        certain_only = self._certain_only
        for row in rows:
            if residual is not None and not residual(row):
                continue
            if certain_only and tuple_has_labeled_null(row):
                continue
            yield row

    def to_rows(self) -> frozenset[Row]:
        """Materialize the view as a plain frozenset of rows."""
        return frozenset(self._iter_live())

    def __iter__(self) -> Iterator[Row]:
        return self._iter_live()

    def __len__(self) -> int:
        if self._condition is None:
            return len(self._base_rows())
        return sum(1 for _ in self._iter_live())

    def __contains__(self, row: Iterable[object]) -> bool:
        row = tuple(row)
        if self._condition is not None:
            cols, values, residual = self._compiled()
            if any(row[c] != v for c, v in zip(cols, values)):
                return False
            if residual is not None and not residual(row):
                return False
        return row in self._base_rows()

    def __bool__(self) -> bool:
        return any(True for _ in self._iter_live())

    # -- composition -------------------------------------------------------

    def where(self, predicate: Condition) -> "RelationView":
        """A narrower view keeping only rows satisfying ``predicate``.

        Structured predicates (``col("nam") == 5``) are pushed down to
        indexed probes; anything else raises :class:`TypeError`.
        """
        if not isinstance(predicate, Condition):
            raise TypeError(
                f"where() expects a structured predicate such as "
                f'col("attr") == value, got {predicate!r}'
            )
        condition = (
            predicate
            if self._condition is None
            else self._condition & predicate
        )
        return RelationView(
            self._cdss, self._relation, self._certain_only, condition
        )

    def certain(self) -> "RelationView":
        """The view restricted to certain answers (no labeled nulls)."""
        return RelationView(self._cdss, self._relation, True, self._condition)

    # -- query building ----------------------------------------------------

    def _as_query(self) -> Query:
        query = Query.scan(self)
        if self._condition is not None:
            query = query.select(self._condition)
        return query

    def select(self, *conditions: Condition) -> Query:
        """A :class:`~repro.api.query.Query` over this relation with the
        given structured predicates conjoined (prepare with
        :meth:`CDSS.prepare <repro.core.cdss.CDSS.prepare>`)."""
        return self._as_query().select(*conditions)

    def join(
        self,
        other: "RelationView | str",
        on: object,
        alias: str | None = None,
    ) -> Query:
        """A :class:`~repro.api.query.Query` joining this relation with
        ``other`` (see :meth:`Query.join <repro.api.query.Query.join>`)."""
        return self._as_query().join(other, on, alias)

    def project(self, *columns: str) -> Query:
        """A :class:`~repro.api.query.Query` projecting this relation onto
        the named columns."""
        return self._as_query().project(*columns)

    # -- provenance --------------------------------------------------------

    def provenance(
        self, row: Iterable[object], max_depth: int = 8
    ) -> ProvenanceExpression:
        """The provenance expression of one row of this relation."""
        return self._cdss.provenance_graph().expression_for(
            self._relation, tuple(row), max_depth=max_depth
        )

    def __repr__(self) -> str:
        # No row count here: len() would (re)build the exchange system,
        # and repr must stay side-effect free for debuggers and logging.
        qualifiers = []
        if self._condition is not None:
            qualifiers.append("filtered")
        if self._certain_only:
            qualifiers.append("certain")
        suffix = f" [{', '.join(qualifiers)}]" if qualifiers else ""
        return f"<RelationView {self._relation}{suffix}>"
