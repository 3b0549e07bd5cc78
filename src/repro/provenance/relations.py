"""Relational encoding of provenance (Sections 4.1.2 and 5).

Each mapping rule ``(mi) R(x, f(x)) :- phi(x, y)`` is rewritten into

* ``(m'i)  PRi(x, y) :- phi(x, y)``     — the provenance table: one row per
  rule-body instantiation (a mapping node of the provenance graph), and
* ``(m''i) R(x, f(x)) :- PRi(x, y)``    — deriving the data instance from
  the provenance encoding,

plus, for trust (Section 3.3's (iR) rule realized per mapping so trust
conditions can attach to individual mappings),

* ``(ti)  R__t(x, f(x)) :- PRi(x, y)``  — with the mapping's trust condition
  applied as a head filter during evaluation.

Two encodings are provided, matching the implementation alternatives the
paper compared (Section 5 "Provenance storage"):

* ``per-rule`` — one provenance table per (mapping, RHS atom), the direct
  encoding of Section 4.1.2;
* ``composite`` — one provenance table per tgd even when the tgd has
  multiple RHS atoms (the "composite mapping table" optimization the paper
  found faster in practice; the default here).

Provenance-table columns are the distinct LHS variables of the tgd ("it
suffices to just store the value of each unique variable in a rule
instantiation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator

from ..datalog.ast import Atom, Program, Rule, Variable
from ..datalog.plan import _compile_pattern, _match_pattern, _tuple_getter
from ..schema.internal import InternalSchema, input_name, output_name, trusted_name
from ..schema.tgd import SchemaMapping
from ..storage.database import Database
from ..storage.instance import Row
from .expression import ProvenanceError
from .semiring import Token

ENCODING_COMPOSITE = "composite"
ENCODING_PER_RULE = "per-rule"
ENCODING_STYLES = (ENCODING_COMPOSITE, ENCODING_PER_RULE)

PROV_RULE_PREFIX = "prov:"
PROJ_RULE_PREFIX = "proj:"
TRUST_RULE_PREFIX = "trust:"

OUTPUT_SUFFIX = "__o"


def _user_relation_of_internal(internal_rel: str) -> str:
    """Strip the ``__o`` suffix from a mapping body's relation name."""
    # A real error, not an assert: the inverse rules are keyed by the
    # stripped name, so this must hold under ``python -O`` too.
    if not internal_rel.endswith(OUTPUT_SUFFIX):
        raise ProvenanceError(
            f"expected an output relation (R__o), got {internal_rel!r}"
        )
    return internal_rel[: -len(OUTPUT_SUFFIX)]


def trust_label(mapping_name: str, head_index: int) -> str:
    return f"{TRUST_RULE_PREFIX}{mapping_name}:{head_index}"


@dataclass(frozen=True)
class HeadTarget:
    """One RHS atom of a mapping, in its internal (``R__i``) Skolemized form."""

    mapping: str
    index: int
    atom: Atom  # head over R__i, Skolemized
    user_relation: str

    @cached_property
    def proj_label(self) -> str:
        return f"{PROJ_RULE_PREFIX}{self.mapping}:{self.index}"

    @cached_property
    def trust_label(self) -> str:
        return trust_label(self.mapping, self.index)


#: A compiled inverse rule: the provenance columns an atom (a head or a
#: body occurrence) pins, and a matcher turning one of its rows into
#: their probe values (None on a constant, repeated-variable or Skolem
#: mismatch).  A None matcher means the atom is distinct variables, so
#: its row *is* the probe key.
InverseRule = tuple[tuple[int, ...], Callable[[Row], Row | None] | None]


def _inverse_rule(atom: Atom, var_index: dict[Variable, int]) -> InverseRule:
    terms = atom.terms
    distinct = len(set(terms)) == len(terms)
    if distinct and all(isinstance(t, Variable) for t in terms):
        return tuple(var_index[t] for t in terms), None
    # Variables bind in first-occurrence order, so the matcher's values
    # line up with these columns (plan's Skolem-destructuring patterns).
    slot_of: dict[Variable, int] = {}
    patterns = tuple(_compile_pattern(t, slot_of, 0) for t in terms)

    def match(row: Row) -> Row | None:
        bound: list[object] = []
        for pattern, value in zip(patterns, row):
            if not _match_pattern(pattern, value, (), bound):
                return None
        return tuple(bound)

    return tuple(var_index[var] for var in slot_of), match


@dataclass(frozen=True)
class ProvenanceTable:
    """One provenance relation: its schema, defining body, and head targets.

    The forward rules (``head_row``, ``source_tuples``) and the inverse
    rules of Section 4.1.3 are compiled once per head and per positive
    body occurrence here — the treatment ``repro.datalog.plan`` gives
    mapping rules — so the deletion path never interprets a term per row.
    A head's inverse rule answers "which rows derive this tuple"
    (``supporting_rows``, ``supported``); a body occurrence's answers
    "which rows joined this tuple" (``doomed_rows``).
    """

    mapping: str
    relation: str
    variables: tuple[Variable, ...]
    body: tuple[Atom, ...]  # over R__o internal names; may include negation
    heads: tuple[HeadTarget, ...]
    # head.index -> (head_row getter, inverse rule)
    _compiled: dict[int, tuple[Callable[[Row], Row], InverseRule]] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]
    # (user relation, tuple getter, inverse rule) per positive body atom
    _sources: tuple[tuple[str, Callable[[Row], Row], InverseRule], ...] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]

    def __post_init__(self) -> None:
        var_index = {var: i for i, var in enumerate(self.variables)}
        object.__setattr__(
            self,
            "_compiled",
            {
                head.index: (
                    _tuple_getter(head.atom.terms, var_index),
                    _inverse_rule(head.atom, var_index),
                )
                for head in self.heads
            },
        )
        object.__setattr__(
            self,
            "_sources",
            tuple(
                (
                    _user_relation_of_internal(atom.predicate),
                    _tuple_getter(atom.terms, var_index),
                    _inverse_rule(atom, var_index),
                )
                for atom in self.body
                if not atom.negated
            ),
        )

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def prov_label(self) -> str:
        return f"{PROV_RULE_PREFIX}{self.mapping}:{self.relation}"

    # -- row interpretation -------------------------------------------------

    def head_row(self, head: HeadTarget, row: Row) -> Row:
        return self._compiled[head.index][0](row)

    def source_tuples(self, row: Row) -> tuple[Token, ...]:
        """The user-level (relation, tuple) pairs joined by this instantiation
        (positive body atoms only — these are the provenance-graph arcs *into*
        the mapping node)."""
        return tuple(
            [(relation, get(row)) for relation, get, _ in self._sources]
        )

    @property
    def source_relations(self) -> frozenset[str]:
        """The user relations the positive body atoms read."""
        return frozenset(relation for relation, _, _ in self._sources)

    def positive_body_atoms(self) -> tuple[tuple[int, Atom], ...]:
        """(index, atom) pairs for the positive body atoms."""
        return tuple(
            (index, atom)
            for index, atom in enumerate(self.body)
            if not atom.negated
        )

    def supporting_rows(
        self, db: Database, head: HeadTarget, target_row: Row
    ) -> Collection[Row]:
        """All rows of this provenance table deriving ``target_row`` via
        ``head`` in the current database state.

        This is the *inverse rule* of Section 4.1.3: it "uses the existing
        provenance table to fill in the possible values ... that were
        projected away during the mapping".  A row the head cannot produce
        (constant, repeated-variable or Skolem mismatch) has no support.

        Returns what :meth:`repro.storage.instance.Instance.lookup` does: a
        read-only ``(row,)`` for one supporting row, the live index bucket
        for more; materialize before mutating the provenance table while
        iterating.
        """
        columns, match = self._compiled[head.index][1]
        if match is not None:
            target_row = match(target_row)
            if target_row is None:
                return frozenset()
        return db[self.relation].lookup(columns, target_row)

    def supported(
        self, db: Database, head: HeadTarget, rows: Iterable[Row]
    ) -> set[Row]:
        """The ``rows`` (target tuples of ``head``) that some row of this
        table still derives: :meth:`supporting_rows` set-at-a-time, one
        key intersection with the head columns' index."""
        columns, match = self._compiled[head.index][1]
        table = db[self.relation]
        if match is None:
            return table.keys_present(columns, rows)
        by_key = {key: row for row in rows if (key := match(row)) is not None}
        return {by_key[key] for key in table.keys_present(columns, by_key)}

    def doomed_rows(
        self, db: Database, relation: str, rows: Collection[Row]
    ) -> set[Row]:
        """This table's rows that joined one of ``rows`` (tuples of user
        relation ``relation``) at some positive body occurrence — the
        semijoin ``P ⋉ ΔR__o⁻``, one key intersection per occurrence."""
        doomed: set[Row] = set()
        for source, _, (columns, match) in self._sources:
            if source == relation:
                keys = rows if match is None else [
                    key for key in map(match, rows) if key is not None
                ]
                doomed |= db[self.relation].matching(columns, keys)
        return doomed

    # -- rule generation ------------------------------------------------------

    def prov_rule(self) -> Rule:
        """``(m') PRi(vars) :- body``."""
        return Rule(
            Atom(self.relation, self.variables),
            self.body,
            label=self.prov_label,
        )

    def proj_rules(self) -> tuple[Rule, ...]:
        """``(m'') R__i(head) :- PRi(vars)`` for each head target."""
        prov_atom = Atom(self.relation, self.variables)
        return tuple(
            Rule(head.atom, (prov_atom,), label=head.proj_label)
            for head in self.heads
        )

    def trust_rules(self) -> tuple[Rule, ...]:
        """``(ti) R__t(head) :- PRi(vars)`` for each head target."""
        prov_atom = Atom(self.relation, self.variables)
        return tuple(
            Rule(
                head.atom.with_predicate(
                    trusted_name(head.user_relation)
                ),
                (prov_atom,),
                label=head.trust_label,
            )
            for head in self.heads
        )


def _mapping_tables(
    mapping: SchemaMapping, style: str
) -> tuple[ProvenanceTable, ...]:
    skolems = mapping.skolem_terms()
    lhs_vars: list[Variable] = []
    for atom in mapping.lhs:
        for var in atom.variables():
            if var not in lhs_vars:
                lhs_vars.append(var)
    body = tuple(
        Atom(output_name(atom.predicate), atom.terms, negated=atom.negated)
        for atom in mapping.lhs
    )

    def head_target(index: int, atom: Atom) -> HeadTarget:
        terms = tuple(
            skolems.get(t, t) if isinstance(t, Variable) else t
            for t in atom.terms
        )
        return HeadTarget(
            mapping=mapping.name,
            index=index,
            atom=Atom(input_name(atom.predicate), terms),
            user_relation=atom.predicate,
        )

    heads = tuple(
        head_target(index, atom) for index, atom in enumerate(mapping.rhs)
    )
    if style == ENCODING_COMPOSITE:
        return (
            ProvenanceTable(
                mapping=mapping.name,
                relation=f"__prov_{mapping.name}",
                variables=tuple(lhs_vars),
                body=body,
                heads=heads,
            ),
        )
    if style == ENCODING_PER_RULE:
        return tuple(
            ProvenanceTable(
                mapping=mapping.name,
                relation=f"__prov_{mapping.name}_{head.index}",
                variables=tuple(lhs_vars),
                body=body,
                heads=(head,),
            )
            for head in heads
        )
    raise ProvenanceError(f"unknown provenance encoding style {style!r}")


@dataclass(frozen=True)
class ProvenanceEncoding:
    """The full relational provenance encoding for an internal schema."""

    internal: InternalSchema
    style: str = ENCODING_COMPOSITE
    tables: tuple[ProvenanceTable, ...] = field(default=None, compare=False)  # type: ignore[assignment]
    _targets: dict[str, tuple[tuple[ProvenanceTable, HeadTarget], ...]] = (
        field(default=None, compare=False, repr=False)  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        tables: list[ProvenanceTable] = []
        for mapping in self.internal.mappings:
            tables.extend(_mapping_tables(mapping, self.style))
        object.__setattr__(self, "tables", tuple(tables))
        targets: dict[str, list[tuple[ProvenanceTable, HeadTarget]]] = {}
        for table, head in self.iter_heads():
            targets.setdefault(head.user_relation, []).append((table, head))
        object.__setattr__(
            self,
            "_targets",
            {relation: tuple(pairs) for relation, pairs in targets.items()},
        )

    # -- lookups ----------------------------------------------------------

    def tables_for_mapping(self, mapping: str) -> tuple[ProvenanceTable, ...]:
        return tuple(t for t in self.tables if t.mapping == mapping)

    def targets_for_relation(
        self, user_relation: str
    ) -> tuple[tuple[ProvenanceTable, HeadTarget], ...]:
        """Every (table, head) pair that can derive tuples of a relation."""
        return self._targets.get(user_relation, ())

    def iter_heads(self) -> Iterator[tuple[ProvenanceTable, HeadTarget]]:
        for table in self.tables:
            for head in table.heads:
                yield table, head

    # -- program assembly ----------------------------------------------------

    def mapping_program(self) -> Program:
        """(m') + (m'') + trust rules for all mappings."""
        rules: list[Rule] = []
        for table in self.tables:
            rules.append(table.prov_rule())
            rules.extend(table.proj_rules())
            rules.extend(table.trust_rules())
        return Program(tuple(rules), name=f"provenance-{self.style}")

    def full_program(self) -> Program:
        """The complete update-exchange program: mapping rules with
        provenance encoding plus the (tR)/(lR) bookkeeping rules."""
        return self.mapping_program().extend(
            self.internal.bookkeeping_rules()
        )

    def setup_database(self, db: Database) -> None:
        self.internal.setup_database(db)
        for table in self.tables:
            db.ensure(table.relation, table.arity)

    def provenance_relation_names(self) -> tuple[str, ...]:
        return tuple(t.relation for t in self.tables)
