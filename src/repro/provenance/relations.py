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
from typing import AbstractSet, Iterator

from ..datalog.ast import (
    Atom,
    Constant,
    Program,
    Rule,
    SkolemTerm,
    SkolemValue,
    Variable,
    instantiate_atom,
)
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

OUTPUT_SUFFIX_LEN = len("__o")


def _user_relation_of_internal(internal_rel: str) -> str:
    """Strip the ``__o`` / ``__i`` suffix from an internal relation name."""
    return internal_rel[:-OUTPUT_SUFFIX_LEN]


def trust_label(mapping_name: str, head_index: int) -> str:
    return f"{TRUST_RULE_PREFIX}{mapping_name}:{head_index}"


@dataclass(frozen=True)
class HeadTarget:
    """One RHS atom of a mapping, in its internal (``R__i``) Skolemized form."""

    mapping: str
    index: int
    atom: Atom  # head over R__i, Skolemized
    user_relation: str

    @property
    def proj_label(self) -> str:
        return f"{PROJ_RULE_PREFIX}{self.mapping}:{self.index}"

    @property
    def trust_label(self) -> str:
        return trust_label(self.mapping, self.index)


@dataclass(frozen=True)
class ProvenanceTable:
    """One provenance relation: its schema, defining body, and head targets."""

    mapping: str
    relation: str
    variables: tuple[Variable, ...]
    body: tuple[Atom, ...]  # over R__o internal names; may include negation
    heads: tuple[HeadTarget, ...]
    _var_index: dict[Variable, int] = field(
        default=None, compare=False, repr=False
    )  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_var_index",
            {var: i for i, var in enumerate(self.variables)},
        )

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def prov_label(self) -> str:
        return f"{PROV_RULE_PREFIX}{self.mapping}:{self.relation}"

    # -- row interpretation -------------------------------------------------

    def substitution(self, row: Row) -> dict[Variable, object]:
        return dict(zip(self.variables, row, strict=True))

    def head_row(self, head: HeadTarget, row: Row) -> Row:
        return instantiate_atom(head.atom, self.substitution(row))

    def source_tuples(self, row: Row) -> tuple[Token, ...]:
        """The user-level (relation, tuple) pairs joined by this instantiation
        (positive body atoms only — these are the provenance-graph arcs *into*
        the mapping node)."""
        subst = self.substitution(row)
        out: list[Token] = []
        for atom in self.body:
            if atom.negated:
                continue
            out.append(
                (
                    _user_relation_of_internal(atom.predicate),
                    instantiate_atom(atom, subst),
                )
            )
        return tuple(out)

    def support_probe(
        self, head: HeadTarget, target_row: Row
    ) -> tuple[tuple[int, ...], tuple[object, ...]] | None:
        """Columns/values probing this table for rows deriving ``target_row``.

        This is the *inverse rule* of Section 4.1.3: it "uses the existing
        provenance table to fill in the possible values ... that were
        projected away during the mapping".  Returns None if ``target_row``
        cannot possibly be derived through ``head`` (constant or Skolem
        mismatch).
        """
        bindings: dict[Variable, object] = {}

        def bind(var: Variable, value: object) -> bool:
            known = bindings.get(var, _UNSET)
            if known is _UNSET:
                bindings[var] = value
                return True
            return known == value

        for term, value in zip(head.atom.terms, target_row, strict=True):
            if isinstance(term, Constant):
                if term.value != value:
                    return None
            elif isinstance(term, Variable):
                if not bind(term, value):
                    return None
            elif isinstance(term, SkolemTerm):
                if not isinstance(value, SkolemValue):
                    return None
                if value.function_name != term.function.name:
                    return None
                if len(value.args) != len(term.args):
                    return None
                for arg_term, arg_value in zip(term.args, value.args):
                    if isinstance(arg_term, Variable):
                        if not bind(arg_term, arg_value):
                            return None
                    elif isinstance(arg_term, Constant):
                        if arg_term.value != arg_value:
                            return None
                    else:  # pragma: no cover - parser forbids nesting
                        raise ProvenanceError(
                            f"nested Skolem term {arg_term!r} unsupported"
                        )
        columns: list[int] = []
        values: list[object] = []
        for var, value in bindings.items():
            index = self._var_index.get(var)
            if index is None:  # pragma: no cover - heads use LHS vars only
                raise ProvenanceError(
                    f"head variable {var!r} missing from provenance table "
                    f"{self.relation!r}"
                )
            columns.append(index)
            values.append(value)
        return tuple(columns), tuple(values)

    def body_probe(
        self, atom_index: int, source_row: Row
    ) -> tuple[tuple[int, ...], tuple[object, ...]] | None:
        """Columns/values probing this table for instantiations that joined
        ``source_row`` at positive body atom ``atom_index``.

        This is the deletion delta rule of Section 4.2: when a source tuple
        is deleted, the matching provenance rows are exactly the
        instantiations that used it.  Returns None on constant mismatch
        (the row cannot have matched this atom).
        """
        atom = self.body[atom_index]
        if atom.negated:
            raise ProvenanceError(
                f"body_probe on negated atom {atom!r} of {self.relation!r}"
            )
        bindings: dict[Variable, object] = {}
        for term, value in zip(atom.terms, source_row, strict=True):
            if isinstance(term, Constant):
                if term.value != value:
                    return None
            elif isinstance(term, Variable):
                known = bindings.get(term, _UNSET)
                if known is _UNSET:
                    bindings[term] = value
                elif known != value:
                    return None
            else:  # pragma: no cover - bodies cannot hold Skolem terms
                raise ProvenanceError(f"unexpected body term {term!r}")
        columns = tuple(self._var_index[var] for var in bindings)
        values = tuple(bindings[var] for var in bindings)
        return columns, values

    def positive_body_atoms(self) -> tuple[tuple[int, Atom], ...]:
        """(index, atom) pairs for the positive body atoms."""
        return tuple(
            (index, atom)
            for index, atom in enumerate(self.body)
            if not atom.negated
        )

    def supporting_rows(
        self, db: Database, head: HeadTarget, target_row: Row
    ) -> AbstractSet[Row]:
        """All rows of this provenance table deriving ``target_row`` via
        ``head`` in the current database state.

        Returns a read-only view of the live index bucket (see
        :meth:`repro.storage.instance.Instance.lookup`); materialize before
        mutating the provenance table while iterating.
        """
        probe = self.support_probe(head, target_row)
        if probe is None:
            return frozenset()
        columns, values = probe
        return db[self.relation].lookup(columns, values)

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


class _Unset:
    __slots__ = ()


_UNSET = _Unset()


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

    def __post_init__(self) -> None:
        tables: list[ProvenanceTable] = []
        for mapping in self.internal.mappings:
            tables.extend(_mapping_tables(mapping, self.style))
        object.__setattr__(self, "tables", tuple(tables))

    # -- lookups ----------------------------------------------------------

    def table_named(self, relation: str) -> ProvenanceTable:
        for table in self.tables:
            if table.relation == relation:
                return table
        raise ProvenanceError(f"no provenance table named {relation!r}")

    def tables_for_mapping(self, mapping: str) -> tuple[ProvenanceTable, ...]:
        return tuple(t for t in self.tables if t.mapping == mapping)

    def targets_for_relation(
        self, user_relation: str
    ) -> tuple[tuple[ProvenanceTable, HeadTarget], ...]:
        """Every (table, head) pair that can derive tuples of a relation."""
        out: list[tuple[ProvenanceTable, HeadTarget]] = []
        for table in self.tables:
            for head in table.heads:
                if head.user_relation == user_relation:
                    out.append((table, head))
        return tuple(out)

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
