"""Core abstract syntax for datalog with Skolem functions.

The paper (Section 4.1.1) compiles schema mappings (tgds) into a version of
datalog *extended with Skolem functions*: each existentially quantified
variable on the RHS of a tgd becomes a Skolem term over the variables shared
between the LHS and RHS.  Evaluating such a term produces a *labeled null*
(:class:`SkolemValue`) — the placeholder values of canonical universal
solutions.

This module defines the term/atom/rule/program data model shared by the
parser, the planners, and the evaluation engine.  All types are immutable and
hashable so they can be used as dictionary keys and set members, which the
semi-naive engine relies on heavily.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence


class DatalogError(Exception):
    """Base class for errors raised by the datalog subsystem."""


class SafetyError(DatalogError):
    """A rule violates the datalog safety conditions."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variable:
    """A datalog variable, identified by name."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A constant term wrapping an arbitrary hashable Python value."""

    value: object

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class SkolemFunction:
    """A named Skolem function.

    The paper requires *a separate Skolem function for each existentially
    quantified variable in each tgd* (Section 4.1.1); callers encode this by
    minting one :class:`SkolemFunction` per (mapping, variable) pair, e.g.
    ``f_m3_c``.
    """

    name: str

    def __call__(self, *args: object) -> "SkolemValue":
        return SkolemValue(self.name, tuple(args))

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class SkolemTerm:
    """An application of a Skolem function to argument terms.

    Skolem terms may appear only in rule heads; during head instantiation the
    engine evaluates them to :class:`SkolemValue` labeled nulls.
    """

    function: SkolemFunction
    args: tuple["Term", ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.function.name}({inner})"


Term = Variable | Constant | SkolemTerm

_set = object.__setattr__


class SkolemValue:
    """A labeled null: the ground value produced by a Skolem function.

    Two labeled nulls are equal iff they were produced by the same Skolem
    function applied to the same arguments — exactly the placeholder-value
    semantics of Section 4.1.1.  Labeled nulls are ordinary values to the
    engine (joins may test them for equality) but are filtered out when
    producing *certain answers* (Section 2.1).

    Nulls nest (a null's arguments may be nulls), and every index insert,
    probe and dedup hashes them, so the hash — ``hash((function_name,
    args))`` — is computed once here rather than re-walked per use.
    Instances are immutable and pickle by reconstruction, so a cached
    hash never crosses a process (string hashes are per-process).
    """

    __slots__ = ("function_name", "args", "_hash")

    function_name: str
    args: tuple[object, ...]

    def __init__(self, function_name: str, args: tuple[object, ...]) -> None:
        _set(self, "function_name", function_name)
        _set(self, "args", args)
        _set(self, "_hash", hash((function_name, args)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not SkolemValue:
            return False
        return (
            self._hash == other._hash
            and self.function_name == other.function_name
            and self.args == other.args
        )

    def __reduce__(self) -> tuple:
        return SkolemValue, (self.function_name, self.args)

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.function_name}({inner})"


def is_labeled_null(value: object) -> bool:
    """Return True if ``value`` is a labeled null (Skolem value)."""
    return isinstance(value, SkolemValue)


def tuple_has_labeled_null(row: Sequence[object]) -> bool:
    """Return True if any component of ``row`` is a labeled null."""
    return any(isinstance(v, SkolemValue) for v in row)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A (possibly negated) predicate applied to terms.

    Negated atoms are only legal in rule bodies, and only when every variable
    they mention also occurs in a positive body atom (*safe negation*,
    Section 3.1).
    """

    predicate: str
    terms: tuple[Term, ...]
    negated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> tuple[Variable, ...]:
        """All variables occurring in the atom, in order, with duplicates."""
        out: list[Variable] = []
        for term in self.terms:
            out.extend(_term_variables(term))
        return tuple(out)

    def variable_set(self) -> frozenset[Variable]:
        return frozenset(self.variables())

    def negate(self) -> "Atom":
        return Atom(self.predicate, self.terms, negated=not self.negated)

    def with_predicate(self, predicate: str) -> "Atom":
        return Atom(predicate, self.terms, negated=self.negated)

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        prefix = "not " if self.negated else ""
        return f"{prefix}{self.predicate}({inner})"


def _term_variables(term: Term) -> Iterator[Variable]:
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, SkolemTerm):
        for arg in term.args:
            yield from _term_variables(arg)


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------

Substitution = Mapping[Variable, object]


def apply_term(term: Term, subst: Substitution) -> object:
    """Evaluate ``term`` under ``subst``, producing a ground value.

    Skolem terms evaluate to :class:`SkolemValue` labeled nulls.  Raises
    :class:`KeyError` if a variable is unbound.
    """
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Variable):
        return subst[term]
    if isinstance(term, SkolemTerm):
        args = tuple(apply_term(arg, subst) for arg in term.args)
        return SkolemValue(term.function.name, args)
    raise TypeError(f"unknown term type: {term!r}")


def instantiate_atom(atom: Atom, subst: Substitution) -> tuple[object, ...]:
    """Ground an atom's terms under a substitution into a data row."""
    return tuple(apply_term(t, subst) for t in atom.terms)


def match_atom(
    atom: Atom, row: Sequence[object], subst: dict[Variable, object]
) -> dict[Variable, object] | None:
    """Try to extend ``subst`` so that ``atom`` matches ``row``.

    Returns the extended substitution (a new dict) on success, ``None`` on
    mismatch.  Skolem terms in body atoms act as *patterns*: they match only
    labeled nulls produced by the same Skolem function, and matching binds
    their argument variables from the null's arguments.  This is what makes
    the inverse rules of Section 4.1.3 directly expressible — "fill in the
    possible values ... that were projected away during the mapping".
    """
    result = dict(subst)
    for term, value in zip(atom.terms, row, strict=True):
        if not _match_term(term, value, result):
            return None
    return result


def _match_term(
    term: Term, value: object, result: dict[Variable, object]
) -> bool:
    if isinstance(term, Constant):
        return term.value == value
    if isinstance(term, Variable):
        bound = result.get(term, _UNBOUND)
        if bound is _UNBOUND:
            result[term] = value
            return True
        return bound == value
    if isinstance(term, SkolemTerm):
        if not isinstance(value, SkolemValue):
            return False
        if value.function_name != term.function.name:
            return False
        if len(value.args) != len(term.args):
            return False
        return all(
            _match_term(arg_term, arg_value, result)
            for arg_term, arg_value in zip(term.args, value.args)
        )
    raise DatalogError(f"unknown term type: {term!r}")


class _Unbound:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unbound>"


_UNBOUND = _Unbound()


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """A datalog rule ``head :- body``.

    ``label`` carries the provenance mapping name (e.g. ``"m1"``) for rules
    generated from schema mappings; it is how the provenance machinery knows
    which unary mapping function annotates derivations through this rule.
    """

    head: Atom
    body: tuple[Atom, ...]
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if self.head.negated:
            raise SafetyError(f"negated head in rule: {self!r}")

    @property
    def positive_body(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.body if not a.negated)

    @property
    def negative_body(self) -> tuple[Atom, ...]:
        return tuple(a for a in self.body if a.negated)

    def variables(self) -> frozenset[Variable]:
        out: set[Variable] = set(self.head.variable_set())
        for atom in self.body:
            out |= atom.variable_set()
        return frozenset(out)

    def check_safety(self, bound: Iterable[Variable] = ()) -> None:
        """Raise :class:`SafetyError` unless the rule is safe.

        Safety: every head variable and every variable of a negated body atom
        must occur in some positive body atom (tgds *with safe negation*,
        Section 3.1), or in ``bound`` (parameters, bound before evaluation).
        """
        positive_vars: set[Variable] = set(bound)
        for atom in self.positive_body:
            positive_vars |= atom.variable_set()
        for var in self.head.variable_set():
            if var not in positive_vars:
                raise SafetyError(
                    f"head variable {var!r} not bound by a positive body "
                    f"atom in rule {self!r}"
                )
        for atom in self.negative_body:
            for var in atom.variable_set():
                if var not in positive_vars:
                    raise SafetyError(
                        f"variable {var!r} of negated atom {atom!r} not "
                        f"bound by a positive body atom in rule {self!r}"
                    )

    def rename_apart(self, suffix: str) -> "Rule":
        """Return a copy with every variable renamed with ``suffix``."""
        mapping = {v: Variable(f"{v.name}{suffix}") for v in self.variables()}
        return Rule(
            head=_rename_atom(self.head, mapping),
            body=tuple(_rename_atom(a, mapping) for a in self.body),
            label=self.label,
        )

    def __repr__(self) -> str:
        body = ", ".join(repr(a) for a in self.body)
        tag = f" [{self.label}]" if self.label else ""
        return f"{self.head!r} :- {body}{tag}"


def _rename_term(term: Term, mapping: Mapping[Variable, Variable]) -> Term:
    if isinstance(term, Variable):
        return mapping.get(term, term)
    if isinstance(term, SkolemTerm):
        return SkolemTerm(
            term.function, tuple(_rename_term(a, mapping) for a in term.args)
        )
    return term


def _rename_atom(atom: Atom, mapping: Mapping[Variable, Variable]) -> Atom:
    return Atom(
        atom.predicate,
        tuple(_rename_term(t, mapping) for t in atom.terms),
        negated=atom.negated,
    )


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """An ordered collection of rules forming a datalog program."""

    rules: tuple[Rule, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def check_safety(self, bound: Iterable[Variable] = ()) -> None:
        for rule in self.rules:
            rule.check_safety(bound)

    def idb_predicates(self) -> frozenset[str]:
        """Predicates defined by some rule head."""
        return frozenset(rule.head.predicate for rule in self.rules)

    def edb_predicates(self) -> frozenset[str]:
        """Predicates used in bodies but never defined by a head."""
        idb = self.idb_predicates()
        out: set[str] = set()
        for rule in self.rules:
            for atom in rule.body:
                if atom.predicate not in idb:
                    out.add(atom.predicate)
        return frozenset(out)

    def predicates(self) -> frozenset[str]:
        out: set[str] = set()
        for rule in self.rules:
            out.add(rule.head.predicate)
            for atom in rule.body:
                out.add(atom.predicate)
        return frozenset(out)

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.head.predicate == predicate)

    def extend(self, rules: Iterable[Rule]) -> "Program":
        return Program(self.rules + tuple(rules), name=self.name)

    def __repr__(self) -> str:
        title = self.name or "program"
        lines = "\n".join(f"  {rule!r}" for rule in self.rules)
        return f"<{title}:\n{lines}\n>"


def make_atom(predicate: str, *terms: Term | str | object) -> Atom:
    """Convenience constructor: strings become variables if they start with
    a lowercase letter or ``_``; other plain values become constants.

    Intended for tests and examples; production code builds atoms directly.
    """
    converted: list[Term] = []
    for term in terms:
        if isinstance(term, (Variable, Constant, SkolemTerm)):
            converted.append(term)
        elif isinstance(term, str) and term[:1].isalpha() and term[0].islower():
            converted.append(Variable(term))
        else:
            converted.append(Constant(term))
    return Atom(predicate, tuple(converted))
