"""Commutative semirings for provenance evaluation.

Section 3.2 represents the provenance of a derived tuple as an expression
over a semiring with two operations (+ for alternative derivations, . for
joint use in a join) and one unary function per mapping.  This module
provides the semiring abstraction and the concrete instances used by the
system and its extensions:

* :class:`BooleanSemiring` — trust evaluation (Section 3.3: map T to true
  and D to false, evaluate with . as conjunction and + as disjunction);
* :class:`CountingSemiring` — duplicate/bag semantics, which the paper notes
  its model generalizes (Section 7, citing [30]);
* :class:`LineageSemiring` — which base tuples contributed (Cui-style
  lineage [8], recovered as a special semiring);
* :class:`WhySemiring` — witness sets (why-provenance [4]);
* :class:`TropicalSemiring` — (min, +): derivation cost; the basis for the
  *ranked trust* extension the paper lists as future work (Section 8);
* the free expression "semiring" lives in
  :mod:`repro.provenance.expression`.

All instances are commutative and (except for saturation in the counting
semiring, documented below) satisfy the semiring laws, which the test suite
verifies with hypothesis.
"""

from __future__ import annotations

from typing import Generic, Iterable, TypeVar

T = TypeVar("T")


class Semiring(Generic[T]):
    """A commutative semiring (K, plus, times, zero, one).

    Subclasses must provide ``zero``, ``one``, :meth:`plus` and
    :meth:`times`.  :meth:`map_apply` interprets the unary mapping functions
    of provenance expressions; the default interpretation is the identity,
    which collapses mapping applications (correct for lineage, why, counting
    — trust overrides it to AND in the mapping's trust condition).
    """

    name: str = "semiring"

    @property
    def zero(self) -> T:
        raise NotImplementedError

    @property
    def one(self) -> T:
        raise NotImplementedError

    def plus(self, a: T, b: T) -> T:
        raise NotImplementedError

    def times(self, a: T, b: T) -> T:
        raise NotImplementedError

    def map_apply(self, mapping_name: str, value: T) -> T:
        """Interpret the unary function of ``mapping_name`` applied to
        ``value``.  Identity unless overridden."""
        return value

    # -- conveniences -------------------------------------------------------

    def sum(self, values: Iterable[T]) -> T:
        result = self.zero
        for value in values:
            result = self.plus(result, value)
        return result

    def product(self, values: Iterable[T]) -> T:
        result = self.one
        for value in values:
            result = self.times(result, value)
        return result

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class BooleanSemiring(Semiring[bool]):
    """({true, false}, or, and): trust/derivability evaluation."""

    name = "boolean"

    @property
    def zero(self) -> bool:
        return False

    @property
    def one(self) -> bool:
        return True

    def plus(self, a: bool, b: bool) -> bool:
        return a or b

    def times(self, a: bool, b: bool) -> bool:
        return a and b


#: Counting values saturate here so that cyclic provenance (infinitely many
#: derivations, Section 3.2) converges instead of diverging.  The paper's
#: formal treatment uses formal power series; saturation is the standard
#: omega-continuous completion N_infinity, with every value >= the cap
#: identified with infinity.
COUNT_SATURATION = 2**20


class CountingSemiring(Semiring[int]):
    """(N_infinity, +, *): number of distinct derivations (bag semantics)."""

    name = "counting"

    def __init__(self, saturation: int = COUNT_SATURATION) -> None:
        self._saturation = saturation

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def _clamp(self, value: int) -> int:
        return min(value, self._saturation)

    def plus(self, a: int, b: int) -> int:
        return self._clamp(a + b)

    def times(self, a: int, b: int) -> int:
        return self._clamp(a * b)


Token = tuple[str, tuple[object, ...]]
"""A provenance token: (relation name, tuple values) — Section 4.1.2 uses
the tuple itself as its own id."""


class LineageSemiring(Semiring[frozenset | None]):
    """Cui-style lineage: the set of base tuples a tuple depends on.

    ``None`` is the zero (no derivation); the empty set is the one.  Both
    operations union the contributing token sets, which is exactly why
    lineage cannot distinguish alternative derivations — the coarseness the
    paper's model improves upon (Section 2.2).
    """

    name = "lineage"

    @property
    def zero(self) -> frozenset | None:
        return None

    @property
    def one(self) -> frozenset:
        return frozenset()

    def plus(self, a: frozenset | None, b: frozenset | None) -> frozenset | None:
        if a is None:
            return b
        if b is None:
            return a
        return a | b

    def times(self, a: frozenset | None, b: frozenset | None) -> frozenset | None:
        if a is None or b is None:
            return None
        return a | b


class WhySemiring(Semiring[frozenset]):
    """Why-provenance: sets of witness sets of base tokens.

    plus is union of witness sets; times combines witnesses pairwise.
    zero = {} (no witnesses), one = {{}} (the empty witness).
    """

    name = "why"

    @property
    def zero(self) -> frozenset:
        return frozenset()

    @property
    def one(self) -> frozenset:
        return frozenset({frozenset()})

    def plus(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def times(self, a: frozenset, b: frozenset) -> frozenset:
        return frozenset(wa | wb for wa in a for wb in b)


class TropicalSemiring(Semiring[float]):
    """(R_>=0 with infinity, min, +): cheapest-derivation cost.

    Token values are per-source costs (e.g. 0 for fully trusted peers,
    higher for less authoritative ones); :meth:`map_apply` can be combined
    with per-mapping costs via :class:`WeightedTropicalSemiring`.  This
    realizes the ranked trust model sketched in Section 8.
    """

    name = "tropical"

    @property
    def zero(self) -> float:
        return float("inf")

    @property
    def one(self) -> float:
        return 0.0

    def plus(self, a: float, b: float) -> float:
        return min(a, b)

    def times(self, a: float, b: float) -> float:
        return a + b


class WeightedTropicalSemiring(TropicalSemiring):
    """Tropical semiring whose mapping functions add per-mapping costs."""

    name = "weighted-tropical"

    def __init__(self, mapping_costs: dict[str, float] | None = None) -> None:
        self._costs = dict(mapping_costs or {})

    def map_apply(self, mapping_name: str, value: float) -> float:
        return value + self._costs.get(mapping_name, 0.0)


def check_semiring_laws(
    semiring: Semiring[T], a: T, b: T, c: T
) -> list[str]:
    """Return descriptions of any violated semiring laws on (a, b, c).

    Used by the property-based tests; an empty list means all laws hold for
    this triple.
    """
    failures: list[str] = []
    s = semiring

    def eq(x: T, y: T, law: str) -> None:
        if x != y:
            failures.append(f"{law}: {x!r} != {y!r}")

    eq(s.plus(a, b), s.plus(b, a), "plus commutativity")
    eq(s.plus(s.plus(a, b), c), s.plus(a, s.plus(b, c)), "plus associativity")
    eq(s.plus(a, s.zero), a, "plus identity")
    eq(s.times(a, b), s.times(b, a), "times commutativity")
    eq(
        s.times(s.times(a, b), c),
        s.times(a, s.times(b, c)),
        "times associativity",
    )
    eq(s.times(a, s.one), a, "times identity")
    eq(s.times(a, s.zero), s.zero, "times annihilation")
    eq(
        s.times(a, s.plus(b, c)),
        s.plus(s.times(a, b), s.times(a, c)),
        "distributivity",
    )
    return failures
