"""Weighted Z-set deltas: the unified change representation.

A **Z-set** maps rows to signed integer multiplicities (DBSP-style; cf.
``theSherwood/pydbsp``).  It is the one delta type every maintenance
path speaks: an insertion batch is a Z-set of weight ``+1`` rows, a
deletion or trust-revocation batch weight ``-1`` rows, and a mixed batch
simply carries both signs.  Because the stored relations are *sets*,
weights are normalized back to set semantics at stratum boundaries with
:meth:`ZSet.distinct` — a row is present iff its accumulated weight is
positive — which is what lets one incremental operator pass serve
inserts and retractions alike (see ``repro.core.weighted``).

:func:`apply_zset` replays a Z-set against a live
:class:`~repro.storage.instance.Instance`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .instance import Instance, Row

__all__ = ["ZSet", "apply_zset"]


class ZSet:
    """A finite map from rows to non-zero signed multiplicities.

    Mutating operations drop entries whose weight reaches zero, so the
    support (``len``/``iter``) is always exactly the rows with non-zero
    weight and ``bool(zset)`` is "does this delta change anything".
    """

    __slots__ = ("_weights",)

    def __init__(
        self, weights: Mapping["Row", int] | None = None
    ) -> None:
        self._weights: dict["Row", int] = {}
        if weights:
            for row, weight in weights.items():
                if weight:
                    self._weights[row] = weight

    @classmethod
    def from_rows(cls, rows: Iterable["Row"], weight: int = 1) -> "ZSet":
        """A Z-set with every row of ``rows`` at ``weight``."""
        zset = cls()
        if weight:
            add = zset.add
            for row in rows:
                add(row, weight)
        return zset

    # -- accumulation ------------------------------------------------------

    def add(self, row: "Row", weight: int = 1) -> int:
        """Accumulate ``weight`` onto ``row``; return the new weight."""
        total = self._weights.get(row, 0) + weight
        if total:
            self._weights[row] = total
        else:
            self._weights.pop(row, None)
        return total

    def merge(self, other: "ZSet") -> "ZSet":
        """In-place pointwise sum (the Z-set group operation)."""
        add = self.add
        for row, weight in other._weights.items():
            add(row, weight)
        return self

    def negate(self) -> "ZSet":
        """A new Z-set with every weight sign-flipped."""
        return ZSet({row: -w for row, w in self._weights.items()})

    # -- views -------------------------------------------------------------

    def weight(self, row: "Row") -> int:
        return self._weights.get(row, 0)

    def items(self) -> Iterator[tuple["Row", int]]:
        return iter(self._weights.items())

    def positive(self) -> list["Row"]:
        """Rows with positive weight (the insertion side)."""
        return [row for row, w in self._weights.items() if w > 0]

    def negative(self) -> list["Row"]:
        """Rows with negative weight (the retraction side)."""
        return [row for row, w in self._weights.items() if w < 0]

    def distinct(self) -> "ZSet":
        """Set-semantics normalization: positive weights clamp to ``+1``,
        the rest drop — the stratum-boundary step that keeps the stored
        relations honest sets regardless of how many derivations piled
        weight onto a row."""
        return ZSet({row: 1 for row, w in self._weights.items() if w > 0})

    # -- protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._weights)

    def __bool__(self) -> bool:
        return bool(self._weights)

    def __iter__(self) -> Iterator["Row"]:
        return iter(self._weights)

    def __contains__(self, row: object) -> bool:
        return row in self._weights

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZSet):
            return self._weights == other._weights
        return NotImplemented

    def __repr__(self) -> str:
        positive = sum(1 for w in self._weights.values() if w > 0)
        return (
            f"<ZSet: {positive}+/{len(self._weights) - positive}- rows>"
        )

    def to_dict(self) -> dict["Row", int]:
        return dict(self._weights)


def apply_zset(instance: "Instance", delta: ZSet) -> tuple[int, int]:
    """Replay a Z-set against a live instance under set semantics.

    Positive-weight rows are inserted, negative-weight rows deleted;
    returns ``(inserted, deleted)`` *effective* counts.
    """
    inserted = instance.insert_many(delta.positive())
    deleted = instance.delete_many(delta.negative())
    return inserted, deleted
