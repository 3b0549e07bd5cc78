"""The database catalog: a named collection of relation instances.

A :class:`Database` is the mutable state the datalog engine evaluates
against; the update-exchange engine keeps all internal relations (``R_l``,
``R_r``, ``R_i``, ``R_t``, ``R_o`` and provenance tables) in one database,
mirroring the paper's "auxiliary storage alongside the original DBMS"
(Section 4).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .instance import Instance, Row, StorageError
from .stats import StatisticsCache, TableStats


class UnknownRelationError(StorageError):
    """A relation name is not present in the catalog."""


class Database:
    """A catalog mapping relation names to :class:`Instance` objects."""

    def __init__(self) -> None:
        self._relations: dict[str, Instance] = {}
        self._stats = StatisticsCache()
        self._version = 0

    @property
    def version(self) -> int:
        """A monotone counter that changes whenever any relation's contents
        or the catalog itself change — the invalidation token for plan and
        statistics caches.  O(1): every registered instance pushes a
        dirty-bit up through :meth:`Instance.add_watcher` instead of the
        database summing per-instance counters on every read."""
        return self._version

    def _mark_dirty(self) -> None:
        self._version += 1

    # -- catalog management -------------------------------------------------

    def create(self, name: str, arity: int, rows: Iterable[Row] = ()) -> Instance:
        """Create relation ``name``; error if it already exists."""
        if name in self._relations:
            raise StorageError(f"relation {name!r} already exists")
        instance = Instance(name, arity)
        self._relations[name] = instance
        instance.add_watcher(self._mark_dirty)
        self._version += 1
        if rows:
            instance.insert_many(rows)
        return instance

    def ensure(self, name: str, arity: int) -> Instance:
        """Create relation ``name`` if missing; verify arity if present."""
        instance = self._relations.get(name)
        if instance is None:
            return self.create(name, arity)
        if instance.arity != arity:
            raise StorageError(
                f"relation {name!r} exists with arity {instance.arity}, "
                f"requested {arity}"
            )
        return instance

    def attach(self, instance: Instance) -> Instance:
        """Register an *existing* instance under its own name.

        The instance is shared, not copied — used to expose another
        database's relations (e.g. the ``R__o`` tables) to a scratch
        database for side-effect-free query evaluation.
        """
        if instance.name in self._relations:
            raise StorageError(f"relation {instance.name!r} already exists")
        self._relations[instance.name] = instance
        instance.add_watcher(self._mark_dirty)
        self._version += 1
        return instance

    def drop(self, name: str) -> bool:
        self._stats.invalidate(name)
        dropped = self._relations.pop(name, None)
        if dropped is None:
            return False
        dropped.remove_watcher(self._mark_dirty)
        self._version += 1
        return True

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> Instance:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(f"unknown relation {name!r}") from None

    def get(self, name: str) -> Instance | None:
        return self._relations.get(name)

    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._relations))

    def __iter__(self) -> Iterator[Instance]:
        return iter(self._relations.values())

    def index_stats(self) -> dict[str, int]:
        """Index counters summed across every relation: ``relations``,
        ``indexes`` materialized now, and ``rebuilds`` (index builds from
        the live rows).  ``/stats`` and ``/metrics`` read this."""
        totals = {
            "relations": len(self._relations),
            "indexes": 0,
            "rebuilds": 0,
        }
        for instance in self._relations.values():
            for key, value in instance.index_stats().items():
                totals[key] += value
        return totals

    def pin(self, names: Iterable[str] | None = None):
        """Capture a version-pinned, immutable snapshot of ``names``.

        Returns a :class:`~repro.storage.snapshot.DatabaseSnapshot` whose
        instances are private copies with warm indexes; subsequent
        mutations of this database are invisible to it.  ``names``
        defaults to every relation — the serving tier pins only the
        ``R__o`` output tables its queries read.  Capture from a
        quiescent state (between exchanges) to pin a consistent fixpoint.
        """
        from .snapshot import DatabaseSnapshot

        return DatabaseSnapshot(self, names)

    # -- statistics ----------------------------------------------------------

    def stats_for(self, name: str) -> TableStats:
        return self._stats.stats_for(self[name])

    # -- convenience -----------------------------------------------------------

    def insert(self, name: str, row: Row) -> bool:
        return self[name].insert(row)

    def delete(self, name: str, row: Row) -> bool:
        return self[name].delete(row)

    def total_rows(self) -> int:
        return sum(len(inst) for inst in self._relations.values())

    def estimated_bytes(self) -> int:
        return sum(inst.estimated_bytes() for inst in self._relations.values())

    def snapshot(self) -> dict[str, frozenset[Row]]:
        """Frozen copy of the full database contents (for tests/rollback)."""
        return {name: inst.rows() for name, inst in self._relations.items()}

    def restore(self, snapshot: Mapping[str, frozenset[Row]]) -> None:
        """Restore contents saved by :meth:`snapshot`.

        Relations present in the database but absent from the snapshot are
        emptied; relations in the snapshot must already exist in the catalog.
        """
        for name, instance in self._relations.items():
            rows = snapshot.get(name)
            if rows is None:
                instance.clear()
            else:
                instance.replace_contents(rows)

    def copy(self) -> "Database":
        """A deep copy; instances carry their index definitions (see
        :meth:`Instance.copy`), so probes against the copy start warm."""
        clone = Database()
        for name, instance in self._relations.items():
            copied = instance.copy()
            clone._relations[name] = copied
            copied.add_watcher(clone._mark_dirty)
            clone._version += 1
        return clone

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}({len(inst)})"
            for name, inst in sorted(self._relations.items())
        )
        return f"<Database: {parts}>"
