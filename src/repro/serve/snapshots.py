"""Delta-on-publish snapshot management: the serving tier's read view.

The snapshot-isolation rule, in one paragraph: **readers never touch the
live database**.  Every read executes against a :class:`~repro.storage.
snapshot.DatabaseSnapshot` of the ``R__o`` output tables that holds a
consistent fixpoint — the state at the end of some publish/exchange.  No
reader can observe a torn mid-fixpoint state, and no publish waits for
readers of the fixpoint it replaces.

**Left-right replicas.**  The manager keeps two standing replicas of the
``R__o`` tables, both pinned once at boot.  ``current`` serves readers;
the other waits, idle, for the next publish.  Each replica records the
:class:`~repro.core.exchange.ExchangeSystem` it mirrors and its cursor
into that system's change log (:attr:`ExchangeSystem.version`).  After a
publish, :meth:`SnapshotManager.refresh` (writer thread, exchange lock
held) takes the idle replica's lock, applies the change batches logged
since its cursor — the maintainer's exact ``R__o`` deltas, so the cost
is O(|Δ|) and the warm indexes are patched rather than copied — releases
the lock, and swaps the two with one attribute store.  The lock hand-off
is what makes the swap safe: every read of a replica happens under its
lock, so the only reader the writer can wait for is one that loaded the
replica before the previous swap, and such a reader sees the replica
wholly before or wholly after the patch.

**Fallback.**  The idle replica is rebuilt with a full
:meth:`Database.pin <repro.storage.database.Database.pin>` instead, and
the pin counted under its reason, when the change log cannot bring it
forward: the CDSS was reconfigured (``system`` — a new exchange system),
the set of ``R__o`` tables changed (``relations``), the cursor fell below
the change log's floor (``log_gap``), or the patched replica's row counts
disagree with the live tables (``row_count``).  The two pins at boot
count under ``boot``.

Only the ``R__o`` output tables are mirrored — they are the complete read
set of rewritten queries and programs (provenance-annotated answers need
the live provenance tables and are served on the write path instead).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from ..schema.internal import output_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cdss import CDSS
    from ..core.exchange import ExchangeSystem
    from ..storage.snapshot import DatabaseSnapshot

#: Why a replica was rebuilt by a full pin instead of patched forward.
FULL_PIN_REASONS = ("boot", "system", "relations", "log_gap", "row_count")


def _snapshot_samples(manager: "SnapshotManager"):
    """Metrics collector: refreshes, served version, replica upkeep."""
    sample = _metrics.Sample
    counter = _metrics.KIND_COUNTER
    yield sample(
        "repro_snapshot_refreshes_total", counter, "", (), manager.refreshes
    )
    yield sample(
        "repro_snapshot_version",
        _metrics.KIND_GAUGE,
        "Database version of the currently served snapshot",
        (),
        manager.current.version,
    )
    yield sample(
        "repro_snapshot_delta_rows_total", counter, "", (), manager.delta_rows
    )
    for reason, count in manager.full_pins.items():
        yield sample(
            "repro_snapshot_full_pins_total",
            counter,
            "",
            (("reason", reason),),
            count,
        )


class _Replica:
    """One standing copy of the ``R__o`` tables and what it mirrors."""

    __slots__ = ("snapshot", "system", "cursor")

    def __init__(
        self,
        snapshot: "DatabaseSnapshot",
        system: "ExchangeSystem",
        cursor: int,
    ) -> None:
        self.snapshot = snapshot
        self.system = system
        self.cursor = cursor


def _output_names(system: "ExchangeSystem") -> tuple[str, ...]:
    """The live ``R__o`` tables, in the sorted order snapshots list them."""
    return tuple(
        sorted(
            name
            for name in map(output_name, system.internal.relation_names())
            if name in system.db
        )
    )


class SnapshotManager:
    """Holds the serving tier's two standing ``R__o`` replicas.

    ``current`` is swapped by one atomic attribute store, so readers on
    the event loop (or in reader threads) may load it without any lock;
    they then read it under its own :attr:`DatabaseSnapshot.lock
    <repro.storage.snapshot.DatabaseSnapshot.lock>`.  :meth:`refresh` is
    called from the writer thread after every completed publish/exchange
    while the exchange lock is still held.
    """

    def __init__(self, cdss: "CDSS") -> None:
        self._cdss = cdss
        self.refreshes = 0
        #: Refreshes served by patching the idle replica from the log.
        self.delta_applies = 0
        #: Rows inserted plus deleted by those patches (cumulative).
        self.delta_rows = 0
        #: Full ``Database.pin`` rebuilds, by reason.
        self.full_pins = dict.fromkeys(FULL_PIN_REASONS, 0)
        self.last_refresh_seconds = 0.0
        self._subscription = None
        self._followed: "ExchangeSystem | None" = None
        system = cdss.system()
        self._follow(system)
        self._live = self._pin(system, "boot")
        self._idle = self._pin(system, "boot")
        _metrics.REGISTRY.register(self, _snapshot_samples)

    @property
    def current(self) -> "DatabaseSnapshot":
        """The replica readers are served from."""
        return self._live.snapshot

    @property
    def idle(self) -> "DatabaseSnapshot":
        """The replica the next :meth:`refresh` brings forward."""
        return self._idle.snapshot

    def _follow(self, system: "ExchangeSystem") -> None:
        """Keep change capture on for ``system`` with our own subscription
        (opened *before* any pin, so no change after a pin goes unlogged)."""
        if system is self._followed:
            return
        self.close()
        self._subscription = system.subscribe()
        self._followed = system

    def _pin(self, system: "ExchangeSystem", reason: str) -> _Replica:
        self.full_pins[reason] += 1
        snapshot = system.db.pin(_output_names(system))
        return _Replica(snapshot, system, system.version)

    def _catch_up(
        self, replica: _Replica, system: "ExchangeSystem"
    ) -> str | None:
        """Patch ``replica`` forward from the change log.

        Returns ``None`` on success, else the reason it needs a full pin.
        """
        if replica.system is not system:
            return "system"
        snapshot = replica.snapshot
        if snapshot.names != _output_names(system):
            return "relations"
        version, batches = system.changes_since(replica.cursor)
        if batches is None:
            return "log_gap"
        rows = snapshot._apply_changes(
            (
                (output_name(relation), delta)
                for batch in batches
                for relation, delta in batch.changes.items()
            ),
            system.db.version,
        )
        live = system.db
        if any(
            len(snapshot.instance(name)) != len(live[name])
            for name in snapshot.names
        ):
            return "row_count"
        replica.cursor = version
        self.delta_applies += 1
        self.delta_rows += rows
        return None

    def refresh(self) -> "DatabaseSnapshot":
        """Bring the idle replica to the current fixpoint and serve it."""
        started = time.perf_counter()
        with _tracing.span("snapshot-refresh"):
            system = self._cdss.system()
            self._follow(system)
            replica = self._idle
            reason = self._catch_up(replica, system)
            if reason is not None:
                replica = self._pin(system, reason)
            # The swap: readers load ``_live`` only, so this tuple store
            # publishes the new fixpoint with one attribute assignment.
            self._idle, self._live = self._live, replica
            self.refreshes += 1
        self.last_refresh_seconds = time.perf_counter() - started
        return replica.snapshot

    def close(self) -> None:
        """Drop the change subscription (capture may stop with it)."""
        if self._subscription is not None:
            self._subscription.close()
        self._subscription = self._followed = None

    def stats(self) -> dict:
        # Unlocked on purpose: /stats runs on the event loop, which must
        # never wait for a reader thread; row counts are plain len() reads.
        snapshot = self.current
        return {
            "version": snapshot.version,
            "refreshes": self.refreshes,
            "relations": len(snapshot.names),
            "rows": snapshot.total_rows(),
            "delta_applies": self.delta_applies,
            "delta_rows": self.delta_rows,
            "full_pins": dict(self.full_pins),
            "last_refresh_seconds": self.last_refresh_seconds,
        }
