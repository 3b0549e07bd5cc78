"""Admission control for the serving tier: bounded in-flight, fast reject.

The server is a closed system on a small container (the CI box has one
or two CPUs): letting an unbounded number of requests pile up just turns
latency into timeouts for everyone.  The admission controller applies
the classic recipe instead:

* at most ``max_inflight`` requests hold an execution slot at once
  (an :class:`asyncio.Semaphore`);
* at most ``max_queue`` more may *wait* for a slot — beyond that the
  request is rejected immediately with 503 (graceful degradation: the
  client gets a fast, honest "retry later" instead of a slow timeout);
* every outcome is counted, and ``GET /stats`` exposes the counters the
  serving benchmark records (admitted / rejected / timeouts / peak
  in-flight / queue depth).

Per-request *timeouts* are enforced by the server with
:func:`asyncio.wait_for` around the executor future; the controller only
counts them.  A timed-out execution still runs to completion in its
worker thread (Python threads cannot be killed) and its admission slot
is released at the timeout — the reader *thread pool* is what bounds
actual thread concurrency, the semaphore bounds admitted requests.
"""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

from ..obs import metrics as _metrics
from .protocol import ServeError


class QueueFullError(ServeError):
    """The wait queue is at capacity: reject immediately (HTTP 503)."""

    def __init__(self, waiting: int, max_queue: int) -> None:
        super().__init__(
            f"server saturated: {waiting} request(s) already queued "
            f"(max_queue={max_queue}); retry later",
            status=503,
            code="saturated",
        )


def _admission_samples(controller: "AdmissionController"):
    """Metrics collector: admission outcome counters + live gauges."""
    sample = _metrics.Sample
    counter = _metrics.KIND_COUNTER
    gauge = _metrics.KIND_GAUGE
    yield sample(
        "repro_admission_admitted_total", counter, "", (), controller.admitted
    )
    yield sample(
        "repro_admission_rejected_total", counter, "", (), controller.rejected
    )
    yield sample(
        "repro_admission_timeouts_total", counter, "", (), controller.timeouts
    )
    yield sample(
        "repro_admission_completed_total",
        counter,
        "",
        (),
        controller.completed,
    )
    yield sample(
        "repro_admission_in_flight", gauge, "", (), controller.in_flight
    )
    yield sample("repro_admission_waiting", gauge, "", (), controller.waiting)


class AdmissionController:
    """Bounded-concurrency admission with rejection + timeout counters.

    All state is touched only from the event loop (single-threaded), so
    plain integers are race-free.
    """

    def __init__(
        self,
        max_inflight: int = 64,
        max_queue: int = 128,
        timeout: float = 30.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.timeout = timeout
        self._semaphore = asyncio.Semaphore(max_inflight)
        self.waiting = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.peak_waiting = 0
        self.admitted = 0
        self.rejected = 0
        self.timeouts = 0
        self.completed = 0
        _metrics.REGISTRY.register(self, _admission_samples)

    @asynccontextmanager
    async def slot(self):
        """Acquire an execution slot, or raise :class:`QueueFullError`.

        Use as ``async with admission.slot(): ...``; the slot is released
        when the block exits (including on timeout/cancellation *of the
        block*, but note the server keeps the block alive until the
        worker thread finishes — see the module docstring).
        """
        if self._semaphore.locked() and self.waiting >= self.max_queue:
            self.rejected += 1
            raise QueueFullError(self.waiting, self.max_queue)
        self.waiting += 1
        self.peak_waiting = max(self.peak_waiting, self.waiting)
        try:
            await self._semaphore.acquire()
        finally:
            self.waiting -= 1
        self.admitted += 1
        self.in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            yield
        finally:
            self.in_flight -= 1
            self.completed += 1
            self._semaphore.release()

    def timed_out(self) -> None:
        """Record one request that hit its per-request timeout."""
        self.timeouts += 1

    def stats(self) -> dict:
        return {
            "max_inflight": self.max_inflight,
            "max_queue": self.max_queue,
            "timeout_seconds": self.timeout,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "completed": self.completed,
            "in_flight": self.in_flight,
            "waiting": self.waiting,
            "peak_in_flight": self.peak_in_flight,
            "peak_waiting": self.peak_waiting,
        }
