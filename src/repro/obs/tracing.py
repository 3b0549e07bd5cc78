"""Structured tracing of update exchange.

A *trace* is the tree of spans produced by one top-level operation
(normally one publish): ``exchange → component → round →
rule-evaluation``, with ``merge`` / ``wal-append`` / ``snapshot-refresh``
spans hanging off wherever those phases run.
Each span records wall + CPU time, a row count, and parent/child span
ids.

Cost model
----------
Tracing must be near-zero-cost when off, because the span hooks sit on
the engine hot path.  The contract for instrumented code is::

    from repro.obs import tracing as _tracing
    ...
    span = _tracing.start("round") if _tracing.enabled() else None
    ...
    if span is not None:
        span.rows = n
        _tracing.finish(span)

i.e. one module-attribute read and one ``if`` per potential span, no
closure or context-manager allocation when disabled.

Output
------
- The last N completed traces are retained in memory
  (:func:`recent_traces`) for the serving tier and tests.
- With a sink configured (``REPRO_TRACE=path`` in the environment, or
  ``--trace path`` on the CLI), every completed trace is appended to
  the file as JSON lines — one line per span, grouped by trace.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Optional

__all__ = [
    "Span",
    "enabled",
    "enable",
    "disable",
    "start",
    "finish",
    "span",
    "recent_traces",
    "clear",
]

#: Module-level fast-path flag.  Hot paths read this (via
#: ``enabled()`` or directly) before doing any span work.
ENABLED = False

#: How many completed traces to retain in memory.
RETAIN_DEFAULT = 8


class Span:
    """One timed interval in a trace tree."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "start_wall",
        "start_cpu",
        "end_wall",
        "end_cpu",
        "rows",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: Optional[dict],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start_wall = time.perf_counter()
        self.start_cpu = time.process_time()
        self.end_wall = 0.0
        self.end_cpu = 0.0
        self.rows: Optional[int] = None

    @property
    def wall_seconds(self) -> float:
        return self.end_wall - self.start_wall

    @property
    def cpu_seconds(self) -> float:
        return self.end_cpu - self.start_cpu

    def to_dict(self) -> dict:
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "wall_seconds": self.end_wall - self.start_wall,
            "cpu_seconds": self.end_cpu - self.start_cpu,
        }
        if self.rows is not None:
            record["rows"] = self.rows
        if self.attrs:
            record["attrs"] = self.attrs
        return record


_lock = threading.Lock()
_local = threading.local()
_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)
_recent: deque = deque(maxlen=RETAIN_DEFAULT)
_sink_path: Optional[str] = None
_sink = None


def _state():
    """Per-thread (stack, completed-spans-buffer) pair."""
    state = getattr(_local, "state", None)
    if state is None:
        state = ([], [])
        _local.state = state
    return state


def enabled() -> bool:
    return ENABLED


def enable(
    sink_path: Optional[str] = None, retain: Optional[int] = None
) -> None:
    """Turn tracing on, optionally writing completed traces to
    ``sink_path`` as JSONL."""
    global ENABLED, _sink_path, _sink, _recent
    with _lock:
        if retain is not None and retain != _recent.maxlen:
            _recent = deque(_recent, maxlen=max(1, int(retain)))
        if sink_path:
            if _sink is not None and sink_path != _sink_path:
                _sink.close()
                _sink = None
            if _sink is None:
                _sink = open(sink_path, "a", encoding="utf-8")
                _sink_path = sink_path
        ENABLED = True


def disable() -> None:
    """Turn tracing off and close any sink."""
    global ENABLED, _sink, _sink_path
    with _lock:
        ENABLED = False
        if _sink is not None:
            _sink.close()
            _sink = None
        _sink_path = None


def clear() -> None:
    """Drop retained traces (test isolation)."""
    with _lock:
        _recent.clear()


def start(name: str, **attrs) -> Span:
    """Open a span as a child of the current thread's innermost open
    span (or as a new trace root)."""
    stack, _buffer = _state()
    if stack:
        parent = stack[-1]
        trace_id = parent.trace_id
        parent_id = parent.span_id
    else:
        trace_id = next(_trace_ids)
        parent_id = None
    span_obj = Span(trace_id, next(_span_ids), parent_id, name, attrs or None)
    stack.append(span_obj)
    return span_obj


def finish(span_obj: Span, rows: Optional[int] = None) -> None:
    """Close a span.  Closing a root span completes the trace: it is
    retained in memory and flushed to the sink (if any)."""
    span_obj.end_wall = time.perf_counter()
    span_obj.end_cpu = time.process_time()
    if rows is not None:
        span_obj.rows = rows
    stack, buffer = _state()
    # Tolerate imbalance (an exception may have skipped inner
    # ``finish`` calls): pop everything above the span being closed.
    while stack:
        top = stack.pop()
        if top is span_obj:
            break
    buffer.append(span_obj)
    if span_obj.parent_id is None:
        trace = [s for s in buffer if s.trace_id == span_obj.trace_id]
        del buffer[:]
        _complete(trace)


class _SpanContext:
    __slots__ = ("_span",)

    def __init__(self, span_obj: Optional[Span]) -> None:
        self._span = span_obj

    def __enter__(self) -> Optional[Span]:
        return self._span

    def __exit__(self, *exc) -> None:
        if self._span is not None:
            finish(self._span)


def span(name: str, **attrs) -> _SpanContext:
    """Context-manager convenience for non-hot-path call sites."""
    return _SpanContext(start(name, **attrs) if ENABLED else None)


def _complete(trace: list) -> None:
    records = [s.to_dict() for s in trace]
    with _lock:
        _recent.append(records)
        if _sink is not None:
            try:
                for record in records:
                    _sink.write(json.dumps(record, default=str) + "\n")
                _sink.flush()
            except ValueError:  # sink closed concurrently
                pass


def recent_traces() -> list:
    """The last N completed traces, oldest first.  Each trace is a
    list of span dicts."""
    with _lock:
        return [list(trace) for trace in _recent]


# Environment opt-in: REPRO_TRACE=/path/to/file.jsonl (or
# REPRO_TRACE=1 for in-memory-only tracing).
_env = os.environ.get("REPRO_TRACE", "").strip()
if _env:
    enable(None if _env in ("1", "true", "yes", "on") else _env)
del _env
