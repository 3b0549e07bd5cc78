"""The traced run's span recorder and the probes it hangs on the layers.

Spans are recorded by *this* directory's code, around calls into each
layer's public functions (spans inside the program are a later change).
A span is ``name, layer, op_id, start, end, parent``; spans of one
operation share its ``op_id``; nesting is per thread.  Everything stays in
memory until the run ends, then goes out as JSONL.

Probes are resolved by dotted name when tracing is switched on and taken
off again afterwards.  A target that no longer resolves is skipped and the
probe is listed as *unresolved* — later PRs are expected to rename and
delete internals, and may not edit this directory.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter

#: ``(span name, layer, rollup, targets)``.  Each target is
#: ``module:attribute[.attribute]``; modules that import a function *by
#: name* hold their own reference, so those aliases are listed too.
#: ``rollup`` probes are too hot for one record per call: their calls are
#: folded into one child span (count + busy time) of the enclosing span.
PROBES = (
    (
        "core.publish",
        "core",
        False,
        ("repro.core.cdss:publish", "repro.durability.node:publish_log"),
    ),
    (
        "core.apply",
        "core",
        False,
        ("repro.core.exchange:ExchangeSystem.apply_delta",),
    ),
    (
        "datalog.evaluate",
        "datalog",
        False,
        (
            "repro.datalog.engine:SemiNaiveEngine.run",
            "repro.datalog.engine:SemiNaiveEngine.run_insertions",
        ),
    ),
    (
        "provenance.support_probe",
        "provenance",
        True,
        ("repro.provenance.relations:ProvenanceTable.supporting_rows",),
    ),
    (
        "storage.snapshot_pin",
        "storage",
        False,
        ("repro.storage.database:Database.pin",),
    ),
    (
        "storage.checkpoint_write",
        "storage",
        False,
        (
            "repro.storage.persistence:checkpoint",
            "repro.durability.node:checkpoint_db",
        ),
    ),
    (
        "storage.restore",
        "storage",
        False,
        (
            "repro.storage.persistence:restore",
            "repro.durability.node:restore_db",
        ),
    ),
    (
        "durability.publish",
        "durability",
        False,
        ("repro.durability.node:DurableNode.publish",),
    ),
    (
        "durability.wal_append",
        "durability",
        False,
        ("repro.durability.wal:WriteAheadLog.append",),
    ),
    (
        "serve.statement_run",
        "serve",
        False,
        ("repro.serve.protocol:Statement.run",),
    ),
    (
        "serve.snapshot_refresh",
        "serve",
        False,
        ("repro.serve.snapshots:SnapshotManager.refresh",),
    ),
)


def resolve(target: str):
    """``(owner, attribute, callable)`` for a dotted target, or ``None``."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        function = getattr(owner, attribute)
    except (ImportError, AttributeError):
        return None
    return (owner, attribute, function) if callable(function) else None


class Span:
    __slots__ = ("name", "layer", "op_id", "start", "end", "parent", "count")

    def __init__(self, name, layer, op_id, start, parent, count=1):
        self.name = name
        self.layer = layer
        self.op_id = op_id
        self.start = start
        self.end = start
        self.parent = parent
        self.count = count


class NullRecorder:
    """What untraced operations record into: nothing.  The workloads call
    the same three methods either way, so the traced and the untraced
    operation are the same code."""

    tracing = False
    spans = ()

    def begin(self, name: str, layer: str, op_id=None) -> None:
        return None

    def finish(self, span) -> None:
        pass

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        pass


NULL = NullRecorder()


class Recorder:
    """In-memory span store with per-thread nesting."""

    tracing = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unresolved: list[str] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.rollups
        except AttributeError:
            local.stack, local.rollups = [], {}
            return local.stack, local.rollups

    def _fold_rollups(self, stack, rollups) -> None:
        """Attribute the rollup calls made so far to the innermost open
        span — called whenever that is about to change."""
        parent = stack[-1] if stack else None
        for (name, layer), acc in rollups.items():
            if acc[0]:
                span = Span(
                    name,
                    layer,
                    parent.op_id if parent is not None else None,
                    acc[2],
                    parent,
                    acc[0],
                )
                span.end = acc[2] + acc[1]
                self.spans.append(span)
                acc[0], acc[1] = 0, 0.0

    def begin(self, name: str, layer: str, op_id=None) -> Span:
        stack, rollups = self._state()
        if rollups:
            self._fold_rollups(stack, rollups)
        parent = stack[-1] if stack else None
        if op_id is None and parent is not None:
            op_id = parent.op_id
        span = Span(name, layer, op_id, perf_counter(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = perf_counter()
        stack, rollups = self._state()
        if rollups:
            self._fold_rollups(stack, rollups)
        stack.pop()

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """A leaf span the caller timed itself (no probe ran inside it)."""
        stack = self._state()[0]
        parent = stack[-1] if stack else None
        span = Span(
            name, layer, parent.op_id if parent is not None else None, start, parent
        )
        span.end = end
        self.spans.append(span)

    # -- probes ------------------------------------------------------------

    def _wrap(self, function, name: str, layer: str, rollup: bool):
        if rollup:
            key = (name, layer)
            state = self._state

            def rolled(*args, **kwargs):
                start = perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    rollups = state()[1]
                    acc = rollups.get(key)
                    if acc is None:
                        acc = rollups[key] = [0, 0.0, start]
                    if not acc[0]:
                        acc[2] = start
                    acc[0] += 1
                    acc[1] += perf_counter() - start

            return rolled

        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            span = begin(name, layer)
            try:
                return function(*args, **kwargs)
            finally:
                finish(span)

        return traced

    def install(self) -> None:
        """Wrap every probe target that resolves."""
        for name, layer, rollup, targets in PROBES:
            wrappers: dict[int, object] = {}
            for target in targets:
                found = resolve(target)
                if found is None:
                    continue
                owner, attribute, function = found
                wrapper = wrappers.get(id(function))
                if wrapper is None:
                    wrapper = wrappers[id(function)] = self._wrap(
                        function, name, layer, rollup
                    )
                self._patched.append((owner, attribute, function))
                setattr(owner, attribute, wrapper)
            if not wrappers:
                self.unresolved.append(name)

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, function = self._patched.pop()
            setattr(owner, attribute, function)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[Span, float]:
        """Span duration minus the part its child spans cover."""
        own = {span: span.end - span.start for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def dump(self, path) -> int:
        """Write the spans as JSONL; returns how many."""
        ids = {span: index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": ids[span],
                            "name": span.name,
                            "layer": span.layer,
                            "op_id": span.op_id,
                            "start": span.start,
                            "end": span.end,
                            "parent": (
                                None
                                if span.parent is None
                                else ids[span.parent]
                            ),
                            "count": span.count,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(self.spans)
