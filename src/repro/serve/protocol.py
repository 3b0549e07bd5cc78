"""The serving tier's wire protocol: values, statements, the registry.

The protocol is deliberately small — JSON requests and responses over
HTTP/1.1 (see :mod:`repro.serve.server` for the routes).  The pieces that
are independent of asyncio live here so tests and the benchmark can use
them directly:

* value encoding (:func:`encode_value` / :func:`decode_value`): JSON
  scalars pass through; anything else (labeled nulls, Skolem values)
  round-trips as ``{"!": repr(value)}`` — readable, order-stable, and
  honest about being opaque on the wire;
* :class:`Statement` — one prepared query or program (both a
  :class:`~repro.api.query.PreparedQuery`) plus the logic to run it
  against a pinned snapshot (or the live system) with answer mode,
  ordering, and pagination applied;
* :class:`StatementRegistry` — deduplicating id → statement map: the
  session state that makes ``POST /execute`` a zero-replanning re-execute.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Mapping, Sequence

from ..api.query import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cdss import CDSS
    from ..storage.snapshot import DatabaseSnapshot

KIND_QUERY = "query"
KIND_PROGRAM = "program"

MODE_CERTAIN = "certain"
MODE_WITH_NULLS = "with_nulls"
MODE_ANNOTATED = "annotated"
ANSWER_MODES = (MODE_CERTAIN, MODE_WITH_NULLS, MODE_ANNOTATED)


class ServeError(Exception):
    """A protocol-level error carrying an HTTP status and error code."""

    def __init__(self, message: str, status: int = 400, code: str = "bad_request") -> None:
        super().__init__(message)
        self.status = status
        self.code = code

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


def encode_value(value: object) -> object:
    """Encode one column value for JSON transport.

    JSON scalars pass through; everything else (labeled nulls, Skolem
    values, tuples) becomes ``{"!": repr(value)}`` — clients can display
    and compare such values but not re-submit them as bindings.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return {"!": repr(value)}


def decode_value(value: object) -> object:
    """Decode one client-supplied binding value.

    Only JSON scalars are accepted as parameter bindings — opaque
    ``{"!": ...}`` values cannot be reconstructed server-side.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ServeError(
        f"parameter values must be JSON scalars, got {value!r}",
        status=400,
        code="bad_binding",
    )


def encode_row(row: Sequence[object]) -> list:
    return [encode_value(value) for value in row]


def _decode_bindings(bindings: object) -> dict[str, object]:
    if bindings is None:
        return {}
    if not isinstance(bindings, Mapping):
        raise ServeError(
            "bindings must be an object mapping parameter names to scalars"
        )
    return {str(name): decode_value(value) for name, value in bindings.items()}


def _check_page(value: object, what: str) -> int | None:
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ServeError(f"{what} must be a non-negative integer")
    return value


class Statement:
    """One prepared statement (query or program) in the registry.

    ``run`` is the one entry point of every execution, on the event loop,
    a reader thread or the writer thread alike: it executes against a
    pinned snapshot (``snapshot`` given) or the live system, applies the
    answer mode / ordering / pagination, and returns a JSON-ready dict.
    It records its own wall time as :attr:`last_run_s`, which the server
    reads to decide where the next execution runs.
    """

    __slots__ = (
        "id",
        "kind",
        "text",
        "params",
        "answer",
        "prepared",
        "executions",
        "last_run_s",
    )

    def __init__(
        self,
        statement_id: str,
        kind: str,
        text: str,
        params: tuple[str, ...],
        answer: str,
        prepared: object,
    ) -> None:
        self.id = statement_id
        self.kind = kind
        self.text = text
        self.params = params
        self.answer = answer
        self.prepared = prepared
        self.executions = 0
        #: Seconds the last completed :meth:`run` took; ``None`` until the
        #: first one completes.
        self.last_run_s: float | None = None

    def describe(self) -> dict:
        info = {
            "statement": self.id,
            "kind": self.kind,
            "params": list(self.params),
            "executions": self.executions,
            "columns": list(self.prepared.columns),
        }
        if self.kind == KIND_PROGRAM:
            info["answer"] = self.answer
        return info

    def run(
        self,
        bindings: Mapping[str, object],
        snapshot: "DatabaseSnapshot | None" = None,
        mode: str = MODE_CERTAIN,
        order: Sequence[object] = (),
        limit: int | None = None,
        offset: int | None = None,
    ) -> dict:
        started = time.perf_counter()
        if mode not in ANSWER_MODES:
            raise ServeError(
                f"unknown answer mode {mode!r}; expected one of {ANSWER_MODES}"
            )
        try:
            if snapshot is None:
                payload = self._run_query(
                    bindings, None, mode, order, limit, offset
                )
                pinned_version = None
            else:
                # The version is read under the lock the rows were read
                # under: a standing replica may be patched forward (and
                # its version moved) as soon as the lock is released.
                with snapshot.lock:
                    payload = self._run_query(
                        bindings, snapshot, mode, order, limit, offset
                    )
                    pinned_version = snapshot.version
        except QueryError as exc:
            raise ServeError(str(exc), status=400, code="query_error") from exc
        self.executions += 1
        payload["statement"] = self.id
        payload["mode"] = mode
        payload["pinned_version"] = pinned_version
        payload["elapsed"] = self.last_run_s = time.perf_counter() - started
        return payload

    def _run_query(
        self, bindings, snapshot, mode, order, limit, offset
    ) -> dict:
        prepared = self.prepared
        if snapshot is not None:
            answers = prepared.execute_at(snapshot, **bindings)
        else:
            answers = prepared.execute(**bindings)
        if mode == MODE_WITH_NULLS:
            answers = answers.with_nulls()
        if order:
            answers = answers.order_by(*order)
        if limit is not None:
            answers = answers.limit(limit)
        if offset:
            answers = answers.offset(offset)
        if mode == MODE_ANNOTATED:
            annotated = answers.annotated()
            rows = [
                {"row": encode_row(row), "provenance": str(expression)}
                for row, expression in annotated.items()
            ]
            return {"rows": rows, "count": len(rows)}
        rows = [encode_row(row) for row in answers]
        return {"rows": rows, "count": len(rows)}


class StatementRegistry:
    """A deduplicating registry of prepared statements.

    ``prepare`` is idempotent on ``(kind, text, params, answer)`` — a
    client (or a hundred clients) preparing the same query gets the same
    statement id, and the underlying plan is compiled exactly once.
    """

    def __init__(self, cdss: "CDSS") -> None:
        self._cdss = cdss
        self._lock = threading.Lock()
        self._by_key: dict[tuple, Statement] = {}
        self._by_id: dict[str, Statement] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def prepare(
        self,
        kind: str,
        text: str,
        params: Sequence[str] = (),
        answer: str = "ans",
    ) -> Statement:
        if kind not in (KIND_QUERY, KIND_PROGRAM):
            raise ServeError(
                f"unknown statement kind {kind!r}; expected "
                f"{KIND_QUERY!r} or {KIND_PROGRAM!r}"
            )
        if not isinstance(text, str) or not text.strip():
            raise ServeError("statement text must be a non-empty string")
        names = tuple(str(p) for p in params)
        key = (kind, text, names, answer)
        with self._lock:
            statement = self._by_key.get(key)
            if statement is not None:
                return statement
            try:
                if kind == KIND_QUERY:
                    prepared = self._cdss.prepare(text, params=names)
                else:
                    prepared = self._cdss.prepare_program(
                        text, answer=answer, params=names
                    )
            except QueryError as exc:
                raise ServeError(
                    str(exc), status=400, code="prepare_error"
                ) from exc
            self._counter += 1
            statement = Statement(
                f"stmt-{self._counter}", kind, text, names, answer, prepared
            )
            self._by_key[key] = statement
            self._by_id[statement.id] = statement
            return statement

    def get(self, statement_id: object) -> Statement:
        statement = (
            self._by_id.get(statement_id)
            if isinstance(statement_id, str)
            else None
        )
        if statement is None:
            raise ServeError(
                f"unknown statement {statement_id!r}",
                status=404,
                code="unknown_statement",
            )
        return statement

    def describe(self) -> list[dict]:
        with self._lock:
            return [s.describe() for s in self._by_id.values()]


def parse_execute_args(body: Mapping[str, object]) -> dict:
    """Validate/normalize the shared execute-request fields."""
    mode = body.get("mode", MODE_CERTAIN)
    if mode not in ANSWER_MODES:
        raise ServeError(
            f"unknown answer mode {mode!r}; expected one of {ANSWER_MODES}"
        )
    order = body.get("order", ())
    if order is None:
        order = ()
    if isinstance(order, (str, int)):
        order = (order,)
    elif not isinstance(order, Sequence):
        raise ServeError("order must be a column, a list of columns, or null")
    return {
        "bindings": _decode_bindings(body.get("bindings")),
        "mode": mode,
        "order": tuple(order),
        "limit": _check_page(body.get("limit"), "limit"),
        "offset": _check_page(body.get("offset"), "offset"),
    }
