"""A small synchronous client for the serving tier.

Used by ``examples/serve_client.py``, the serve tests, and the
closed-loop benchmark (each benchmark session thread owns one client
over one keep-alive connection).  Stdlib only (:mod:`http.client`).
"""

from __future__ import annotations

import http.client
import json
from typing import Mapping, Sequence

#: The errors of a keep-alive connection the server closed while idle —
#: the only failures after which re-sending a request is safe.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
)


class ServeHTTPError(Exception):
    """A non-2xx response; carries the status and the decoded payload."""

    def __init__(self, status: int, payload: object) -> None:
        message = (
            payload.get("message", payload.get("error", ""))
            if isinstance(payload, Mapping)
            else str(payload)
        )
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload if isinstance(payload, Mapping) else {}

    @property
    def code(self) -> str:
        return str(self.payload.get("error", "error"))


class ServeClient:
    """One keep-alive connection to a serving node.

    Not thread-safe — use one client per session/thread (that is exactly
    what the closed-loop benchmark does).
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080, timeout: float = 60.0
    ) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    @classmethod
    def from_url(cls, url: str, timeout: float = 60.0) -> "ServeClient":
        """Build a client from ``http://host:port`` (as printed on boot)."""
        stripped = url.strip()
        for prefix in ("http://", "https://"):
            if stripped.startswith(prefix):
                stripped = stripped[len(prefix) :]
        host, _, port = stripped.rstrip("/").partition(":")
        return cls(host, int(port) if port else 80, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _roundtrip(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        """Send one request; ``(status, body bytes)``.

        Retries once, and only when the server had already dropped the
        idle keep-alive connection — the request never reached it.  Any
        other failure (a timeout above all) propagates: the server may
        have acted on the request, and re-sending a POST would apply it
        twice.  The connection is closed either way, so the next call
        starts on a fresh one.
        """
        try:
            try:
                return self._send(method, path, body, headers)
            except _STALE_CONNECTION:
                self._conn.close()
                return self._send(method, path, body, headers)
        except BaseException:
            self._conn.close()
            raise

    def _send(
        self, method: str, path: str, body: bytes | None, headers: dict
    ) -> tuple[int, bytes]:
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        return response.status, response.read()

    def request(
        self, method: str, path: str, payload: Mapping | None = None
    ) -> dict:
        body = None
        headers = {"Connection": "keep-alive"}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        status, raw = self._roundtrip(method, path, body, headers)
        decoded = json.loads(raw) if raw else {}
        if status >= 300:
            raise ServeHTTPError(status, decoded)
        return decoded

    def request_text(self, method: str, path: str) -> str:
        """Like :meth:`request` but for text/plain routes (``/metrics``)."""
        status, raw = self._roundtrip(
            method, path, None, {"Connection": "keep-alive"}
        )
        text = raw.decode("utf-8", errors="replace")
        if status >= 300:
            try:
                payload: object = json.loads(text)
            except ValueError:
                payload = {"error": "error", "message": text}
            raise ServeHTTPError(status, payload)
        return text

    # -- API surface -------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/health")

    def stats(self) -> dict:
        return self.request("GET", "/stats")

    def metrics(self) -> str:
        """Prometheus text exposition from ``GET /metrics``, verbatim."""
        return self.request_text("GET", "/metrics")

    def statements(self) -> list[dict]:
        return self.request("GET", "/statements")["statements"]

    def changes(self, since: int = 0, wait: float | None = None) -> dict:
        """Poll the update-exchange change stream.

        Returns ``{"version": V, "since": since, "changes": [...]}`` where
        each change batch carries per-relation inserted/deleted rows.
        Remember ``version`` and pass it back as ``since`` to get only
        what happened after the previous poll.

        ``wait=SECS`` long-polls: an empty result parks server-side until
        the next publish or the wait elapses (the server caps it at its
        ``MAX_CHANGES_WAIT``; a timed-out wait returns an empty batch
        list, not an error).  Make sure the client timeout exceeds the
        wait, or the connection gives up before the server answers.
        """
        path = f"/changes?since={int(since)}"
        if wait is not None:
            path += f"&wait={float(wait)}"
        return self.request("GET", path)

    def prepare(
        self,
        text: str,
        params: Sequence[str] = (),
        kind: str = "query",
        answer: str = "ans",
    ) -> dict:
        return self.request(
            "POST",
            "/prepare",
            {"kind": kind, "text": text, "params": list(params), "answer": answer},
        )

    def execute(
        self,
        statement: str,
        bindings: Mapping[str, object] | None = None,
        mode: str = "certain",
        order: Sequence[object] = (),
        limit: int | None = None,
        offset: int | None = None,
    ) -> dict:
        body: dict = {"statement": statement, "mode": mode}
        if bindings:
            body["bindings"] = dict(bindings)
        if order:
            body["order"] = list(order)
        if limit is not None:
            body["limit"] = limit
        if offset is not None:
            body["offset"] = offset
        return self.request("POST", "/execute", body)

    def query(
        self,
        text: str,
        params: Sequence[str] = (),
        bindings: Mapping[str, object] | None = None,
        mode: str = "certain",
        kind: str = "query",
        answer: str = "ans",
        order: Sequence[object] = (),
        limit: int | None = None,
        offset: int | None = None,
    ) -> dict:
        body: dict = {
            "kind": kind,
            "text": text,
            "params": list(params),
            "answer": answer,
            "mode": mode,
        }
        if bindings:
            body["bindings"] = dict(bindings)
        if order:
            body["order"] = list(order)
        if limit is not None:
            body["limit"] = limit
        if offset is not None:
            body["offset"] = offset
        return self.request("POST", "/query", body)

    def edit(self, edits: Sequence[Mapping[str, object]]) -> dict:
        return self.request("POST", "/edit", {"edits": list(edits)})

    def insert(self, relation: str, *rows: Sequence[object]) -> dict:
        return self.edit(
            [
                {"op": "insert", "relation": relation, "row": list(row)}
                for row in rows
            ]
        )

    def publish(
        self,
        peers: Sequence[str] | None = None,
        strategy: str | None = None,
    ) -> dict:
        body: dict = {}
        if peers is not None:
            body["peers"] = list(peers)
        if strategy is not None:
            body["strategy"] = strategy
        return self.request("POST", "/publish", body)

    def shutdown(self) -> dict:
        return self.request("POST", "/shutdown")

    def __repr__(self) -> str:
        return f"<ServeClient http://{self.host}:{self.port}>"
