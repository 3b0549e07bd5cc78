"""A small synchronous client for the serving tier.

Used by ``examples/serve_client.py``, the serve tests, and the
closed-loop benchmark (each benchmark session thread owns one client
over one keep-alive connection).  Stdlib only: one plain socket per
client, speaking just the HTTP/1.1 that :mod:`repro.serve.server`
speaks.  Each request leaves in one ``sendall``; each response is split
at its blank line, and its body is framed by ``Content-Length``.  No
TLS, chunked bodies or redirects.
"""

from __future__ import annotations

import json
import re
import socket
from typing import Mapping, Sequence

#: Bytes asked of one ``recv``; a cached lookup's whole reply fits.
_RECV_BYTES = 65536

#: A response head longer than this is not from a serving node.
_MAX_HEAD = 65536

#: Characters a request target must not hold: each would end the
#: request line early or smuggle in a header.
_BAD_TARGET = re.compile(r"[\x00-\x20\x7f]")


class _Unanswered(ConnectionResetError):
    """The connection ended before the first byte of the response."""


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


def _error_payload(raw: bytes) -> object:
    """The decoded body of an error reply; a non-JSON body is the message."""
    try:
        return json.loads(raw)
    except ValueError:
        return {"error": "error", "message": raw.decode("utf-8", errors="replace")}


def _parse_head(head: bytes) -> tuple[int, int, bool]:
    """``(status, Content-Length, close after the body?)`` of a response head."""
    lines = head.split(b"\r\n")
    version, _, rest = lines[0].partition(b" ")
    code = rest[:3]
    if not version.startswith(b"HTTP/1.") or not code.isdigit():
        raise ConnectionError(f"malformed status line {lines[0][:80]!r}")
    length = -1
    close = False
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        name = name.strip().lower()
        if name == b"content-length":
            value = value.strip()
            length = int(value) if value.isdigit() else -1
        elif name == b"connection":
            close = b"close" in value.lower()
    if length < 0:
        raise ConnectionError("response without a valid Content-Length")
    return int(code), length, close


def _read_body(sock: socket.socket, first: bytes, length: int) -> bytes:
    """``length`` body bytes: ``first`` and the rest read from ``sock``."""
    body = bytearray(length)
    view = memoryview(body)
    got = len(first)
    view[:got] = first
    while got < length:
        received = sock.recv_into(view[got:])
        if not received:
            raise ConnectionError(
                f"connection closed after {got} of {length} body bytes"
            )
        got += received
    return bytes(body)


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
        self._timeout = timeout
        self._sock: socket.socket | None = None
        authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
        #: The header lines every request carries after its request line.
        self._fixed = (
            b"Host: " + authority.encode("idna") + b"\r\nConnection: keep-alive\r\n"
        )

    @classmethod
    def from_url(cls, url: str, timeout: float = 60.0) -> "ServeClient":
        """Build a client from ``http://host:port`` (as printed on boot).

        A bare ``host:port`` means ``http``.  Any other scheme raises
        :class:`ValueError`: the client has no TLS.
        """
        scheme, sep, rest = url.strip().partition("://")
        if not sep:
            scheme, rest = "http", scheme
        if scheme.lower() != "http":
            raise ValueError(
                f"ServeClient speaks plain http, not {scheme!r} ({url!r})"
            )
        host, _, port = rest.rstrip("/").partition(":")
        return cls(host, int(port) if port else 80, timeout=timeout)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _roundtrip(self, request: bytes) -> tuple[int, bytes]:
        """Send one request; ``(status, body bytes)``.

        Re-sends once, and only when a connection kept from an earlier
        request ended before the first byte of the response: the server
        had dropped it while idle, so the request never reached it.  Any
        other failure propagates — a timeout above all, or a drop on a
        fresh connection: the server may have acted on the request, and
        re-sending a POST would apply it twice.  The connection is closed
        either way, so the next call starts on a fresh one.
        """
        try:
            if self._sock is not None:
                try:
                    return self._exchange(self._sock, request)
                except _Unanswered:
                    self.close()
            sock = socket.create_connection((self.host, self.port), self._timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            return self._exchange(sock, request)
        except BaseException:
            self.close()
            raise

    def _exchange(self, sock: socket.socket, request: bytes) -> tuple[int, bytes]:
        try:
            sock.sendall(request)
            data = sock.recv(_RECV_BYTES)
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise _Unanswered(str(exc)) from exc
        if not data:
            raise _Unanswered("the server closed the connection without replying")
        end = data.find(b"\r\n\r\n")
        while end < 0:
            if len(data) > _MAX_HEAD:
                raise ConnectionError("response head too long")
            chunk = sock.recv(_RECV_BYTES)
            if not chunk:
                raise ConnectionError("connection closed inside the response head")
            scanned = max(len(data) - 3, 0)
            data += chunk
            end = data.find(b"\r\n\r\n", scanned)
        status, length, close = _parse_head(data[:end])
        start = end + 4
        body = data[start : start + length]
        if len(body) < length:
            body = _read_body(sock, body, length)
        elif len(data) > start + length:
            close = True  # bytes past the body: the connection is out of step
        if close:
            self.close()
        return status, body

    def _call(self, method: str, path: str, body: bytes | None) -> bytes:
        """One request; the body of a 2xx reply, else :class:`ServeHTTPError`."""
        if not method.isalpha() or _BAD_TARGET.search(path):
            raise ValueError(f"malformed request line {method!r} {path!r}")
        head = b"%s %s HTTP/1.1\r\n%s" % (
            method.encode("ascii"),
            path.encode("ascii"),
            self._fixed,
        )
        if body is None:
            request = head + b"\r\n"
        else:
            request = head + (
                b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body)
            )
        status, raw = self._roundtrip(request)
        if not 200 <= status < 300:
            raise ServeHTTPError(status, _error_payload(raw))
        return raw

    def request(
        self, method: str, path: str, payload: Mapping | None = None
    ) -> dict:
        body = None if payload is None else json.dumps(payload).encode()
        raw = self._call(method, path, body)
        return json.loads(raw) if raw else {}

    def request_text(self, method: str, path: str) -> str:
        """Like :meth:`request` but for text/plain routes (``/metrics``)."""
        return self._call(method, path, None).decode("utf-8", errors="replace")

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

        Returns ``{"version": V, "since": since, "resync": bool,
        "changes": [...]}`` where each change batch carries per-relation
        inserted/deleted rows.  Remember ``version`` and pass it back as
        ``since`` to get only what happened after the previous poll.
        ``resync`` is true when the node's change log no longer holds
        every batch after ``since`` (trimmed, or from before a restart):
        re-read the state you follow, then poll on from ``version``.

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
