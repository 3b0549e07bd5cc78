"""Transport tests for :class:`repro.serve.ServeClient` against stub servers.

The client retries a request once when the server had already closed the
idle keep-alive connection, and never otherwise: a request that timed out
may have been acted on, and re-sending a POST would apply it twice.
"""

import json
import socket
import threading
import time

import pytest

from repro.serve import ServeClient


class StubServer:
    """A keep-alive HTTP stub that records every request it receives.

    ``stall`` seconds pass before each reply; with ``close_after_reply``
    the connection is closed right after answering, like a server that
    dropped an idle keep-alive connection.
    """

    def __init__(self, stall: float = 0.0, close_after_reply: bool = False):
        self.stall = stall
        self.close_after_reply = close_after_reply
        self.requests: list[str] = []
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        self._listener.settimeout(0.1)
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                continue
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(5)
            while not self._stop.is_set():
                try:
                    head = self._read_request(conn)
                except OSError:
                    return
                if head is None:
                    return
                with self._lock:
                    self.requests.append(head.split(b"\r\n", 1)[0].decode())
                if self._stop.wait(self.stall):
                    return
                body = json.dumps({"ok": True}).encode()
                reply = (
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
                    % len(body)
                ) + body
                try:
                    conn.sendall(reply)
                except OSError:
                    return
                if self.close_after_reply:
                    return

    @staticmethod
    def _read_request(conn: socket.socket) -> bytes | None:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            data += chunk
        head, _, rest = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = conn.recv(65536)
            if not chunk:
                return None
            rest += chunk
        return head

    def close(self) -> None:
        self._stop.set()
        self._listener.close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "StubServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def test_timed_out_post_is_sent_exactly_once():
    with StubServer(stall=1.5) as stub:
        with ServeClient(port=stub.port, timeout=0.2) as client:
            with pytest.raises(TimeoutError):
                client.edit([{"op": "insert", "relation": "B", "row": [1, 2]}])
            # Give a (wrong) retry every chance to land before counting.
            time.sleep(0.2)
            assert stub.requests == ["POST /edit HTTP/1.1"]


def test_timed_out_text_request_is_sent_exactly_once():
    with StubServer(stall=1.5) as stub:
        with ServeClient(port=stub.port, timeout=0.2) as client:
            with pytest.raises(TimeoutError):
                client.metrics()
            time.sleep(0.2)
            assert stub.requests == ["GET /metrics HTTP/1.1"]


def test_client_recovers_after_a_timeout():
    with StubServer(stall=0.6) as stub:
        with ServeClient(port=stub.port, timeout=0.2) as client:
            with pytest.raises(TimeoutError):
                client.publish()
            stub.stall = 0.0
            # The timed-out connection was dropped; the next request
            # starts on a fresh one instead of reading a stale reply.
            assert client.health() == {"ok": True}
            assert stub.requests == [
                "POST /publish HTTP/1.1",
                "GET /health HTTP/1.1",
            ]


def test_stale_keep_alive_connection_is_retried_once():
    with StubServer(close_after_reply=True) as stub:
        with ServeClient(port=stub.port, timeout=5) as client:
            assert client.health() == {"ok": True}
            # Let the server's close reach the client's socket.
            time.sleep(0.1)
            assert client.stats() == {"ok": True}
            assert stub.requests == ["GET /health HTTP/1.1", "GET /stats HTTP/1.1"]
