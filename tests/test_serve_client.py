"""Transport tests for :class:`repro.serve.ServeClient` against stub servers.

The client retries a request once when a kept-alive connection from an
earlier request ended before any byte of the reply, and never otherwise:
a request that timed out, or that a fresh connection dropped, may have
been acted on, and re-sending a POST would apply it twice.
"""

import json
import socket
import threading
import time

import pytest

from repro.cli import main
from repro.serve import ServeClient, ServeHTTPError


def http_reply(status: str, body: bytes, *headers: str) -> bytes:
    """A raw HTTP/1.1 reply with a correct ``Content-Length``."""
    lines = [f"HTTP/1.1 {status}", f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


OK_REPLY = http_reply(
    "200 OK",
    json.dumps({"ok": True}).encode(),
    "Content-Type: application/json",
    "Connection: keep-alive",
)

#: A scripted reply that closes the connection without answering.
DROP = None


class StubServer:
    """A keep-alive HTTP stub that records every request it receives.

    ``stall`` seconds pass before each reply; with ``close_after_reply``
    the connection is closed right after answering, like a server that
    dropped an idle keep-alive connection.  ``replies`` maps the index of
    a request (counted over all connections) to the raw reply it gets;
    :data:`DROP` closes the connection without replying, and after any
    scripted reply that does not say ``keep-alive`` the connection is
    closed too.  With ``trickle`` every reply goes out one byte per send.
    """

    def __init__(
        self,
        stall: float = 0.0,
        close_after_reply: bool = False,
        replies: dict[int, bytes | None] | None = None,
        trickle: bool = False,
    ):
        self.stall = stall
        self.close_after_reply = close_after_reply
        self.replies = replies or {}
        self.trickle = trickle
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
                    index = len(self.requests)
                    self.requests.append(head.split(b"\r\n", 1)[0].decode())
                if self._stop.wait(self.stall):
                    return
                scripted = index in self.replies
                reply = self.replies[index] if scripted else OK_REPLY
                if reply is DROP:
                    return
                try:
                    if self.trickle:
                        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        for byte in range(len(reply)):
                            conn.send(reply[byte : byte + 1])
                            time.sleep(0.001)
                    else:
                        conn.sendall(reply)
                except OSError:
                    return
                if self.close_after_reply or (
                    scripted and b"keep-alive" not in reply
                ):
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


def test_request_dropped_on_a_fresh_connection_is_not_resent():
    # The connection was new, so its drop cannot be a stale keep-alive
    # close: the server may have acted on the publish.
    with StubServer(replies={0: DROP}) as stub:
        with ServeClient(port=stub.port, timeout=5) as client:
            with pytest.raises(ConnectionError):
                client.publish()
            time.sleep(0.2)
            assert stub.requests == ["POST /publish HTTP/1.1"]


@pytest.mark.parametrize("route", ["json", "text"])
def test_non_json_error_body_raises_serve_http_error(route):
    page = b"<html><body>502 Bad Gateway</body></html>"
    reply = http_reply("502 Bad Gateway", page, "Content-Type: text/html")
    with StubServer(replies={0: reply}) as stub:
        with ServeClient(port=stub.port, timeout=5) as client:
            with pytest.raises(ServeHTTPError) as caught:
                client.stats() if route == "json" else client.metrics()
    assert caught.value.status == 502
    assert caught.value.code == "error"
    assert "502 Bad Gateway" in str(caught.value)


def test_from_url_refuses_a_scheme_it_cannot_speak(capsys):
    with pytest.raises(ValueError, match="https"):
        ServeClient.from_url("https://127.0.0.1:8443")
    assert main(["stats", "https://127.0.0.1:8443"]) == 1
    assert "'https'" in capsys.readouterr().err
    assert repr(ServeClient.from_url("http://127.0.0.1:8080/")) == (
        "<ServeClient http://127.0.0.1:8080>"
    )
    assert ServeClient.from_url("localhost:9").port == 9


def test_reply_delivered_one_byte_per_send():
    with StubServer(trickle=True) as stub:
        with ServeClient(port=stub.port, timeout=5) as client:
            assert client.health() == {"ok": True}
            assert client.stats() == {"ok": True}
            assert stub.requests == ["GET /health HTTP/1.1", "GET /stats HTTP/1.1"]


def test_connection_close_reply_starts_a_fresh_connection():
    body = json.dumps({"error": "bad_request", "message": "malformed"}).encode()
    reply = http_reply("400 Bad Request", body, "Connection: close")
    with StubServer(replies={0: reply}) as stub:
        with ServeClient(port=stub.port, timeout=5) as client:
            with pytest.raises(ServeHTTPError) as caught:
                client.edit([{"op": "insert", "relation": "B", "row": [1]}])
            assert caught.value.code == "bad_request"
            assert client.health() == {"ok": True}
            assert stub.requests == ["POST /edit HTTP/1.1", "GET /health HTTP/1.1"]


def test_body_cut_short_raises_and_is_not_resent():
    reply = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 40\r\n\r\n{\"ok\": tr"
    )
    with StubServer(replies={1: reply}) as stub:
        with ServeClient(port=stub.port, timeout=5) as client:
            assert client.health() == {"ok": True}
            # The cut reply comes on the kept connection; bytes of it
            # arrived, so the request reached the server and is not re-sent.
            with pytest.raises(ConnectionError, match="9 of 40"):
                client.publish()
            time.sleep(0.2)
            assert stub.requests == ["GET /health HTTP/1.1", "POST /publish HTTP/1.1"]


def test_empty_body_reply():
    reply = http_reply("200 OK", b"", "Connection: keep-alive")
    with StubServer(replies={0: reply, 1: reply}) as stub:
        with ServeClient(port=stub.port, timeout=5) as client:
            assert client.publish() == {}
            assert client.metrics() == ""
            assert client.health() == {"ok": True}
            assert stub.requests == [
                "POST /publish HTTP/1.1",
                "GET /metrics HTTP/1.1",
                "GET /health HTTP/1.1",
            ]
