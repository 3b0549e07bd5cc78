"""Where a snapshot read runs: inline on the event loop, or in the pool.

A non-annotated read runs inline on the loop thread when its statement's
previous ``Statement.run`` took less than the interpreter's switch
interval and the pinned replica's lock is free; every other read takes
the reader pool (``repro-serve-read-*`` threads), and annotated reads
take the writer thread.  ``Statement.run`` is wrapped to record the name
of the thread each execution ran on.  Also covers the two path counters
and the HTTP reason phrase of error statuses.
"""

import socket
import sys
import threading
import time

import pytest

from repro.serve.protocol import Statement
from test_obs_serve import parse_exposition
from test_serve import ServerThread, ServeClient, paper_cdss

LOOKUP = "ans(i) :- B(i, n)"


class RunRecorder:
    """Wraps ``Statement.run``: records thread names, can slow or park runs."""

    def __init__(self, monkeypatch) -> None:
        self.threads: list[str] = []
        self.sleep = 0.0
        self.gate: threading.Event | None = None
        run, run_query = Statement.run, Statement._run_query

        def recording_run(statement, *args, **kwargs):
            self.threads.append(threading.current_thread().name)
            if self.gate is not None:
                self.gate.wait(timeout=30)
            return run(statement, *args, **kwargs)

        def slowed_run_query(statement, *args):
            # Inside the span ``Statement.run`` times as ``last_run_s``.
            if self.sleep:
                time.sleep(self.sleep)
            return run_query(statement, *args)

        monkeypatch.setattr(Statement, "run", recording_run)
        monkeypatch.setattr(Statement, "_run_query", slowed_run_query)

    def wait_for_calls(self, count: int, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while len(self.threads) < count:
            assert time.monotonic() < deadline, "Statement.run was not called"
            time.sleep(0.005)


@pytest.fixture
def recorder(monkeypatch):
    return RunRecorder(monkeypatch)


def loop_thread(node: ServerThread) -> str:
    return node._thread.name


def lookup(client: ServeClient, statement: str) -> dict:
    return client.execute(statement, bindings={"n": 5})


def prepare_lookup(client: ServeClient) -> str:
    return client.prepare(LOOKUP, params=["n"])["statement"]


class TestRouting:
    def test_warmed_lookup_runs_on_the_loop(self, recorder):
        with ServerThread(paper_cdss()) as node, ServeClient(
            port=node.port
        ) as client:
            statement = prepare_lookup(client)
            assert lookup(client, statement)["rows"] == [[3]]
            assert lookup(client, statement)["rows"] == [[3]]
            assert recorder.threads[-1] == loop_thread(node)

    def test_first_execution_runs_in_the_pool(self, recorder):
        with ServerThread(paper_cdss()) as node, ServeClient(
            port=node.port
        ) as client:
            statement = prepare_lookup(client)
            lookup(client, statement)
            assert len(recorder.threads) == 1
            assert recorder.threads[0].startswith("repro-serve-read")

    def test_query_route_follows_the_same_rule(self, recorder):
        with ServerThread(paper_cdss()) as node, ServeClient(
            port=node.port
        ) as client:
            for _ in range(2):
                result = client.query(LOOKUP, params=["n"], bindings={"n": 5})
                assert result["rows"] == [[3]]
            first, second = recorder.threads
            assert first.startswith("repro-serve-read")
            assert second == loop_thread(node)

    def test_read_over_budget_runs_in_the_pool(self, recorder):
        with ServerThread(paper_cdss()) as node, ServeClient(
            port=node.port
        ) as client:
            statement = prepare_lookup(client)
            lookup(client, statement)
            # One run longer than the switch interval: the next read of
            # the statement goes back to the pool.
            recorder.sleep = 2 * sys.getswitchinterval()
            lookup(client, statement)
            recorder.sleep = 0.0
            assert recorder.threads[1] == loop_thread(node)
            lookup(client, statement)
            assert recorder.threads[2].startswith("repro-serve-read")
            # Back under budget: inline again.
            lookup(client, statement)
            assert recorder.threads[3] == loop_thread(node)

    def test_contended_replica_lock_routes_to_pool_without_stalling(
        self, recorder
    ):
        with ServerThread(paper_cdss()) as node, ServeClient(
            port=node.port
        ) as client:
            statement = prepare_lookup(client)
            lookup(client, statement)
            lookup(client, statement)
            assert recorder.threads[-1] == loop_thread(node)

            lock = node.server.snapshots.current.lock
            held, release = threading.Event(), threading.Event()

            def hold_lock():
                with lock:
                    held.set()
                    release.wait(timeout=30)

            holder = threading.Thread(target=hold_lock)
            holder.start()
            result = {}

            def read():
                with ServeClient(port=node.port, timeout=30) as reader:
                    result.update(lookup(reader, statement))

            reader = threading.Thread(target=read)
            try:
                assert held.wait(timeout=10)
                reader.start()
                recorder.wait_for_calls(3)
                # The read is parked on the replica lock in a pool thread;
                # the loop still answers.
                with ServeClient(port=node.port, timeout=5) as other:
                    assert other.health()["ok"]
                assert not result
            finally:
                release.set()
                holder.join(timeout=10)
                if reader.ident is not None:
                    reader.join(timeout=30)
            assert not holder.is_alive() and not reader.is_alive()
            assert result["rows"] == [[3]]
            assert recorder.threads[2].startswith("repro-serve-read")

    def test_annotated_reads_run_on_the_writer(self, recorder):
        with ServerThread(paper_cdss()) as node, ServeClient(
            port=node.port
        ) as client:
            statement = prepare_lookup(client)
            for _ in range(2):
                annotated = client.execute(
                    statement, bindings={"n": 5}, mode="annotated"
                )
                assert "provenance" in annotated["rows"][0]
            assert all(
                name.startswith("repro-serve-write")
                for name in recorder.threads
            )
            assert len(recorder.threads) == 2


class TestPathCounters:
    def test_stats_and_metrics_count_both_paths(self, recorder):
        with ServerThread(paper_cdss()) as node, ServeClient(
            port=node.port
        ) as client:
            before = parse_exposition(client.metrics())
            statement = prepare_lookup(client)
            for _ in range(3):
                lookup(client, statement)
            client.execute(statement, bindings={"n": 5}, mode="annotated")
            server = client.stats()["server"]
            assert server["reads_pooled"] == 1
            assert server["reads_inline"] == 2
            after = parse_exposition(client.metrics())
            for path, moved in (("inline", 2), ("pool", 1)):
                series = f'repro_serve_reads_total{{path="{path}"}}'
                assert after[series] - before.get(series, 0.0) == moved
            assert [
                name.startswith("repro-serve-read") for name in recorder.threads
            ] == [True, False, False, False]


def status_line(port: int, request: bytes) -> str:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        received = b""
        while b"\r\n" not in received:
            chunk = sock.recv(4096)
            if not chunk:
                break
            received += chunk
    return received.split(b"\r\n", 1)[0].decode("latin-1")


class TestReasonPhrase:
    def test_405_status_line(self):
        with ServerThread(paper_cdss()) as node:
            line = status_line(
                node.port,
                b"PUT /health HTTP/1.1\r\nContent-Length: 0\r\n"
                b"Connection: close\r\n\r\n",
            )
        assert line == "HTTP/1.1 405 Method Not Allowed"

    def test_503_status_line(self, recorder):
        recorder.gate = threading.Event()
        try:
            with ServerThread(
                paper_cdss(), max_inflight=1, max_queue=0, readers=1
            ) as node:
                with ServeClient(port=node.port) as setup:
                    statement = prepare_lookup(setup)
                result = {}

                def blocked_read():
                    with ServeClient(port=node.port, timeout=30) as reader:
                        result.update(lookup(reader, statement))

                holder = threading.Thread(target=blocked_read)
                holder.start()
                recorder.wait_for_calls(1)
                body = b'{"statement": "%s", "bindings": {"n": 5}}' % (
                    statement.encode()
                )
                line = status_line(
                    node.port,
                    b"POST /execute HTTP/1.1\r\nContent-Type: "
                    b"application/json\r\nContent-Length: %d\r\n"
                    b"Connection: close\r\n\r\n%s" % (len(body), body),
                )
                recorder.gate.set()
                holder.join(timeout=30)
                assert not holder.is_alive()
                assert result["rows"] == [[3]]
        finally:
            recorder.gate.set()
        assert line == "HTTP/1.1 503 Service Unavailable"
