"""Tests for the concurrent serving tier (``repro.serve``).

Covers the snapshot layer (pin / immutability / result cache), the
snapshot-pinned execution paths on prepared queries and programs, the
mid-exchange isolation property (a snapshot pinned before ``publish``
returns byte-identical answers during and after the exchange — including
deletions mid-flight), the asyncio
HTTP server end to end, admission control (503/504), and the
``python -m repro serve`` CLI in a child process.
"""

import asyncio
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import CDSS
from repro.api.query import QueryError
from repro.schema.internal import output_name
from repro.serve import (
    AdmissionController,
    QueueFullError,
    ReproServer,
    ServeClient,
    ServeHTTPError,
)
from repro.serve.protocol import Statement
from repro.storage.database import Database
from repro.storage.instance import Instance


def paper_cdss(**kwargs) -> CDSS:
    cdss = CDSS("serve", **kwargs)
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    with cdss.batch() as tx:
        tx.insert("G", (1, 2, 3))
        tx.insert("G", (3, 5, 2))
        tx.insert("B", (3, 5))
        tx.insert("U", (2, 5))
    cdss.update_exchange()
    return cdss


# ---------------------------------------------------------------------------
# DatabaseSnapshot
# ---------------------------------------------------------------------------


class TestDatabaseSnapshot:
    def test_pin_copies_selected_relations(self):
        db = Database()
        r = Instance("R", 2)
        r.insert((1, 2))
        db.attach(r)
        snapshot = db.pin(["R"])
        assert snapshot.names == ("R",)
        assert snapshot.version == db.version
        assert set(snapshot.db.get("R").rows()) == {(1, 2)}

    def test_snapshot_is_immune_to_source_mutation(self):
        db = Database()
        r = Instance("R", 2)
        r.insert((1, 2))
        db.attach(r)
        snapshot = db.pin()
        version = snapshot.version
        r.insert((3, 4))
        r.delete((1, 2))
        assert set(snapshot.db.get("R").rows()) == {(1, 2)}
        assert snapshot.version == version
        assert db.version > version

    def test_snapshot_mutation_does_not_touch_source(self):
        db = Database()
        r = Instance("R", 1)
        r.insert((1,))
        db.attach(r)
        snapshot = db.pin()
        snapshot.db.get("R").insert((9,))
        assert set(r.rows()) == {(1,)}

    def test_result_cache(self):
        db = Database()
        snapshot = db.pin()
        calls = []

        def compute():
            calls.append(1)
            return ("rows",)

        assert snapshot.cached("k", compute) == ("rows",)
        assert snapshot.cached("k", compute) == ("rows",)
        assert len(calls) == 1
        # Unhashable keys fall back to uncached computation.
        assert snapshot.cached(["un", "hashable"], compute) == ("rows",)
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# Pinned execution on prepared queries / programs
# ---------------------------------------------------------------------------


def pin_outputs(cdss):
    system = cdss.system()
    names = tuple(output_name(r) for r in system.internal.relation_names())
    return system.db.pin(names)


class TestExecuteAt:
    def test_pinned_query_matches_live_at_pin_time(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i, n) :- B(i, n)")
        snapshot = pin_outputs(cdss)
        assert (
            prepared.execute_at(snapshot).to_rows()
            == prepared.execute().to_rows()
        )

    def test_pinned_query_ignores_later_publishes(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i, n) :- B(i, n)")
        snapshot = pin_outputs(cdss)
        before = sorted(prepared.execute_at(snapshot))
        cdss.peer("PBioSQL").insert("B", (77, 88))
        cdss.update_exchange()
        assert sorted(prepared.execute_at(snapshot)) == before
        assert (77, 88) in prepared.execute().to_rows()
        assert (77, 88) not in prepared.execute_at(snapshot).to_rows()

    def test_pinned_parameterized_and_modes(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i) :- B(i, n)", params=("n",))
        snapshot = pin_outputs(cdss)
        assert prepared.execute_at(snapshot, n=5).to_rows() == {(3,)}
        with_nulls = prepared.execute_at(snapshot, n=5).with_nulls()
        assert with_nulls.to_rows() >= {(3,)}
        # Ordering works on pinned answers too.
        ordered = cdss.prepare("ans(i, n) :- B(i, n)").execute_at(snapshot)
        assert list(ordered.order_by("i", "n").limit(1)) == [(1, 3)]

    def test_pinned_annotated_rejected(self):
        cdss = paper_cdss()
        prepared = cdss.prepare("ans(i, n) :- B(i, n)")
        snapshot = pin_outputs(cdss)
        with pytest.raises(QueryError):
            prepared.execute_at(snapshot).annotated()

    def test_pinned_program_matches_live_and_stays_pinned(self):
        cdss = paper_cdss()
        program = cdss.prepare_program(
            "big(i) :- B(i, n), U(n, c)\nans(i) :- big(i)"
        )
        snapshot = pin_outputs(cdss)
        before = program.execute_at(snapshot).to_rows()
        assert before == program.execute().to_rows()
        cdss.peer("PBioSQL").insert("B", (41, 42))
        cdss.peer("PuBio").insert("U", (42, 9))
        cdss.update_exchange()
        assert program.execute_at(snapshot).to_rows() == before
        assert (41,) in program.execute().to_rows()


# ---------------------------------------------------------------------------
# The isolation property: pinned answers are byte-identical mid-exchange
# ---------------------------------------------------------------------------


class _ExchangePauser:
    """Blocks the exchange thread on its first mutation of a relation.

    Registered as an :meth:`Instance.add_watcher` callback on a live
    output relation: the first mutation from the exchange thread sets
    ``reached`` (live state is now torn — some deltas applied, others
    not) and parks the writer until the main thread calls ``resume``.
    """

    def __init__(self) -> None:
        self.reached = threading.Event()
        self._resume = threading.Event()
        self._main = threading.get_ident()

    def __call__(self) -> None:
        if threading.get_ident() == self._main or self.reached.is_set():
            return
        self.reached.set()
        self._resume.wait(timeout=30)

    def resume(self) -> None:
        self._resume.set()


@pytest.mark.parametrize("edit", ["insert", "delete"])
def test_snapshot_isolated_mid_exchange(edit):
    """A snapshot pinned before publish() serves byte-identical answers
    while the exchange is mid-flight (live tables torn) and after it
    completes, for insertions and deletions."""
    cdss = paper_cdss()
    prepared = cdss.prepare("ans(i, n) :- B(i, n)")
    program = cdss.prepare_program("ans(i) :- B(i, n), U(n, c)")

    snapshot = pin_outputs(cdss)
    query_before = json.dumps(sorted(prepared.execute_at(snapshot)))
    program_before = json.dumps(sorted(program.execute_at(snapshot)))

    if edit == "delete":
        cdss.peer("PGUS").delete("G", (1, 2, 3))
    else:
        cdss.peer("PGUS").insert("G", (10, 20, 30))

    pauser = _ExchangePauser()
    live_b = cdss.system().db.get(output_name("B"))
    live_b.add_watcher(pauser)
    failure = []

    def exchange():
        try:
            cdss.update_exchange()
        except Exception as error:  # pragma: no cover - failure path
            failure.append(error)

    writer = threading.Thread(target=exchange)
    writer.start()
    try:
        assert pauser.reached.wait(timeout=30), "exchange never mutated B"
        # The writer is parked mid-exchange; live state is torn.  The
        # pinned snapshot still answers byte-for-byte identically.
        mid_query = json.dumps(sorted(prepared.execute_at(snapshot)))
        mid_program = json.dumps(sorted(program.execute_at(snapshot)))
        assert mid_query == query_before
        assert mid_program == program_before
    finally:
        pauser.resume()
        writer.join(timeout=60)
        live_b.remove_watcher(pauser)
    assert not failure
    # ... and after the exchange completes, still identical.
    assert json.dumps(sorted(prepared.execute_at(snapshot))) == query_before
    assert json.dumps(sorted(program.execute_at(snapshot))) == program_before
    # The live system, by contrast, has moved on.
    assert prepared.execute().to_rows() != prepared.execute_at(
        snapshot
    ).to_rows()


# ---------------------------------------------------------------------------
# The asyncio server, end to end
# ---------------------------------------------------------------------------


class ServerThread:
    def __init__(self, cdss, **kwargs) -> None:
        self._cdss = cdss
        self._kwargs = kwargs
        self._ready = threading.Event()
        self.server = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = ReproServer(self._cdss, port=0, **self._kwargs)
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_shutdown()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=30)
        return self

    @property
    def port(self) -> int:
        return self.server.port

    def __exit__(self, *_exc) -> None:
        try:
            with ServeClient(port=self.port, timeout=10) as client:
                client.shutdown()
        except Exception:
            pass
        self._thread.join(timeout=60)


class TestServerEndToEnd:
    def test_full_request_cycle(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            health = client.health()
            assert health["ok"] and health["snapshot_version"] >= 0

            prepared = client.prepare("ans(i, n) :- B(i, n)")
            statement = prepared["statement"]
            assert prepared["columns"] == ["i", "n"]
            # Re-preparing identical text returns the same statement id.
            assert client.prepare("ans(i, n) :- B(i, n)")["statement"] == (
                statement
            )

            result = client.execute(statement, order=["i", "n"])
            assert result["rows"][0] == [1, 3]
            assert result["count"] == len(result["rows"])
            assert result["pinned_version"] is not None

            page = client.execute(statement, order=["-i", "-n"], limit=1)
            assert page["rows"] == [[3, 5]]

            lookup = client.query(
                "ans(i) :- B(i, n)", params=["n"], bindings={"n": 5}
            )
            assert lookup["rows"] == [[3]]

            annotated = client.execute(statement, mode="annotated", limit=1)
            assert annotated["pinned_version"] is None
            assert "provenance" in annotated["rows"][0]

            listed = client.statements()
            assert any(s["statement"] == statement for s in listed)

    def test_edit_publish_refreshes_snapshot(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            statement = client.prepare("ans(i, n) :- B(i, n)")["statement"]
            before = client.execute(statement)
            staged = client.insert("B", (123, 456))
            assert staged["staged"] == 1
            # Staged but unpublished: the snapshot is unchanged.
            assert client.execute(statement)["rows"] == before["rows"]
            report = client.publish()
            assert report["ok"] and report["inserted"] >= 1
            after = client.execute(statement)
            assert [123, 456] in after["rows"]
            assert after["pinned_version"] != before["pinned_version"]
            stats = client.stats()
            assert stats["snapshot"]["refreshes"] == 1
            assert stats["server"]["publishes"] == 1

    def test_change_stream(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            # Nothing published since boot: the stream starts empty.
            initial = client.changes()
            assert initial["changes"] == []
            cursor = initial["version"]

            client.insert("B", (123, 456))
            client.publish()
            polled = client.changes(since=cursor)
            assert polled["version"] == cursor + 1
            assert len(polled["changes"]) == 1
            batch = polled["changes"][0]
            assert batch["version"] == cursor + 1
            assert [123, 456] in batch["relations"]["B"]["inserted"]
            assert batch["relations"]["B"]["deleted"] == []
            cursor = polled["version"]

            # A deletion arrives as a negative change through the same
            # unified maintenance pass.
            client.edit(
                [{"op": "delete", "relation": "B", "row": [123, 456]}]
            )
            client.publish()
            polled = client.changes(since=cursor)
            assert len(polled["changes"]) == 1
            assert [123, 456] in polled["changes"][0]["relations"]["B"][
                "deleted"
            ]
            cursor = polled["version"]

            # Caught-up cursors poll empty; stale cursors replay the tail.
            assert client.changes(since=cursor)["changes"] == []
            assert len(client.changes(since=0)["changes"]) == 2

            with pytest.raises(ServeHTTPError) as bad_since:
                client.request("GET", "/changes?since=later")
            assert bad_since.value.status == 400
            assert bad_since.value.code == "bad_since"

    def test_change_stream_long_poll_times_out_empty(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            cursor = client.changes()["version"]
            started = time.monotonic()
            polled = client.changes(since=cursor, wait=0.4)
            elapsed = time.monotonic() - started
            # A timed-out long poll is a normal empty response, not an
            # error — clients need no special timeout handling.
            assert polled["changes"] == []
            assert polled["version"] == cursor
            assert elapsed >= 0.35

            with pytest.raises(ServeHTTPError) as bad_wait:
                client.request("GET", "/changes?since=0&wait=soon")
            assert bad_wait.value.status == 400
            assert bad_wait.value.code == "bad_wait"

    def test_change_stream_long_poll_wakes_on_publish(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            cursor = client.changes()["version"]

            def later_publish():
                time.sleep(0.3)
                with ServeClient(port=node.port) as writer:
                    writer.insert("B", (77, 88))
                    writer.publish()

            publisher = threading.Thread(target=later_publish)
            publisher.start()
            started = time.monotonic()
            try:
                polled = client.changes(since=cursor, wait=30)
            finally:
                publisher.join(timeout=60)
            elapsed = time.monotonic() - started
            # Woken by the publish, long before the 30s wait elapses.
            assert elapsed < 10
            assert len(polled["changes"]) == 1
            batch = polled["changes"][0]
            assert [77, 88] in batch["relations"]["B"]["inserted"]

    def test_error_paths(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            with pytest.raises(ServeHTTPError) as not_found:
                client.execute("stmt-999")
            assert not_found.value.status == 404

            with pytest.raises(ServeHTTPError) as bad_query:
                client.prepare("ans(x) :- Nope(x)")
            assert bad_query.value.status == 400
            assert bad_query.value.code == "prepare_error"

            with pytest.raises(ServeHTTPError) as bad_route:
                client.request("GET", "/nope")
            assert bad_route.value.status == 404

            with pytest.raises(ServeHTTPError) as bad_mode:
                statement = client.prepare("ans(i) :- B(i, n)")["statement"]
                client.execute(statement, mode="maybe")
            assert bad_mode.value.status == 400

            with pytest.raises(ServeHTTPError) as bad_edit:
                client.edit([{"op": "upsert", "relation": "B", "row": [1, 2]}])
            assert bad_edit.value.status == 400


class TestAdmissionControl:
    def test_queue_full_rejects_with_503(self, monkeypatch):
        cdss = paper_cdss()
        release = threading.Event()
        original = Statement.run

        def slow_run(self, *args, **kwargs):
            release.wait(timeout=30)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Statement, "run", slow_run)
        with ServerThread(
            cdss, max_inflight=1, max_queue=0, timeout=30.0, readers=1
        ) as node:
            with ServeClient(port=node.port) as setup:
                # prepare goes through the write path, not admission.
                statement = setup.prepare("ans(i, n) :- B(i, n)")["statement"]
            statuses = []
            lock = threading.Lock()

            def probe():
                with ServeClient(port=node.port, timeout=60) as client:
                    try:
                        client.execute(statement)
                        outcome = 200
                    except ServeHTTPError as error:
                        outcome = error.status
                with lock:
                    statuses.append(outcome)

            threads = [threading.Thread(target=probe) for _ in range(6)]
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            release.set()
            for thread in threads:
                thread.join(timeout=60)
            assert statuses.count(200) >= 1
            assert statuses.count(503) >= 1
            assert set(statuses) <= {200, 503}
            with ServeClient(port=node.port) as client:
                admission = client.stats()["admission"]
            assert admission["rejected"] == statuses.count(503)
        release.set()

    def test_slow_statement_times_out_with_504(self, monkeypatch):
        cdss = paper_cdss()
        release = threading.Event()
        original = Statement.run

        def slow_run(self, *args, **kwargs):
            release.wait(timeout=30)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Statement, "run", slow_run)
        try:
            with ServerThread(
                cdss, max_inflight=4, max_queue=4, timeout=0.2, readers=1
            ) as node:
                with ServeClient(port=node.port) as setup:
                    statement = setup.prepare("ans(i, n) :- B(i, n)")[
                        "statement"
                    ]
                with ServeClient(port=node.port, timeout=60) as client:
                    with pytest.raises(ServeHTTPError) as timed_out:
                        client.execute(statement)
                assert timed_out.value.status == 504
                release.set()
                with ServeClient(port=node.port) as client:
                    assert client.stats()["admission"]["timeouts"] == 1
        finally:
            release.set()

    def test_controller_counters(self):
        async def scenario():
            controller = AdmissionController(max_inflight=1, max_queue=0)
            async with controller.slot():
                assert controller.in_flight == 1
                with pytest.raises(QueueFullError):
                    async with controller.slot():
                        pass  # pragma: no cover
            stats = controller.stats()
            assert stats["admitted"] == 1
            assert stats["rejected"] == 1
            assert stats["completed"] == 1
            assert stats["in_flight"] == 0

        asyncio.run(scenario())


class TestServerMidPublish:
    def test_readers_never_blocked_by_publish(self, monkeypatch):
        """Reads land on the old snapshot while a publish is running and
        flip to the new snapshot only after it completes."""
        cdss = paper_cdss()
        with ServerThread(cdss, readers=2) as node:
            with ServeClient(port=node.port) as setup:
                statement = setup.prepare("ans(i, n) :- B(i, n)")["statement"]
                baseline = setup.execute(statement)
                setup.insert("B", (555, 666))

            # Park the exchange mid-flight on its first mutation of B.
            pauser = _ExchangePauser()
            live_b = cdss.system().db.get(output_name("B"))
            live_b.add_watcher(pauser)
            publish_result = {}

            def publish():
                with ServeClient(port=node.port, timeout=120) as writer:
                    publish_result.update(writer.publish())

            writer = threading.Thread(target=publish)
            writer.start()
            try:
                assert pauser.reached.wait(timeout=30)
                # The publish is parked; reads still complete, on the old
                # snapshot, without the new row.
                with ServeClient(port=node.port, timeout=30) as reader:
                    for _ in range(3):
                        mid = reader.execute(statement)
                        assert mid["pinned_version"] == (
                            baseline["pinned_version"]
                        )
                        assert [555, 666] not in mid["rows"]
            finally:
                pauser.resume()
                writer.join(timeout=120)
                live_b.remove_watcher(pauser)
            assert publish_result.get("ok")
            with ServeClient(port=node.port) as reader:
                after = reader.execute(statement)
                assert [555, 666] in after["rows"]
                assert after["pinned_version"] != baseline["pinned_version"]


# ---------------------------------------------------------------------------
# The CLI front door
# ---------------------------------------------------------------------------


class TestServeCLI:
    def test_subprocess_boot_query_shutdown(self, tmp_path):
        cdss = paper_cdss()
        spec_path = tmp_path / "spec.json"
        cdss.to_spec().save(spec_path)
        repo_root = Path(__file__).resolve().parent.parent
        import os

        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                str(spec_path),
                "--port",
                "0",
            ],
            cwd=repo_root,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "repro-serve listening on " in banner
            url = banner.strip().rsplit(" ", 1)[-1]
            with ServeClient.from_url(url, timeout=60) as client:
                assert client.health()["ok"]
                result = client.query(
                    "ans(i, n) :- B(i, n)", order=["i", "n"], limit=1
                )
                assert result["rows"] == [[1, 3]]
                client.shutdown()
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

    def test_shutdown_with_idle_keep_alive_client(self, tmp_path):
        """A client parked on an idle keep-alive connection must not turn a
        graceful shutdown into a traceback on stderr."""
        import os
        import socket

        cdss = paper_cdss()
        spec_path = tmp_path / "spec.json"
        cdss.to_spec().save(spec_path)
        repo_root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(spec_path),
             "--port", "0"],
            cwd=repo_root,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        idle = None
        try:
            banner = proc.stdout.readline()
            assert "repro-serve listening on " in banner
            url = banner.strip().rsplit(" ", 1)[-1]
            host, port = url.split("//", 1)[1].rsplit(":", 1)
            idle = socket.create_connection((host, int(port)), timeout=60)
            idle.sendall(
                b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: keep-alive"
                b"\r\n\r\n"
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += idle.recv(4096)
            assert head.startswith(b"HTTP/1.1 200")
            with ServeClient.from_url(url, timeout=60) as client:
                client.shutdown()
            _, stderr = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "Traceback" not in stderr, stderr
            assert "CancelledError" not in stderr, stderr
        finally:
            if idle is not None:
                idle.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
