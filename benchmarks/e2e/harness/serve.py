"""serve_mixed: HTTP reads beside writes over one snapshot manager.

``python -m repro serve spec.json --port 0`` runs as a **subprocess**
(default flags) over a cyclic (``pairs``) 6-peer system; two connections
drive it for the window:

* the *reader*, closed loop: prepared ``lookup`` by key on the last
  peer's relation, one in ten a ``join_top`` (two-relation join, ORDER BY,
  LIMIT);
* the *writer*, paced: one cycle is due every ``write_period_s`` and is
  timed **from its due time** — ``POST /edit`` a batch at ``peer0``
  (alternately inserting it and deleting it again), ``POST /publish``,
  then ``POST /execute`` at the last peer until the write shows.  How late
  the generator ran is reported beside the latency.

The traced variant runs the same load against an in-process
``ReproServer`` so that the probes apply.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

from repro.api import SystemSpec
from repro.serve import ReproServer, ServeClient, ServeHTTPError

from .config import COUNTED_OPS, SRC, WORK_DIR
from .inputs import (
    EntrySource,
    Structure,
    canonical_rows,
    edit_list,
    rebuild_answers,
    stage,
)
from .measure import (
    cpu,
    mean,
    median,
    perf,
    process_cpu_s,
    process_peak_rss_mb,
)
from .samples import ExchangeCounts, Samples, settle_seconds
from .spans import NULL

READ_PLAN = 8192
BOOT_TIMEOUT_S = 60.0
VISIBLE_TIMEOUT_S = 20.0


def _request_shutdown(url: str) -> None:
    """``POST /shutdown``; a server that is already gone is fine."""
    try:
        with ServeClient.from_url(url, timeout=10) as client:
            client.shutdown()
    except (OSError, ServeHTTPError):
        pass


class _Subprocess:
    """The real CLI in a child process; killed if it will not go."""

    def __init__(self, spec_path, log_path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        warn = [flag for option in sys.warnoptions for flag in ("-W", option)]
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, *warn, "-m", "repro", "serve", str(spec_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            text=True,
        )
        self.pid = self.process.pid
        self.cdss = None
        try:
            self.url = self._await_listening()
        except BaseException:
            self.kill()
            raise

    def _await_listening(self) -> str:
        line: list[str] = []
        reader = threading.Thread(
            target=lambda: line.append(self.process.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        if not line or "listening on" not in line[0]:
            raise RuntimeError(f"server did not come up: {line!r}")
        return line[0].split()[-1]

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        self._log.close()

    def stop(self) -> int:
        """Ask for a graceful shutdown; returns the exit code."""
        _request_shutdown(self.url)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            pass
        finally:
            self.kill()
        return self.process.returncode


class _InProcess:
    """A ``ReproServer`` on its own event loop in a thread (traced runs)."""

    def __init__(self, spec_path) -> None:
        # What ``python -m repro serve`` does before it binds the socket.
        self.cdss = SystemSpec.load(spec_path).build()
        self.cdss.update_exchange()
        self.pid = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(BOOT_TIMEOUT_S) or self._error is not None:
            raise RuntimeError(f"in-process server did not come up: {self._error!r}")
        self.url = f"http://127.0.0.1:{self._server.port}"

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - reported by stop()
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._server = ReproServer(self.cdss, port=0)
        await self._server.start()
        self._ready.set()
        await self._server.serve_until_shutdown()

    def stop(self) -> int:
        _request_shutdown(self.url)
        self._thread.join(30)
        return 0 if not self._thread.is_alive() and self._error is None else 1


class ServeMixed:
    name = "serve_mixed"
    primary = "read_s"

    def __init__(self, size: dict) -> None:
        self.size = size["serve_mixed"]
        self.close_errors: list[str] = []
        self._dirs = 0

    @staticmethod
    def keep_span(span) -> bool:
        """Server-side spans run on the server's threads and carry no op
        id; all of them belong to the window."""
        return True

    # -- inputs ------------------------------------------------------------

    def generate(self, seed: int) -> dict:
        size = self.size
        structure = Structure(size["peers"], "integer", topology="pairs")
        source = EntrySource(structure, seed)
        base = source.take_per_peer(size["base"])
        pool = [
            source.take(structure.first, size["write_batch"])
            for _ in range(size["pool"])
        ]
        rng = random.Random(seed)
        plan = [
            (rng.random() < size["join_share"], rng.randrange(len(base)))
            for _ in range(READ_PLAN)
        ]
        joined = next(
            lay for lay in reversed(structure.layouts) if len(lay.partitions) >= 2
        )
        return {
            "structure": structure,
            "base": base,
            "pool": pool,
            "plan": plan,
            "joined": joined,
        }

    def canonical(self, inputs: dict) -> dict:
        return {
            "structure": inputs["structure"].canonical(),
            "base": edit_list(inputs["base"]),
            "pool": [edit_list(batch) for batch in inputs["pool"]],
            "plan": [[int(join), index] for join, index in inputs["plan"]],
            "joined": inputs["joined"].name,
        }

    @staticmethod
    def _join_text(layout) -> str:
        left = ", ".join(f"a{i}" for i in range(len(layout.partitions[0])))
        right = ", ".join(f"b{i}" for i in range(len(layout.partitions[1])))
        return (
            f"ans(k, a0, b0) :- {layout.relation_name(0)}(k, {left}), "
            f"{layout.relation_name(1)}(k, {right})"
        )

    # -- set-up ------------------------------------------------------------

    def _boot(self, inputs: dict, traced: bool) -> SimpleNamespace:
        """Spec on disk → server listening → prepare → first answer."""
        structure = inputs["structure"]
        self._dirs += 1
        work = WORK_DIR / f"serve-{os.getpid()}-{self._dirs}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        staging = structure.build()
        stage(staging, inputs["base"])
        spec_path = staging.to_spec().save(work / "spec.json")
        del staging

        t0 = perf()
        server = (
            _InProcess(spec_path)
            if traced
            else _Subprocess(spec_path, work / "server.log")
        )
        state = SimpleNamespace(server=server, work=work, clients=[])
        try:
            client = self._client(state)
            p0 = perf()
            state.lookup = client.prepare(
                structure.lookup_text(structure.last), params=["k"]
            )["statement"]
            state.join = client.prepare(self._join_text(inputs["joined"]))[
                "statement"
            ]
            state.prepare_s = perf() - p0
            first = inputs["base"][0]
            reply = client.execute(state.lookup, {"k": first.key})
            state.cold_start_s = perf() - t0
            state.first_ok = reply["rows"] == [
                list(structure.expected_row(structure.last, 0, first))
            ]
        except BaseException:
            self.close(state)
            raise
        return state

    def cold_start(self, inputs: dict) -> tuple[float, bool]:
        """One more server booted to its first answer, then shut down:
        ``(seconds, first answer correct)``."""
        state = self._boot(inputs, traced=False)
        self.close(state)
        return state.cold_start_s, state.first_ok

    def setup(self, inputs: dict, traced: bool = False) -> SimpleNamespace:
        state = self._boot(inputs, traced)
        client = state.clients[0]
        try:
            # The first deletion publish fills the plan caches (~1 s here).
            for batch in inputs["pool"][-self.size["warmup"] :]:
                self._write_cycle(state, inputs, client, batch, True, perf())
                self._write_cycle(state, inputs, client, batch, False, perf())
            for join, index in inputs["plan"][:200]:
                self._read(state, inputs, client, join, index)
            state.soak_errors = []
            if self.size["soak_s"]:
                soak = self.measure(state, inputs, self.size["soak_s"], NULL)
                state.soak_errors = soak.errors
        except BaseException:
            self.close(state)
            raise
        return state

    def _client(self, state) -> ServeClient:
        client = ServeClient.from_url(state.server.url, timeout=60)
        state.clients.append(client)
        return client

    # -- operations --------------------------------------------------------

    def _read(self, state, inputs, client, join: bool, index: int):
        """One read request; ``(seconds, ok)``."""
        if join:
            t0 = perf()
            reply = client.execute(
                state.join, order=["a0"], limit=self.size["join_limit"]
            )
            t1 = perf()
            column = [row[1] for row in reply["rows"]]
            ok = reply["count"] == self.size["join_limit"] and column == sorted(column)
        else:
            entry = inputs["base"][index]
            t0 = perf()
            reply = client.execute(state.lookup, {"k": entry.key})
            t1 = perf()
            structure = inputs["structure"]
            ok = reply["rows"] == [
                list(structure.expected_row(structure.last, 0, entry))
            ]
        return t1 - t0, ok

    def _write_cycle(self, state, inputs, client, batch, insert: bool, due: float):
        """Edit → publish → poll the far peer until the write shows."""
        structure = inputs["structure"]
        op = "insert" if insert else "delete"
        edits = [
            {"op": op, "relation": relation, "row": list(row)}
            for entry in batch
            for relation, row in entry.rows
        ]
        probe = batch[-1]
        want = (
            [list(structure.expected_row(structure.last, 0, probe))]
            if insert
            else []
        )
        started = perf()
        client.edit(edits)
        published = client.publish()
        give_up = perf() + VISIBLE_TIMEOUT_S
        while True:
            reply = client.execute(state.lookup, {"k": probe.key})
            if reply["rows"] == want:
                visible = True
                break
            if perf() > give_up:
                visible = False
                break
        done = perf()
        return SimpleNamespace(
            latency=done - due,
            service=done - started,
            lateness=started - due,
            handler_s=published["seconds"],
            rows=published["inserted"] + published["deleted"],
            staged=len(edits),
            ok=visible,
        )

    # -- the window --------------------------------------------------------

    def measure(self, state, inputs: dict, seconds: float, rec) -> Samples:
        samples = Samples()
        if not state.first_ok:
            samples.attempted += 1
            samples.fail("set-up: wrong first answer")
        for error in getattr(state, "soak_errors", ()):
            samples.attempted += 1
            samples.fail(f"soak: {error}")
        server = state.server
        counter = ExchangeCounts(samples)
        reader_client = self._client(state)
        writer_client = self._client(state)
        lock = threading.Lock()
        reads: dict[bool, list[float]] = {False: [], True: []}
        writes: list[SimpleNamespace] = []
        scrapes: list[float] = []
        rejected_before = (
            writer_client.stats()["admission"]["rejected"] if rec.tracing else 0
        )
        cpu_before = process_cpu_s(server.pid) if server.pid else cpu()
        start = perf()
        deadline = start + seconds

        def fail(what: str) -> None:
            with lock:
                samples.fail(what)

        def reader() -> None:
            plan = inputs["plan"]
            position = 0
            while perf() < deadline:
                join, index = plan[position % len(plan)]
                position += 1
                try:
                    elapsed, ok = self._read(
                        state, inputs, reader_client, join, index
                    )
                except (OSError, ServeHTTPError) as error:
                    fail(f"read {position}: {type(error).__name__}: {error}")
                    continue
                reads[join].append(elapsed)
                if not ok:
                    fail(f"read {position}: wrong answer")

        def writer() -> None:
            period = self.size["write_period_s"]
            pool = inputs["pool"]
            cycle = 0
            next_scrape = start + 1.0
            # An even number of cycles leaves the base instance behind.
            while perf() < deadline or cycle % 2:
                due = start + cycle * period
                wait = due - perf()
                if wait > 0:
                    time.sleep(wait)
                batch = pool[(cycle // 2) % len(pool)]
                counted = rec.tracing and cycle < COUNTED_OPS
                before = counter.index_stats(server.cdss) if counted else None
                try:
                    op = self._write_cycle(
                        state, inputs, writer_client, batch, cycle % 2 == 0, due
                    )
                except (OSError, ServeHTTPError) as error:
                    fail(f"write {cycle}: {type(error).__name__}: {error}")
                    cycle += 1
                    continue
                if not op.ok:
                    fail(f"write {cycle}: not visible at the far peer")
                writes.append(op)
                if rec.tracing:
                    report = server.cdss.exchange_reports[-1]
                    samples.settle_s += settle_seconds(report)
                    if counted:
                        samples.counted_ids.add(cycle)
                        counter.add(
                            op.staged,
                            report,
                            before,
                            counter.index_stats(server.cdss),
                        )
                    if perf() >= next_scrape:
                        t0 = perf()
                        writer_client.metrics()
                        scrapes.append(perf() - t0)
                        next_scrape += 1.0
                cycle += 1

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        threads[0].join()
        window = perf() - start
        threads[1].join()
        if server.pid:
            samples.cpu_s = process_cpu_s(server.pid) - cpu_before
            samples.peak_rss_mb = process_peak_rss_mb(server.pid)
        else:
            samples.cpu_s = cpu() - cpu_before

        all_reads = reads[False] + reads[True]
        samples.read_s = all_reads
        samples.read_wall_s = window
        samples.exchange_s = [op.latency for op in writes]
        samples.exchange_wall_s = sum(op.service for op in writes)
        samples.rows = sum(op.rows for op in writes)
        samples.ops = len(all_reads) + len(writes)
        samples.attempted += samples.ops
        lateness = [op.lateness for op in writes]
        handler = [op.handler_s for op in writes]
        samples.extra.update(
            {
                "reads": len(all_reads),
                "lookups": len(reads[False]),
                "joins": len(reads[True]),
                "write_cycles": len(writes),
                "write_period_s": self.size["write_period_s"],
                "write_lateness_p50_ms": median(lateness) * 1000.0,
                "write_lateness_max_ms": max(lateness, default=0.0) * 1000.0,
            }
        )
        if rec.tracing:
            runs = [
                span.end - span.start
                for span in rec.spans
                if span.name == "serve.statement_run"
            ]
            lookup_p50 = median(reads[False])
            samples.layer_values.update(
                {
                    "api.prepare_s": state.prepare_s,
                    "storage.index_settle_s": samples.settle_s / max(1, len(writes)),
                    "serve.lookup_p50_ms": lookup_p50 * 1000.0,
                    "serve.join_p50_ms": median(reads[True]) * 1000.0,
                    # Medians: the lookup, not the one-in-ten join.
                    "serve.statement_run_us": median(runs) * 1e6,
                    "serve.http_overhead_ms": (lookup_p50 - median(runs)) * 1000.0,
                    "serve.publish_handler_ms": mean(handler) * 1000.0,
                    "serve.write_lateness_ms": mean(lateness) * 1000.0,
                    "serve.admission_rejected": (
                        writer_client.stats()["admission"]["rejected"]
                        - rejected_before
                    ),
                    "obs.scrape_ms": mean(scrapes) * 1000.0,
                }
            )
        return samples

    # -- checking and tear-down --------------------------------------------

    def live_cdss(self, state):
        return state.server.cdss

    def verify(self, state, inputs: dict) -> tuple[dict, dict]:
        """Every relation read back over HTTP against a clean rebuild."""
        structure = inputs["structure"]
        client = self._client(state)
        live = {}
        for layout in structure.layouts:
            for part, partition in enumerate(layout.partitions):
                columns = ", ".join(f"x{i}" for i in range(len(partition) + 1))
                text = f"ans({columns}) :- {layout.relation_name(part)}({columns})"
                live[layout.relation_name(part)] = {
                    mode: canonical_rows(client.query(text, mode=mode)["rows"])
                    for mode in ("with_nulls", "certain")
                }
        return live, rebuild_answers(structure, inputs["base"])

    def close(self, state) -> None:
        for client in state.clients:
            client.close()
        state.clients = []
        server, state.server = state.server, None
        if server is not None:
            code = server.stop()
            if code != 0:
                self.close_errors.append(f"server exited with code {code}")
        shutil.rmtree(state.work, ignore_errors=True)
        gc.collect()
