"""The asyncio front door: HTTP+JSON serving over a live CDSS node.

``python -m repro serve spec.json --port N`` boots one of these.  The
concurrency architecture (the whole point of the tier) in four rules:

1. **Reads never block on writes.**  Query/program executions run
   against the :class:`~repro.serve.snapshots.SnapshotManager`'s current
   pinned snapshot — the last consistent fixpoint.  They take the
   admission semaphore, never the exchange lock.  A short read runs
   inline on the event loop: one whose statement's previous run took
   less than the interpreter's switch interval
   (:func:`sys.getswitchinterval`), and whose snapshot lock is free.  A
   pure-Python read that short holds the GIL for its whole run in a pool
   thread too, so handing it to one buys no concurrency and costs a
   thread wake-up.  Every other read (a statement's first run, one whose
   last run was over budget, one whose replica lock another thread
   holds) runs in the reader thread pool.
2. **Writes serialize behind the exchange lock.**  Edits, publishes, and
   statement preparation run on a single writer thread under an
   :class:`asyncio.Lock`; a publish brings the idle snapshot replica
   forward by its change batches and swaps it in *before* releasing the
   lock (delta-on-publish), so the next read — even one admitted
   mid-publish — sees either the old fixpoint or the new one, never
   anything in between.
3. **Degradation is graceful.**  Beyond ``max_inflight`` executions +
   ``max_queue`` waiters a request is rejected immediately with 503;
   a pool-run read past the per-request timeout returns 504.  An inline
   read cannot be pre-empted; the switch-interval budget bounds it
   instead.  Counters for all of it live under ``GET /stats``.
4. **Annotated answers are writes.**  Provenance expressions read the
   live provenance tables, so ``mode=annotated`` executes on the write
   path (exchange lock held) rather than against a snapshot.

Wire protocol (all bodies JSON):

========  =============  ====================================================
method    path           body / effect
========  =============  ====================================================
GET       /health        liveness + pinned snapshot version
GET       /stats         admission, snapshot, registry, request counters
GET       /statements    registered prepared statements
GET       /changes       ?since=V&wait=S → output-relation change batches
                         with version > V (the update-exchange change
                         stream); wait>0 long-polls until the next publish
POST      /prepare       {kind, text, params?, answer?} → {statement, ...}
POST      /execute       {statement, bindings?, mode?, order?, limit?,
                         offset?} → {rows, count, pinned_version, ...}
POST      /query         /prepare + /execute in one round trip
POST      /edit          {edits: [{op, relation, row}, ...]} → {staged}
POST      /publish       {peers?, strategy?} → exchange report summary
POST      /shutdown      graceful shutdown (drains in-flight work)
========  =============  ====================================================
"""

from __future__ import annotations

import asyncio
import contextlib
import http
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping

from ..obs import bootstrap_default_metrics
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .admission import AdmissionController
from .protocol import (
    KIND_QUERY,
    MODE_ANNOTATED,
    ServeError,
    StatementRegistry,
    decode_value,
    encode_row,
    parse_execute_args,
)
from .snapshots import SnapshotManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.cdss import CDSS
    from ..durability.node import DurableNode

_MAX_BODY = 8 * 1024 * 1024
_STREAM_LIMIT = 1 * 1024 * 1024

#: Longest honored ``/changes?wait=`` long-poll, seconds.  Clients wanting
#: to wait longer re-issue the request; an unbounded wait would pin a
#: connection (and its handler task) forever.
MAX_CHANGES_WAIT = 60.0

# Ensure every documented metric family renders on /metrics even before
# the layer that feeds it has constructed (see repro.obs).
bootstrap_default_metrics()

#: Known routes for the per-route latency histogram; anything else is
#: recorded under "other" so label cardinality stays fixed.
_ROUTES = frozenset(
    (
        "/health",
        "/stats",
        "/statements",
        "/changes",
        "/metrics",
        "/prepare",
        "/execute",
        "/query",
        "/edit",
        "/publish",
        "/shutdown",
    )
)

#: Cap on distinct per-statement histogram series; later statements
#: aggregate under the "other" label.
_MAX_STATEMENT_SERIES = 64

_REQUEST_SECONDS = _metrics.REGISTRY.histogram(
    "repro_serve_request_seconds",
    "HTTP request latency by route",
    labels=("route",),
)
_STATEMENT_SECONDS = _metrics.REGISTRY.histogram(
    "repro_serve_statement_seconds",
    "Prepared-statement execution latency by statement id",
    labels=("statement",),
)

#: Prometheus text exposition content type.
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _PlainText(str):
    """Marker type: ``_respond`` sends these verbatim as text/plain."""


def _server_samples(server: "ReproServer"):
    """Metrics collector: request/error/publish counters of one node."""
    sample = _metrics.Sample
    kind = _metrics.KIND_COUNTER
    yield sample("repro_serve_requests_total", kind, "", (), server.requests)
    yield sample("repro_serve_errors_total", kind, "", (), server.errors)
    yield sample(
        "repro_serve_publishes_total", kind, "", (), server.publishes
    )
    for path, count in (
        ("inline", server.reads_inline),
        ("pool", server.reads_pooled),
    ):
        yield sample(
            "repro_serve_reads_total", kind, "", (("path", path),), count
        )


class ReproServer:
    """One serving node over one :class:`~repro.core.cdss.CDSS`."""

    def __init__(
        self,
        cdss: "CDSS | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        max_queue: int = 128,
        timeout: float = 30.0,
        readers: int = 4,
        node: "DurableNode | None" = None,
    ) -> None:
        if cdss is None:
            if node is None:
                raise ValueError("ReproServer needs a cdss or a DurableNode")
            cdss = node.cdss
        elif node is not None and node.cdss is not cdss:
            raise ValueError("node and cdss arguments disagree")
        self.cdss = cdss
        #: When set, publishes route through the durable node (write-ahead
        #: logged, auto-checkpointed) and graceful shutdown checkpoints.
        self.node = node
        self.host = host
        self.port = port
        self.registry = StatementRegistry(cdss)
        self.admission = AdmissionController(max_inflight, max_queue, timeout)
        self.snapshots = SnapshotManager(cdss)
        self._readers = ThreadPoolExecutor(
            max_workers=readers, thread_name_prefix="repro-serve-read"
        )
        self._writer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-write"
        )
        #: Serializes every mutation of the live system.  Readers never
        #: acquire it — that is the no-starvation guarantee.
        self._exchange_lock = asyncio.Lock()
        self._shutdown = asyncio.Event()
        self._server: asyncio.Server | None = None
        #: Connections parked between requests; stop() closes them.
        self._idle: set[asyncio.StreamWriter] = set()
        # Keep one subscription open for the node's lifetime: change
        # capture is gated on open subscriptions, so this is what makes
        # every publish land in the change log that /changes serves.
        self._subscription = cdss.system().subscribe()
        #: Long-poll parking lot: one future per waiting ``/changes``
        #: request, resolved (all at once) after every publish.
        self._change_waiters: list[asyncio.Future] = []
        self.requests = 0
        self.errors = 0
        self.publishes = 0
        #: Snapshot reads run on the event loop / in the reader pool.
        self.reads_inline = 0
        self.reads_pooled = 0
        self._started_at = time.time()
        self._statement_series: set[str] = set()
        _metrics.REGISTRY.register(self, _server_samples)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=_STREAM_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        # Wake parked long-polls first: wait_closed() blocks on in-flight
        # handlers, and a /changes waiter would otherwise hold it for its
        # full timeout.
        self._wake_change_waiters()
        self._shutdown.set()  # busy connections end after their response
        if self._server is not None:
            self._server.close()
            for writer in tuple(self._idle):
                writer.close()
            await self._server.wait_closed()
            self._server = None
        # Drain in-flight executions before tearing the node down.
        self._readers.shutdown(wait=True)
        self._writer.shutdown(wait=True)
        self._subscription.close()
        self.snapshots.close()
        if self.node is not None:
            # Graceful shutdown = final checkpoint; the next open() replays
            # an empty WAL tail.
            self.node.close()

    async def serve_until_shutdown(self, duration: float | None = None) -> None:
        """Serve until ``POST /shutdown`` (or ``duration`` seconds pass)."""
        try:
            if duration is None:
                await self._shutdown.wait()
            else:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._shutdown.wait(), duration)
        finally:
            await self.stop()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._shutdown.is_set():
                self._idle.add(writer)
                try:
                    raw = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                    asyncio.CancelledError,  # loop teardown: end of connection
                ):
                    break
                finally:
                    self._idle.discard(writer)
                try:
                    method, path, query, headers = self._parse_head(raw)
                    length = int(headers.get("content-length", "0") or "0")
                    if length > _MAX_BODY:
                        raise ServeError(
                            "request body too large", status=413, code="too_large"
                        )
                    body_bytes = (
                        await reader.readexactly(length) if length else b""
                    )
                except ServeError as exc:
                    await self._respond(
                        writer, exc.status, exc.payload(), close=True
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                status, payload = await self._handle_request(
                    method, path, query, body_bytes
                )
                try:
                    await self._respond(
                        writer, status, payload, close=not keep_alive
                    )
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not keep_alive:
                    break
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    @staticmethod
    def _parse_head(
        raw: bytes,
    ) -> tuple[str, str, dict[str, str], dict[str, str]]:
        lines = raw.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise ServeError("malformed request line", code="bad_request")
        method, target = parts[0].upper(), parts[1]
        path, _, query_string = target.partition("?")
        query: dict[str, str] = {}
        for pair in query_string.split("&"):
            if pair:
                name, _, value = pair.partition("=")
                query[name] = value
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, path, query, headers

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        close: bool,
    ) -> None:
        if isinstance(payload, _PlainText):
            body = str(payload).encode()
            content_type = _METRICS_CONTENT_TYPE
        else:
            body = json.dumps(payload, separators=(",", ":")).encode()
            content_type = "application/json"
        try:
            reason = http.HTTPStatus(status).phrase
        except ValueError:
            reason = "Status"
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _handle_request(
        self,
        method: str,
        path: str,
        query: Mapping[str, str],
        body_bytes: bytes,
    ) -> tuple[int, object]:
        self.requests += 1
        started = time.perf_counter()
        try:
            if body_bytes:
                try:
                    body = json.loads(body_bytes)
                except ValueError:
                    raise ServeError(
                        "request body is not valid JSON", code="bad_json"
                    ) from None
                if not isinstance(body, Mapping):
                    raise ServeError(
                        "request body must be a JSON object", code="bad_json"
                    )
            else:
                body = {}
            return 200, await self._dispatch(method, path, query, body)
        except ServeError as exc:
            self.errors += 1
            return exc.status, exc.payload()
        except Exception as exc:  # noqa: BLE001 - the front door must not die
            self.errors += 1
            return 500, {
                "error": "internal",
                "message": f"{type(exc).__name__}: {exc}",
            }
        finally:
            route = path if path in _ROUTES else "other"
            _REQUEST_SECONDS.labels(route).observe(
                time.perf_counter() - started
            )

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        path: str,
        query: Mapping[str, str],
        body: Mapping[str, object],
    ) -> object:
        if method == "GET":
            if path == "/health":
                return {
                    "ok": True,
                    "snapshot_version": self.snapshots.current.version,
                    "statements": len(self.registry),
                }
            if path == "/stats":
                return self._stats()
            if path == "/statements":
                return {"statements": self.registry.describe()}
            if path == "/changes":
                return await self._do_changes(query)
            if path == "/metrics":
                return _PlainText(_metrics.REGISTRY.render())
            raise ServeError(f"unknown path {path!r}", 404, "not_found")
        if method != "POST":
            raise ServeError(
                f"unsupported method {method}", 405, "bad_method"
            )
        if path == "/prepare":
            return await self._do_prepare(body)
        if path == "/execute":
            return await self._do_execute(body, self.registry.get(body.get("statement")))
        if path == "/query":
            prepared = await self._do_prepare(body)
            statement = self.registry.get(prepared["statement"])
            return await self._do_execute(body, statement)
        if path == "/edit":
            return await self._do_edit(body)
        if path == "/publish":
            return await self._do_publish(body)
        if path == "/shutdown":
            self._shutdown.set()
            return {"ok": True, "shutting_down": True}
        raise ServeError(f"unknown path {path!r}", 404, "not_found")

    def _stats(self) -> dict:
        stats = {
            "statements": len(self.registry),
            "server": {
                "requests": self.requests,
                "errors": self.errors,
                "publishes": self.publishes,
                "reads_inline": self.reads_inline,
                "reads_pooled": self.reads_pooled,
                "pending_edits": self.cdss.pending_edits(),
                "uptime_seconds": time.time() - self._started_at,
            },
            "admission": self.admission.stats(),
            "snapshot": self.snapshots.stats(),
        }
        system_fn = getattr(self.cdss, "system", None)
        if system_fn is not None:
            system = system_fn()
            engine = getattr(system, "engine", None)
            if engine is not None:
                stats["engine"] = engine.stats.counters()
            db = getattr(system, "db", None)
            if db is not None and hasattr(db, "index_stats"):
                stats["indexes"] = db.index_stats()
        if self.node is not None:
            stats["durability"] = {
                "data_dir": str(self.node.data_dir),
                "wal_last_seq": self.node.wal.last_seq,
                "wal_appends": self.node.wal.appended,
                "wal_fsyncs": self.node.wal.fsyncs,
                "checkpoints": self.node.checkpoints,
                "recovered": self.node.recovered,
                "replayed_edit_records": self.node.replayed_edit_records,
                "replayed_publish_records": (
                    self.node.replayed_publish_records
                ),
            }
        return stats

    async def _do_changes(self, query: Mapping[str, str]) -> dict:
        """Serve the change stream: batches with version > ``since``.

        With ``wait=SECS`` (long poll) an empty result parks the request
        until the next publish lands or the wait elapses — clients get
        sub-second change propagation without hot polling.  The wait is
        capped at ``MAX_CHANGES_WAIT`` and a timed-out poll returns the
        normal (empty) payload, so clients need no special timeout path.
        """
        raw = query.get("since", "0")
        try:
            since = int(raw)
        except ValueError:
            raise ServeError(
                f"since must be an integer version, got {raw!r}",
                code="bad_since",
            ) from None
        raw_wait = query.get("wait", "0")
        try:
            wait = min(float(raw_wait or "0"), MAX_CHANGES_WAIT)
        except ValueError:
            raise ServeError(
                f"wait must be a number of seconds, got {raw_wait!r}",
                code="bad_wait",
            ) from None
        payload = self._changes_payload(since)
        if payload["changes"] or wait <= 0:
            return payload
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait
        while not payload["changes"] and not self._shutdown.is_set():
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            waiter: asyncio.Future = loop.create_future()
            self._change_waiters.append(waiter)
            try:
                await asyncio.wait_for(waiter, remaining)
            except asyncio.TimeoutError:
                break
            finally:
                if waiter in self._change_waiters:
                    self._change_waiters.remove(waiter)
            payload = self._changes_payload(since)
        return payload

    def _changes_payload(self, since: int) -> dict:
        """One change-stream read: batches with version > ``since``.

        Reads the exchange system's change log without any lock: batches
        are immutable once appended and the log only grows under the
        exchange lock, so a concurrent publish can at worst hide the
        batch it is still writing — the client's next poll gets it.
        """
        version, batches = self.cdss.system().changes_since(since)
        changes = []
        for batch in batches:
            relations = {}
            for relation in sorted(batch.changes):
                zset = batch.changes[relation]
                relations[relation] = {
                    "inserted": [
                        encode_row(row) for row in sorted(zset.positive(), key=repr)
                    ],
                    "deleted": [
                        encode_row(row) for row in sorted(zset.negative(), key=repr)
                    ],
                }
            changes.append({"version": batch.version, "relations": relations})
        return {"version": version, "since": since, "changes": changes}

    def _wake_change_waiters(self) -> None:
        waiters, self._change_waiters = self._change_waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    # -- write path (exchange lock + single writer thread) -----------------

    async def _write(self, fn: Callable[[], object]) -> object:
        loop = asyncio.get_running_loop()
        async with self._exchange_lock:
            return await loop.run_in_executor(self._writer, fn)

    async def _do_prepare(self, body: Mapping[str, object]) -> dict:
        kind = body.get("kind", KIND_QUERY)
        text = body.get("text")
        params = body.get("params", ())
        answer = body.get("answer", "ans")
        if not isinstance(params, (list, tuple)):
            raise ServeError("params must be a list of names")
        if not isinstance(answer, str):
            raise ServeError("answer must be a string")
        # Planning reads live statistics: a write-path operation.
        return await self._write(
            lambda: self.registry.prepare(kind, text, params, answer).describe()
        )

    def _observe_statement(self, statement_id: str, seconds: float) -> None:
        """Record per-statement latency with bounded label cardinality."""
        if statement_id not in self._statement_series:
            if len(self._statement_series) >= _MAX_STATEMENT_SERIES:
                statement_id = "other"
            else:
                self._statement_series.add(statement_id)
        _STATEMENT_SECONDS.labels(statement_id).observe(seconds)

    async def _do_execute(self, body, statement) -> dict:
        started = time.perf_counter()
        try:
            return await self._do_execute_inner(body, statement)
        finally:
            self._observe_statement(
                statement.id, time.perf_counter() - started
            )

    async def _do_execute_inner(self, body, statement) -> dict:
        args = parse_execute_args(body)
        run = partial(
            statement.run,
            args["bindings"],
            mode=args["mode"],
            order=args["order"],
            limit=args["limit"],
            offset=args["offset"],
        )
        if args["mode"] == MODE_ANNOTATED:
            if statement.kind != KIND_QUERY:
                raise ServeError(
                    "annotated answers are not available for programs",
                    code="bad_mode",
                )
            # Live provenance tables: serialize with writes.
            async with self.admission.slot():
                return await self._write(partial(run, snapshot=None))
        async with self.admission.slot():
            # The snapshot reference is loaded AFTER admission: a request
            # admitted mid-publish reads the freshest pinned fixpoint.
            snapshot = self.snapshots.current
            last_run_s = statement.last_run_s
            if (
                last_run_s is not None
                and last_run_s < sys.getswitchinterval()
                and snapshot.lock.acquire(blocking=False)
            ):
                # Short and uncontended: run here, on the loop thread.
                try:
                    self.reads_inline += 1
                    return run(snapshot=snapshot)
                finally:
                    snapshot.lock.release()
            self.reads_pooled += 1
            future = asyncio.get_running_loop().run_in_executor(
                self._readers, partial(run, snapshot=snapshot)
            )
            try:
                return await asyncio.wait_for(
                    asyncio.shield(future), self.admission.timeout
                )
            except asyncio.TimeoutError:
                self.admission.timed_out()
                # The worker thread cannot be killed; detach the future so
                # its eventual result (or error) is silently discarded.
                future.add_done_callback(lambda f: f.exception())
                raise ServeError(
                    f"execution exceeded {self.admission.timeout}s",
                    status=504,
                    code="timeout",
                ) from None

    async def _do_edit(self, body: Mapping[str, object]) -> dict:
        edits = body.get("edits")
        if not isinstance(edits, list) or not edits:
            raise ServeError("edit requires a non-empty 'edits' list")
        normalized: list[tuple[str, str, tuple]] = []
        for edit in edits:
            if not isinstance(edit, Mapping):
                raise ServeError("each edit must be an object")
            op = edit.get("op")
            relation = edit.get("relation")
            row = edit.get("row")
            if op not in ("insert", "delete"):
                raise ServeError(f"unknown edit op {op!r}")
            if not isinstance(relation, str):
                raise ServeError("edit relation must be a string")
            if not isinstance(row, list):
                raise ServeError("edit row must be a list of values")
            normalized.append(
                (op, relation, tuple(decode_value(v) for v in row))
            )

        def apply() -> dict:
            batch = self.cdss.batch()
            for op, relation, row in normalized:
                if op == "insert":
                    batch.insert(relation, row)
                else:
                    batch.delete(relation, row)
            return {"staged": batch.commit()}

        try:
            return await self._write(apply)  # type: ignore[return-value]
        except ServeError:
            raise
        except Exception as exc:
            raise ServeError(
                f"{type(exc).__name__}: {exc}", code="edit_error"
            ) from exc

    async def _do_publish(self, body: Mapping[str, object]) -> dict:
        peers = body.get("peers")
        strategy = body.get("strategy")
        if peers is not None and not isinstance(peers, list):
            raise ServeError("peers must be a list of peer names")
        if strategy is not None and not isinstance(strategy, str):
            raise ServeError("strategy must be a string")

        def publish() -> dict:
            # Root "publish" span: the nested wal-append / exchange /
            # snapshot-refresh spans all land in one trace.
            span = (
                _tracing.start("publish", durable=self.node is not None)
                if _tracing.ENABLED
                else None
            )
            try:
                if self.node is not None:
                    # Durable path: WAL-logged before applied, and
                    # checkpointed on the node's configured cadence.
                    report = self.node.publish(peers=peers, strategy=strategy)
                else:
                    report = self.cdss.update_exchange(
                        peers=peers, strategy=strategy
                    )
                # Delta-on-publish: bring the idle replica to the new
                # fixpoint while the exchange lock is still held, so no
                # later write can interleave with the patch.
                snapshot = self.snapshots.refresh()
            except BaseException:
                if span is not None:
                    _tracing.finish(span)
                raise
            if span is not None:
                span.rows = report.inserted + report.deleted
                _tracing.finish(span)
            return {
                "ok": True,
                "strategy": report.strategy,
                "seconds": report.seconds,
                "inserted": report.inserted,
                "deleted": report.deleted,
                "snapshot_version": snapshot.version,
            }

        try:
            result = await self._write(publish)
        except Exception as exc:
            raise ServeError(
                f"{type(exc).__name__}: {exc}", status=500, code="publish_error"
            ) from exc
        self.publishes += 1
        self._wake_change_waiters()
        return result  # type: ignore[return-value]


def run(
    cdss: "CDSS | None" = None,
    host: str = "127.0.0.1",
    port: int = 8080,
    max_inflight: int = 64,
    max_queue: int = 128,
    timeout: float = 30.0,
    readers: int = 4,
    duration: float | None = None,
    node: "DurableNode | None" = None,
) -> None:
    """Boot a server and block until shutdown — the CLI entry point.

    Prints ``repro-serve listening on http://host:port`` once the socket
    is bound (with the *actual* port, so ``--port 0`` is scriptable).
    Pass ``node`` (a :class:`~repro.durability.node.DurableNode`) to serve
    durably: publishes are write-ahead logged and shutdown checkpoints.
    """

    async def main() -> None:
        server = ReproServer(
            cdss,
            host=host,
            port=port,
            max_inflight=max_inflight,
            max_queue=max_queue,
            timeout=timeout,
            readers=readers,
            node=node,
        )
        await server.start()
        print(
            f"repro-serve listening on http://{server.host}:{server.port}",
            flush=True,
        )
        await server.serve_until_shutdown(duration)

    asyncio.run(main())
