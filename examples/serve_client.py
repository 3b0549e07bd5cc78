#!/usr/bin/env python3
"""Serving tier walkthrough: snapshot-isolated reads over HTTP.

Boots the paper's bioinformatics confederation behind an in-process
``repro.serve`` node, then talks to it the way an application would —
over HTTP with :class:`repro.serve.ServeClient`:

1. prepare a parameterized query once (server-side statement registry,
   zero replanning on re-execution);
2. execute it with bindings, answer modes, and ORDER BY/LIMIT paging;
3. stage edits through ``POST /edit`` and run a publish — the running
   readers keep seeing the *old* snapshot until the new fixpoint is
   pinned, then atomically flip to the new one;
4. read the admission/snapshot counters from ``GET /stats``.

Against a standalone node the client half is identical — start one with::

    python -m repro serve spec.json --port 8080

and replace the ServerThread below with ``ServeClient(port=8080)``.

Run:  PYTHONPATH=src python examples/serve_client.py
"""

import asyncio
import threading

from repro import CDSS
from repro.serve import ReproServer, ServeClient


def build_cdss() -> CDSS:
    """The running example: three peers sharing taxon data."""
    cdss = CDSS("bioinformatics")
    pgus = cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    with pgus.batch() as batch:
        batch.insert_many(
            "G", [(1, "f", "frog"), (2, "t", "toad"), (3, "n", "newt")]
        )
    cdss.update_exchange()
    return cdss


class ServerThread:
    """One ReproServer on a background asyncio loop (see the benchmark)."""

    def __init__(self, cdss: CDSS) -> None:
        self._cdss = cdss
        self._ready = threading.Event()
        self.server: ReproServer | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self.server = ReproServer(self._cdss, port=0)
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_shutdown()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        return self

    def __exit__(self, *_exc: object) -> None:
        with ServeClient(port=self.server.port) as client:
            client.shutdown()
        self._thread.join(timeout=30)


def main() -> None:
    cdss = build_cdss()
    with ServerThread(cdss) as node, ServeClient(port=node.server.port) as client:
        health = client.health()
        print(f"node up: snapshot version {health['snapshot_version']}")

        # 1. Prepare once; the statement id is stable for the connection's
        #    lifetime and re-preparing the same text returns the same id.
        stmt = client.prepare(
            "ans(i, n) :- B(i, n)", params=(), kind="query"
        )
        print(f"prepared {stmt['statement']} columns={stmt['columns']}")

        # 2. Execute with paging: certain answers, newest id first.
        page = client.execute(stmt["statement"], order=["-i"], limit=2)
        print(f"top-2 by id (pinned v{page['pinned_version']}):", page["rows"])

        # Parameterized lookup: bindings travel as JSON scalars.
        lookup = client.query(
            "ans(n) :- B(i, n)", params=["i"], bindings={"i": 2}
        )
        print("lookup i=2:", lookup["rows"])

        # Annotated answers carry provenance and read the *live* tables,
        # so they are serialized behind the exchange lock server-side.
        annotated = client.execute(stmt["statement"], mode="annotated", limit=1)
        print("annotated:", annotated["rows"][0])

        # 3. Stage edits and publish.  Readers on the old snapshot are
        #    never blocked; the snapshot flips only once the new fixpoint
        #    is complete (copy-on-publish).
        client.insert("G", (4, "s", "salamander"))
        report = client.publish()
        print(
            f"publish: +{report['inserted']} rows in {report['seconds']:.3f}s,"
            f" snapshot now v{report['snapshot_version']}"
        )
        after = client.execute(stmt["statement"], order=["i"])
        print(f"after publish (v{after['pinned_version']}):", after["rows"])

        # 4. Operational counters.
        stats = client.stats()
        admission = stats["admission"]
        print(
            f"stats: {stats['server']['requests']} requests, "
            f"{admission['admitted']} admitted, "
            f"{admission['rejected']} rejected, "
            f"{stats['snapshot']['refreshes']} snapshot refresh(es)"
        )


if __name__ == "__main__":
    main()
