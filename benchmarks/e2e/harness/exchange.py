"""The in-process exchange workloads: bulk_load, insert_stream, delete_stream.

All three drive the stable v2 surface only — ``cdss.batch()``,
``cdss.update_exchange()``, ``cdss.prepare()`` / ``execute()`` — with
default constructor arguments.
"""

from __future__ import annotations

import gc
import random
from types import SimpleNamespace

from .config import COUNTED_OPS, TRUST_MODULUS, TRUST_PEER
from .inputs import (
    EntrySource,
    Structure,
    cdss_answers,
    drop_report_history,
    edit_list,
    rebuild_answers,
    sha256_json,
    stage,
)
from .measure import (
    cpu,
    freeze_heap,
    gc_quiet,
    perf,
    timed_reads,
    under_timed_op,
)
from .samples import ExchangeCounts, Samples
from .spans import NULL


def _trusted(row) -> bool:
    return row[0] % TRUST_MODULUS != 0


# -- bulk_load ---------------------------------------------------------------


class BulkLoad:
    """Fig. 5's "time to join": one big batch into a fresh system.

    Large-Δ regime — fixpoint evaluation, Skolem construction and
    wholesale index builds do nearly all the work, per-round fixed costs
    vanish.  String dataset, existential mappings, so labeled nulls nest
    down the chain.
    """

    name = "bulk_load"
    primary = "exchange_s"
    keep_span = staticmethod(under_timed_op)

    def __init__(self, size: dict) -> None:
        self.size = size["bulk_load"]

    def generate(self, seed: int) -> dict:
        structure = Structure(
            self.size["peers"], "string", uniform_attributes=False
        )
        base = EntrySource(structure, seed).take_per_peer(self.size["base"])
        # The same number of keys from every peer: a row that came down
        # the whole chain carries deeper nulls than a local one and costs
        # more to materialize, so a free sample's mix would move the median.
        rng = random.Random(seed)
        probes = [
            entry
            for layout in structure.layouts
            for entry in rng.sample(
                [e for e in base if e.peer == layout.name],
                min(self.size["lookups_per_peer"], self.size["base"]),
            )
        ]
        return {
            "structure": structure,
            "base": base,
            "probe_keys": [entry.key for entry in probes],
        }

    def canonical(self, inputs: dict) -> dict:
        return {
            "structure": inputs["structure"].canonical(),
            "base": edit_list(inputs["base"]),
            "probe_keys": inputs["probe_keys"],
        }

    def _join(self, inputs: dict, rec, op_id):
        """One operation: fresh CDSS, load, exchange, prepared lookups in
        with-nulls mode at the last peer.  Returns the system too."""
        structure = inputs["structure"]
        with gc_quiet():
            c0, t0 = cpu(), perf()
            root = rec.begin("op.bulk_load", "bench", op_id)
            try:
                b0 = perf()
                cdss = structure.build()
                rec.record("api.build", "api", b0, perf())
                span = rec.begin("api.stage", "api")
                staged = stage(cdss, inputs["base"])
                rec.finish(span)
                report = cdss.update_exchange()
                p0 = perf()
                lookup = cdss.prepare(
                    structure.lookup_text(structure.last), params=("k",)
                )
                p1 = perf()
                rec.record("api.prepare", "api", p0, p1)
                reads, found = timed_reads(
                    lambda key: lookup.execute(k=key).with_nulls(),
                    inputs["probe_keys"],
                    rec,
                )
            finally:
                rec.finish(root)
            t1, c1 = perf(), cpu()
        ok = all(
            len(rows) == 1 and rows[0][0] == key
            for rows, key in zip(found, inputs["probe_keys"])
        )
        return SimpleNamespace(
            cdss=cdss,
            latency=t1 - t0,
            cpu=c1 - c0,
            report=report,
            staged=staged,
            reads=reads,
            ok=ok,
            digest=sha256_json([repr(rows) for rows in found]),
            prepare_s=p1 - p0,
        )

    def setup(self, inputs: dict, traced: bool = False) -> SimpleNamespace:
        """Warm-up is one whole operation: imports, module-level caches."""
        first = self._join(inputs, NULL, None)
        return SimpleNamespace(
            cold_start_s=first.latency,
            digest=first.digest,
            reference=cdss_answers(first.cdss),
            last=first,
        )

    def cold_start(self, inputs: dict) -> tuple[float, bool]:
        """Every operation here starts cold; one more of them, outside the
        window: ``(seconds, lookups correct)``."""
        op = self._join(inputs, NULL, None)
        return op.latency, op.ok

    def measure(self, state, inputs: dict, seconds: float, rec) -> Samples:
        samples = Samples()
        counter = ExchangeCounts(samples)
        deadline = perf() + seconds
        while perf() < deadline:
            op_id = len(samples.exchange_s)
            samples.attempted += 1
            try:
                op = self._join(inputs, rec, op_id)
            except Exception as error:  # noqa: BLE001 - counted, not hidden
                samples.fail(f"op {op_id}: {type(error).__name__}: {error}")
                continue
            state.last = op
            if not op.ok or op.digest != state.digest:
                samples.fail(f"op {op_id}: wrong lookup answers")
            samples.add_exchange(op)
            if rec.tracing and op_id < COUNTED_OPS:
                samples.counted_ids.add(op_id)
                # A fresh database per operation: its counters start at 0.
                counter.add(
                    op.staged,
                    op.report,
                    {key: 0 for _, key in ExchangeCounts.INDEX},
                    counter.index_stats(op.cdss),
                )
        samples.close_exchanges(state.last.prepare_s)
        return samples

    def live_cdss(self, state):
        return state.last.cdss

    def verify(self, state, inputs: dict) -> tuple[dict, dict]:
        """Every operation is its own clean rebuild: the last operation's
        instance must equal the set-up's."""
        return cdss_answers(state.last.cdss), state.reference

    def close(self, state) -> None:
        state.last = None
        gc.collect()


# -- insert_stream / delete_stream -------------------------------------------


class Stream:
    """Figs. 7/8 and 9: small batches against a loaded 10-peer chain.

    One cycle is *insert a batch of fresh entries at every peer, exchange,
    confirm at the far peer* then *delete the same entries, exchange,
    confirm they are gone* — so the instance is the base instance again
    after every cycle, whatever the number of cycles.  ``insert_stream``
    times the first half and ``delete_stream`` the second; both run the
    same sequence of operations, so a gain for one that costs the other
    shows.
    """

    primary = "exchange_s"
    keep_span = staticmethod(under_timed_op)

    def __init__(self, name: str, timed: str, size: dict) -> None:
        self.name = name
        self.timed = timed
        self.size = size["stream"]

    def generate(self, seed: int) -> dict:
        structure = Structure(self.size["peers"], "integer")
        source = EntrySource(structure, seed)
        base = source.take_per_peer(self.size["base"])
        pool = [
            source.take_per_peer(self.size["round"])
            for _ in range(self.size["pool"])
        ]
        return {"structure": structure, "base": base, "pool": pool}

    def canonical(self, inputs: dict) -> dict:
        return {
            "structure": inputs["structure"].canonical(),
            "trust": [TRUST_PEER, TRUST_MODULUS],
            "base": edit_list(inputs["base"]),
            "pool": [edit_list(batch) for batch in inputs["pool"]],
        }

    @staticmethod
    def configure(structure: Structure):
        """One trust condition: ``TRUST_PEER`` rejects about a tenth of the
        keys arriving over its incoming mapping."""
        mapping = next(
            m.name
            for m in structure.generator.mappings
            if m.name.endswith(f"_to_{TRUST_PEER}")
        )

        def apply(cdss) -> None:
            cdss.peer(TRUST_PEER).trust().condition(
                mapping, _trusted, f"key % {TRUST_MODULUS} != 0"
            )

        return apply

    def _cold_start(self, inputs: dict) -> SimpleNamespace:
        """A clean recompute: build, load the base, exchange, prepare, first
        answer.  The collector is off, as in every timed operation: where
        its passes land in a 0.2 s build spread the samples by a tenth."""
        structure = inputs["structure"]
        first = inputs["base"][0]
        with gc_quiet():
            t0 = perf()
            cdss = structure.build()
            self.configure(structure)(cdss)
            stage(cdss, inputs["base"])
            cdss.update_exchange()
            p0 = perf()
            lookup = cdss.prepare(
                structure.lookup_text(structure.last), params=("k",)
            )
            prepare_s = perf() - p0
            rows = list(lookup.execute(k=first.key))
            cold = perf() - t0
        return SimpleNamespace(
            cdss=cdss,
            lookup=lookup,
            cold_start_s=cold,
            prepare_s=prepare_s,
            first_ok=(
                rows == [structure.expected_row(structure.last, 0, first)]
                if _trusted((first.key,))
                else rows == []
            ),
        )

    def cold_start(self, inputs: dict) -> tuple[float, bool]:
        """One more cold-start sample, on a system that is dropped (the
        next timed section's collection frees it): ``(seconds, first
        answer correct)``."""
        state = self._cold_start(inputs)
        return state.cold_start_s, state.first_ok

    def setup(self, inputs: dict, traced: bool = False) -> SimpleNamespace:
        state = self._cold_start(inputs)
        # Plan caches fill on the first rounds (the first deletion round
        # is ~0.5 s against ~0.04 s steady): warm up on the pool's tail.
        for batch in inputs["pool"][-self.size["warmup"] :]:
            self._operation(state, inputs, NULL, None, "insert", batch)
            self._operation(state, inputs, NULL, None, "delete", batch)
        freeze_heap()
        return state

    def _operation(self, state, inputs, rec, op_id, kind: str, batch):
        """Commit one batch, exchange, confirm at the far peer."""
        structure = inputs["structure"]
        cdss, lookup = state.cdss, state.lookup
        probe = [e for e in batch if e.peer == structure.first.name]
        with gc_quiet():
            c0, t0 = cpu(), perf()
            root = rec.begin(f"op.{kind}", "bench", op_id)
            try:
                span = rec.begin("api.stage", "api")
                if kind == "insert":
                    staged = stage(cdss, inserts=batch)
                else:
                    staged = stage(cdss, deletes=batch)
                rec.finish(span)
                report = cdss.update_exchange()
                reads, found = timed_reads(
                    lambda key: lookup.execute(k=key),
                    [entry.key for entry in probe],
                    rec,
                )
            finally:
                rec.finish(root)
            t1, c1 = perf(), cpu()
        drop_report_history(cdss)
        ok = True
        for entry, rows in zip(probe, found):
            visible = kind == "insert" and _trusted((entry.key,))
            expected = (
                [structure.expected_row(structure.last, 0, entry)]
                if visible
                else []
            )
            ok = ok and rows == expected
        return SimpleNamespace(
            latency=t1 - t0,
            cpu=c1 - c0,
            report=report,
            staged=staged,
            reads=reads,
            ok=ok,
        )

    def measure(self, state, inputs: dict, seconds: float, rec) -> Samples:
        samples = Samples()
        if not state.first_ok:
            samples.attempted += 1
            samples.fail("set-up: wrong first answer")
        counter = ExchangeCounts(samples)
        pool = inputs["pool"]
        deadline = perf() + seconds
        cycle = 0
        while perf() < deadline:
            batch = pool[cycle % len(pool)]
            for kind in ("insert", "delete"):
                timed = kind == self.timed
                counted = rec.tracing and timed and cycle < COUNTED_OPS
                before = counter.index_stats(state.cdss) if counted else None
                samples.attempted += 1
                try:
                    op = self._operation(
                        state,
                        inputs,
                        rec if timed else NULL,
                        cycle if timed else None,
                        kind,
                        batch,
                    )
                except Exception as error:  # noqa: BLE001 - counted
                    samples.fail(
                        f"{kind} {cycle}: {type(error).__name__}: {error}"
                    )
                    continue
                if not op.ok:
                    samples.fail(f"{kind} {cycle}: wrong answer at far peer")
                if not timed:
                    continue
                samples.add_exchange(op)
                if counted:
                    samples.counted_ids.add(cycle)
                    counter.add(
                        op.staged,
                        op.report,
                        before,
                        counter.index_stats(state.cdss),
                    )
            cycle += 1
        samples.close_exchanges(state.prepare_s)
        return samples

    def live_cdss(self, state):
        return state.cdss

    def verify(self, state, inputs: dict) -> tuple[dict, dict]:
        structure = inputs["structure"]
        return (
            cdss_answers(state.cdss),
            rebuild_answers(
                structure, inputs["base"], self.configure(structure)
            ),
        )

    def close(self, state) -> None:
        state.cdss = state.lookup = None
        gc.unfreeze()
        gc.collect()
