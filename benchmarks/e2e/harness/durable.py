"""durable_recover: WAL rounds, checkpoints, and recovery from a crash image.

The only workload where ``repro.durability`` and ``storage.{sqlite,codec,
persistence}`` do most of the work; they do none in the other four.
``DurableNode.create`` with its defaults: sqlite backend, **fsync=always**
(stated in the output).  The sandbox's fsync is cheap and its reads come
from the OS cache — the latencies are the sandbox's, not a device's.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
from functools import partial
from types import SimpleNamespace

from repro.durability import DurableNode

from .config import COUNTED_OPS, WORK_DIR
from .inputs import (
    EntrySource,
    Structure,
    cdss_answers,
    drop_report_history,
    edit_list,
    rebuild_answers,
    stage,
)
from .measure import cpu, freeze_heap, gc_quiet, mean, perf, timed_reads
from .samples import ExchangeCounts, Samples
from .spans import NULL


def _tree_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _, names in os.walk(path)
        for name in names
    )


class DurableRecover:
    """Durable rounds (insert a batch per peer, delete the previous one —
    stationary), an explicit checkpoint every few rounds, a WAL tail, then
    ``DurableNode.open`` on fresh copies of the live data directory taken
    right after the last acknowledged publish, the node never closed."""

    name = "durable_recover"
    primary = "exchange_s"

    def __init__(self, size: dict) -> None:
        self.size = size["durable_recover"]
        self._dirs = 0

    @staticmethod
    def keep_span(span) -> bool:
        """Rounds have integer op ids; checkpoints and recoveries do not."""
        return isinstance(span.op_id, int)

    def generate(self, seed: int) -> dict:
        structure = Structure(self.size["peers"], "integer")
        source = EntrySource(structure, seed)
        base = source.take_per_peer(self.size["base"])
        pool = [
            source.take_per_peer(self.size["round"])
            for _ in range(self.size["pool"])
        ]
        tail = [
            source.take_per_peer(self.size["round"])
            for _ in range(self.size["tail_rounds"])
        ]
        return {"structure": structure, "base": base, "pool": pool, "tail": tail}

    def canonical(self, inputs: dict) -> dict:
        return {
            "structure": inputs["structure"].canonical(),
            "base": edit_list(inputs["base"]),
            "pool": [edit_list(batch) for batch in inputs["pool"]],
            "tail": [edit_list(batch) for batch in inputs["tail"]],
        }

    def _fresh_dir(self, kind: str):
        self._dirs += 1
        path = WORK_DIR / f"{kind}-{os.getpid()}-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def setup(self, inputs: dict, traced: bool = False) -> SimpleNamespace:
        structure = inputs["structure"]
        data_dir = self._fresh_dir("durable")
        staging = structure.build()
        stage(staging, inputs["base"])
        node = DurableNode.create(staging.to_spec(), data_dir)
        state = SimpleNamespace(node=node, data_dir=data_dir, previous=[])
        try:
            node.publish()
            p0 = perf()
            state.lookup = node.cdss.prepare(
                structure.lookup_text(structure.last), params=("k",)
            )
            state.prepare_s = perf() - p0
            for batch in inputs["pool"][-self.size["warmup"] :]:
                self._round(state, inputs, NULL, None, batch)
            self._round(state, inputs, NULL, None, [])
            node.checkpoint()
        except BaseException:
            self.close(state)
            raise
        freeze_heap()
        return state

    def _round(self, state, inputs, rec, op_id, batch):
        """Insert ``batch``, delete the previous round's batch, publish
        durably, confirm both at the far peer."""
        structure = inputs["structure"]
        node, lookup = state.node, state.lookup
        previous = state.previous
        first = structure.first.name
        present = [e for e in batch if e.peer == first]
        absent = [e for e in previous if e.peer == first]
        with gc_quiet():
            c0, t0 = cpu(), perf()
            root = rec.begin("op.round", "bench", op_id)
            try:
                span = rec.begin("api.stage", "api")
                staged = stage(node.cdss, inserts=batch, deletes=previous)
                rec.finish(span)
                report = node.publish()
                reads, found = timed_reads(
                    lambda key: lookup.execute(k=key),
                    [entry.key for entry in present + absent],
                    rec,
                )
            finally:
                rec.finish(root)
            t1, c1 = perf(), cpu()
        drop_report_history(node.cdss)
        state.previous = batch
        expected = [
            [structure.expected_row(structure.last, 0, e)] for e in present
        ] + [[] for _ in absent]
        return SimpleNamespace(
            latency=t1 - t0,
            cpu=c1 - c0,
            report=report,
            staged=staged,
            reads=reads,
            ok=found == expected,
        )

    def _checkpoint(self, state, rec, op_id) -> tuple[float, float]:
        """``(wall seconds, CPU seconds)`` of one explicit checkpoint."""
        with gc_quiet():
            c0, t0 = cpu(), perf()
            root = rec.begin("op.checkpoint", "bench", op_id)
            try:
                state.node.checkpoint()
            finally:
                rec.finish(root)
            return perf() - t0, cpu() - c0

    def _recover(self, state, inputs, rec, op_id, probe, live) -> SimpleNamespace:
        """Copy the live data dir (the crash image), open it, answer."""
        structure = inputs["structure"]
        image = self._fresh_dir("image")
        shutil.copytree(state.data_dir, image)
        sizes = {
            "state_file": os.path.getsize(image / "state.sqlite3"),
            "wal": _tree_bytes(image / "wal"),
        }
        recovered = None
        try:
            with gc_quiet():
                t0 = perf()
                root = rec.begin("op.recover", "bench", op_id)
                try:
                    recovered = DurableNode.open(image)
                    lookup = recovered.cdss.prepare(
                        structure.lookup_text(structure.last), params=("k",)
                    )
                    rows = list(lookup.execute(k=probe.key))
                finally:
                    rec.finish(root)
                latency = perf() - t0
            ok = rows == [
                structure.expected_row(structure.last, 0, probe)
            ] and cdss_answers(recovered.cdss) == live
            replayed = (
                recovered.replayed_edit_records
                + recovered.replayed_publish_records
            )
        finally:
            if recovered is not None:
                recovered.close(checkpoint=False)
            shutil.rmtree(image, ignore_errors=True)
        return SimpleNamespace(latency=latency, ok=ok, sizes=sizes, replayed=replayed)

    def _counted_round(
        self, state, inputs, rec, samples, counter, batch,
        timed=True, checkpointed=True,
    ):
        """One round into ``samples``: attempted, checked, and — among the
        first ``COUNTED_OPS`` traced ones — counted.  Untimed rounds only
        move the instance; rounds outside the checkpointed phase stay out
        of throughput and CPU per operation."""
        node = state.node
        number = len(samples.exchange_s)
        counted = rec.tracing and timed and number < COUNTED_OPS
        before = counter.index_stats(node.cdss) if counted else None
        wal_before = (node.wal.appended, node.wal.fsyncs)
        samples.attempted += 1
        try:
            op = self._round(
                state,
                inputs,
                rec if timed else NULL,
                number if timed else None,
                batch,
            )
        except Exception as error:  # noqa: BLE001 - counted, not hidden
            samples.fail(f"round {number}: {type(error).__name__}: {error}")
            return
        if not op.ok:
            samples.fail(f"round {number}: wrong answer at far peer")
        if not timed:
            return
        samples.add_exchange(op, throughput=checkpointed)
        if counted:
            samples.counted_ids.add(number)
            counter.add(op.staged, op.report, before, counter.index_stats(node.cdss))
            counter.add_count(
                "durability.wal_records", node.wal.appended - wal_before[0]
            )
            counter.add_count("durability.fsyncs", node.wal.fsyncs - wal_before[1])

    def measure(self, state, inputs: dict, seconds: float, rec) -> Samples:
        samples = Samples()
        counter = ExchangeCounts(samples)
        size = self.size
        start = perf()
        round_ = partial(self._counted_round, state, inputs, rec, samples, counter)

        # Phase 1: the durable stream, a checkpoint every few rounds.
        # Throughput and CPU per operation are taken over this phase only,
        # where rounds and checkpoints come in a fixed ratio.
        checkpoints: list[float] = []
        cycle = 0
        while (
            len(checkpoints) < size["min_checkpoints"]
            or perf() < start + seconds * size["stream_share"]
        ):
            for _ in range(size["rounds_per_checkpoint"]):
                round_(inputs["pool"][cycle % len(inputs["pool"])])
                cycle += 1
            samples.attempted += 1
            try:
                wall, used = self._checkpoint(
                    state, rec, f"checkpoint-{len(checkpoints)}"
                )
            except Exception as error:  # noqa: BLE001 - counted, not hidden
                samples.fail(f"checkpoint: {type(error).__name__}: {error}")
                break
            checkpoints.append(wall)
            samples.exchange_wall_s += wall
            samples.cpu_s += used
        # Back to the base instance, then a fixed WAL tail: whatever the
        # number of rounds above, the crash image holds base + last tail batch.
        round_([], timed=False)
        for batch in inputs["tail"]:
            round_(batch, checkpointed=False)

        # Phase 2: recovery, each time from a fresh copy of the live dir.
        live = cdss_answers(state.node.cdss)
        probe = next(
            e for e in inputs["tail"][-1] if e.peer == inputs["structure"].first.name
        )
        recoveries: list[SimpleNamespace] = []
        while len(recoveries) < size["min_recoveries"] or perf() < start + seconds:
            samples.attempted += 1
            try:
                op = self._recover(
                    state, inputs, rec, f"recover-{len(recoveries)}", probe, live
                )
            except Exception as error:  # noqa: BLE001 - counted, not hidden
                samples.fail(f"recovery: {type(error).__name__}: {error}")
                break
            if not op.ok:
                samples.fail("recovered answers differ from the live node's")
            recoveries.append(op)
            samples.cold_start_s.append(op.latency)
        round_([], timed=False)

        samples.close_exchanges(state.prepare_s)
        self._summarize(samples, inputs, rec, checkpoints, recoveries)
        samples.extra.update(fsync=state.node.wal.fsync, backend="sqlite")
        return samples

    @staticmethod
    def _summarize(samples, inputs, rec, checkpoints, recoveries) -> None:
        """The operator's clocks and sizes, as per-layer values and as the
        replica's printed side readings."""
        user_bytes = len(
            json.dumps(
                edit_list(inputs["base"] + inputs["tail"][-1]),
                separators=(",", ":"),
            )
        )
        sizes = recoveries[-1].sizes if recoveries else {"state_file": 0, "wal": 0}
        stored = (sizes["state_file"] + sizes["wal"]) / user_bytes
        checkpoint_s = mean(checkpoints)
        recovery_s = mean([op.latency for op in recoveries])
        restore_s = mean(
            [
                span.end - span.start
                for span in rec.spans
                if span.name == "storage.restore"
            ]
        )
        samples.layer_values.update(
            {
                "durability.checkpoint_s": checkpoint_s,
                "durability.recovery_s": recovery_s,
                "durability.replay_s": recovery_s - restore_s,
                "durability.replayed_records": (
                    recoveries[-1].replayed if recoveries else 0
                ),
                "durability.wal_bytes": sizes["wal"],
                "storage.state_file_bytes": sizes["state_file"],
                "storage.stored_bytes_per_user_byte": stored,
            }
        )
        samples.extra.update(
            rounds=len(samples.exchange_s),
            checkpoints=len(checkpoints),
            recoveries=len(recoveries),
            checkpoint_s=checkpoint_s,
            recovery_s=recovery_s,
            stored_bytes_per_user_byte=stored,
        )

    def live_cdss(self, state):
        return state.node.cdss

    def verify(self, state, inputs: dict) -> tuple[dict, dict]:
        return (
            cdss_answers(state.node.cdss),
            rebuild_answers(inputs["structure"], inputs["base"]),
        )

    def close(self, state) -> None:
        node = state.node
        state.node = state.lookup = None
        if node is not None and not node.closed:
            node.close(checkpoint=False)
        shutil.rmtree(state.data_dir, ignore_errors=True)
        gc.unfreeze()
        gc.collect()
