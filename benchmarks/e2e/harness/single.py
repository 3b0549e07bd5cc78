"""One run of one workload: generate, set up, measure, check, report."""

from __future__ import annotations

import json

from . import config
from .inputs import sha256_json
from .layers import layer_metrics
from .measure import median, percentile, perf, self_peak_rss_mb
from .probes import codec_probes, size_probes
from .samples import Samples
from .spans import NULL, Recorder


def make_workload(name: str, profile: dict):
    # Imported here so that ``--compare`` works without ``src/``.
    from .durable import DurableRecover
    from .exchange import BulkLoad, Stream
    from .serve import ServeMixed

    return {
        "bulk_load": lambda: BulkLoad(profile),
        "insert_stream": lambda: Stream(name, "insert", profile),
        "delete_stream": lambda: Stream(name, "delete", profile),
        "serve_mixed": lambda: ServeMixed(profile),
        "durable_recover": lambda: DurableRecover(profile),
    }[name]()


def _per(amount: float, base: float) -> float:
    """``amount / base``; 0 when nothing was done (the run has failed
    operations to report then, not a ZeroDivisionError)."""
    return amount / base if base else 0.0


def end_to_end(samples: Samples, setups: list, colds: list) -> dict[str, float]:
    """The end-to-end metrics of one untraced window.  Every workload
    yields every metric (README.md says what each means where)."""
    return {
        "setup_s": median(setups),
        "cold_start_s": median(samples.cold_start_s or colds),
        "exchange_p50_ms": median(samples.exchange_s) * 1000.0,
        "exchange_rows_per_s": _per(samples.rows, samples.exchange_wall_s),
        "read_p50_ms": median(samples.read_s) * 1000.0,
        "peak_rss_mb": (
            samples.peak_rss_mb
            if samples.peak_rss_mb is not None
            else self_peak_rss_mb()
        ),
    }


def _traced_window(workload, state, inputs, seconds, benchmark, trace_path):
    """The traced window, then an untraced one right after it on the same
    loaded system: their medians give the tracing overhead.  Returns the
    traced window's samples and the record's per-layer fields."""
    recorder = Recorder()
    recorder.install()
    try:
        samples = workload.measure(state, inputs, seconds * 2.0 / 3.0, recorder)
    finally:
        recorder.uninstall()
    untraced = workload.measure(state, inputs, seconds / 3.0, NULL)
    samples.attempted += untraced.attempted
    samples.failed += untraced.failed
    samples.errors += untraced.errors
    slow = median(getattr(samples, workload.primary))
    fast = median(getattr(untraced, workload.primary))
    samples.layer_values["bench.trace_overhead"] = slow / fast - 1.0 if fast else 0.0
    samples.extra["p50_ms_traced_then_untraced"] = [slow * 1000.0, fast * 1000.0]
    cdss = workload.live_cdss(state)
    samples.layer_values.update(codec_probes(cdss))
    samples.layer_values.update(size_probes(cdss))
    samples.unresolved.update(
        name for name, value in samples.layer_values.items() if value is None
    )
    metrics, unresolved, shares = layer_metrics(
        [m["name"] for m in benchmark["per_layer"]],
        recorder,
        samples,
        workload.keep_span,
    )
    return samples, {
        "metrics": metrics,
        "unresolved": unresolved,
        "layer_shares": shares,
        "trace_file": str(trace_path.relative_to(config.ROOT)),
        "spans": recorder.dump(trace_path),
    }


def run_one(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    profile_name: str = "full",
) -> dict:
    """Run one workload once; returns the full record (see ``emit``)."""
    benchmark = config.load_benchmark()
    profile = config.PROFILES[profile_name]
    workload = make_workload(workload_name, profile)
    config.WORK_DIR.mkdir(exist_ok=True)

    inputs = workload.generate(seed)
    inputs_sha = sha256_json(workload.canonical(inputs))

    setups: list[float] = []
    colds: list[float] = []
    extras: list[dict] = []
    samples = Samples()
    record: dict = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "profile": profile_name,
        "inputs_sha256": inputs_sha,
    }
    # An untraced run measures ``replicas`` independently set-up systems
    # for an equal share of the window each and pools the samples: the
    # run-to-run spread is mostly a per-process, per-build factor (heap
    # layout, which server process), and pooling averages it.  Every
    # replica's set-up is one ``setup_s`` sample.  A traced run sets up once.
    replicas = 1 if trace else workload.size["replicas"]
    for replica in range(replicas):
        start = perf()
        state = workload.setup(inputs, traced=trace)
        try:
            setups.append(perf() - start)
            if getattr(state, "cold_start_s", None) is not None:
                colds.append(state.cold_start_s)
            if trace:
                window, traced_fields = _traced_window(
                    workload,
                    state,
                    inputs,
                    seconds,
                    benchmark,
                    config.WORK_DIR
                    / f"trace-{workload_name}-{profile_name}-{seed}.jsonl",
                )
                record.update(traced_fields)
            else:
                window = workload.measure(state, inputs, seconds / replicas, NULL)
            samples.merge(window)
            extras.append(window.extra)
            if replica == replicas - 1:
                live, reference = workload.verify(state, inputs)
        finally:
            workload.close(state)
        # A set-up gives one cold start; a workload whose cold start is
        # short takes some more between replicas, spread over the run.
        for _ in range(0 if trace else workload.size.get("cold_starts", 0)):
            samples.attempted += 1
            seconds_taken, ok = workload.cold_start(inputs)
            colds.append(seconds_taken)
            if not ok:
                samples.fail("cold start: wrong first answer")
    if trace:
        metrics = record.pop("metrics")
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    else:
        metrics = end_to_end(samples, setups, colds)
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}

    for error in getattr(workload, "close_errors", ()):
        samples.attempted += 1
        samples.fail(error)
    answers_sha = sha256_json(live)
    samples.attempted += 1
    if live != reference:
        samples.fail("final instance differs from the clean rebuild")
    pin = (
        config.load_pins()
        .get(profile_name, {})
        .get(workload_name, {})
        .get(str(seed))
    )
    if pin is not None:
        samples.attempted += 1
        if pin["inputs_sha256"] != inputs_sha:
            samples.fail(f"inputs_sha256 {inputs_sha} is not the pinned one")
        elif pin["answers_sha256"] != answers_sha:
            samples.fail(f"answers_sha256 {answers_sha} is not the pinned one")
    record.update(
        {
            "answers_sha256": answers_sha,
            "pinned": pin is not None,
            "correct": samples.failed == 0,
            "attempted": samples.attempted,
            "failed": samples.failed,
            "failed_share": _per(samples.failed, samples.attempted),
            "errors": samples.errors,
            "samples": {
                "exchange": len(samples.exchange_s),
                "read": len(samples.read_s),
                "setup": len(setups),
                "cold_start": len(samples.cold_start_s or colds),
            },
            # config.SIDE_READINGS: printed, not gated.
            "side_readings": {
                "exchange_p95_ms": percentile(samples.exchange_s, 0.95) * 1000.0,
                "read_p99_ms": percentile(samples.read_s, 0.99) * 1000.0,
                "reads_per_s": _per(len(samples.read_s), samples.read_wall_s),
                "cpu_ms_per_op": _per(samples.cpu_s, samples.ops) * 1000.0,
            },
            "extra": extras,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )
    return record


def emit(record: dict) -> None:
    """Print the human-readable report, then the driver's result line."""
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(
        f"== {record['workload']} · {kind} · seed {record['seed']} · "
        f"{record['seconds']:g} s · profile {record['profile']}"
    )
    for name, entry in record["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {entry['unit']}")
    print(f"  samples: {json.dumps(record['samples'])}")
    print(f"  side readings (not gated): {json.dumps(record['side_readings'])}")
    for replica, extra in enumerate(record["extra"]):
        if extra:
            print(f"  replica {replica}: {json.dumps(extra)}")
    if record["trace"]:
        print(f"  unresolved: {json.dumps(record['unresolved'])}")
        shares = {k: round(v, 4) for k, v in record["layer_shares"].items()}
        print(f"  layer shares of self time: {json.dumps(shares)}")
        print(f"  {record['spans']} spans -> {record['trace_file']}")
    print(f"  inputs_sha256  {record['inputs_sha256']}")
    print(
        f"  answers_sha256 {record['answers_sha256']}"
        " (equals a clean rebuild"
        f"{' and the pin' if record['pinned'] else ''}, unless FAILED below)"
    )
    print(
        f"  failed_share {record['failed_share']:.6g} "
        f"({record['failed']} of {record['attempted']})"
    )
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    # Unresolved per-layer metrics go out as -1 on the result line (it
    # admits numbers only); the report above and the record say null.
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {
                        "value": -1 if entry["value"] is None else entry["value"],
                        "unit": entry["unit"],
                    }
                    for name, entry in record["metrics"].items()
                },
            }
        )
    )
