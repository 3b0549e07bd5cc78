"""Observability overhead micro-benchmark: tracing must be ~free when off.

The telemetry subsystem (``repro.obs``) instruments every hot path of the
update exchange — rule evaluation, semi-naive rounds, index settling, WAL
appends — behind a module-level ``tracing.ENABLED`` flag, and the metrics
registry reads per-instance plain-int counters only at scrape time.  The
design claim is that a process which never enables tracing and never
scrapes ``/metrics`` pays (almost) nothing for any of it.

This bench puts a number on that claim with the perf trajectory's own
10-peer publish phase (the ``BENCH_update_exchange.json`` workload:
integer dataset, chain topology, 400 base entries per peer, eager
indexes, sequential evaluation):

* **disabled** — tracing off (the default); the measured seconds are
  compared against the committed pre-observability baseline in
  ``BENCH_update_exchange.json`` (recorded at PR 9, before any span
  gating existed on these paths).  The acceptance bar is ≤ 2% overhead.
* **enabled** — in-memory tracing on, for the price of full span export
  (not part of the bar; recorded so the cost of *opting in* is visible).

Run directly::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick

Writes ``BENCH_obs_overhead.json`` and exits non-zero when the disabled
overhead exceeds the bar (plus slack for machine drift — the committed
baseline was measured on a different day's load).
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import efficiency_snapshot  # noqa: E402
from repro.obs import tracing  # noqa: E402
from repro.workload import CDSSWorkloadGenerator, WorkloadConfig  # noqa: E402

RESULT_FORMAT = "repro/bench-obs-overhead@1"
OVERHEAD_BAR = 0.02

PEERS = 10
BASE_PER_PEER = 400
SEED = 0


def publish_once() -> float:
    """One cold 10-peer publish: build, load, exchange; wall seconds."""
    generator = CDSSWorkloadGenerator(
        WorkloadConfig(peers=PEERS, dataset="integer", seed=SEED)
    )
    cdss = generator.build_cdss(index_policy="eager")
    generator.record_insertions(cdss, generator.insertions(BASE_PER_PEER))
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    try:
        cdss.update_exchange()
    finally:
        seconds = time.perf_counter() - start
        gc.enable()
    return seconds


def measure(samples: int, enable_tracing: bool) -> dict[str, object]:
    if enable_tracing:
        tracing.enable()  # in-memory only: the cheapest enabled mode
    else:
        tracing.disable()
    try:
        times = [publish_once() for _ in range(samples)]
    finally:
        tracing.disable()
        tracing.clear()
    return {
        "samples": samples,
        "publish_seconds": statistics.median(times),
        "publish_seconds_all": sorted(times),
    }


def committed_baseline() -> float | None:
    """The 10-peer eager publish seconds from the committed trajectory."""
    path = REPO_ROOT / "BENCH_update_exchange.json"
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    for cell in data.get("policies", {}).get("eager", {}).get("cells", ()):
        if cell.get("peers") == PEERS:
            return float(cell["publish"]["seconds"])
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="3 samples")
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_obs_overhead.json"
    )
    args = parser.parse_args(argv)
    samples = args.samples or (3 if args.quick else 7)

    print(
        f"obs-overhead benchmark: {PEERS}-peer publish, "
        f"{BASE_PER_PEER} base/peer, {samples} samples/mode"
    )
    disabled = measure(samples, enable_tracing=False)
    print(f"  tracing disabled: {disabled['publish_seconds']:.4f}s median")
    enabled = measure(samples, enable_tracing=True)
    print(f"  tracing enabled:  {enabled['publish_seconds']:.4f}s median")

    enabled_overhead = (
        enabled["publish_seconds"] / disabled["publish_seconds"] - 1.0
    )
    baseline = committed_baseline()
    result: dict[str, object] = {
        "format": RESULT_FORMAT,
        "workload": {
            "peers": PEERS,
            "base_per_peer": BASE_PER_PEER,
            "dataset": "integer",
            "topology": "chain",
            "index_policy": "eager",
            "seed": SEED,
        },
        "overhead_bar": OVERHEAD_BAR,
        "disabled": disabled,
        "enabled": enabled,
        "enabled_overhead": enabled_overhead,
        "efficiency": efficiency_snapshot(),
    }
    print(f"  enabled-vs-disabled overhead: {enabled_overhead:+.1%}")

    ok = True
    if baseline is not None:
        overhead = disabled["publish_seconds"] / baseline - 1.0
        result["baseline_publish_seconds"] = baseline
        result["disabled_overhead_vs_committed_baseline"] = overhead
        result["passed"] = ok = overhead <= OVERHEAD_BAR
        print(
            f"  disabled-vs-committed-baseline ({baseline:.4f}s): "
            f"{overhead:+.1%} (bar: <= {OVERHEAD_BAR:.0%})"
        )
    else:
        print("  no committed BENCH_update_exchange.json baseline found")

    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not ok:
        print("OBS OVERHEAD REGRESSION: disabled tracing exceeds the bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
