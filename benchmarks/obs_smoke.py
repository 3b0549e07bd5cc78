"""Observability smoke: scrape ``/metrics`` around a publish, diff counters.

The end-to-end check the CI ``obs-smoke`` job runs:

1. boot a durable serve node as a real subprocess
   (``python -m repro serve spec.json --port 0 --data-dir ... --trace ...``);
2. scrape ``GET /metrics`` (Prometheus text exposition), run one query
   and one publish through the HTTP API, scrape again;
3. diff the two scrapes: every counter must be monotonically
   non-decreasing, the counters the publish drives (requests, publishes,
   exchange rounds, WAL appends, snapshot refreshes, admission) must
   strictly increase, and all four instrumented layer families —
   engine, admission, index, durability — must be present;
4. shut the node down and check the exported trace JSONL parses and
   contains the publish span tree.

Run directly::

    PYTHONPATH=src python benchmarks/obs_smoke.py

Leaves ``obs_trace.jsonl`` (the trace artifact CI uploads) and
``obs_metrics_diff.json`` in the working directory.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.client import ServeClient  # noqa: E402

REQUIRED_FAMILIES = (
    "repro_engine_",
    "repro_admission_",
    "repro_index_",
    "repro_wal_",
)

#: Counters one query + one publish must strictly increase.
MUST_INCREASE = (
    "repro_serve_requests_total",
    "repro_serve_publishes_total",
    "repro_exchange_publishes_total",
    "repro_engine_rounds_total",
    "repro_wal_appends_total",
    "repro_snapshot_refreshes_total",
    "repro_admission_admitted_total",
)

SPEC = {
    "format": "repro/system-spec@1",
    "name": "obs-smoke",
    "peers": [
        {"name": "P1", "relations": [{"name": "R", "attributes": ["a", "b"]}]},
        {"name": "P2", "relations": [{"name": "S", "attributes": ["a", "b"]}]},
    ],
    "mappings": [{"name": "m", "tgd": "R(x, y) -> S(x, y)"}],
    "edits": [{"op": "+", "relation": "R", "row": [1, 2]}],
}


def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus text -> {series (name + labels): value}."""
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        series[key] = float(value)
    return series


def counters_only(series: dict[str, float]) -> dict[str, float]:
    """Drop gauges/histogram sums: keep _total, _bucket, _count series."""
    return {
        key: value
        for key, value in series.items()
        if "_total" in key or "_bucket" in key or "_count" in key
    }


def main() -> int:
    workdir = Path(tempfile.mkdtemp(prefix="obs-smoke-"))
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    trace_path = Path("obs_trace.jsonl")
    trace_path.unlink(missing_ok=True)

    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            str(spec_path),
            "--port",
            "0",
            "--data-dir",
            str(workdir / "node"),
            "--trace",
            str(trace_path),
            "--duration",
            "120",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**__import__("os").environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    problems: list[str] = []
    try:
        banner = process.stdout.readline().strip()
        if "listening on" not in banner:
            rest = process.stdout.read()
            print(f"server failed to boot: {banner}\n{rest}")
            return 1
        url = banner.split()[-1]
        print(f"serve node up at {url}")
        with ServeClient.from_url(url, timeout=30.0) as client:
            before_text = client.metrics()
            before = parse_exposition(before_text)
            # Drive every layer: one snapshot-isolated read, one edit,
            # one durable publish.
            client.query("ans(x, y) :- S(x, y)")
            client.insert("R", (3, 4))
            report = client.publish()
            print(
                f"published: +{report['inserted']} rows, snapshot "
                f"v{report['snapshot_version']}"
            )
            after_text = client.metrics()
            after = parse_exposition(after_text)
            client.shutdown()
        process.wait(timeout=30)

        for family in REQUIRED_FAMILIES:
            if not any(key.startswith(family) for key in after):
                problems.append(f"family {family}* missing from /metrics")
        for key, value in counters_only(before).items():
            if after.get(key, 0.0) < value:
                problems.append(
                    f"counter went backwards: {key} {value} -> "
                    f"{after.get(key)}"
                )
        for name in MUST_INCREASE:
            if after.get(name, 0.0) <= before.get(name, 0.0):
                problems.append(
                    f"expected {name} to increase "
                    f"({before.get(name, 0.0)} -> {after.get(name, 0.0)})"
                )

        diff = {
            key: {"before": before.get(key, 0.0), "after": value}
            for key, value in sorted(counters_only(after).items())
            if value != before.get(key, 0.0)
        }
        Path("obs_metrics_diff.json").write_text(
            json.dumps(diff, indent=2) + "\n"
        )
        print(f"{len(diff)} counter series moved across the publish")

        if not trace_path.exists() or not trace_path.read_text().strip():
            problems.append(f"no trace exported to {trace_path}")
        else:
            spans = [
                json.loads(line)
                for line in trace_path.read_text().splitlines()
            ]
            names = {span["name"] for span in spans}
            print(f"trace: {len(spans)} spans, names={sorted(names)}")
            for expected in ("publish", "exchange", "wal-append"):
                if expected not in names:
                    problems.append(f"trace is missing a {expected!r} span")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    if problems:
        for problem in problems:
            print(f"OBS SMOKE FAILURE: {problem}")
        return 1
    print("obs smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
