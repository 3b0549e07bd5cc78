"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs the whole benchmark once in its ``--quick`` profile — tiny sizes,
every code path, no steady numbers — and checks the shape of what comes
out.  Tier-1's ``testpaths`` does not include this directory.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from harness import config, layers, report, spans  # noqa: E402
from harness.samples import Samples  # noqa: E402

BENCHMARK = config.load_benchmark()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DURABLE_ONLY = [
    m["name"] for m in BENCHMARK["per_layer"] if m["name"].startswith("durability.")
] + ["storage.checkpoint_write_s", "storage.restore_s"]


@pytest.fixture(scope="module")
def quick():
    """``(result document, stdout)`` of one ``--quick`` run of everything."""
    config.WORK_DIR.mkdir(exist_ok=True)
    out = config.WORK_DIR / f"smoke-{os.getpid()}.json"
    done = subprocess.run(
        [
            sys.executable,
            "-W",
            "error::DeprecationWarning",
            str(HERE / "run.py"),
            "--quick",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    try:
        assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
        yield json.loads(out.read_text(encoding="utf-8")), done.stdout
    finally:
        out.unlink(missing_ok=True)


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(config.WORKLOADS)
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60


def test_every_metric_is_emitted_on_every_workload(quick):
    result, _ = quick
    assert result["format"] == config.RESULT_FORMAT
    assert {"nproc", "python", "commit", "seed"} <= set(result["host"])
    seen = {(run["workload"], run["trace"]) for run in result["runs"]}
    assert seen == {(w, t) for w in config.WORKLOADS for t in (0, 1)}
    for run in result["runs"]:
        kind = "per_layer" if run["trace"] else "end_to_end"
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {n: e["unit"] for n, e in run["metrics"].items()} == expected
        for name, entry in run["metrics"].items():
            if entry["value"] is None:
                assert name in run["unresolved"]
            else:
                assert isinstance(entry["value"], (int, float))
        if not run["trace"]:
            # The driver refuses an end-to-end metric that can be 0.
            assert all(e["value"] > 0 for e in run["metrics"].values()), run


def test_no_operation_fails_and_answers_are_pinned(quick):
    result, stdout = quick
    pins = config.load_pins()["quick"]
    for run in result["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["failed_share"] == 0
        assert run["attempted"] >= 1 and not run["errors"]
        assert run["pinned"]
        assert run["inputs_sha256"] == pins[run["workload"]]["0"]["inputs_sha256"]
        assert run["answers_sha256"] == pins[run["workload"]]["0"]["answers_sha256"]
    assert result["claim"] is None
    summary = json.loads(stdout.splitlines()[-1])
    assert summary["correct"] and list(summary)[-1] == "claim"
    assert summary["claim"] is None


def test_layers_separate_as_designed(quick):
    result, _ = quick
    traced = {run["workload"]: run for run in result["runs"] if run["trace"]}
    for workload, run in traced.items():
        values = {n: e["value"] for n, e in run["metrics"].items()}
        for name in DURABLE_ONLY:
            if workload == "durable_recover":
                assert values[name] > 0, name
            else:
                assert values[name] == 0, (workload, name)
        serve_only = values["serve.statement_run_us"]
        assert (serve_only > 0) == (workload == "serve_mixed")
    assert traced["delete_stream"]["metrics"]["datalog.evaluate_s"]["value"] == 0
    assert traced["insert_stream"]["metrics"]["datalog.evaluate_s"]["value"] > 0
    # At full size the layer spans cover > 99 % of an operation (README);
    # the quick profile's operations are ~1 ms, so the harness's own glue
    # weighs more.
    for workload in ("insert_stream", "delete_stream", "bulk_load"):
        coverage = traced[workload]["metrics"]["bench.layer_coverage"]["value"]
        assert coverage >= 0.8, (workload, coverage)


def test_spans_nest_inside_their_parents(quick):
    result, _ = quick
    slack = 1e-6
    for run in result["runs"]:
        if not run["trace"]:
            continue
        path = ROOT / run["trace_file"]
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == run["spans"] > 0
        by_id = {row["id"]: row for row in rows}
        own = {row["id"]: row["end"] - row["start"] for row in rows}
        for row in rows:
            assert set(row) == {
                "id", "name", "layer", "op_id", "start", "end", "parent", "count",
            }
            assert row["end"] >= row["start"]
            if row["parent"] is not None:
                parent = by_id[row["parent"]]
                assert row["start"] >= parent["start"] - slack
                assert row["end"] <= parent["end"] + slack
                own[row["parent"]] -= row["end"] - row["start"]
        assert min(own.values()) >= -slack * 10, run["workload"]


def test_a_probe_that_no_longer_resolves_degrades(monkeypatch):
    gone = ("gone.probe", "gone", False, ("repro.nowhere:missing", "repro.core.cdss:missing"))
    monkeypatch.setattr(spans, "PROBES", spans.PROBES + (gone,))
    recorder = spans.Recorder()
    recorder.install()
    recorder.uninstall()
    assert recorder.unresolved == ["gone.probe"]

    recorder.unresolved.append("core.apply")
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    metrics, unresolved, _ = layers.layer_metrics(
        names, recorder, Samples(), lambda span: True
    )
    assert metrics["core.apply_s"] is None and metrics["core.maintain_self_s"] is None
    assert {"core.apply_s", "core.maintain_self_s"} <= set(unresolved)
    assert metrics["datalog.evaluate_s"] == 0


def test_probes_are_taken_off_again():
    from repro.core.exchange import ExchangeSystem

    original = ExchangeSystem.apply_delta
    recorder = spans.Recorder()
    recorder.install()
    assert ExchangeSystem.apply_delta is not original
    recorder.uninstall()
    assert ExchangeSystem.apply_delta is original
    assert recorder.unresolved == []


def test_server_is_reaped_when_it_does_not_come_up(tmp_path):
    from harness.serve import _Subprocess

    with pytest.raises(RuntimeError):
        _Subprocess(tmp_path / "missing.json", tmp_path / "server.log")
    # No orphan and no zombie: this process has no child left to wait for.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([10, 10.1, 9.9, 10, 10], [10.5, 10.4, 10.6, 10.5, 10.5], "lower", "unchanged"),
        ([10, 10.1, 9.9, 10, 10], [12, 12.1, 11.9, 12, 12], "lower", "worse"),
        ([10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8], "lower", "improved"),
        ([10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8], "higher", "worse"),
        ([10, 14, 7, 10, 12], [10, 10, 10, 10, 10], "lower", "unresolved"),
        ([10, 10, 10], [None, 10, 10], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert report.verdict(a, b, better, 0.10)["verdict"] == expected
