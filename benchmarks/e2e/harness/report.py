"""Running every workload, writing the result file, comparing two of them."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from . import config

VERDICTS = ("improved", "unchanged", "worse", "unresolved")


def host_record(seed: int, profile: str) -> dict:
    """Where and on what these numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=config.ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "profile": profile,
    }


def run_all(args) -> int:
    """Each workload untraced, then traced, ``--repeat`` times over.

    Every run is its own process, so that one workload's heap, caches and
    peak RSS cannot leak into the next one's numbers.
    """
    benchmark = config.load_benchmark()
    profile = "quick" if args.quick else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else benchmark["run_seconds"]
    config.WORK_DIR.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else config.WORK_DIR / f"result-{profile}.json"
    runs = []
    script = config.BENCH_DIR / "run.py"
    warn = [flag for option in sys.warnoptions for flag in ("-W", option)]
    for repeat in range(args.repeat):
        for trace in (0, 1):
            for workload in config.WORKLOADS:
                with tempfile.NamedTemporaryFile(
                    dir=config.WORK_DIR, suffix=".json", delete=False
                ) as handle:
                    record_path = Path(handle.name)
                command = [
                    sys.executable,
                    *warn,
                    str(script),
                    "--workload",
                    workload,
                    "--seed",
                    str(args.seed),
                    "--seconds",
                    str(seconds),
                    "--trace",
                    str(trace),
                    "--record",
                    str(record_path),
                ] + (["--quick"] if args.quick else [])
                try:
                    done = subprocess.run(
                        command, capture_output=True, text=True, timeout=900
                    )
                    lines = done.stdout.splitlines()
                    # The child's last line is the driver's result line;
                    # the record file carries the same and more.
                    print("\n".join(lines[:-1]), flush=True)
                    if done.returncode != 0:
                        print(done.stderr, file=sys.stderr, flush=True)
                    text = record_path.read_text(encoding="utf-8")
                    record = (
                        json.loads(text)
                        if text
                        else {
                            "workload": workload,
                            "trace": trace,
                            "correct": False,
                            "metrics": {},
                            "errors": [f"exit code {done.returncode}"],
                        }
                    )
                finally:
                    record_path.unlink(missing_ok=True)
                record["repeat"] = repeat
                runs.append(record)

    correct = all(run["correct"] for run in runs)
    result = {
        "format": config.RESULT_FORMAT,
        "host": host_record(args.seed, profile),
        "seconds": seconds,
        "repeats": args.repeat,
        "runs": runs,
        "correct": correct,
        # This benchmark defines the baseline; it compares nothing.
        "claim": None,
    }
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "result_file": str(out),
                "runs": len(runs),
                "failed_runs": sum(not run["correct"] for run in runs),
                "unresolved": sorted(
                    {name for run in runs for name in run.get("unresolved", ())}
                ),
                "correct": correct,
                "claim": None,
            }
        )
    )
    return 0 if correct else 1


# -- compare -----------------------------------------------------------------


def _series(result: dict) -> dict[tuple[str, str], list[float]]:
    """``(metric, workload) -> values`` over every run in a result file;
    a ``None`` anywhere marks the whole series unresolved."""
    series: dict[tuple[str, str], list] = {}
    for run in result["runs"]:
        for name, entry in run.get("metrics", {}).items():
            series.setdefault((name, run["workload"]), []).append(entry["value"])
        if not run.get("trace"):
            for name, value in run.get("side_readings", {}).items():
                series.setdefault((name, run["workload"]), []).append(value)
    return series


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, better: str, bound: float | None) -> dict:
    """One row of the comparison: medians, quartiles, ratio, verdict.

    ``worse`` / ``improved`` need the medians to differ by more than the
    metric's bound; a side whose own quartiles are further apart than the
    bound cannot support either, nor ``unchanged`` — it is ``unresolved``.
    """
    if any(v is None for v in a + b) or not a or not b:
        return {"verdict": "unresolved", "why": "metric is null on a side"}
    qa, qb = _quartiles(a), _quartiles(b)
    base = qa[1]
    row = {
        "a_median": qa[1],
        "a_quartiles": [qa[0], qa[2]],
        "b_median": qb[1],
        "b_quartiles": [qb[0], qb[2]],
        "ratio_b_over_a": qb[1] / base if base else None,
        "base": base,
        "runs": [len(a), len(b)],
    }
    if bound is None:
        row["verdict"] = "no bound"
        return row
    if not base:
        row["verdict"] = "unchanged" if not qb[1] else "unresolved"
        return row
    spread = max(
        (qa[2] - qa[0]) / abs(qa[1]),
        (qb[2] - qb[0]) / abs(qb[1]) if qb[1] else 0.0,
    )
    change = (qb[1] - base) / abs(base)
    worse_by = change if better == "lower" else -change
    row["spread"] = spread
    row["worse_by"] = worse_by
    if spread > bound:
        row["verdict"] = "unresolved"
    elif worse_by > bound:
        row["verdict"] = "worse"
    elif -worse_by > bound:
        row["verdict"] = "improved"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(path_a: str, path_b: str) -> int:
    """Print one verdict row per (metric, workload); exit 1 on any
    ``worse``."""
    benchmark = config.load_benchmark()
    a = _series(json.loads(Path(path_a).read_text(encoding="utf-8")))
    b = _series(json.loads(Path(path_b).read_text(encoding="utf-8")))
    rows = []
    listed = dict(benchmark)
    listed["side_reading"] = [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in config.SIDE_READINGS.items()
    ]
    for kind in ("end_to_end", "side_reading", "per_layer"):
        for metric in listed[kind]:
            for workload in config.WORKLOADS:
                key = (metric["name"], workload)
                if key not in a and key not in b:
                    continue
                row = verdict(
                    a.get(key, []),
                    b.get(key, []),
                    metric["better"],
                    metric.get("bound"),
                )
                row.update(
                    metric=metric["name"],
                    workload=workload,
                    unit=metric["unit"],
                    kind=kind,
                    bound=metric.get("bound"),
                )
                rows.append(row)
    print(f"A = {path_a}\nB = {path_b}")
    header = (
        f"{'metric':<36}{'workload':<17}{'A median':>13}{'B median':>13}"
        f"{'B/A':>8}  {'spread':>7} {'bound':>6}  verdict"
    )
    print(header)
    for row in rows:
        if "a_median" not in row:
            print(
                f"{row['metric']:<36}{row['workload']:<17}{'null':>13}{'null':>13}"
                f"{'':>8}  {'':>7} {'':>6}  {row['verdict']}"
            )
            continue
        ratio = row["ratio_b_over_a"]
        print(
            f"{row['metric']:<36}{row['workload']:<17}"
            f"{row['a_median']:>13.6g}{row['b_median']:>13.6g}"
            f"{(f'{ratio:.3f}' if ratio is not None else '-'):>8}  "
            f"{(format(row['spread'], '.3f') if 'spread' in row else ''):>7} "
            f"{(format(row['bound'], '.2f') if row['bound'] is not None else ''):>6}  "
            f"{row['verdict']} (base {row['base']:.6g} {row['unit']}, "
            f"n={row['runs'][0]}/{row['runs'][1]})"
        )
    gated = [row for row in rows if row["kind"] == "end_to_end"]
    tally = {v: sum(row["verdict"] == v for row in gated) for v in VERDICTS}
    print(json.dumps({"end_to_end": tally, "rows": len(rows)}))
    return 1 if tally["worse"] else 0
