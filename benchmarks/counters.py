"""Work counters as a performance gate: ``BENCH_counters.json``.

Wall clock drifts on a shared host; the per-layer *work* counters of the
end-to-end benchmark (rows inserted, rule applications, support probes,
WAL records, ...) repeat exactly from run to run.  This script runs every
workload once, traced::

    python3 benchmarks/e2e/run.py --workload W --trace 1

takes the JSON record on the last stdout line, and keeps every metric
whose unit is ``count``.  Beside them it records the storage ``structure``
of one generated chain (``STRUCTURE_CHAIN``): per internal relation kind
(``R__l``, ``R__r``, ``R__i``, ``R__t``, ``R__o``, provenance) the rows,
the index keys and the ``set`` buckets, exact integers that do not depend
on the Python version the way object sizes do.  The result is
``BENCH_counters.json`` at the repository root.

Run directly::

    python3 benchmarks/counters.py           # regenerate the file
    python3 benchmarks/counters.py --check   # regenerate; exit 1 if any
                                             # counter rose

``--check`` compares against the file as it was before the run.  A
counter (or structure count) that rises, or stops being reported, fails
the check; one that falls is printed and passes.  A change that means to
raise a counter commits the regenerated file and says why.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RUN_PY = REPO_ROOT / "benchmarks" / "e2e" / "run.py"
COUNTERS_FILE = REPO_ROOT / "BENCH_counters.json"
sys.path.insert(0, str(REPO_ROOT / "src"))

WORKLOADS = (
    "bulk_load",
    "insert_stream",
    "delete_stream",
    "serve_mixed",
    "durable_recover",
)

NOTES = [
    "Per workload: every count-valued per-layer metric of the 8 counted "
    "operations of `benchmarks/e2e/run.py --workload W --trace 1` (seed 0). "
    "`benchmarks/counters.py --check` fails when any of them rises.",
    "`datalog.rounds` counts component passes: one per non-recursive "
    "component evaluated and one per pass inside a recursive component. "
    "It is not cost; `datalog.rule_applications` is.",
    "`storage.index_rebuilds` counts index builds from the live rows, "
    "first builds included. It is not cost.",
    "`storage.index_applied_runs` and `storage.index_retired` read -1: "
    "the deferred index maintenance they probed was deleted, so the "
    "harness finds no value. Neither is cost.",
    "`structure`: a generated 10-peer integer chain (generator seed 0, 40 "
    "entries per peer exchanged, then 10 per peer deleted and exchanged); "
    "per internal relation kind, its `rows`, the keys of its materialized "
    "indexes (`index_keys`) and the keys holding a `set` of two or more "
    "rows (`set_buckets`; a one-row key holds its row).",
]

#: The chain behind ``structure`` (``tests/test_index_buckets.py`` checks
#: its buckets): peers, entries per peer exchanged, entries per peer then
#: deleted.
STRUCTURE_CHAIN = {"peers": 10, "base": 40, "deleted": 10}


def run_workload(workload: str) -> dict[str, int]:
    """The count-valued metrics of one traced run of ``workload``."""
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--trace", "1"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run.py exited {done.returncode}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    if not record.get("correct"):
        raise SystemExit(f"{workload}: answers are not correct")
    return {
        name: metric["value"]
        for name, metric in record["metrics"].items()
        if metric.get("unit") == "count"
    }


def structure() -> dict[str, dict[str, int]]:
    """Rows, index keys and ``set`` buckets of ``STRUCTURE_CHAIN`` after
    its exchanges, summed per internal relation kind."""
    from repro.workload import CDSSWorkloadGenerator, WorkloadConfig

    generator = CDSSWorkloadGenerator(
        WorkloadConfig(
            peers=STRUCTURE_CHAIN["peers"], dataset="integer", seed=0
        )
    )
    cdss = generator.build_cdss()
    generator.populate(cdss, STRUCTURE_CHAIN["base"])
    generator.record_deletions(
        cdss, generator.deletions(STRUCTURE_CHAIN["deleted"])
    )
    cdss.update_exchange()
    system = cdss.system()
    provenance = set(system.encoding.provenance_relation_names())
    kinds: dict[str, dict[str, int]] = {}
    for inst in system.db:
        name = inst.name
        kind = "provenance" if name in provenance else (
            "R" + name[name.rindex("__"):]
        )
        counts = inst.bucket_counts()
        totals = kinds.setdefault(
            kind, {"rows": 0, "index_keys": 0, "set_buckets": 0}
        )
        totals["rows"] += len(inst)
        totals["index_keys"] += counts["keys"]
        totals["set_buckets"] += counts["set_buckets"]
    return kinds


def compare(old: dict, new: dict) -> list[str]:
    """Print every changed counter; return the ones that rose or vanished.

    ``old`` and ``new`` map a workload (or relation kind) to its
    counters."""
    failures = []
    for group, counters in new.items():
        before = old.get(group, {})
        for name in sorted(set(before) | set(counters)):
            was, now = before.get(name), counters.get(name)
            if was == now:
                continue
            line = f"{group:16} {name:32} {was!s:>10} -> {now!s:>10}"
            if was is not None and (now is None or now > was):
                failures.append(line)
                print("ROSE  " + line)
            else:
                print(("new   " if was is None else "fell  ") + line)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if any counter rose against the committed file",
    )
    args = parser.parse_args(argv)
    old = json.loads(COUNTERS_FILE.read_text()) if args.check else {}
    new = {}
    for workload in WORKLOADS:
        new[workload] = run_workload(workload)
        print(f"{workload}: {len(new[workload])} counters", flush=True)
    shape = structure()
    print(f"structure: {len(shape)} relation kinds", flush=True)
    COUNTERS_FILE.write_text(
        json.dumps(
            {"notes": NOTES, "structure": shape, "workloads": new},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    if not args.check:
        return 0
    failures = compare(old.get("workloads", {}), new) + compare(
        old.get("structure", {}), shape
    )
    if failures:
        print(f"{len(failures)} counter(s) rose; see ROSE lines above")
        return 1
    total = sum(
        len(counters) for group in (new, shape) for counters in group.values()
    )
    print(f"no counter rose ({total} checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
