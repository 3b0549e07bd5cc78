#!/usr/bin/env python3
"""The node's one benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                       # everything, then traced
    python3 benchmarks/e2e/run.py --workload insert_stream --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --repeat 5 --out A.json
    python3 benchmarks/e2e/run.py --compare A.json B.json

See README.md beside this file.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import config  # noqa: E402

sys.path.insert(0, str(config.SRC))


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` (the server child inherits it).

    String hashing is salted per process; with it the layout of every set
    and dict of rows changes from run to run, which alone spread the
    stream workloads' medians by 4 to 8 %.  A fixed salt takes that out
    of both sides of every comparison.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        warn = [flag for option in sys.warnoptions for flag in ("-W", option)]
        os.execve(
            sys.executable,
            [sys.executable, *warn, *sys.argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=config.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    parser.add_argument("--out", default=None, metavar="PATH")
    parser.add_argument("--record", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--write-pins",
        action="store_true",
        help="recompute pins.json (seed 0, both profiles) after a deliberate "
        "change to the workloads",
    )
    args = parser.parse_args(argv)

    if args.compare:
        from harness.report import compare

        return compare(*args.compare)
    if not (config.SRC / "repro").is_dir():
        print(
            f"{config.SRC}/repro not found: this benchmark measures the "
            "repository it sits in and needs its sources",
            file=sys.stderr,
        )
        return 2
    if argv is None:
        pin_hash_seed()
    if args.write_pins:
        import json

        from harness.single import run_one

        pins: dict = {}
        config.PINS_FILE.write_text("{}\n", encoding="utf-8")
        for profile in config.PROFILES:
            for workload in config.WORKLOADS:
                record = run_one(workload, 0, 1.0, False, profile)
                if not record["correct"]:
                    raise SystemExit(f"{workload}: {record['errors']}")
                pins.setdefault(profile, {})[workload] = {
                    "0": {
                        "inputs_sha256": record["inputs_sha256"],
                        "answers_sha256": record["answers_sha256"],
                    }
                }
        config.PINS_FILE.write_text(
            json.dumps(pins, indent=2) + "\n", encoding="utf-8"
        )
        return 0
    if args.workload:
        import json

        from harness.single import emit, run_one

        profile = "quick" if args.quick else "full"
        seconds = args.seconds
        if seconds is None:
            seconds = 1.0 if args.quick else config.load_benchmark()["run_seconds"]
        record = run_one(args.workload, args.seed, seconds, bool(args.trace), profile)
        if args.record:
            Path(args.record).write_text(json.dumps(record), encoding="utf-8")
        emit(record)
        return 0 if record["correct"] else 1
    from harness.report import run_all

    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
