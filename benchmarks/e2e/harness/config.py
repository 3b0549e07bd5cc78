"""Frozen constants of the end-to-end benchmark.

Sizes were calibrated once on the 2-core sandbox (see README.md) so that a
10-second measuring window holds enough operations for a steady median;
they are never adapted at run time.  ``BENCHMARK.json`` at the repository
root is the single list of metric names, units, directions and bounds —
this module only reads it.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parents[1]
#: Everything a run writes (data dirs, spec files, traces, result files)
#: goes here — inside the checkout, ignored by git.
WORK_DIR = ROOT / ".bench_e2e"
PINS_FILE = BENCH_DIR / "pins.json"

RESULT_FORMAT = "repro/bench-e2e@1"

#: The topology (relations per peer, attribute partitions, mappings) of
#: every workload comes from this one generator seed; ``--seed`` drives
#: only the data (entries, sampled keys, the read mix).  A seed-dependent
#: topology would make two seeds two different workloads.
LAYOUT_SEED = 0

WORKLOADS = (
    "bulk_load",
    "insert_stream",
    "delete_stream",
    "serve_mixed",
    "durable_recover",
)

#: Printed with every untraced run and carried in the result files, but
#: not gated: across ten runs these spread by more than any bound the
#: contract admits (README.md, variance audit).  ``name -> (unit, better)``.
SIDE_READINGS = {
    "exchange_p95_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "reads_per_s": ("1/s", "higher"),
    "cpu_ms_per_op": ("ms", "lower"),
}

#: Trust condition of the stream workloads: ``peer5`` rejects incoming
#: tuples whose (integer) key is divisible by this — about one in ten.
TRUST_PEER = "peer5"
TRUST_MODULUS = 10

#: Totals of the per-layer *counts* are taken over exactly this many
#: traced operations from the start of the traced phase, so that they
#: repeat exactly from run to run whatever the host's speed.
COUNTED_OPS = 8

PROFILES: dict[str, dict] = {
    "full": {
        "bulk_load": {
            "replicas": 3,
            "peers": 6,
            "base": 300,
            "lookups_per_peer": 32,
            # More cold starts after each replica, on top of its set-up's
            # one, so that a run's median rests on 9 to 20 samples spread
            # over the run, not on 3 to 5 (of which the process's first is
            # always the slowest).
            "cold_starts": 2,
        },
        "stream": {
            "replicas": 5,
            "peers": 10,
            "base": 400,
            "round": 20,
            "pool": 32,
            "warmup": 3,
            "cold_starts": 3,
        },
        "serve_mixed": {
            "replicas": 3,
            "peers": 6,
            "base": 250,
            "write_batch": 10,
            "write_period_s": 0.1,
            "pool": 32,
            "warmup": 3,
            # Full collections of the server's heap only start ~2 s into
            # a mixed load; set-up soaks that long so that the window
            # sees the steady state.
            "soak_s": 2.0,
            "join_share": 0.10,
            "join_limit": 50,
            "cold_starts": 2,
        },
        "durable_recover": {
            "replicas": 3,
            "peers": 10,
            "base": 120,
            "round": 10,
            "pool": 32,
            "warmup": 2,
            "rounds_per_checkpoint": 12,
            "tail_rounds": 5,
            "min_checkpoints": 1,
            "min_recoveries": 3,
            "stream_share": 0.55,
        },
    },
    # Tiny sizes for the self-test: every code path, no steady numbers.
    "quick": {
        "bulk_load": {
            "replicas": 1,
            "peers": 3,
            "base": 20,
            "lookups_per_peer": 2,
            "cold_starts": 1,
        },
        "stream": {
            "replicas": 1,
            "peers": 6,
            "base": 30,
            "round": 4,
            "pool": 4,
            "warmup": 1,
            "cold_starts": 1,
        },
        "serve_mixed": {
            "replicas": 1,
            "peers": 3,
            "base": 30,
            "write_batch": 3,
            "write_period_s": 0.1,
            "pool": 4,
            "warmup": 1,
            "soak_s": 0.0,
            "join_share": 0.10,
            "join_limit": 10,
            "cold_starts": 1,
        },
        "durable_recover": {
            "replicas": 1,
            "peers": 4,
            "base": 20,
            "round": 3,
            "pool": 4,
            "warmup": 1,
            "rounds_per_checkpoint": 3,
            "tail_rounds": 2,
            "min_checkpoints": 1,
            "min_recoveries": 1,
            "stream_share": 0.5,
        },
    },
}


def load_benchmark() -> dict:
    """``BENCHMARK.json`` — metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_pins() -> dict:
    """Pinned ``inputs_sha256`` / ``answers_sha256`` per profile, workload
    and seed (``BENCHMARK.json`` admits no extra keys, so they live here)."""
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))
