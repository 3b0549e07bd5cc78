"""Figure 4 — Deletion alternatives.

Paper setting: 5 peers, full mappings, 2000 base tuples per peer; compares
complete recomputation, the incremental PropagateDelete algorithm, and DRed
across deletion ratios of 0-90%.

Paper shape: the incremental algorithm beats full recomputation up to
roughly 80% deleted.  The DRed curve is not reproduced: its
over-delete/re-derive maintainer was removed when insertion and deletion
maintenance were unified on the weighted core, so the cells here are
recomputation vs. the unified (weighted PropagateDelete) maintainer.
"""

import statistics

from conftest import scaled

from repro.bench import fig4_deletion_alternatives
from repro.core import STRATEGY_RECOMPUTE, STRATEGY_UNIFIED

PEERS = 5
BASE = scaled(120)
#: Series per full-series run; its time asserts read their medians.
ROUNDS = 3


def _cell(strategy: str, ratio: float):
    from repro.bench.experiments import _populated

    generator, cdss = _populated(PEERS, BASE, strategy=strategy)
    generator.record_deletions(
        cdss, generator.deletions(per_peer=max(1, int(BASE * ratio)))
    )
    return (cdss,), {}


def _run(cdss):
    return cdss.update_exchange()


def bench_incremental_10pct(benchmark):
    benchmark.pedantic(
        _run, setup=lambda: _cell(STRATEGY_UNIFIED, 0.1), rounds=3
    )


def bench_recompute_10pct(benchmark):
    benchmark.pedantic(
        _run, setup=lambda: _cell(STRATEGY_RECOMPUTE, 0.1), rounds=3
    )


def bench_incremental_50pct(benchmark):
    benchmark.pedantic(
        _run, setup=lambda: _cell(STRATEGY_UNIFIED, 0.5), rounds=3
    )


def bench_recompute_50pct(benchmark):
    benchmark.pedantic(
        _run, setup=lambda: _cell(STRATEGY_RECOMPUTE, 0.5), rounds=3
    )


def bench_fig4_full_series(benchmark):
    """Regenerate the full Figure 4 series and check its qualitative shape.

    Timings are medians of ``ROUNDS`` series, run inside the one
    benchmarked call (``--benchmark-disable`` runs a target once, whatever
    its ``rounds``).  Asserted: recomputation gets
    cheaper as more is deleted, incremental deletion gets dearer, and
    incremental deletion beats recomputation at 10 %.  Outside recursive
    components retraction reads R__i / R__t membership off the remaining
    support with no derivability test, so on this acyclic 5-peer chain
    the crossover sits between 30 % and 50 % deleted; the paper's ~80 %
    is printed, not asserted.  Medians on a 2-CPU x86-64 host, unified
    vs recompute: at default scale 4.8 / 9.4 ms at 10 %, 6.3 / 8.0 at
    30 %, 8.1 / 7.1 at 50 %; at 4x scale 20.0 / 45.1 ms at 10 %,
    24.7 / 36.7 at 30 %, 45.2 / 26.9 at 50 %.
    """
    results = []

    def run_series():
        results[:] = [
            fig4_deletion_alternatives(
                base_per_peer=BASE, ratios=(0.1, 0.3, 0.5, 0.7, 0.9)
            )
            for _ in range(ROUNDS)
        ]

    benchmark.pedantic(run_series, rounds=1, iterations=1)
    results[-1].print_table()

    def t(strategy, ratio):
        return statistics.median(
            result.value("seconds", strategy=strategy, ratio=ratio)
            for result in results
        )

    assert t(STRATEGY_RECOMPUTE, 0.9) < t(STRATEGY_RECOMPUTE, 0.1), (
        "recomputation should get cheaper as more is deleted"
    )
    assert t(STRATEGY_UNIFIED, 0.1) < t(STRATEGY_UNIFIED, 0.9), (
        "incremental deletion should get dearer as more is deleted"
    )
    assert t(STRATEGY_UNIFIED, 0.1) < t(STRATEGY_RECOMPUTE, 0.1), (
        "incremental deletion should beat recomputation at 10 %"
    )
