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

from conftest import scaled

from repro.bench import fig4_deletion_alternatives
from repro.core import STRATEGY_RECOMPUTE, STRATEGY_UNIFIED

PEERS = 5
BASE = scaled(120)


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
    """Regenerate the full Figure 4 series and check its qualitative shape."""

    result = benchmark.pedantic(
        lambda: fig4_deletion_alternatives(
            base_per_peer=BASE, ratios=(0.1, 0.3, 0.5, 0.7, 0.9)
        ),
        rounds=1,
        iterations=1,
    )
    result.print_table()

    def t(strategy, ratio):
        return result.value("seconds", strategy=strategy, ratio=ratio)

    # Incremental deletion beats full recomputation at low-to-mid ratios.
    for ratio in (0.1, 0.3, 0.5):
        assert t(STRATEGY_UNIFIED, ratio) < t(STRATEGY_RECOMPUTE, ratio), (
            f"incremental should beat recomputation at {ratio:.0%}"
        )
    # Recomputation cost declines as more data is deleted; by 90% it is
    # competitive (the paper's crossover).
    assert t(STRATEGY_RECOMPUTE, 0.9) < t(STRATEGY_RECOMPUTE, 0.1)
