"""Figure 10 — Effect of cycles on instance size and insertion cost.

Paper setting: 5 peers averaging 2 neighbours each, with 0-3 manually added
cycles; measure incremental insertion time on both engines and the number of
tuples at fixpoint.

Paper shape: both the fixpoint size and the running time grow with the
number of cycles, with time growing at a somewhat higher rate than the
instance ("not only are the instance sizes growing, but the actual number
of iterations required through the cycle also increases").
"""

import statistics

from conftest import scaled

from repro.bench import ENGINE_DB2, ENGINE_TUKWILA, fig10_cycles
from repro.bench.harness import monotone_nondecreasing

BASE = scaled(30)
INSERTS = scaled(4)
CYCLES = (0, 1, 2, 3)
#: Series per full-series run; its time assert reads their medians.
ROUNDS = 3


def _cell(cycles: int, engine: str):
    from repro.bench.experiments import _populated

    def setup():
        generator, cdss = _populated(
            5,
            BASE,
            "integer",
            engine,
            extra_cycles=cycles,
            topology="pairs",
        )
        generator.record_insertions(
            cdss, generator.insertions(per_peer=INSERTS)
        )
        return (cdss,), {}

    return setup


def _run(cdss):
    return cdss.update_exchange()


def bench_cycles0_tukwila(benchmark):
    benchmark.pedantic(_run, setup=_cell(0, ENGINE_TUKWILA), rounds=3)


def bench_cycles3_tukwila(benchmark):
    benchmark.pedantic(_run, setup=_cell(3, ENGINE_TUKWILA), rounds=3)


def bench_cycles0_db2(benchmark):
    benchmark.pedantic(_run, setup=_cell(0, ENGINE_DB2), rounds=3)


def bench_cycles3_db2(benchmark):
    benchmark.pedantic(_run, setup=_cell(3, ENGINE_DB2), rounds=3)


def bench_fig10_full_series(benchmark):
    """Regenerate the full Figure 10 series and check its shape.

    Timings are medians of ``ROUNDS`` series, run inside the one
    benchmarked call (``--benchmark-disable`` runs a target once, whatever
    its ``rounds``), so one slow or fast cell (a GC pass, a scheduler
    hiccup) cannot invert the time assert alone.  Asserted: the fixpoint
    grows with the cycles, and the insertion time with three cycles does
    not fall below 0.8 of the time with none.
    """
    results = []

    def run_series():
        results[:] = [
            fig10_cycles(
                cycle_counts=CYCLES,
                base_per_peer=BASE,
                insert_per_peer=INSERTS,
            )
            for _ in range(ROUNDS)
        ]

    benchmark.pedantic(run_series, rounds=1, iterations=1)
    results[-1].print_table()
    # The fixpoint instance grows with the number of cycles.
    tuples = [
        value
        for _, value in results[-1].series(
            "cycles", "tuples", engine=ENGINE_TUKWILA
        )
    ]
    assert monotone_nondecreasing(tuples)
    assert tuples[-1] > tuples[0]
    # Running time trends upward with cycles on both engines.
    for engine in (ENGINE_DB2, ENGINE_TUKWILA):
        series = [
            statistics.median(
                result.value("seconds", cycles=cycles, engine=engine)
                for result in results
            )
            for cycles in CYCLES
        ]
        assert series[-1] > series[0] * 0.8, (
            f"time should not collapse as cycles are added ({engine}): "
            f"{series}"
        )
