"""Experiment drivers reproducing every figure of the paper's Section 6.

Each ``figN_*`` function regenerates the corresponding figure's data series
at a configurable scale (the defaults are laptop-sized; the paper's absolute
sizes ran on a 2007 Xeon server against DB2).  The *shape* of each result —
who wins, by roughly what factor, where crossovers fall — is what the
reproduction targets; each driver's docstring states the expected shape,
and the corresponding ``benchmarks/bench_figN_*.py`` asserts it.

Engine naming: the paper's **DB2** backend maps to
:class:`~repro.datalog.planner.CostBasedPlanner` (statistics-driven,
re-planning per round) and **Tukwila** to
:class:`~repro.datalog.planner.PreparedPlanner` (fixed heuristic prepared
plans) — see the engine-substitution table in DESIGN.md.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..core import STRATEGY_RECOMPUTE, STRATEGY_UNIFIED
from ..core.cdss import CDSS
from ..datalog.planner import CostBasedPlanner, Planner, PreparedPlanner
from ..workload import CDSSWorkloadGenerator, WorkloadConfig
from .harness import ExperimentResult, timed

ENGINE_DB2 = "DB2"
ENGINE_TUKWILA = "Tukwila"

ENGINES: dict[str, Callable[[], Planner]] = {
    ENGINE_DB2: CostBasedPlanner,
    ENGINE_TUKWILA: PreparedPlanner,
}


def _populated(
    peers: int,
    base_per_peer: int,
    dataset: str = "integer",
    engine: str = ENGINE_TUKWILA,
    seed: int = 0,
    extra_cycles: int = 0,
    topology: str = "chain",
    strategy: str = STRATEGY_UNIFIED,
) -> tuple[CDSSWorkloadGenerator, CDSS]:
    """A freshly built and populated CDSS for one experiment cell."""
    generator = CDSSWorkloadGenerator(
        WorkloadConfig(
            peers=peers,
            dataset=dataset,
            seed=seed,
            extra_cycles=extra_cycles,
            topology=topology,
        )
    )
    cdss = generator.build_cdss(
        planner=ENGINES[engine](), strategy=strategy
    )
    generator.populate(cdss, base_per_peer)
    return generator, cdss


# ---------------------------------------------------------------------------
# Figure 4 — Deletion alternatives
# ---------------------------------------------------------------------------


def fig4_deletion_alternatives(
    base_per_peer: int = 200,
    ratios: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    peers: int = 5,
    seed: int = 0,
) -> ExperimentResult:
    """Complete recomputation vs. incremental maintenance (PropagateDelete
    on the weighted core) across deletion ratios — the paper's Figure 4
    (5 peers, full mappings, 2000 base tuples per peer at paper scale).

    The paper's third series, DRed, is not reproduced: its
    over-delete/re-derive maintainer was removed when insertion and
    deletion maintenance were unified on the weighted core, after which
    the ``dred`` name only timed the unified maintainer a second time."""
    result = ExperimentResult(
        "fig4",
        "deletion alternatives: time (s) vs. ratio of deletions to base data",
    )
    for ratio in ratios:
        count = max(1, int(base_per_peer * ratio))
        for strategy in (STRATEGY_RECOMPUTE, STRATEGY_UNIFIED):
            generator, cdss = _populated(
                peers, base_per_peer, seed=seed, strategy=strategy
            )
            generator.record_deletions(
                cdss, generator.deletions(per_peer=count)
            )
            report, seconds = timed(cdss.update_exchange)
            result.add(
                {"ratio": ratio, "strategy": strategy},
                seconds=seconds,
                deleted=float(report.deleted),
            )
    return result


# ---------------------------------------------------------------------------
# Figures 5 & 6 — Time to join the system; initial instance sizes
# ---------------------------------------------------------------------------


def fig5_time_to_join(
    peer_counts: Sequence[int] = (2, 5, 10),
    base_per_peer: int = 100,
    datasets: Sequence[str] = ("integer", "string"),
    engines: Sequence[str] = (ENGINE_DB2, ENGINE_TUKWILA),
    seed: int = 0,
) -> ExperimentResult:
    """Time for the initial full computation when a peer joins (Figure 5)."""
    result = ExperimentResult(
        "fig5", "time to join system (s) vs. number of peers"
    )
    for dataset in datasets:
        for engine in engines:
            for peers in peer_counts:
                generator = CDSSWorkloadGenerator(
                    WorkloadConfig(peers=peers, dataset=dataset, seed=seed)
                )
                cdss = generator.build_cdss(planner=ENGINES[engine]())
                generator.record_insertions(
                    cdss, generator.insertions(base_per_peer)
                )
                _, seconds = timed(cdss.update_exchange)
                result.add(
                    {"peers": peers, "dataset": dataset, "engine": engine},
                    seconds=seconds,
                )
    return result


def fig6_instance_size(
    peer_counts: Sequence[int] = (2, 5, 10),
    base_per_peer: int = 100,
    seed: int = 0,
) -> ExperimentResult:
    """Initial instance sizes: #tuples and DB bytes, string vs. integer
    (Figure 6)."""
    result = ExperimentResult(
        "fig6", "initial instance size vs. number of peers"
    )
    for peers in peer_counts:
        tuples_by_dataset: dict[str, int] = {}
        for dataset in ("integer", "string"):
            _, cdss = _populated(peers, base_per_peer, dataset, seed=seed)
            system = cdss.system()
            tuples_by_dataset[dataset] = system.total_tuples()
            result.add(
                {"peers": peers, "dataset": dataset},
                tuples=float(system.total_tuples()),
                bytes=float(system.estimated_bytes()),
            )
        # The tuple count is dataset-independent (same data shape) — the
        # paper plots a single "#tuples" series.  A real raise, so the
        # sanity check survives ``python -O`` benchmark runs.
        if tuples_by_dataset["integer"] != tuples_by_dataset["string"]:
            raise RuntimeError(
                "tuple counts should not depend on the dataset variant: "
                f"{tuples_by_dataset!r}"
            )
    return result


# ---------------------------------------------------------------------------
# Figures 7, 8, 9 — Incremental insertion / deletion scalability
# ---------------------------------------------------------------------------


def _insertion_scalability(
    dataset: str,
    peer_counts: Sequence[int],
    base_per_peer: int,
    fractions: Sequence[float],
    engines: Sequence[str],
    seed: int,
    name: str,
    description: str,
) -> ExperimentResult:
    result = ExperimentResult(name, description)
    for engine in engines:
        for peers in peer_counts:
            for fraction in fractions:
                generator, cdss = _populated(
                    peers, base_per_peer, dataset, engine, seed=seed
                )
                count = max(1, int(base_per_peer * fraction))
                generator.record_insertions(
                    cdss, generator.insertions(per_peer=count)
                )
                _, seconds = timed(cdss.update_exchange)
                result.add(
                    {
                        "peers": peers,
                        "engine": engine,
                        "fraction": fraction,
                    },
                    seconds=seconds,
                )
    return result


def fig7_insertions_string(
    peer_counts: Sequence[int] = (2, 5, 10),
    base_per_peer: int = 100,
    fractions: Sequence[float] = (0.01, 0.10),
    engines: Sequence[str] = (ENGINE_DB2, ENGINE_TUKWILA),
    seed: int = 0,
) -> ExperimentResult:
    """Incremental insertion scalability on the string dataset (Figure 7)."""
    return _insertion_scalability(
        "string",
        peer_counts,
        base_per_peer,
        fractions,
        engines,
        seed,
        "fig7",
        "incremental insertions (string dataset): time (s) vs. peers",
    )


def fig8_insertions_integer(
    peer_counts: Sequence[int] = (2, 5, 10, 20),
    base_per_peer: int = 100,
    fractions: Sequence[float] = (0.01, 0.10),
    engines: Sequence[str] = (ENGINE_DB2, ENGINE_TUKWILA),
    seed: int = 0,
) -> ExperimentResult:
    """Incremental insertion scalability on the integer dataset (Figure 8)."""
    return _insertion_scalability(
        "integer",
        peer_counts,
        base_per_peer,
        fractions,
        engines,
        seed,
        "fig8",
        "incremental insertions (integer dataset): time (s) vs. peers",
    )


def fig9_deletions(
    peer_counts: Sequence[int] = (2, 5, 10, 20),
    base_per_peer: int = 100,
    fractions: Sequence[float] = (0.01, 0.10),
    datasets: Sequence[str] = ("integer", "string"),
    seed: int = 0,
) -> ExperimentResult:
    """Incremental deletion scalability (Figure 9; DB2 engine only in the
    paper, since the Tukwila backend lacked deletions)."""
    result = ExperimentResult(
        "fig9", "incremental deletions: time (s) vs. peers"
    )
    for dataset in datasets:
        for peers in peer_counts:
            for fraction in fractions:
                generator, cdss = _populated(
                    peers, base_per_peer, dataset, ENGINE_DB2, seed=seed
                )
                count = max(1, int(base_per_peer * fraction))
                generator.record_deletions(
                    cdss, generator.deletions(per_peer=count)
                )
                _, seconds = timed(cdss.update_exchange)
                result.add(
                    {
                        "peers": peers,
                        "dataset": dataset,
                        "fraction": fraction,
                    },
                    seconds=seconds,
                )
    return result


# ---------------------------------------------------------------------------
# Figure 10 — Effect of cycles
# ---------------------------------------------------------------------------


def fig10_cycles(
    cycle_counts: Sequence[int] = (0, 1, 2, 3),
    peers: int = 5,
    base_per_peer: int = 40,
    insert_per_peer: int = 4,
    engines: Sequence[str] = (ENGINE_DB2, ENGINE_TUKWILA),
    seed: int = 0,
) -> ExperimentResult:
    """Insertion cost and fixpoint size as mapping cycles are added
    (Figure 10: 5 peers, ~2 neighbours each, manually added cycles)."""
    result = ExperimentResult(
        "fig10", "effect of cycles: time (s) and fixpoint #tuples"
    )
    for cycles in cycle_counts:
        for engine in engines:
            generator, cdss = _populated(
                peers,
                base_per_peer,
                "integer",
                engine,
                seed=seed,
                extra_cycles=cycles,
                topology="pairs",
            )
            generator.record_insertions(
                cdss, generator.insertions(per_peer=insert_per_peer)
            )
            _, seconds = timed(cdss.update_exchange)
            result.add(
                {"cycles": cycles, "engine": engine},
                seconds=seconds,
                tuples=float(cdss.system().total_tuples()),
            )
    return result


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------


def ablation_encoding(
    peers: int = 4,
    base_per_peer: int = 80,
    seed: int = 0,
) -> ExperimentResult:
    """Composite mapping tables vs. per-rule provenance tables (the
    alternative the paper compared in Section 5 'Provenance storage')."""
    from ..provenance import ENCODING_COMPOSITE, ENCODING_PER_RULE

    result = ExperimentResult(
        "ablation-encoding", "provenance encoding styles: join time (s)"
    )
    for style in (ENCODING_COMPOSITE, ENCODING_PER_RULE):
        generator = CDSSWorkloadGenerator(
            WorkloadConfig(peers=peers, dataset="integer", seed=seed)
        )
        cdss = generator.build_cdss(encoding_style=style)
        generator.record_insertions(
            cdss, generator.insertions(base_per_peer)
        )
        _, seconds = timed(cdss.update_exchange)
        tables = len(cdss.system().encoding.tables)
        result.add(
            {"style": style},
            seconds=seconds,
            prov_tables=float(tables),
        )
    return result


def ablation_planner(
    peers: int = 5,
    base_per_peer: int = 150,
    small_update: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    """Prepared vs. cost-based planning on bulk loads vs. small updates —
    the Section 5.1/5.2 trade-off behind Figures 5, 7 and 8."""
    result = ExperimentResult(
        "ablation-planner", "planner trade-off: bulk load vs. small update"
    )
    for engine in (ENGINE_DB2, ENGINE_TUKWILA):
        generator, cdss = _populated(
            peers, base_per_peer, "integer", engine, seed=seed
        )
        bulk_seconds = cdss.exchange_reports[-1].seconds
        generator.record_insertions(
            cdss, generator.insertions(per_peer=small_update)
        )
        _, small_seconds = timed(cdss.update_exchange)
        result.add(
            {"engine": engine, "phase": "bulk"}, seconds=bulk_seconds
        )
        result.add(
            {"engine": engine, "phase": "small"}, seconds=small_seconds
        )
    return result
