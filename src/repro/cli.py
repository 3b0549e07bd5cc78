"""Command-line interface: run specs, queries, the paper's experiments.

Usage::

    python -m repro quickstart            # the paper's running example
    python -m repro run bio.json          # execute a declarative SystemSpec
    python -m repro query bio.json 'ans(x, y) :- U(x, z), U(y, z)'
    python -m repro serve bio.json --port 8080   # HTTP+JSON serving tier
    python -m repro serve bio.json --data-dir n/ # durable, crash-recoverable
    python -m repro stats http://127.0.0.1:8080 --watch  # live stat deltas
    python -m repro run bio.json --verbose --trace t.jsonl  # phase timings
    python -m repro fig4 --scale 0.5      # reproduce one figure
    python -m repro all --scale 0.25      # every figure + ablations
    python -m repro list                  # what is available

``run`` loads a :class:`~repro.api.spec.SystemSpec` JSON document (as
written by ``cdss.to_spec().save(path)``), performs one update exchange,
and prints every relation's local instance.  ``query`` does the same but
then answers one conjunctive query through the prepared-query subsystem
(modes: certain / with-nulls / annotated; ``--param name=value`` binds
parameterized variables).

Each figure command regenerates the corresponding data series from
Section 6 and prints it as a table (the docstrings in
:mod:`repro.bench.experiments` describe the shapes the series should
exhibit).  ``--scale`` multiplies the default workload sizes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .bench import (
    ablation_encoding,
    ablation_planner,
    fig4_deletion_alternatives,
    fig5_time_to_join,
    fig6_instance_size,
    fig7_insertions_string,
    fig8_insertions_integer,
    fig9_deletions,
    fig10_cycles,
)
from .bench.harness import ExperimentResult
from .core.exchange import STRATEGIES


def _scaled(n: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(n * scale))


def _run_fig4(scale: float) -> ExperimentResult:
    return fig4_deletion_alternatives(base_per_peer=_scaled(120, scale))


def _run_fig5(scale: float) -> ExperimentResult:
    return fig5_time_to_join(base_per_peer=_scaled(80, scale))


def _run_fig6(scale: float) -> ExperimentResult:
    return fig6_instance_size(base_per_peer=_scaled(80, scale))


def _run_fig7(scale: float) -> ExperimentResult:
    return fig7_insertions_string(base_per_peer=_scaled(80, scale))


def _run_fig8(scale: float) -> ExperimentResult:
    return fig8_insertions_integer(base_per_peer=_scaled(80, scale))


def _run_fig9(scale: float) -> ExperimentResult:
    return fig9_deletions(base_per_peer=_scaled(80, scale))


def _run_fig10(scale: float) -> ExperimentResult:
    return fig10_cycles(
        base_per_peer=_scaled(30, scale), insert_per_peer=_scaled(4, scale)
    )


def _run_ablation_encoding(scale: float) -> ExperimentResult:
    return ablation_encoding(base_per_peer=_scaled(60, scale))


def _run_ablation_planner(scale: float) -> ExperimentResult:
    return ablation_planner(base_per_peer=_scaled(120, scale))


EXPERIMENTS: dict[str, tuple[str, Callable[[float], ExperimentResult]]] = {
    "fig4": ("deletion alternatives (incremental / recompute)", _run_fig4),
    "fig5": ("time to join the system", _run_fig5),
    "fig6": ("initial instance sizes", _run_fig6),
    "fig7": ("incremental insertions, string dataset", _run_fig7),
    "fig8": ("incremental insertions, integer dataset", _run_fig8),
    "fig9": ("incremental deletions", _run_fig9),
    "fig10": ("effect of mapping cycles", _run_fig10),
    "ablation-encoding": (
        "composite vs. per-rule provenance tables",
        _run_ablation_encoding,
    ),
    "ablation-planner": (
        "cost-based vs. prepared planning",
        _run_ablation_planner,
    ),
}


def _quickstart() -> None:
    """Inline version of examples/quickstart.py for `python -m repro`."""
    from . import CDSS

    cdss = CDSS("bioinformatics")
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m3", "B(i, n) -> exists c . U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    with cdss.batch() as tx:
        tx.insert("G", (1, 2, 3))
        tx.insert("G", (3, 5, 2))
        tx.insert("B", (3, 5))
        tx.insert("U", (2, 5))
    report = cdss.update_exchange()
    print(f"update exchange: {report.inserted} tuples in {report.seconds:.4f}s")
    for relation in ("G", "B", "U"):
        print(f"  {relation}: {sorted(cdss.relation(relation), key=repr)}")
    print(f"Pv(B(3,2)) = {cdss.relation('B').provenance((3, 2))}")
    print(
        "certain answers to ans(x,y) :- U(x,z), U(y,z):",
        sorted(cdss.query("ans(x, y) :- U(x, z), U(y, z)")),
    )


def _print_phase_table(report) -> None:
    """Render ``ExchangeReport.phases`` as a wall/CPU-seconds table."""
    print("phase          wall_s      cpu_s")
    for phase, clocks in report.phases.items():
        print(
            f"{phase:<12} {clocks.get('wall_seconds', 0.0):>9.4f}  "
            f"{clocks.get('cpu_seconds', 0.0):>9.4f}"
        )
    print(f"{'total':<12} {report.seconds:>9.4f}  {report.cpu_seconds:>9.4f}")


def _run_spec(
    path: str,
    strategy: str | None,
    verbose: bool = False,
    trace: str | None = None,
) -> int:
    """Execute a declarative SystemSpec JSON: build, exchange, print."""
    from . import CDSS, SpecError
    from .core.exchange import ExchangeError
    from .datalog.ast import DatalogError  # covers ParseError, SafetyError
    from .schema import SchemaError

    if trace is not None:
        from .obs import tracing

        tracing.enable(trace)
    try:
        cdss = CDSS.from_spec(path)
        # Schema validation (e.g. weak acyclicity) fires lazily on first use.
        report = cdss.update_exchange(strategy=strategy)
    except (
        OSError, SpecError, DatalogError, SchemaError, ExchangeError
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"{cdss!r}: update exchange ({report.strategy}) derived "
        f"{report.inserted} tuples in {report.seconds:.4f}s"
    )
    if verbose:
        _print_phase_table(report)
    for peer in cdss.peer_handles():
        print(f"{peer.name}:")
        for relation in peer.relations():
            rows = sorted(peer.relation(relation), key=repr)
            print(f"  {relation}: {rows}")
    if trace is not None:
        print(f"trace written to {trace}")
    return 0


def _parse_param_value(text: str) -> object:
    """CLI parameter literal: int / float when they parse, else string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _run_query(
    path: str,
    text: str,
    mode: str,
    params: list[str],
    strategy: str | None,
) -> int:
    """Build a CDSS from a spec, exchange, and answer one query."""
    from . import CDSS, SpecError
    from .api.query import QueryError
    from .core.exchange import ExchangeError
    from .datalog.ast import DatalogError  # covers ParseError, SafetyError
    from .schema import SchemaError

    bindings: dict[str, object] = {}
    for item in params:
        name, eq, value = item.partition("=")
        if not eq or not name:
            print(
                f"error: --param expects NAME=VALUE, got {item!r}",
                file=sys.stderr,
            )
            return 1
        bindings[name] = _parse_param_value(value)
    try:
        cdss = CDSS.from_spec(path)
        cdss.update_exchange(strategy=strategy)
        prepared = cdss.prepare(text, params=tuple(bindings))
        answers = prepared.execute(**bindings)
        if mode == "with-nulls":
            answers = answers.with_nulls()
        if mode == "annotated":
            for row, annotation in answers.annotated().items():
                print(f"{row!r}  <-  {annotation!r}")
        else:
            for row in sorted(answers, key=repr):
                print(repr(row))
    except (
        OSError, SpecError, DatalogError, SchemaError, QueryError, ExchangeError
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Boot the serving tier (`python -m repro serve spec.json --port N`)."""
    from . import CDSS, SpecError, SystemSpec
    from .core.exchange import ExchangeError
    from .datalog.ast import DatalogError
    from .schema import SchemaError
    from .serve import run as serve_run
    from .storage.instance import StorageError

    if args.trace is not None:
        from .obs import tracing

        tracing.enable(args.trace)
    try:
        spec = SystemSpec.load(args.spec)
        durability = spec.durability
        data_dir = args.data_dir or (
            durability.path if durability is not None else None
        )
        node = None
        if data_dir is not None:
            from .durability import DurableNode

            fsync = args.fsync or (
                durability.fsync if durability is not None else "always"
            )
            checkpoint_every = args.checkpoint_every
            if checkpoint_every is None:
                checkpoint_every = (
                    durability.checkpoint_every
                    if durability is not None
                    else 0
                )
            # Recover the node if the directory exists, else initialize
            # it (spec edits land in the initial checkpoint).
            node = DurableNode.launch(
                spec,
                data_dir,
                fsync=fsync,
                checkpoint_every=checkpoint_every,
            )
            cdss = node.cdss
            if not args.no_exchange and not node.recovered:
                # Fresh node: publish the spec's seed edits so the first
                # pinned snapshot is a consistent fixpoint.  A recovered
                # node restarts exactly as it crashed — staged-but-
                # unpublished edits stay staged.
                node.publish(strategy=args.strategy)
        else:
            cdss = CDSS.from_spec(spec)
            if not args.no_exchange:
                # Start from a consistent fixpoint: the first pinned
                # snapshot must already reflect the spec's seed data.
                cdss.update_exchange(strategy=args.strategy)
        serve_run(
            cdss,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            timeout=args.timeout,
            readers=args.readers,
            duration=args.duration,
            node=node,
        )
    except (
        OSError, SpecError, DatalogError, SchemaError, StorageError, ExchangeError
    ) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        pass
    return 0


def _flatten_stats(stats: object, prefix: str = "") -> dict[str, object]:
    """Flatten a nested stats document into dotted scalar keys."""
    flat: dict[str, object] = {}
    if isinstance(stats, dict):
        for key in sorted(stats):
            flat.update(_flatten_stats(stats[key], f"{prefix}{key}."))
    else:
        flat[prefix[:-1]] = stats
    return flat


def _run_stats(args: argparse.Namespace) -> int:
    """`repro stats URL [--watch]`: print a node's stats, then deltas."""
    import time as _time

    from .serve.client import ServeClient, ServeHTTPError

    try:
        with ServeClient.from_url(args.url, timeout=10.0) as client:
            previous = _flatten_stats(client.stats())
            width = max(len(k) for k in previous) if previous else 0
            for key, value in previous.items():
                if isinstance(value, float):
                    value = round(value, 6)
                print(f"{key:<{width}}  {value}")
            if not args.watch:
                return 0
            while True:
                _time.sleep(args.interval)
                current = _flatten_stats(client.stats())
                deltas = []
                for key, value in current.items():
                    before = previous.get(key)
                    if value == before:
                        continue
                    if isinstance(value, (int, float)) and isinstance(
                        before, (int, float)
                    ):
                        change = value - before
                        deltas.append(
                            f"{key} {round(value, 6)} ({change:+.6g})"
                        )
                    else:
                        deltas.append(f"{key} {value}")
                stamp = _time.strftime("%H:%M:%S")
                if deltas:
                    print(f"-- {stamp}")
                    for line in deltas:
                        print(f"  {line}")
                else:
                    print(f"-- {stamp} (no change)")
                previous = current
    except (OSError, ServeHTTPError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Update Exchange with Mappings and Provenance' "
            "(VLDB 2007) — run the paper's running example or regenerate "
            "its experimental figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("quickstart", help="run the paper's running example")
    run_cmd = sub.add_parser(
        "run", help="build and exchange a CDSS from a SystemSpec JSON"
    )
    run_cmd.add_argument("spec", help="path to a spec JSON file")
    run_cmd.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="override the spec's maintenance strategy",
    )
    run_cmd.add_argument(
        "--verbose",
        action="store_true",
        help="print per-phase wall/CPU seconds of the exchange",
    )
    run_cmd.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="export exchange trace spans as JSONL to PATH",
    )
    query_cmd = sub.add_parser(
        "query",
        help="answer a conjunctive query over a SystemSpec's instances",
    )
    query_cmd.add_argument("spec", help="path to a spec JSON file")
    query_cmd.add_argument(
        "text", help="datalog query, e.g. 'ans(x, y) :- U(x, z), U(y, z)'"
    )
    query_cmd.add_argument(
        "--mode",
        choices=("certain", "with-nulls", "annotated"),
        default="certain",
        help="answer mode (default: certain answers, labeled nulls dropped)",
    )
    query_cmd.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a query parameter (variable NAME); repeatable",
    )
    query_cmd.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="override the spec's maintenance strategy",
    )
    serve_cmd = sub.add_parser(
        "serve",
        help="serve a SystemSpec over HTTP+JSON (snapshot-isolated reads)",
    )
    serve_cmd.add_argument("spec", help="path to a spec JSON file")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 picks a free port; the actual URL is printed)",
    )
    serve_cmd.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission: concurrent executions before queueing (default 64)",
    )
    serve_cmd.add_argument(
        "--max-queue",
        type=int,
        default=128,
        metavar="N",
        help="admission: queued requests before 503 rejection (default 128)",
    )
    serve_cmd.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request execution timeout (default 30s)",
    )
    serve_cmd.add_argument(
        "--readers",
        type=int,
        default=4,
        metavar="N",
        help="reader thread-pool size (default 4)",
    )
    serve_cmd.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="auto-shutdown after this many seconds (default: run forever)",
    )
    serve_cmd.add_argument(
        "--no-exchange",
        action="store_true",
        help="skip the initial update exchange before serving",
    )
    serve_cmd.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help=(
            "serve durably from this node directory: recover it if it "
            "exists, else initialize it from the spec (overrides the "
            "spec's durability.path)"
        ),
    )
    serve_cmd.add_argument(
        "--fsync",
        choices=("always", "never"),
        default=None,
        help="write-ahead-log fsync policy (default: spec's, else always)",
    )
    serve_cmd.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "checkpoint after every N publishes (0 = only on graceful "
            "shutdown; default: spec's durability setting)"
        ),
    )
    serve_cmd.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=None,
        help="maintenance strategy for the initial exchange",
    )
    serve_cmd.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="export publish trace spans as JSONL to PATH",
    )
    stats_cmd = sub.add_parser(
        "stats",
        help="print a serving node's /stats (normalized); --watch for deltas",
    )
    stats_cmd.add_argument("url", help="node URL, e.g. http://127.0.0.1:8080")
    stats_cmd.add_argument(
        "--watch",
        action="store_true",
        help="keep polling and print per-tick counter deltas",
    )
    stats_cmd.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="polling interval with --watch (default 2s)",
    )
    sub.add_parser("list", help="list available experiments")
    for name, (description, _) in EXPERIMENTS.items():
        cmd = sub.add_parser(name, help=description)
        cmd.add_argument(
            "--scale",
            type=float,
            default=1.0,
            help="workload size multiplier (default 1.0)",
        )
    all_cmd = sub.add_parser("all", help="run every experiment")
    all_cmd.add_argument("--scale", type=float, default=1.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "quickstart":
        _quickstart()
        return 0
    if args.command == "run":
        return _run_spec(
            args.spec,
            args.strategy,
            verbose=args.verbose,
            trace=args.trace,
        )
    if args.command == "query":
        return _run_query(
            args.spec,
            args.text,
            args.mode,
            args.param,
            args.strategy,
        )
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "list":
        for name, (description, _) in EXPERIMENTS.items():
            print(f"{name:<20} {description}")
        return 0
    if args.command == "all":
        for name, (_, runner) in EXPERIMENTS.items():
            runner(args.scale).print_table()
        return 0
    _, runner = EXPERIMENTS[args.command]
    runner(args.scale).print_table()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
