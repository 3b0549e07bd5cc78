"""Tests for the bench harness, tiny-scale figure drivers, and the CLI."""

import pytest

from repro.bench import (
    ENGINE_DB2,
    ENGINE_TUKWILA,
    ablation_encoding,
    ablation_planner,
    fig4_deletion_alternatives,
    fig5_time_to_join,
    fig6_instance_size,
    fig7_insertions_string,
    fig8_insertions_integer,
    fig9_deletions,
    fig10_cycles,
    monotone_nondecreasing,
)
from repro.bench.harness import ExperimentResult
from repro.cli import EXPERIMENTS, build_parser, main


class TestHarness:
    def test_add_series_value(self):
        result = ExperimentResult("x", "desc")
        result.add({"n": 1, "kind": "a"}, seconds=0.5)
        result.add({"n": 2, "kind": "a"}, seconds=1.0)
        result.add({"n": 1, "kind": "b"}, seconds=9.0)
        assert result.series("n", "seconds", kind="a") == [(1, 0.5), (2, 1.0)]
        assert result.value("seconds", n=1, kind="b") == 9.0

    def test_value_requires_unique_match(self):
        result = ExperimentResult("x", "desc")
        result.add({"n": 1}, seconds=0.5)
        result.add({"n": 1}, seconds=0.7)
        with pytest.raises(KeyError):
            result.value("seconds", n=1)

    def test_table_rendering(self):
        result = ExperimentResult("x", "desc")
        result.add({"n": 1}, seconds=0.5)
        table = result.to_table()
        assert "x" in table and "seconds" in table and "0.5000" in table

    def test_empty_table(self):
        assert "no measurements" in ExperimentResult("x", "d").to_table()

    def test_monotone_nondecreasing(self):
        assert monotone_nondecreasing([1, 2, 3])
        assert monotone_nondecreasing([1, 0.95, 3], slack=0.1)
        assert not monotone_nondecreasing([1, 0.5, 3], slack=0.1)


class TestTinyDrivers:
    """Every figure driver runs end-to-end at a tiny scale.

    These are correctness tests for the drivers (params plumbed through,
    every expected measurement present); the benchmarks assert the
    performance *shapes* at a larger scale.
    """

    def test_fig4(self):
        result = fig4_deletion_alternatives(
            base_per_peer=12, ratios=(0.25, 0.75), peers=3
        )
        assert len(result.measurements) == 2 * 2  # recompute, unified
        for m in result.measurements:
            assert m.metrics["seconds"] >= 0

    def test_fig5(self):
        result = fig5_time_to_join(
            peer_counts=(2, 3), base_per_peer=8, datasets=("integer",),
            engines=(ENGINE_TUKWILA,),
        )
        assert len(result.measurements) == 2

    def test_fig6(self):
        result = fig6_instance_size(peer_counts=(2, 3), base_per_peer=8)
        assert len(result.measurements) == 4
        assert result.value("bytes", peers=2, dataset="string") > result.value(
            "bytes", peers=2, dataset="integer"
        )

    def test_fig7(self):
        result = fig7_insertions_string(
            peer_counts=(2,), base_per_peer=10, fractions=(0.1,),
            engines=(ENGINE_DB2,),
        )
        assert len(result.measurements) == 1

    def test_fig8(self):
        result = fig8_insertions_integer(
            peer_counts=(2,), base_per_peer=10, fractions=(0.1,),
            engines=(ENGINE_TUKWILA,),
        )
        assert len(result.measurements) == 1

    def test_fig9(self):
        result = fig9_deletions(
            peer_counts=(2,), base_per_peer=10, fractions=(0.1,),
            datasets=("integer",),
        )
        assert len(result.measurements) == 1

    def test_fig10(self):
        result = fig10_cycles(
            cycle_counts=(0, 2), base_per_peer=6, insert_per_peer=2,
            engines=(ENGINE_TUKWILA,),
        )
        tuples = [v for _, v in result.series("cycles", "tuples", engine=ENGINE_TUKWILA)]
        assert tuples[1] >= tuples[0]

    def test_ablation_encoding(self):
        result = ablation_encoding(peers=3, base_per_peer=8)
        assert len(result.measurements) == 2

    def test_ablation_planner(self):
        result = ablation_planner(peers=3, base_per_peer=12, small_update=1)
        assert len(result.measurements) == 4


class TestCLI:
    def test_parser_knows_all_experiments(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name, "--scale", "0.5"])
            assert args.command == name
            assert args.scale == 0.5

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "fig10" in out

    def test_quickstart_command(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "Pv(B(3,2))" in out

    def test_single_experiment_command(self, capsys):
        assert main(["fig6", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "bytes" in out
