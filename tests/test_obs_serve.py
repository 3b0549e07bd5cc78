"""End-to-end observability tests on the serving tier.

Scrapes ``GET /metrics`` from a live server around (and concurrently
with) a publish, asserting the Prometheus exposition parses, all
instrumented layer families are present, and counters are monotonic.
Also covers the ``/stats`` schema.
"""

import importlib
import threading

import pytest

from test_serve import ServerThread, ServeClient, paper_cdss


def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus text -> {series-with-labels: value}."""
    series: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        assert key and value, f"malformed exposition line: {line!r}"
        series[key] = float(value)
    return series


class TestMetricsEndpoint:
    def test_scrape_covers_every_layer(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            text = client.metrics()
            assert text.endswith("\n")
            series = parse_exposition(text)
            for family in (
                "repro_engine_rounds_total",
                "repro_exchange_publishes_total",
                "repro_admission_admitted_total",
                "repro_index_rebuilds_total",
                "repro_wal_appends_total",
                "repro_serve_requests_total",
            ):
                assert family in series, f"{family} missing from /metrics"
            # TYPE comments are part of the exposition contract.
            assert "# TYPE repro_serve_request_seconds histogram" in text

    def test_counters_move_and_stay_monotonic_across_publish(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            before = parse_exposition(client.metrics())
            client.query("ans(i, n) :- B(i, n)")
            client.insert("G", (7, 8, 9))
            client.publish()
            after = parse_exposition(client.metrics())
            for key, value in before.items():
                if "_total" in key or "_count" in key or "_bucket" in key:
                    assert after.get(key, 0.0) >= value, key
            for name in (
                "repro_serve_requests_total",
                "repro_serve_publishes_total",
                "repro_exchange_publishes_total",
                "repro_engine_rounds_total",
                "repro_snapshot_refreshes_total",
                "repro_admission_admitted_total",
            ):
                assert after[name] > before.get(name, 0.0), name
            # The /query route appears in the request-latency histogram.
            assert (
                after['repro_serve_request_seconds_count{route="/query"}'] > 0
            )
            assert (
                after['repro_serve_request_seconds_count{route="/metrics"}']
                > 0
            )

    def test_scrape_mid_publish_is_monotonic(self):
        """Scrapes racing a publish parse cleanly and never go backwards."""
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            errors: list[Exception] = []
            scrapes: list[dict[str, float]] = []
            stop = threading.Event()

            def scraper():
                try:
                    with ServeClient(port=node.port) as own:
                        while not stop.is_set():
                            scrapes.append(parse_exposition(own.metrics()))
                except Exception as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            thread = threading.Thread(target=scraper)
            thread.start()
            try:
                for row in range(5):
                    client.insert("G", (100 + row, 200 + row, 300 + row))
                    client.publish()
            finally:
                stop.set()
                thread.join(timeout=30)
            assert not errors
            assert len(scrapes) >= 2
            monotone = [
                "repro_serve_publishes_total",
                "repro_exchange_publishes_total",
                "repro_engine_rounds_total",
                "repro_snapshot_refreshes_total",
            ]
            for earlier, later in zip(scrapes, scrapes[1:]):
                for name in monotone:
                    assert later[name] >= earlier[name], name

    def test_statement_latency_series(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            prepared = client.prepare("ans(i, n) :- B(i, n)")
            client.execute(prepared["statement"])
            series = parse_exposition(client.metrics())
            key = (
                "repro_serve_statement_seconds_count"
                f'{{statement="{prepared["statement"]}"}}'
            )
            assert series[key] >= 1


class TestStatsSchema:
    def test_stats_carries_normalized_blocks(self):
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            stats = client.stats()
            assert stats["server"]["requests"] >= 1
            assert stats["server"]["uptime_seconds"] >= 0
            assert "rounds" in stats["engine"]
            assert "eval_cpu_seconds" in stats["engine"]
            assert stats["indexes"]["relations"] > 0
            assert "parallel" not in stats
            assert stats["admission"]["timeout_seconds"] > 0

    def test_normalize_rewrites_legacy_spellings(self):
        # The legacy spellings are no longer emitted, so there is nothing
        # left to normalize: the module is gone and /stats has one schema.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.obs.schema")
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            stats = client.stats()
        for legacy in ("requests", "errors", "publishes", "pending_edits"):
            assert legacy not in stats
            assert legacy in stats["server"]
        assert "timeout" not in stats["admission"]

    def test_snapshot_upkeep_is_delta_after_boot(self):
        """Publishes patch the standing replicas from the change log: the
        two boot pins are the only full copies, in /stats and /metrics."""
        cdss = paper_cdss()
        with ServerThread(cdss) as node, ServeClient(port=node.port) as client:
            before = client.stats()["snapshot"]
            assert before["full_pins"] == {
                "boot": 2,
                "system": 0,
                "relations": 0,
                "log_gap": 0,
                "row_count": 0,
            }
            assert before["delta_applies"] == before["delta_rows"] == 0
            for row in range(3):
                client.insert("G", (400 + row, 1, 2))
                client.publish()
            after = client.stats()["snapshot"]
            assert after["full_pins"] == before["full_pins"]
            assert after["delta_applies"] == after["refreshes"] == 3
            assert after["delta_rows"] > 0
            assert after["last_refresh_seconds"] > 0
            series = parse_exposition(client.metrics())
            # Collectors sum across every live manager in the process.
            assert series['repro_snapshot_full_pins_total{reason="boot"}'] >= 2
            assert "repro_snapshot_full_pins_total" in client.metrics()
            assert (
                series["repro_snapshot_delta_rows_total"]
                >= after["delta_rows"]
            )

    def test_exchange_report_phases(self):
        cdss = paper_cdss()
        with cdss.batch() as tx:
            tx.insert("G", (50, 60, 70))
        report = cdss.update_exchange()
        assert set(report.phases) == {"evaluate"}
        for clocks in report.phases.values():
            assert clocks["wall_seconds"] >= 0.0
            assert clocks["cpu_seconds"] >= 0.0
        assert report.cpu_seconds >= 0.0
