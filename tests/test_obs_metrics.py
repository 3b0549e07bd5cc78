"""Tests for the metrics registry (``repro.obs.metrics``).

Covers the instrument types (counter / gauge / histogram bucket edges),
family idempotence and kind-mismatch errors, thread-safety of labeled
counters under concurrent increments, weakref collector lifecycle
(pruning after gc), cross-owner sample merging, and the Prometheus text
exposition format.
"""

import gc
import re
import threading
from pathlib import Path

import pytest

from repro.obs import bootstrap_default_metrics
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    KIND_COUNTER,
    KIND_GAUGE,
    MetricError,
    MetricsRegistry,
    Sample,
)


class TestInstruments:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(10)
        gauge.dec(4)
        gauge.inc()
        assert gauge.value == 7.0

    def test_histogram_bucket_edges(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(0.1, 1.0))
        # Prometheus ``le`` semantics: boundaries are inclusive upper
        # bounds.  A value exactly on a boundary belongs to that bucket.
        histogram.observe(0.1)
        histogram.observe(1.0)
        histogram.observe(0.5)
        histogram.observe(5.0)  # above every boundary -> +Inf only
        histogram.observe(-1.0)  # below the first boundary -> first bucket
        boundaries, counts, total, count = histogram.labels().snapshot()
        assert boundaries == (0.1, 1.0)
        assert counts == (2, 2, 1)  # le=0.1: {0.1, -1}; le=1.0: {1.0, 0.5}
        assert count == 5
        assert total == pytest.approx(0.1 + 1.0 + 0.5 + 5.0 - 1.0)
        rendered = registry.render()
        assert 'h_seconds_bucket{le="0.1"} 2' in rendered
        assert 'h_seconds_bucket{le="1"} 4' in rendered  # cumulative
        assert 'h_seconds_bucket{le="+Inf"} 5' in rendered
        assert "h_seconds_count 5" in rendered

    def test_histogram_rejects_bad_boundaries(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("h1", buckets=())
        with pytest.raises(MetricError):
            registry.histogram("h2", buckets=(1.0, 0.5))
        with pytest.raises(MetricError):
            registry.histogram("h3", buckets=(1.0, 1.0))

    def test_default_latency_buckets_are_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestFamilies:
    def test_idempotent_reregistration(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help text")
        again = registry.counter("x_total")
        assert again is first

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(MetricError):
            registry.gauge("x_total")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("route",))
        with pytest.raises(MetricError):
            registry.counter("x_total", labels=("other",))
        with pytest.raises(MetricError):
            registry.counter("x_total").labels("a", "b")

    def test_labeled_children_are_distinct_series(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", labels=("route",))
        family.labels("/a").inc(3)
        family.labels("/b").inc()
        snapshot = registry.snapshot()
        assert snapshot["req_total"] == {"route=/a": 3.0, "route=/b": 1.0}

    def test_thread_safety_threads_by_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("work_total", labels=("worker",))
        threads, increments, labels = 8, 2000, ("a", "b", "c")
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for i in range(increments):
                family.labels(labels[i % len(labels)]).inc()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        snapshot = registry.snapshot()["work_total"]
        total = threads * increments
        assert sum(snapshot.values()) == total
        # 2000 % 3 != 0, so the per-label split is uneven but exact.
        per_label = [
            sum(1 for i in range(increments) if labels[i % 3] == label)
            * threads
            for label in labels
        ]
        assert [
            snapshot[f"worker={label}"] for label in labels
        ] == per_label


class _Owner:
    """A collector owner with one plain-int counter (the layer idiom)."""

    def __init__(self) -> None:
        self.events = 0


def _collect(owner: _Owner):
    yield Sample("events_total", KIND_COUNTER, "", (), owner.events)


class TestCollectors:
    def test_collector_samples_appear(self):
        registry = MetricsRegistry()
        owner = _Owner()
        owner.events = 7
        registry.register(owner, _collect)
        assert registry.snapshot()["events_total"] == 7

    def test_collector_pruned_after_gc(self):
        registry = MetricsRegistry()
        owner = _Owner()
        registry.register(owner, _collect)
        assert "events_total" in registry.snapshot()
        del owner
        gc.collect()
        assert "events_total" not in registry.snapshot()
        assert not registry._collectors

    def test_samples_merge_across_owners(self):
        registry = MetricsRegistry()
        owners = [_Owner(), _Owner(), _Owner()]
        for index, owner in enumerate(owners):
            owner.events = index + 1
            registry.register(owner, _collect)
        assert registry.snapshot()["events_total"] == 6

    def test_broken_collector_does_not_kill_scrape(self):
        registry = MetricsRegistry()
        owner = _Owner()

        def broken(_owner):
            raise RuntimeError("boom")

        registry.register(owner, broken)
        registry.counter("ok_total").inc()
        assert registry.snapshot()["ok_total"] == 1

    def test_family_zero_merges_with_collector(self):
        # The bootstrap pattern: a pre-registered zero-valued family and
        # a live collector for the same series sum into one sample.
        registry = MetricsRegistry()
        registry.counter("events_total", "help")
        owner = _Owner()
        owner.events = 5
        registry.register(owner, _collect)
        assert registry.snapshot()["events_total"] == 5
        rendered = registry.render()
        assert rendered.count("# TYPE events_total counter") == 1
        assert "events_total 5" in rendered


class TestRender:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "things done").inc(2)
        registry.gauge("b", labels=("site",)).labels('with"quote').set(1.5)
        text = registry.render()
        assert text.endswith("\n")
        assert "# HELP a_total things done" in text
        assert "# TYPE a_total counter" in text
        assert "a_total 2" in text  # integral values render without .0
        assert 'b{site="with\\"quote"} 1.5' in text

    def test_bootstrap_families_cover_all_layers(self):
        registry = MetricsRegistry()
        bootstrap_default_metrics(registry)
        text = registry.render()
        for family in (
            "repro_engine_",
            "repro_admission_",
            "repro_index_",
            "repro_wal_",
            "repro_serve_",
        ):
            assert family in text

    def test_design_metric_table_lists_registered_families(self):
        """DESIGN.md's metric-family table names exactly the families
        ``bootstrap_default_metrics`` registers, and every family name
        the source emits is one of them."""
        root = Path(__file__).resolve().parents[1]
        design = (root / "DESIGN.md").read_text(encoding="utf-8")
        section = design.split("## Observability", 1)[1].split("\n## ", 1)[0]
        table = section.split("| Layer | Families | Source |", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()[2:]
        documented = {
            name
            for row in rows
            for name in re.findall(r"repro_\w+", row.split("|")[2])
        }
        registry = MetricsRegistry()
        bootstrap_default_metrics(registry)
        registered = set(re.findall(r"^# TYPE (\S+) ", registry.render(), re.M))
        assert documented == registered
        emitted = {
            name
            for path in (root / "src" / "repro").rglob("*.py")
            for name in re.findall(
                r'"(repro_\w+)"', path.read_text(encoding="utf-8")
            )
        }
        assert emitted <= registered, sorted(emitted - registered)
