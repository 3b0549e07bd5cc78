"""Tests for exchange tracing (``repro.obs.tracing``).

Covers the enable/disable contract (no spans recorded while off), the
parent/child interval-nesting property over a *real* publish through the
exchange system, the JSONL sink, and in-memory retention.
"""

import json

import pytest

from repro import CDSS
from repro.obs import tracing


@pytest.fixture(autouse=True)
def tracing_isolation():
    """Every test starts and ends with tracing off and no retained traces."""
    tracing.disable()
    tracing.clear()
    yield
    tracing.disable()
    tracing.clear()


def paper_cdss() -> CDSS:
    cdss = CDSS("traced")
    cdss.add_peer("PGUS", {"G": ("id", "can", "nam")})
    cdss.add_peer("PBioSQL", {"B": ("id", "nam")})
    cdss.add_peer("PuBio", {"U": ("nam", "can")})
    cdss.add_mapping("m1", "G(i, c, n) -> B(i, n)")
    cdss.add_mapping("m2", "G(i, c, n) -> U(n, c)")
    cdss.add_mapping("m4", "B(i, c), U(n, c) -> B(i, n)")
    with cdss.batch() as tx:
        tx.insert("G", (1, 2, 3))
        tx.insert("G", (3, 5, 2))
        tx.insert("B", (3, 5))
        tx.insert("U", (2, 5))
    return cdss


class TestEnableDisable:
    def test_disabled_publish_records_nothing(self):
        cdss = paper_cdss()
        cdss.update_exchange()
        assert tracing.recent_traces() == []

    def test_enable_flag_round_trip(self):
        assert not tracing.enabled()
        tracing.enable()
        assert tracing.enabled() and tracing.ENABLED
        tracing.disable()
        assert not tracing.enabled()

    def test_span_contextmanager_is_noop_when_disabled(self):
        with tracing.span("anything") as span:
            assert span is None
        assert tracing.recent_traces() == []


class TestPublishTrace:
    def _publish_trace(self) -> list:
        cdss = paper_cdss()
        tracing.enable()
        report = cdss.update_exchange()
        assert report.inserted > 0
        traces = tracing.recent_traces()
        assert traces, "a publish must complete at least one trace"
        return traces[-1]

    def test_parent_child_interval_nesting(self):
        trace = self._publish_trace()
        by_id = {span["span_id"]: span for span in trace}
        roots = [span for span in trace if span["parent_id"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "exchange"
        trace_ids = {span["trace_id"] for span in trace}
        assert len(trace_ids) == 1
        for span in trace:
            assert span["end_wall"] >= span["start_wall"]
            parent_id = span["parent_id"]
            if parent_id is None:
                continue
            parent = by_id[parent_id]
            # The property under test: every child interval nests
            # strictly inside its parent's interval.
            assert parent["start_wall"] <= span["start_wall"]
            assert span["end_wall"] <= parent["end_wall"]

    def test_span_taxonomy_and_rows(self):
        trace = self._publish_trace()
        names = {span["name"] for span in trace}
        assert {"exchange", "stratum", "round", "rule-evaluation"} <= names
        root = next(s for s in trace if s["parent_id"] is None)
        assert root["rows"] > 0
        assert root["attrs"]["strategy"]
        rounds = [s for s in trace if s["name"] == "round"]
        assert all("number" in s["attrs"] for s in rounds)

    def test_deletion_publish_nests_retraction_phases(self):
        cdss = paper_cdss()
        cdss.update_exchange()
        with cdss.batch() as tx:
            tx.delete("G", (3, 5, 2))
        tracing.enable()
        report = cdss.update_exchange()
        rounds = report.details["deletion"].iterations
        assert rounds > 1
        trace = tracing.recent_traces()[-1]
        (retraction,) = [s for s in trace if s["name"] == "retraction"]
        phases = [s for s in trace if s["name"].startswith("retraction.")]
        assert all(s["parent_id"] == retraction["span_id"] for s in phases)
        # One span per phase per round, never one per row.
        names = [s["name"] for s in phases]
        for phase in ("semijoin", "recount", "derivability", "apply"):
            assert names.count(f"retraction.{phase}") == rounds

    def test_exception_inside_span_still_completes_trace(self):
        tracing.enable()
        with pytest.raises(RuntimeError):
            with tracing.span("root"):
                with tracing.span("child"):
                    raise RuntimeError("boom")
        traces = tracing.recent_traces()
        assert len(traces) == 1
        assert [s["name"] for s in traces[0]] == ["child", "root"]


class TestSinkAndRetention:
    def test_jsonl_sink(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        cdss = paper_cdss()
        tracing.enable(str(sink))
        cdss.update_exchange()
        tracing.disable()  # closes (and flushes) the sink
        lines = sink.read_text().splitlines()
        assert lines
        spans = [json.loads(line) for line in lines]
        names = {span["name"] for span in spans}
        assert "exchange" in names
        for span in spans:
            assert span["wall_seconds"] >= 0
            assert "span_id" in span and "trace_id" in span

    def test_retention_maxlen(self):
        tracing.enable(retain=2)
        for index in range(5):
            with tracing.span("root", index=index):
                pass
        traces = tracing.recent_traces()
        assert len(traces) == 2
        # Oldest first: the retained traces are the last two completed.
        assert [t[0]["attrs"]["index"] for t in traces] == [3, 4]
