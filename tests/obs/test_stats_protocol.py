"""The common stats surface: ``to_dict()`` everywhere, zero-free deltas."""

from repro.cache.stats import CacheStats
from repro.common.serialization import EncodingStats
from repro.faults.injector import FaultStats
from repro.integrity.stats import IntegrityStats
from repro.net.simnet import TrafficMeter
from repro.obs.metrics import SupportsToDict, format_series
from repro.query.service import QueryServiceStats, QueryStatistics
from repro.resilience.stats import ResilienceStats
from repro.runtime.scheduler import SchedulerStats


class TestToDictProtocol:
    def test_every_stats_object_speaks_to_dict(self):
        for stats in (
            TrafficMeter(),
            ResilienceStats(),
            IntegrityStats(),
            CacheStats(),
            SchedulerStats(),
            FaultStats(),
            EncodingStats(),
            QueryServiceStats(),
            QueryStatistics(started_at=0.0),
        ):
            assert isinstance(stats, SupportsToDict)
            document = stats.to_dict()
            assert isinstance(document, dict) and document

    def test_snapshot_to_dict_matches_delta_shape(self):
        meter = TrafficMeter()
        meter.record("a", "b", 100, "query.data")
        snapshot = meter.snapshot()
        assert snapshot.to_dict()["total_bytes"] == 100
        assert meter.to_dict() == snapshot.to_dict()


class TestDeltaDropsZeroes:
    def test_unchanged_kinds_disappear_from_delta(self):
        meter = TrafficMeter()
        meter.record("a", "b", 100, "query.data")
        meter.record("a", "b", 50, "query.eos")
        before = meter.snapshot()
        meter.record("a", "c", 70, "query.data")
        delta = before.delta(meter.snapshot())
        # query.eos did not move in the window: it must not appear at all.
        assert delta.bytes_by_kind == {"query.data": 70}
        assert delta.messages_by_kind == {"query.data": 1}
        assert delta.bytes_sent == {"a": 70}
        assert delta.bytes_received == {"c": 70}

    def test_empty_window_has_empty_dicts(self):
        meter = TrafficMeter()
        meter.record("a", "b", 100, "query.data")
        snapshot = meter.snapshot()
        delta = snapshot.delta(meter.snapshot())
        assert delta.total_bytes == 0
        assert delta.bytes_by_kind == {}
        assert delta.bytes_sent == {}


class TestMetricSeries:
    def test_traffic_meter_uses_uniform_naming(self):
        meter = TrafficMeter()
        meter.record("a", "b", 100, "query.data")
        names = {
            format_series(name, tags) for name, tags, _ in meter.metric_series()
        }
        assert "rpc.bytes" in names
        assert "rpc.bytes{kind=query.data}" in names
        assert "rpc.bytes{direction=sent,node=a}" in names

    def test_scheduler_stats_tag_initiators(self):
        stats = SchedulerStats()
        stats.submitted = 3
        stats.admitted_by_initiator["node-0"] = 2
        names = {
            format_series(name, tags) for name, tags, _ in stats.metric_series()
        }
        assert "scheduler.submitted" in names
        assert "scheduler.admitted{initiator=node-0}" in names

    def test_cache_stats_tag_tiers(self):
        stats = CacheStats()
        stats.hits += 1
        names = {
            format_series(name, tags) for name, tags, _ in stats.metric_series(tier="node")
        }
        assert "cache.hits{tier=node}" in names
