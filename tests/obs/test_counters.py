"""The counters protocol: what ``repro.obs.counters`` derives from declarations."""

from dataclasses import dataclass

import pytest

from repro.cache.stats import CacheStats
from repro.common.serialization import EncodingStats
from repro.integrity.stats import IntegrityStats
from repro.obs.counters import Counters, counter, fold_delta
from repro.obs.metrics import format_series
from repro.resilience.stats import ResilienceStats
from repro.runtime.scheduler import SchedulerStats


@dataclass
class _Probe(Counters):
    sent: int = counter("probe.sent")
    kept: int = counter()
    by_peer: dict = counter("probe.by_peer", tag="peer", default_factory=dict)
    background: int = counter("probe.background", per_query=False)


class TestMerge:
    def test_disjoint_dict_keys_are_unioned(self):
        left = IntegrityStats(detected={"tuple": 2}, quarantined=1)
        right = IntegrityStats(detected={"page": 3}, quarantined=4)
        assert left.merge(right) is left
        assert left.detected == {"tuple": 2, "page": 3}
        assert left.quarantined == 5
        assert right.detected == {"page": 3}

    def test_shared_keys_add_and_scalars_add(self):
        left = _Probe(sent=1, kept=2, by_peer={"a": 1})
        left.merge(_Probe(sent=10, kept=20, by_peer={"a": 5, "b": 1}, background=3))
        assert left.snapshot() == {
            "sent": 11, "kept": 22, "by_peer": {"a": 6, "b": 1}, "background": 3,
        }


class TestFoldDelta:
    def test_zeros_are_dropped(self):
        into = {}
        before = {"sent": 4, "kept": 1, "by_peer": {"a": 2, "b": 7}}
        after = {"sent": 4, "kept": 3, "by_peer": {"a": 2, "b": 7}}
        fold_delta(into, before, after)
        assert into == {"kept": 2}

    def test_keys_new_in_after_count_from_zero(self):
        into = {}
        fold_delta(into, {"by_peer": {"a": 2}}, {"by_peer": {"a": 3, "c": 5}})
        assert into == {"by_peer": {"a": 1, "c": 5}}

    def test_successive_folds_accumulate(self):
        into = {}
        fold_delta(into, {"sent": 0, "by_peer": {}}, {"sent": 2, "by_peer": {"a": 1}})
        fold_delta(into, {"sent": 2, "by_peer": {"a": 1}}, {"sent": 5, "by_peer": {"a": 4}})
        assert into == {"sent": 5, "by_peer": {"a": 4}}


class TestSnapshots:
    def test_snapshot_copies_dict_counters(self):
        probe = _Probe(by_peer={"a": 1})
        snapshot = probe.snapshot()
        probe.by_peer["a"] += 1
        assert snapshot["by_peer"] == {"a": 1}

    def test_per_query_false_fields_are_left_out_of_the_query_snapshot(self):
        probe = _Probe(sent=1, background=9)
        assert probe.query_snapshot() == {"sent": 1, "kept": 0, "by_peer": {}}
        assert set(ResilienceStats().query_snapshot()) == {
            "calls", "retries", "timeouts", "breaker_skips", "hedges",
        }
        assert set(IntegrityStats().query_snapshot()) == {
            "detected", "repaired", "quarantined",
        }

    def test_brownout_active_stays_a_bool(self):
        stats = SchedulerStats(brownout_active=True)
        assert stats.snapshot()["brownout_active"] is True
        assert stats.to_dict()["brownout_active"] is True
        samples = {format_series(n, t): v for n, t, v in stats.metric_series()}
        assert samples["scheduler.brownout_active"] == 1
        assert type(samples["scheduler.brownout_active"]) is int

    def test_derived_fields_ride_on_to_dict_only(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.to_dict() == {**stats.snapshot(), "hit_rate": 0.75}
        integrity = IntegrityStats(detected={"tuple": 2}, repaired={"scrub": 1})
        assert integrity.to_dict()["detected_total"] == 2
        assert integrity.to_dict()["repaired_total"] == 1
        assert "detected_total" not in integrity.snapshot()


class TestMetricSeries:
    def test_tier_and_kind_tags_combine(self):
        stats = CacheStats()
        stats.record_hit("page", 100)
        stats.record_miss("coord")
        samples = {
            format_series(n, t): v for n, t, v in stats.metric_series(tier="node")
        }
        assert samples["cache.hits{tier=node}"] == 1
        assert samples["cache.hits{kind=page,tier=node}"] == 1
        assert samples["cache.misses{kind=coord,tier=node}"] == 1
        assert samples["cache.bytes_saved{tier=node}"] == 100

    def test_fixed_tags_and_unexported_fields(self):
        probe = _Probe(sent=2, kept=5, by_peer={"b": 1, "a": 4})
        assert probe.metric_series() == [
            ("probe.sent", {}, 2),
            ("probe.by_peer", {"peer": "a"}, 4),
            ("probe.by_peer", {"peer": "b"}, 1),
            ("probe.background", {}, 0),
        ]
        names = {format_series(n, t) for n, t, _ in SchedulerStats().metric_series()}
        assert {"scheduler.shed{reason=deadline}", "scheduler.shed{reason=brownout}"} <= names


class TestEncodingStats:
    def test_has_no_instance_dict(self):
        with pytest.raises(AttributeError):
            EncodingStats().__dict__

    def test_reset_zeroes_every_counter(self):
        stats = EncodingStats()
        stats.batches_encoded = 3
        stats.encoded_bytes["raw"] = 40
        stats.reset()
        assert stats.snapshot() == EncodingStats().snapshot()
        assert stats.to_dict() == stats.snapshot()
