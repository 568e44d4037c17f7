"""The counter surface with every opt-in layer on at once.

One seeded 8-node TPC-H run with the cache, resilience (heartbeats
running), integrity (at-rest corruptions, read-path repair, then a scrub),
tracing and a fault injector all switched on.  Its queries cover a
corruption detected and repaired by failover, a result-cache hit and a
mid-query node failure under each recovery mode.

What the counters feed must equal the values recorded in
``counter_surface.json``: the metrics registry snapshot, every query's
``statistics.to_dict()`` and rendered profile, and the ``to_dict()`` of each
layer's stats object (``snapshot()`` for the process-wide encoding stats,
zeroed for the run).  A change to how counters are kept, merged, exported
or attributed to a query that moves any number fails here.

Regenerate the recording only when a counter changes on purpose::

    PYTHONPATH=src python tests/obs/test_counter_surface.py > tests/obs/counter_surface.json
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cache import CacheConfig
from repro.cluster import Cluster
from repro.common.serialization import ENCODING_STATS
from repro.faults.injector import FaultInjector
from repro.integrity import IntegrityConfig
from repro.query.service import RECOVERY_INCREMENTAL, RECOVERY_RESTART, QueryOptions
from repro.resilience import ResilienceConfig
from repro.workloads import tpch

RECORDED = pathlib.Path(__file__).with_name("counter_surface.json")

#: Simulated seconds after a query's submission at which a participant dies:
#: late enough that the query is running, early enough that it is not done.
FAILURE_OFFSET = 0.001


def run_scenario() -> dict:
    """Run the all-layers scenario from zeroed encoding counters."""
    # The encoding counters are process-wide and the registry reports their
    # totals, so the run starts them from zero and adds the earlier counts
    # back afterwards for tests that observe deltas.
    earlier = ENCODING_STATS.snapshot()
    ENCODING_STATS.reset()
    try:
        return _scenario()
    finally:
        for name, value in earlier.items():
            if isinstance(value, dict):
                totals = getattr(ENCODING_STATS, name)
                for key, count in value.items():
                    totals[key] = totals.get(key, 0) + count
            else:
                setattr(ENCODING_STATS, name, getattr(ENCODING_STATS, name) + value)


def _scenario() -> dict:
    """Every counter-fed document of one all-layers run."""
    cluster = Cluster(
        8,
        cache_config=CacheConfig(),
        resilience_config=ResilienceConfig(),
        integrity_config=IntegrityConfig(),
    )
    injector = FaultInjector(cluster.network, seed=1)
    cluster.enable_tracing()
    cluster.publish_relations(tpch.generate(0.5, seed=0).relation_list())
    cluster.run()
    cluster.start_resilience_heartbeats(0.5)
    for _ in range(6):
        injector.corrupt_at_rest(targets=("tuples",))

    results = {
        "detect": cluster.query(tpch.query("Q1")),
        "cached": cluster.query(tpch.query("Q1")),
    }
    for name, mode, victim in (
        ("incremental", RECOVERY_INCREMENTAL, cluster.addresses[5]),
        ("restart", RECOVERY_RESTART, cluster.addresses[6]),
    ):
        cluster.fail_node(victim, at_time=cluster.now + FAILURE_OFFSET)
        results[name] = cluster.query(
            tpch.query("Q3"),
            options=QueryOptions(recovery_mode=mode, use_result_cache=False),
        )
    cluster.run_scrub()

    queries = {}
    for name, result in results.items():
        profile = result.statistics.profile()
        queries[name] = {
            "statistics": result.statistics.to_dict(),
            "profile": profile.format() if profile is not None else None,
        }
    caches = cluster.cache_statistics()
    document = {
        "metrics": cluster.observability()["metrics"],
        "queries": queries,
        "stats": {
            "resilience": cluster.resilience_statistics().to_dict(),
            "integrity": cluster.integrity_statistics().to_dict(),
            "cache.node": caches["node"].to_dict(),
            "cache.result": caches["result"].to_dict(),
            "scheduler": cluster.runtime.scheduler.stats.to_dict(),
            "faults": injector.stats.to_dict(),
            "encoding": ENCODING_STATS.snapshot(),
        },
    }
    # The JSON round trip is what the recording went through (float and
    # bucket keys become strings), so both sides compare in the same form.
    return json.loads(json.dumps(document, sort_keys=True))


@pytest.fixture(scope="module")
def observed() -> dict:
    return run_scenario()


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED.read_text())


class TestScenarioCoverage:
    """The run reaches every path the recording is meant to pin."""

    def test_read_path_detection_is_repaired_by_failover(self, observed):
        integrity = observed["queries"]["detect"]["statistics"]["integrity"]
        assert integrity["detected"].get("tuple", 0) >= 1
        assert integrity["repaired"].get("failover", 0) >= 1

    def test_second_run_is_a_result_cache_hit_that_attributes_nothing(self, observed):
        statistics = observed["queries"]["cached"]["statistics"]
        assert statistics["result_cache_hit"]
        assert statistics["encoding"] == {}
        assert statistics["resilience"] == {}
        assert statistics["integrity"] == {}

    @pytest.mark.parametrize("name", ["incremental", "restart"])
    def test_each_recovery_mode_handles_a_failure(self, observed, name):
        assert observed["queries"][name]["statistics"]["failures_handled"] >= 1
        assert observed["queries"][name]["profile"]

    def test_heartbeats_and_scrub_ran_but_stay_out_of_queries(self, observed):
        stats = observed["stats"]
        assert stats["resilience"]["heartbeats_sent"] > 0
        assert stats["integrity"]["scrub_rounds"] == 1
        for query in observed["queries"].values():
            resilience = query["statistics"]["resilience"]
            integrity = query["statistics"]["integrity"]
            assert not {"heartbeats_sent", "heartbeats_received"} & set(resilience)
            assert not {"unrepairable", "scrub_rounds", "scrub_digests",
                        "scrub_bytes"} & set(integrity)


class TestRecordedSurface:
    def test_registry_snapshot(self, observed, recorded):
        assert observed["metrics"] == recorded["metrics"]

    @pytest.mark.parametrize("name", ["detect", "cached", "incremental", "restart"])
    def test_query_statistics_and_profile(self, observed, recorded, name):
        assert observed["queries"][name] == recorded["queries"][name]

    @pytest.mark.parametrize("layer", [
        "resilience", "integrity", "cache.node", "cache.result", "scheduler",
        "faults", "encoding",
    ])
    def test_layer_stats_document(self, observed, recorded, layer):
        assert observed["stats"][layer] == recorded["stats"][layer]


if __name__ == "__main__":
    print(json.dumps(run_scenario(), sort_keys=True, indent=1))
