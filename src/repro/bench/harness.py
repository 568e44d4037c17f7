"""Experiment harness: the parameter sweeps behind every figure of Section VI.

Each ``run_*`` function builds simulated clusters, loads a workload, executes
queries through the distributed engine and returns a list of result rows (one
dict per measured point) with the same quantities the paper plots:

* execution time — simulated seconds (the virtual clock of the network
  simulator), *not* wall-clock time of the benchmark process;
* network traffic — bytes recorded by the traffic meter, reported in MB;
* per-node traffic — total traffic divided by the number of participants.

The sweeps accept size parameters so the benchmark suite can run scaled-down
workloads by default (the full paper-scale sweeps take hours of simulation);
``benchmarks/conftest.py`` fixes the scale each figure benchmark runs at.
Results of a sweep are memoised per-process so that figures sharing a sweep
(e.g. Figures 7, 8 and 9) only pay for it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from ..cache import CacheConfig
from ..cluster import Cluster
from ..net.profiles import EC2_LARGE, LAN_GIGABIT, NetworkProfile, wan_profile
from ..overlay.allocation import BalancedAllocation, PastryAllocation, allocation_imbalance
from ..query.service import (
    RECOVERY_INCREMENTAL,
    RECOVERY_RESTART,
    QueryOptions,
)
from ..workloads import stbenchmark, tpch

MB = 1_000_000.0


@dataclass
class MeasuredQuery:
    """One measured query execution."""

    label: str
    nodes: int
    execution_seconds: float
    total_bytes: int
    rows: int

    @property
    def total_mb(self) -> float:
        return self.total_bytes / MB

    @property
    def per_node_mb(self) -> float:
        return self.total_bytes / MB / max(1, self.nodes)


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None) -> str:
    """Plain-text table used by the benchmark output and the examples."""
    if not rows:
        return "(no results)"
    columns = list(columns or rows[0].keys())
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    separator = "  ".join("-" * widths[c] for c in columns)
    lines = [header, separator]
    for row in rows:
        lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _measure(cluster: Cluster, query, label: str, options: QueryOptions | None = None) -> MeasuredQuery:
    result = cluster.query(query, options=options)
    return MeasuredQuery(
        label=label,
        nodes=result.statistics.participating_nodes,
        execution_seconds=result.statistics.execution_time,
        total_bytes=result.statistics.bytes_total,
        rows=len(result.rows),
    )


# ---------------------------------------------------------------------------
# STBenchmark sweeps (Figures 7, 8, 9, 13, 15)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _stb_point(scenario: str, num_nodes: int, tuples_per_relation: int, seed: int) -> MeasuredQuery:
    instance = stbenchmark.generate(scenario, tuples_per_relation, seed)
    cluster = Cluster(num_nodes, profile=LAN_GIGABIT)
    cluster.publish_relations(instance.relation_list())
    return _measure(cluster, instance.query, scenario)


def run_stb_node_sweep(
    node_counts: Iterable[int],
    tuples_per_relation: int,
    scenarios: Sequence[str] = stbenchmark.SCENARIOS,
    seed: int = 0,
) -> list[dict]:
    """Figures 7–9: STBenchmark scenarios, varying the number of nodes."""
    rows = []
    for scenario in scenarios:
        for num_nodes in node_counts:
            point = _stb_point(scenario, num_nodes, tuples_per_relation, seed)
            rows.append({
                "scenario": scenario,
                "nodes": num_nodes,
                "tuples_per_relation": tuples_per_relation,
                "execution_seconds": point.execution_seconds,
                "traffic_mb": point.total_mb,
                "per_node_mb": point.per_node_mb,
                "result_rows": point.rows,
            })
    return rows


def run_stb_data_sweep(
    tuple_counts: Iterable[int],
    num_nodes: int,
    scenarios: Sequence[str] = stbenchmark.SCENARIOS,
    seed: int = 0,
) -> list[dict]:
    """Figures 13 and 15: STBenchmark scenarios, varying tuples/relation."""
    rows = []
    for scenario in scenarios:
        for tuples_per_relation in tuple_counts:
            point = _stb_point(scenario, num_nodes, tuples_per_relation, seed)
            rows.append({
                "scenario": scenario,
                "nodes": num_nodes,
                "tuples_per_relation": tuples_per_relation,
                "execution_seconds": point.execution_seconds,
                "traffic_mb": point.total_mb,
                "per_node_mb": point.per_node_mb,
            })
    return rows


# ---------------------------------------------------------------------------
# TPC-H sweeps (Figures 10, 11, 12, 14, 16, 17, 18, 19, 20)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tpch_cluster(num_nodes: int, scale_factor: float, profile_key: str,
                  bandwidth_kbps: float, latency_ms: float, seed: int,
                  scaling: float) -> tuple:
    """Build (and cache) a cluster loaded with a TPC-H instance."""
    if profile_key == "lan":
        profile: NetworkProfile = LAN_GIGABIT
    elif profile_key == "ec2":
        profile = EC2_LARGE
    elif profile_key == "wan":
        profile = wan_profile(bandwidth_kbps, latency_ms)
    elif profile_key == "lan-latency":
        profile = LAN_GIGABIT.with_latency(latency_ms / 1000.0)
    else:
        raise ValueError(f"unknown profile key {profile_key!r}")
    instance = tpch.generate(scale_factor, seed, scaling=scaling)
    cluster = Cluster(num_nodes, profile=profile)
    cluster.publish_relations(instance.relation_list())
    return cluster, instance


@lru_cache(maxsize=None)
def _tpch_point(query_name: str, num_nodes: int, scale_factor: float, profile_key: str,
                bandwidth_kbps: float, latency_ms: float, seed: int,
                scaling: float) -> MeasuredQuery:
    cluster, _instance = _tpch_cluster(
        num_nodes, scale_factor, profile_key, bandwidth_kbps, latency_ms, seed, scaling
    )
    return _measure(cluster, tpch.query(query_name), query_name)


def run_tpch_sweep(
    node_counts: Iterable[int],
    scale_factor: float,
    queries: Sequence[str] = tpch.QUERIES,
    profile_key: str = "lan",
    bandwidth_kbps: float = 0.0,
    latency_ms: float = 0.0,
    seed: int = 0,
    scaling: float = tpch.DEFAULT_SCALING,
) -> list[dict]:
    """TPC-H queries across a node-count sweep (Figures 10–12 and 18–20).

    ``scaling`` is the fraction of the official TPC-H cardinalities generated
    per unit scale factor.  The node-count sweeps run at a larger fraction
    than the default so that the per-query data volume stays much larger than
    the (fixed-size) control traffic, which is the regime the paper's cluster
    and EC2 experiments operate in.
    """
    rows = []
    for query_name in queries:
        for num_nodes in node_counts:
            point = _tpch_point(
                query_name, num_nodes, scale_factor, profile_key, bandwidth_kbps,
                latency_ms, seed, scaling,
            )
            rows.append({
                "query": query_name,
                "nodes": num_nodes,
                "scale_factor": scale_factor,
                "execution_seconds": point.execution_seconds,
                "traffic_mb": point.total_mb,
                "per_node_mb": point.per_node_mb,
                "result_rows": point.rows,
            })
    return rows


def run_tpch_data_sweep(
    scale_factors: Iterable[float],
    num_nodes: int,
    queries: Sequence[str] = tpch.QUERIES,
    seed: int = 0,
    scaling: float = tpch.DEFAULT_SCALING,
) -> list[dict]:
    """Figures 14 and 16: TPC-H queries, varying the database scale factor."""
    rows = []
    for query_name in queries:
        for scale_factor in scale_factors:
            point = _tpch_point(query_name, num_nodes, scale_factor, "lan", 0.0, 0.0, seed,
                                scaling)
            rows.append({
                "query": query_name,
                "nodes": num_nodes,
                "scale_factor": scale_factor,
                "execution_seconds": point.execution_seconds,
                "traffic_mb": point.total_mb,
                "per_node_mb": point.per_node_mb,
            })
    return rows


def run_bandwidth_sweep(
    bandwidths_kb_per_second: Iterable[float],
    num_nodes: int,
    scale_factor: float,
    queries: Sequence[str] = tpch.QUERIES,
    latency_ms: float = 20.0,
    seed: int = 0,
    scaling: float = tpch.DEFAULT_SCALING,
) -> list[dict]:
    """Figure 17: running time versus per-node bandwidth (HTB-shaped WAN)."""
    rows = []
    for query_name in queries:
        for bandwidth in bandwidths_kb_per_second:
            point = _tpch_point(
                query_name, num_nodes, scale_factor, "wan", bandwidth, latency_ms, seed,
                scaling,
            )
            rows.append({
                "query": query_name,
                "bandwidth_kb_per_s": bandwidth,
                "nodes": num_nodes,
                "scale_factor": scale_factor,
                "execution_seconds": point.execution_seconds,
                "traffic_mb": point.total_mb,
            })
    return rows


def run_latency_sweep(
    latencies_ms: Iterable[float],
    num_nodes: int,
    scale_factor: float,
    queries: Sequence[str] = ("Q3", "Q6"),
    seed: int = 0,
    scaling: float = tpch.DEFAULT_SCALING,
) -> list[dict]:
    """Section VI-C: added link latency has little impact on run time."""
    rows = []
    for query_name in queries:
        for latency in latencies_ms:
            point = _tpch_point(
                query_name, num_nodes, scale_factor, "lan-latency", 0.0, latency, seed,
                scaling,
            )
            rows.append({
                "query": query_name,
                "latency_ms": latency,
                "nodes": num_nodes,
                "execution_seconds": point.execution_seconds,
            })
    return rows


# ---------------------------------------------------------------------------
# Failure / recovery experiments (Figure 21 and the Section VI-E overhead)
# ---------------------------------------------------------------------------


def run_failure_recovery_experiment(
    failure_times: Iterable[float],
    num_nodes: int = 8,
    scale_factor: float = 2.0,
    queries: Sequence[str] = ("Q1", "Q10"),
    seed: int = 0,
    detection_delay: float = 0.002,
) -> list[dict]:
    """Figure 21: kill one node at varying offsets; compare restart with
    incremental recovery (plus the no-failure baseline)."""
    rows = []
    for query_name in queries:
        baseline_cluster, instance = _build_fresh_tpch_cluster(num_nodes, scale_factor, seed,
                                                               detection_delay)
        baseline = _measure(baseline_cluster, tpch.query(query_name), query_name)
        rows.append({
            "query": query_name,
            "failure_time": None,
            "mode": "no-failure",
            "execution_seconds": baseline.execution_seconds,
            "result_rows": baseline.rows,
        })
        for failure_time in failure_times:
            for mode in (RECOVERY_RESTART, RECOVERY_INCREMENTAL):
                cluster, _ = _build_fresh_tpch_cluster(num_nodes, scale_factor, seed,
                                                       detection_delay)
                cluster.enable_query_processing()
                victim = cluster.addresses[num_nodes // 2]
                cluster.fail_node(victim, at_time=cluster.now + failure_time)
                measured = _measure(
                    cluster, tpch.query(query_name), query_name,
                    options=QueryOptions(recovery_mode=mode),
                )
                rows.append({
                    "query": query_name,
                    "failure_time": failure_time,
                    "mode": mode,
                    "execution_seconds": measured.execution_seconds,
                    "result_rows": measured.rows,
                })
    return rows


def _build_fresh_tpch_cluster(num_nodes: int, scale_factor: float, seed: int,
                              detection_delay: float) -> tuple[Cluster, tpch.TpchInstance]:
    instance = tpch.generate(scale_factor, seed)
    cluster = Cluster(num_nodes, profile=LAN_GIGABIT)
    cluster.network.failure_detection_delay = detection_delay
    cluster.publish_relations(instance.relation_list())
    return cluster, instance


def run_recovery_overhead_experiment(
    num_nodes: int = 8,
    scale_factor: float = 1.0,
    queries: Sequence[str] = tpch.QUERIES,
    seed: int = 0,
) -> list[dict]:
    """Section VI-E: cost of carrying provenance tags / recovery support."""
    rows = []
    cluster, _instance = _build_fresh_tpch_cluster(num_nodes, scale_factor, seed, 0.05)
    for query_name in queries:
        with_support = _measure(
            cluster, tpch.query(query_name), query_name,
            options=QueryOptions(provenance_enabled=True),
        )
        without_support = _measure(
            cluster, tpch.query(query_name), query_name,
            options=QueryOptions(provenance_enabled=False),
        )
        time_overhead = (
            (with_support.execution_seconds - without_support.execution_seconds)
            / without_support.execution_seconds * 100.0
        )
        traffic_overhead = (
            (with_support.total_bytes - without_support.total_bytes)
            / max(1, without_support.total_bytes) * 100.0
        )
        rows.append({
            "query": query_name,
            "time_with_support_s": with_support.execution_seconds,
            "time_without_support_s": without_support.execution_seconds,
            "time_overhead_pct": time_overhead,
            "traffic_overhead_pct": traffic_overhead,
        })
    return rows


# ---------------------------------------------------------------------------
# Cache subsystem: cold vs. warm traffic (repro.cache)
# ---------------------------------------------------------------------------


def run_retrieval_cache_experiment(
    num_nodes: int = 8,
    tuples_per_relation: int = 800,
    scenario: str = "select",
    repeats: int = 3,
    policy: str = "greedy-dual",
    seed: int = 0,
) -> list[dict]:
    """Cold vs. warm Algorithm-1 retrieval of an STBenchmark relation.

    Run 1 is cold (every coordinator record, page scan and tuple batch crosses
    the simulated network); later runs are warm and are served from the
    version-keyed per-node cache.  One row per run with the traffic delta, the
    cache counters and how many pages were answered locally.
    """
    instance = stbenchmark.generate(scenario, tuples_per_relation, seed)
    cluster = Cluster(num_nodes, profile=LAN_GIGABIT,
                      cache_config=CacheConfig(policy=policy))
    cluster.publish_relations(instance.relation_list())
    relation = instance.relation_list()[0].schema.name
    rows = []
    for run in range(repeats):
        before_traffic = cluster.traffic_snapshot()
        before_stats = cluster.cache_statistics()["node"]
        result = cluster.retrieve(relation)
        traffic = before_traffic.delta(cluster.traffic_snapshot())
        after_stats = cluster.cache_statistics()["node"]
        rows.append({
            "run": "cold" if run == 0 else f"warm-{run}",
            "relation": relation,
            "nodes": num_nodes,
            "tuples": len(result.tuples),
            "traffic_bytes": traffic.total_bytes,
            "traffic_mb": traffic.total_bytes / MB,
            "pages_scanned": result.pages_scanned,
            "pages_from_cache": result.pages_from_cache,
            "cache_hits": after_stats.hits - before_stats.hits,
            "cache_bytes_saved": after_stats.bytes_saved - before_stats.bytes_saved,
        })
    return rows


def run_result_cache_experiment(
    queries: Sequence[str] = ("Q1", "Q6"),
    num_nodes: int = 8,
    scale_factor: float = 1.0,
    repeats: int = 2,
    policy: str = "greedy-dual",
    seed: int = 0,
) -> list[dict]:
    """Cold vs. warm TPC-H execution through the semantic result cache.

    Each query runs ``repeats`` times on one cluster; the first execution is
    cold, repeats hit the initiator's result cache (same plan fingerprint,
    same relation-version epochs) and ship zero bytes.
    """
    instance = tpch.generate(scale_factor, seed)
    cluster = Cluster(num_nodes, profile=LAN_GIGABIT,
                      cache_config=CacheConfig(policy=policy))
    cluster.publish_relations(instance.relation_list())
    rows = []
    for query_name in queries:
        for run in range(repeats):
            before_traffic = cluster.traffic_snapshot()
            saved_before = cluster.cache_statistics()["result"].bytes_saved
            result = cluster.query(tpch.query(query_name))
            traffic = before_traffic.delta(cluster.traffic_snapshot())
            saved = cluster.cache_statistics()["result"].bytes_saved - saved_before
            rows.append({
                "query": query_name,
                "run": "cold" if run == 0 else f"warm-{run}",
                "execution_seconds": result.statistics.execution_time,
                "traffic_bytes": traffic.total_bytes,
                "traffic_mb": traffic.total_bytes / MB,
                "result_rows": len(result.rows),
                "result_cache_hit": result.statistics.result_cache_hit,
                "result_cache_bytes_saved": saved,
            })
    return rows


# ---------------------------------------------------------------------------
# Concurrent traffic: throughput / latency under multi-tenant load (repro.runtime)
# ---------------------------------------------------------------------------


def _build_concurrency_cluster(
    num_nodes: int,
    tuples_per_relation: int,
    scenario: str,
    seed: int,
    scheduler_config,
    cache_config,
):
    """A cluster loaded with one STBenchmark instance plus its compiled plan.

    The query is compiled once and submitted as a physical plan, so the
    drivers measure distributed execution (the part that concurrency
    overlaps), not repeated plan compilation on the submitting client.
    """
    from ..optimizer.cost import MachineProfile
    from ..optimizer.planner import compile_query

    instance = stbenchmark.generate(scenario, tuples_per_relation, seed)
    cluster = Cluster(num_nodes, profile=LAN_GIGABIT,
                      scheduler_config=scheduler_config, cache_config=cache_config)
    cluster.publish_relations(instance.relation_list())
    plan = compile_query(
        instance.query, cluster.catalog, machine=MachineProfile.for_cluster(cluster)
    ).plan
    return cluster, plan


def run_concurrency_experiment(
    concurrency_levels: Iterable[int] = (1, 2, 4, 8),
    num_nodes: int = 8,
    tuples_per_relation: int = 400,
    scenario: str = "select",
    ops_per_client: int = 4,
    scheduler_config=None,
    cache_config=None,
    use_result_cache: bool = True,
    seed: int = 0,
) -> list[dict]:
    """Closed-loop concurrency sweep: N clients, one outstanding query each.

    Each level runs on a fresh cluster (same data, same plan); clients are
    spread round-robin over the nodes, so level 8 on an 8-node cluster is
    eight tenants querying from eight different machines.  One row per level
    with aggregate throughput and latency percentiles — the single-client
    row is the serial baseline every speedup is judged against.
    """
    from ..query.service import QueryOptions
    from ..runtime.workload import ClosedLoopDriver

    options = QueryOptions(use_result_cache=use_result_cache)
    rows = []
    for level in concurrency_levels:
        cluster, plan = _build_concurrency_cluster(
            num_nodes, tuples_per_relation, scenario, seed, scheduler_config,
            cache_config,
        )
        driver = ClosedLoopDriver(
            cluster.runtime,
            num_clients=level,
            make_op=lambda session, _client, _op: session.submit_query(
                plan, options=options
            ),
            ops_per_client=ops_per_client,
        )
        report = driver.run()
        stats = report.scheduler
        rows.append({
            "scenario": scenario,
            "nodes": num_nodes,
            "clients": level,
            "ops": len(report.records),
            "completed": report.completed,
            "errors": report.errors,
            "throughput_ops_s": report.throughput,
            "mean_latency_s": report.mean_latency,
            "p50_latency_s": report.p50_latency,
            "p99_latency_s": report.p99_latency,
            "mean_queue_delay_s": report.mean_queue_delay,
            "max_in_flight": stats["max_in_flight"],
            "peak_queued": stats["peak_queued"],
            "rejected": stats["rejected"],
        })
    return rows


def run_offered_load_experiment(
    arrival_rates: Iterable[float] = (200.0, 1000.0, 5000.0),
    num_ops: int = 32,
    num_nodes: int = 8,
    tuples_per_relation: int = 400,
    scenario: str = "select",
    scheduler_config=None,
    cache_config=None,
    use_result_cache: bool = True,
    seed: int = 0,
) -> list[dict]:
    """Open-loop sweep: Poisson arrivals at each offered load (queries/s).

    The open-loop driver submits on a schedule regardless of completions, so
    as the offered load crosses the cluster's capacity the admission queue
    grows and the queue delay — not the service time — comes to dominate
    p99 latency.  One row per offered load.
    """
    from ..query.service import QueryOptions
    from ..runtime.workload import OpenLoopDriver

    options = QueryOptions(use_result_cache=use_result_cache)
    rows = []
    for rate in arrival_rates:
        cluster, plan = _build_concurrency_cluster(
            num_nodes, tuples_per_relation, scenario, seed, scheduler_config,
            cache_config,
        )
        driver = OpenLoopDriver(
            cluster.runtime,
            make_op=lambda session, _client, _op: session.submit_query(
                plan, options=options
            ),
            num_ops=num_ops,
            arrival_rate=rate,
            seed=seed,
        )
        report = driver.run()
        stats = report.scheduler
        rows.append({
            "scenario": scenario,
            "nodes": num_nodes,
            "offered_ops_s": rate,
            "ops": len(report.records),
            "completed": report.completed,
            "errors": report.errors,
            "throughput_ops_s": report.throughput,
            "p50_latency_s": report.p50_latency,
            "p99_latency_s": report.p99_latency,
            "mean_queue_delay_s": report.mean_queue_delay,
            "max_in_flight": stats["max_in_flight"],
            "peak_queued": stats["peak_queued"],
            "rejected": stats["rejected"],
        })
    return rows


# ---------------------------------------------------------------------------
# Chaos scenarios: availability + recovery under fault mixes (repro.faults)
# ---------------------------------------------------------------------------

#: Named fault mixes for :func:`run_chaos_experiment`; each entry overrides
#: the :class:`~repro.faults.scenarios.ScenarioConfig` fault budget.
CHAOS_FAULT_MIXES = {
    "clean": dict(crashes=0, partitions=0, chaos_windows=0, slow_nodes=0),
    "crash-restart": dict(crashes=2, partitions=0, chaos_windows=0, slow_nodes=0),
    "partition": dict(crashes=0, partitions=2, chaos_windows=0, slow_nodes=0),
    "message-chaos": dict(crashes=0, partitions=0, chaos_windows=2, slow_nodes=0),
    "slow-node": dict(crashes=0, partitions=0, chaos_windows=0, slow_nodes=2),
    "combined": dict(crashes=1, partitions=1, chaos_windows=1, slow_nodes=1),
}


def run_chaos_experiment(
    fault_mixes: Sequence[str] = tuple(CHAOS_FAULT_MIXES),
    seeds: Sequence[int] = (0, 1, 2),
    num_nodes: int = 6,
    num_ops: int = 14,
    cache: bool = False,
) -> list[dict]:
    """Seeded chaos scenarios per fault mix: availability, latency, recovery.

    Every row is one deterministic scenario (mix + seed): the multi-tenant
    workload runs while the mix's faults fire, the cluster is healed and
    repaired, and the invariant checkers evaluate.  ``violations`` must be 0
    for every mix — a non-zero count is a correctness bug reproducible with
    ``python -m repro.faults.scenarios --seed <seed> ...``.  Availability is
    the fraction of submitted operations acknowledged (operations initiated
    *from* a node the mix crashed legitimately fail); recovery is the virtual
    time from the first fault until the cluster fully quiesced.
    """
    from dataclasses import replace

    from ..faults.scenarios import ScenarioConfig, run_scenario

    base = ScenarioConfig(num_nodes=num_nodes, num_ops=num_ops, cache=cache)
    rows = []
    for mix in fault_mixes:
        for seed in seeds:
            config = replace(base, **CHAOS_FAULT_MIXES[mix])
            report = run_scenario(seed, config)
            rows.append({
                "mix": mix,
                "seed": seed,
                "nodes": num_nodes,
                "ops": report.ops_submitted,
                "acked": report.ops_acked,
                "failed": report.ops_failed,
                "availability": report.availability,
                "mean_latency_s": report.mean_latency,
                "recovery_s": report.recovery_seconds,
                "retransmits": report.faults.get("retransmits", 0),
                "violations": len(report.violations),
            })
    return rows


# ---------------------------------------------------------------------------
# Gray failure: tail latency with one degraded (but live) node (repro.resilience)
# ---------------------------------------------------------------------------

#: Modes of :func:`run_gray_failure_experiment`: healthy baseline, degraded
#: cluster with the resilience layer on, degraded cluster without it.
GRAY_MODES = ("clean", "hedged-degraded", "unhedged-degraded")


def run_gray_failure_experiment(
    modes: Sequence[str] = GRAY_MODES,
    num_nodes: int = 8,
    tuples_per_relation: int = 400,
    num_ops: int = 90,
    op_interval: float = 0.001,
    slowdown: float = 10.0,
    seed: int = 11,
) -> list[dict]:
    """Tail latency of open-loop retrievals against a gray-failed node.

    One node is degraded — ``slowdown``x slower CPU and bandwidth — but stays
    up, answers pings, and keeps its coordinator role: the *gray* failure that
    crash detection never sees.  Retrievals of three relations are submitted
    open-loop (fixed ``op_interval`` pacing, regardless of completions), so a
    slow replica in the read path builds queues and the p99 amplifies far past
    the raw slowdown factor.  Three modes on otherwise identical clusters:

    * ``clean`` — resilience layer on, nobody degraded (the baseline);
    * ``hedged-degraded`` — resilience layer on: representative-work probes
      feed the latency estimators, the victim is suspected, and replica
      selection routes reads around it;
    * ``unhedged-degraded`` — resilience layer off: reads keep hitting the
      victim in primary-owner order.

    One row per mode with p50/p95/p99 (milliseconds) and the resilience
    counters; ``p99_vs_clean`` is the headline ratio the perf suite gates on
    (hedged stays within a few x of clean, unhedged blows past the slowdown
    factor itself).
    """
    from ..faults.injector import FaultInjector
    from ..resilience import ResilienceConfig

    rows = []
    clean_p99: float | None = None
    for mode in modes:
        if mode not in GRAY_MODES:
            raise ValueError(f"unknown gray-failure mode {mode!r}")
        config = None if mode == "unhedged-degraded" else ResilienceConfig()
        cluster = Cluster(num_nodes, profile=LAN_GIGABIT, resilience_config=config)
        injector = FaultInjector(cluster.network, seed=seed)
        cluster.publish_relations([
            _gray_relation(name, tuples_per_relation) for name in ("R", "S", "T")
        ])
        victim = cluster.live_addresses()[num_nodes // 2 - 1]
        if mode != "clean":
            injector.degrade_node(
                victim, cpu_slowdown=slowdown, bandwidth_slowdown=slowdown
            )
        if config is not None:
            # Warm the latency estimators, then keep the probe train running
            # through the measurement window: rehabilitation of a suspect must
            # be evidence-based (probes carrying representative work), not
            # decay-based (cheap control replies dragging its EWMA down).
            cluster.start_resilience_heartbeats(0.3)
            cluster.run()
            cluster.start_resilience_heartbeats(num_ops * op_interval + 0.05)
        session = cluster.session()
        futures: list = []
        names = ("R", "S", "T")
        base = cluster.now
        for i in range(num_ops):
            cluster.network.schedule_at(
                base + i * op_interval,
                lambda name=names[i % 3]: futures.append(session.submit_retrieve(name)),
            )
        cluster.run()
        latencies = sorted(f.latency for f in futures if f.succeeded())
        failed = sum(1 for f in futures if not f.succeeded())
        p50 = _quantile(latencies, 0.50)
        p95 = _quantile(latencies, 0.95)
        p99 = _quantile(latencies, 0.99)
        if mode == "clean":
            clean_p99 = p99
        stats = cluster.resilience_statistics() if config is not None else None
        hedges = stats.hedges if stats is not None else {}
        rows.append({
            "mode": mode,
            "nodes": num_nodes,
            "ops": num_ops,
            "failed": failed,
            "p50_ms": p50 * 1e3,
            "p95_ms": p95 * 1e3,
            "p99_ms": p99 * 1e3,
            "p99_vs_clean": (p99 / clean_p99) if clean_p99 else None,
            "hedges_won": hedges.get("won", 0),
            "retries": stats.retries if stats is not None else 0,
            "breaker_skips": stats.breaker_skips if stats is not None else 0,
        })
    return rows


def _gray_relation(name: str, rows: int):
    from ..common.types import RelationData, Schema

    data = RelationData(Schema(name, ["k", "grp", "v"], key=["k"]))
    for i in range(rows):
        data.add(f"{name}-{i:05d}", f"g{i % 7}", i)
    return data


# ---------------------------------------------------------------------------
# Silent-corruption detection / repair (data-integrity experiment)
# ---------------------------------------------------------------------------


def run_corruption_experiment(
    num_nodes: int = 8,
    tuples_per_relation: int = 300,
    corruptions: int = 12,
    num_ops: int = 60,
    op_interval: float = 0.001,
    seed: int = 17,
) -> dict:
    """End-to-end integrity under silent at-rest corruption.

    A cluster runs with the integrity layer on; ``corruptions`` seeded
    bit-flip events hit stored tuples, index pages and coordinator records
    during the first half of an open-loop retrieval window, so reads race
    the damage.  The experiment reports the three quantities the integrity
    design is judged on:

    * **serving correctness** — ``corrupt_rows_served`` (rows whose values
      differ from the published ground truth; must be 0: a failed checksum
      turns into a replica-failover read-repair, never a wrong answer);
    * **detection** — how many corruptions the read path surfaced during the
      window, the mean/max detection latency per event, and the total after
      scrubbing (must equal ``injected``: the digest exchange catches every
      copy reads never touched);
    * **repair convergence and cost** — scrub rounds until a round finds
      nothing to fix, and the digest+repair byte overhead relative to the
      bytes stored cluster-wide.
    """
    from ..faults.injector import FaultInjector
    from ..integrity import IntegrityConfig

    cluster = Cluster(num_nodes, profile=LAN_GIGABIT,
                      integrity_config=IntegrityConfig())
    injector = FaultInjector(cluster.network, seed=seed)
    names = ("R", "S", "T")
    cluster.publish_relations([
        _gray_relation(name, tuples_per_relation) for name in names
    ])
    expected = {
        name: {
            f"{name}-{i:05d}": (f"{name}-{i:05d}", f"g{i % 7}", i)
            for i in range(tuples_per_relation)
        }
        for name in names
    }
    session = cluster.session()
    futures: list = []
    base = cluster.now
    window = num_ops * op_interval
    # Corruptions land in the first half of the window so the open-loop
    # reads race them; whatever reads miss is left for the scrubber.
    for j in range(corruptions):
        cluster.network.schedule_at(
            base + (j + 0.5) * (window / 2) / corruptions,
            lambda: injector.corrupt_at_rest(),
        )
    for i in range(num_ops):
        cluster.network.schedule_at(
            base + i * op_interval,
            lambda name=names[i % 3]: futures.append(
                (name, session.submit_retrieve(name))
            ),
        )
    cluster.run()

    corrupt_rows_served = 0
    failed = 0
    latencies = []
    for name, future in futures:
        if not future.succeeded():
            failed += 1
            continue
        latencies.append(future.latency)
        for row in future.result().rows():
            if tuple(row) != expected[name][row[0]]:
                corrupt_rows_served += 1
    latencies.sort()

    injected = len(injector.corruption_events)
    detected_by_reads = cluster.integrity_statistics().detected_total

    scrub_rounds = 0
    scrub_bytes = 0
    for _ in range(cluster.integrity_config.max_scrub_rounds):
        report = cluster.run_scrub()
        scrub_rounds += 1
        scrub_bytes += report.total_bytes
        if not (report.corrupt_copies or report.divergent_keys or report.items_copied):
            break

    detection_latencies = []
    for event in injector.corruption_events:
        if event.tree is None:
            continue
        guard = cluster.nodes[event.address].integrity
        detected_at = guard.detection_times.get((event.tree, event.key))
        if detected_at is not None:
            detection_latencies.append(max(0.0, detected_at - event.at))

    stats = cluster.integrity_statistics()
    stored_bytes = sum(
        cluster.storage(address).store.bytes_stored
        for address in cluster.live_addresses()
    )
    return {
        "nodes": num_nodes,
        "ops": num_ops,
        "failed": failed,
        "injected": injected,
        "corrupt_rows_served": corrupt_rows_served,
        "detected_by_reads": detected_by_reads,
        "detected_total": stats.detected_total,
        "repaired_total": stats.repaired_total,
        "unrepairable": stats.unrepairable,
        "quarantine_leftover": sum(
            len(keys) for keys in cluster.quarantined_entries().values()
        ),
        "detection_ms_mean": (
            sum(detection_latencies) / len(detection_latencies) * 1e3
            if detection_latencies else 0.0
        ),
        "detection_ms_max": (
            max(detection_latencies) * 1e3 if detection_latencies else 0.0
        ),
        "scrub_rounds_to_converge": scrub_rounds,
        "scrub_bytes": scrub_bytes,
        "scrub_overhead_ratio": (scrub_bytes / stored_bytes) if stored_bytes else 0.0,
        "p50_ms": _quantile(latencies, 0.50) * 1e3,
        "p99_ms": _quantile(latencies, 0.99) * 1e3,
    }


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


# ---------------------------------------------------------------------------
# Range allocation balance (Figure 2 illustration)
# ---------------------------------------------------------------------------


def run_allocation_balance(node_counts: Iterable[int]) -> list[dict]:
    """Quantify Figure 2: key-space imbalance of Pastry-style vs. balanced
    allocation for small memberships."""
    rows = []
    for num_nodes in node_counts:
        addresses = [f"node-{i:03d}" for i in range(num_nodes)]
        pastry = allocation_imbalance(PastryAllocation().allocate(addresses))
        balanced = allocation_imbalance(BalancedAllocation().allocate(addresses))
        rows.append({
            "nodes": num_nodes,
            "pastry_imbalance": pastry,
            "balanced_imbalance": balanced,
        })
    return rows


def clear_caches() -> None:
    """Drop memoised sweep results (used between unrelated benchmark runs)."""
    _stb_point.cache_clear()
    _tpch_point.cache_clear()
    _tpch_cluster.cache_clear()
