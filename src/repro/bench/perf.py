"""Seeded performance microbenchmarks and the committed perf trajectory.

The paper's performance story (Section V-A) rests on the hot paths this module
measures: column-marshalled batch serialization, operator inner loops, and the
SHA-1 placement hashing behind every routing decision.  Each benchmark is a
deterministic, seeded workload timed with ``time.perf_counter`` — wall-clock
of *this process*, unlike the figure benchmarks, which report simulated time.

The suite also measures the quantity the paper's headline figures are made
of: **wire traffic**.  The traffic benchmarks publish a TPC-H instance into
a simulated cluster and run the figure queries twice — once with the
wire-traffic optimizer (predicate/projection pushdown + page pruning, the
default) and once with the evaluate-at-the-participant baseline
(``PlannerOptions(enable_pushdown=False)``) — recording bytes on the wire,
message counts and pruned-page counts per query.  Simulated byte counts are
exact and machine-independent (run under a pinned ``PYTHONHASHSEED``), so
the regression gate compares them with no variance floor.

Run it as a module::

    PYTHONPATH=src python -m repro.bench.perf --output BENCH_perf.json

and compare against a committed reference (the CI ``perf-smoke`` job)::

    PYTHONPATH=src python -m repro.bench.perf --check BENCH_perf.json

``--check`` re-runs the suite and fails (exit 1) when a timing benchmark
regressed by more than ``--tolerance`` (default 25%) against the committed
file, or when any query's pushdown traffic bytes grew beyond the same
tolerance.  To keep the timing check meaningful across machines of different
speeds, every file records a ``calibration.spin`` benchmark (a fixed
pure-Python loop); measured times are normalised by the calibration ratio
before comparison, and benchmarks faster than the variance floor (50 ms) are
never failed — CI timer noise on sub-50 ms loops is larger than any real
regression.  Traffic bytes are deterministic, so they get no floor.

The JSON layout is stable so future PRs can extend the trajectory::

    {
      "meta":   {"python": "...", "seed": 0, "repeat": 3, "scale": "default"},
      "benchmarks": {
        "<name>": {"seconds": <best-of-N wall seconds>,
                    "ops": <operations per run>,
                    "us_per_op": <seconds / ops * 1e6>}
      },
      "traffic": {
        "meta": {"nodes": ..., "scale_factor": ..., "seed": ...},
        "queries": {
          "<name>": {"bytes_pushdown": ..., "bytes_baseline": ...,
                      "reduction": ...,  # 1 - pushdown/baseline
                      "data_bytes_pushdown": ..., "data_bytes_baseline": ...,
                      "messages_pushdown": ..., "messages_baseline": ...,
                      "pages_total": ..., "pages_pruned": ...}
        }
      },
      "gray": {
        "meta": {"seed": ..., "modes": [...]},
        "modes": {
          "<mode>": {"p50_ms": ..., "p95_ms": ..., "p99_ms": ...,
                      "p99_vs_clean": ..., "failed": ...}
        }
      },
      "corruption": {
        "meta": {"nodes": ..., "corruptions": ..., "ops": ..., "seed": ...},
        "corrupt_rows_served": 0, "detected_total": ..., "repaired_total": ...,
        "unrepairable": 0, "detection_ms_mean": ..., "detection_ms_max": ...,
        "scrub_rounds_to_converge": ..., "scrub_bytes": ...,
        "scrub_overhead_ratio": ...
      }
    }

The ``gray`` section is the gray-failure headline (one node 10x degraded but
live): ``--check`` holds the hedged degraded p99 within 3x of clean and
requires the unhedged one to exceed 10x, on top of the drift tolerance.

The ``corruption`` section is the data-integrity headline (silent at-rest
bit rot under checksummed storage + scrubbing): ``--check`` requires zero
corrupt rows served, every injected corruption detected and repaired,
scrub convergence within the committed round bound, and holds the scrub
byte overhead within the drift tolerance.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from typing import Callable, Sequence

from ..common.hashing import sha1_key
from ..common.serialization import (
    ENCODING_STATS,
    EncodedTupleBatch,
    TupleBatch,
    decode_values,
    encode_values,
)
from ..common.types import TupleId, partition_hash

#: Benchmarks whose best-of-N time is below this floor are informational
#: only: ``--check`` never fails on them (timer noise dominates).
VARIANCE_FLOOR_SECONDS = 0.050

#: Default regression tolerance for ``--check`` (fraction of the reference).
DEFAULT_TOLERANCE = 0.25


# ---------------------------------------------------------------------------
# Workload generators (all seeded, all deterministic)
# ---------------------------------------------------------------------------


def _tpch_like_rows(count: int, seed: int) -> list[tuple]:
    """Mostly-numeric rows shaped like TPC-H lineitem slices."""
    rng = random.Random(seed)
    flags = ("A", "N", "R")
    statuses = ("F", "O")
    return [
        (
            rng.randrange(1, 200_000),
            rng.randrange(1, 10_000),
            rng.randrange(1, 7),
            float(rng.randrange(1, 50)),
            round(rng.uniform(900.0, 95_000.0), 2),
            round(rng.uniform(0.0, 0.1), 2),
            round(rng.uniform(0.0, 0.08), 2),
            rng.choice(flags),
            rng.choice(statuses),
            f"19{rng.randrange(92, 99)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
        )
        for _ in range(count)
    ]


_TPCH_ATTRIBUTES = (
    "l_orderkey", "l_partkey", "l_quantity", "l_extendedprice_base",
    "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
    "l_linestatus", "l_shipdate",
)


def _stb_like_rows(count: int, seed: int) -> list[tuple]:
    """String-heavy rows shaped like STBenchmark name/address tuples."""
    rng = random.Random(seed)
    streets = ("Walnut St", "Chestnut St", "Spruce St", "Market St", "Pine St")
    cities = ("Philadelphia", "Seattle", "Berkeley", "Ann Arbor")
    return [
        (
            f"person-{rng.randrange(count * 2):08d}",
            f"Given{rng.randrange(5000):04d}",
            f"Family{rng.randrange(5000):04d}",
            f"{rng.randrange(1, 9999)} {rng.choice(streets)}",
            rng.choice(cities),
            rng.randrange(10_000, 99_999),
        )
        for _ in range(count)
    ]


_STB_ATTRIBUTES = ("id", "first_name", "last_name", "street", "city", "zip")


def _mixed_value_tuples(count: int, seed: int) -> list[tuple]:
    """Mixed-type tuples covering every wire tag, including bigint edges."""
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        rows.append((
            None,
            index % 2 == 0,
            rng.randrange(-(2 ** 40), 2 ** 40),
            rng.random() * 1e6,
            f"value-{rng.randrange(10_000)}",
            bytes([index % 251, (index * 7) % 251]),
            (rng.randrange(100), f"nested-{index % 17}"),
            # One-byte-length edge (254/255 bytes) and _TAG_BIGINT edge.
            (1 << 2030) + index if index % 64 == 0 else (1 << 2040) + index
            if index % 64 == 1 else index,
        ))
    return rows


# ---------------------------------------------------------------------------
# Timing machinery
# ---------------------------------------------------------------------------


def _time_best_of(runs: int, func: Callable[[], int]) -> tuple[float, int]:
    """Best-of-``runs`` wall time of ``func``; func returns its op count."""
    best = float("inf")
    ops = 0
    for _ in range(max(1, runs)):
        start = time.perf_counter()
        ops = func()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, max(1, ops)


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


def bench_calibration_spin() -> int:
    """Fixed pure-Python loop used to normalise cross-machine comparisons."""
    total = 0
    for i in range(2_000_000):
        total += i & 1023
    return 2_000_000 if total else 2_000_000


def bench_serialization_encode_tpch(rows: Sequence[tuple], batch_rows: int) -> int:
    total = 0
    for start in range(0, len(rows), batch_rows):
        chunk = rows[start:start + batch_rows]
        TupleBatch.build(_TPCH_ATTRIBUTES, chunk)
        total += len(chunk)
    return total


def bench_serialization_encode_stb(rows: Sequence[tuple], batch_rows: int) -> int:
    total = 0
    for start in range(0, len(rows), batch_rows):
        chunk = rows[start:start + batch_rows]
        TupleBatch.build(_STB_ATTRIBUTES, chunk)
        total += len(chunk)
    return total


def bench_serialization_decode(payloads: Sequence[bytes]) -> int:
    total = 0
    for payload in payloads:
        batch = TupleBatch.unmarshal(payload)
        total += len(batch)
    return total


def bench_serialization_values_roundtrip(rows: Sequence[tuple]) -> int:
    for values in rows:
        payload = encode_values(values)
        decode_values(payload)
    return len(rows)


def bench_encoding_encode_tpch(rows: Sequence[tuple], batch_rows: int) -> int:
    """Columnar-encode TPC-H-like batches (dictionary/RLE/FOR selection)."""
    total = 0
    for start in range(0, len(rows), batch_rows):
        chunk = rows[start:start + batch_rows]
        EncodedTupleBatch.build(_TPCH_ATTRIBUTES, chunk)
        total += len(chunk)
    return total


def bench_encoding_decode_tpch(payloads: Sequence[bytes]) -> int:
    """Unmarshal encoded batches and decode every column."""
    total = 0
    for payload in payloads:
        batch = EncodedTupleBatch.unmarshal(payload, _TPCH_ATTRIBUTES)
        for column in batch.columns:
            column.decode()
        total += batch.count
    return total


def bench_encoding_predicate(batches: Sequence[EncodedTupleBatch]) -> int:
    """Predicate evaluation directly over encoded columns (no decode)."""
    rows = 0
    for batch in batches:
        for column in batch.columns:
            if column.match_positions(lambda v: v == "A") is None:
                column.min_max()
        rows += batch.count
    return max(1, rows)


def bench_hashing_partition(keys: Sequence[tuple], lookups: int) -> int:
    count = len(keys)
    for index in range(lookups):
        partition_hash(keys[index % count])
    return lookups


def bench_hashing_tuple_ids(tuple_ids: Sequence[TupleId], lookups: int) -> int:
    count = len(tuple_ids)
    for index in range(lookups):
        _ = tuple_ids[index % count].hash_key
    return lookups


def bench_hashing_sha1_identifiers(lookups: int) -> int:
    for index in range(lookups):
        sha1_key(("relation-coordinator", "lineitem", index % 64))
    return lookups


class _BenchContext:
    """Minimal FragmentContext for driving operators outside the simulator."""

    address = "bench-node"
    phase = 0
    failed_nodes: set = set()
    provenance_enabled = True
    eos_relay_enabled = False

    def __init__(self) -> None:
        self.rows_out = 0

    def charge_cpu(self, seconds: float) -> None:
        pass

    def destination_for(self, hash_key: int) -> str:
        return "bench-node"

    def participants(self) -> list[str]:
        return ["bench-node"]

    def initiator(self) -> str:
        return "bench-node"

    def send_rows(self, destination: str, exchange_id: int, rows: list) -> None:
        self.rows_out += len(rows)

    def send_eos(self, destination: str, exchange_id: int) -> None:
        pass

    def send_eos_summary(self, exchange_id: int, zero_destinations: list) -> None:
        pass


class _Sink:
    """Terminal operator counting what reaches it."""

    def __init__(self) -> None:
        self.rows = 0
        self.eos = 0

    def accept(self, rows, input_index: int = 0) -> None:
        self.rows += len(rows)

    def end_of_stream(self, input_index: int = 0) -> None:
        self.eos += 1


def _tagged_batches(attributes, rows, batch_rows: int, node: str = "bench-node"):
    """Pre-built operator input; constructed OUTSIDE the timed region so the
    operator benchmarks measure operator work, not test-data setup."""
    from ..query.provenance import tag_rows

    return [
        tag_rows(attributes, rows[start:start + batch_rows], node)
        for start in range(0, len(rows), batch_rows)
    ]


def bench_operators_select_project(batches: Sequence[list], total_rows: int) -> int:
    from ..query.expressions import col, lit
    from ..query.operators import ProjectOperator, SelectOperator
    from ..query.physical import PhysProject, PhysSelect

    context = _BenchContext()
    select = SelectOperator(context, PhysSelect(
        op_id=1, child=None, predicate=col("l_quantity").lt(lit(24.0)),
    ))
    project = ProjectOperator(context, PhysProject(
        op_id=2, child=None, outputs=[
            ("l_orderkey", col("l_orderkey")),
            ("l_returnflag", col("l_returnflag")),
            ("disc_price", col("l_extendedprice") * (lit(1.0) - col("l_discount"))),
        ],
    ))
    sink = _Sink()
    select.connect(project, 0)
    project.connect(sink, 0)  # type: ignore[arg-type]
    for batch in batches:
        select.accept(batch)
    return total_rows


def bench_operators_hash_join(
    probe_batches: Sequence[list], build_batches: Sequence[list], total_rows: int
) -> int:
    from ..query.operators import HashJoinOperator
    from ..query.physical import PhysHashJoin

    context = _BenchContext()
    join = HashJoinOperator(context, PhysHashJoin(
        op_id=1, left=None, right=None,
        left_keys=("l_partkey",), right_keys=("p_partkey",),
    ))
    sink = _Sink()
    join.connect(sink, 0)  # type: ignore[arg-type]
    for batch in build_batches:
        join.accept(batch, 1)
    for batch in probe_batches:
        join.accept(batch, 0)
    return total_rows


def bench_operators_aggregate(batches: Sequence[list], total_rows: int) -> int:
    from ..query.expressions import AggregateSpec, Avg, Count, Sum, col
    from ..query.operators import AggregateOperator
    from ..query.physical import PhysAggregate

    context = _BenchContext()
    aggregate = AggregateOperator(context, PhysAggregate(
        op_id=1, child=None,
        group_by=("l_returnflag", "l_linestatus"),
        aggregates=(
            AggregateSpec("sum_qty", Sum(), col("l_quantity")),
            AggregateSpec("sum_price", Sum(), col("l_extendedprice")),
            AggregateSpec("avg_disc", Avg(), col("l_discount")),
            AggregateSpec("count_order", Count(), col("l_orderkey")),
        ),
    ))
    sink = _Sink()
    aggregate.connect(sink, 0)  # type: ignore[arg-type]
    for batch in batches:
        aggregate.accept(batch)
    aggregate.end_of_stream(0)
    return total_rows


#: The lineitem-shaped micro rows as a relation: what the scan-path
#: benchmarks publish, look up and deliver.
_SCAN_KEY = ("l_orderkey", "l_partkey", "l_quantity")


def _scan_relation(rows: Sequence[tuple]):
    """``rows`` as a relation keyed on :data:`_SCAN_KEY` (first row per key)."""
    from ..common.types import RelationData, Schema

    schema = Schema("lineitem_like", _TPCH_ATTRIBUTES, key=_SCAN_KEY, partition_key=_SCAN_KEY[:1])
    data = RelationData(schema)
    data.rows = list({schema.key_of(values): values for values in rows}.values())
    return data


def _loaded_storage_pages(rows: Sequence[tuple]):
    """A one-node cluster holding ``rows``; returns its storage service, the
    relation's schema and the tuple-ID list of each index page (hash order —
    how a data node is asked for a page's tuples)."""
    from ..cluster import Cluster

    data = _scan_relation(rows)
    cluster = Cluster(1)
    cluster.publish_relations([data])
    (cluster_node,) = cluster.nodes.values()
    service = cluster_node.storage
    pages = [
        list(page.tuple_ids)
        for page in service.local_pages_for_relation(data.schema.name)
    ]
    return service, data.schema, pages


def bench_storage_lookup_tuples(service, relation: str, pages: Sequence[list],
                                passes: int) -> int:
    """Data-node role of the distributed scan: one request per index page."""
    looked_up = 0
    for _ in range(passes):
        for tuple_ids in pages:
            found, missing = service.lookup_tuples(relation, tuple_ids)
            looked_up += len(found) + len(missing)
    return looked_up


def bench_operators_scan_source(schema, batches: Sequence[list], passes: int) -> int:
    """Leaf of every query: stored tuples into the first operator, once as a
    bare projection and once behind a Q6-style residual.  Sources are rebuilt
    per pass — delivery is idempotent per tuple ID, so a second pass over the
    same source would measure only the duplicate check."""
    from ..query.expressions import and_, col, lit
    from ..query.operators import ScanSource
    from ..query.physical import PhysScan

    residual = and_(
        col("l_discount").ge(lit(0.02)), col("l_discount").le(lit(0.08)),
        col("l_quantity").lt(lit(5)),
    )
    columns = ("l_orderkey", "l_extendedprice", "l_discount")
    delivered = 0
    for _ in range(passes):
        for pushed in (None, residual):
            source = ScanSource(_BenchContext(), PhysScan(
                op_id=1, schema=schema, columns=columns, residual=pushed,
            ))
            source.connect(_Sink(), 0)  # type: ignore[arg-type]
            for batch in batches:
                source.deliver_tuples(batch)
                delivered += len(batch)
    return delivered


def bench_e2e_tpch(num_nodes: int, scale_factor: float, seed: int,
                   queries: Sequence[str]) -> int:
    """Representative end-to-end run: publish TPC-H, execute queries.

    Wall-clock of the whole simulated run — cluster construction, publishing
    every relation through the versioned storage protocol, then the listed
    queries through the distributed engine.  This is the number the figure
    benchmarks' own run time scales with.
    """
    from ..cluster import Cluster
    from ..net.profiles import LAN_GIGABIT
    from ..workloads import tpch

    instance = tpch.generate(scale_factor, seed)
    cluster = Cluster(num_nodes, profile=LAN_GIGABIT)
    cluster.publish_relations(instance.relation_list())
    rows = 0
    for query_name in queries:
        result = cluster.query(tpch.query(query_name))
        rows += len(result.rows)
    return max(1, rows)


# ---------------------------------------------------------------------------
# Wire-traffic benchmarks (simulated bytes: deterministic, machine-independent)
# ---------------------------------------------------------------------------


#: Figure queries measured by the traffic suite, plus one key-selective query
#: that exercises page pruning (the figure queries filter non-key attributes,
#: so their sargable part is empty and pruning cannot trigger on them).
TRAFFIC_QUERIES = ("Q1", "Q3", "Q5", "Q6", "Q10", "PRUNE")

#: Key-selective query for the pruning point: equality on the partition key
#: bounds the candidate hash set to one ring position, so every index page
#: whose range misses it is never requested.
PRUNE_SQL = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = 42"


def run_traffic_suite(seed: int = 0, nodes: int = 8,
                      scale_factor: float = 5.0) -> dict:
    """Measure per-query wire traffic with and without the optimizer.

    Builds one cluster, publishes TPC-H once, then runs every query in
    :data:`TRAFFIC_QUERIES` twice: with the wire-traffic optimizer (pushdown
    + pruning, the planner default) and with the evaluate-at-the-participant
    baseline.  The result cache is disabled so both runs execute for real.
    All numbers are simulated bytes/messages — exact, not timed.
    """
    from ..cluster import Cluster
    from ..net.profiles import LAN_GIGABIT
    from ..optimizer.planner import PlannerOptions
    from ..query.service import QueryOptions
    from ..query.sql import parse_query
    from ..workloads import tpch

    instance = tpch.generate(scale_factor, seed)
    cluster = Cluster(nodes, profile=LAN_GIGABIT)
    cluster.publish_relations(instance.relation_list())
    options = QueryOptions(use_result_cache=False)
    baseline_planner = PlannerOptions(enable_pushdown=False)

    def build(name: str):
        if name == "PRUNE":
            return parse_query(PRUNE_SQL, tpch.SCHEMAS)
        return tpch.query(name)

    queries = {}
    for name in TRAFFIC_QUERIES:
        encoding_before = ENCODING_STATS.snapshot()
        pushed = cluster.query(build(name), options=options)
        encoding_after = ENCODING_STATS.snapshot()
        baseline = cluster.query(build(name), options=options,
                                 planner_options=baseline_planner)
        # Sanity guard, not the equivalence suite (that is
        # tests/query/test_pushdown_equivalence.py): coarse float rounding
        # because the two plans sum aggregates in different orders.
        from ..query.reference import normalise

        if normalise(pushed.rows, float_digits=2) != normalise(baseline.rows, float_digits=2):
            raise AssertionError(
                f"traffic benchmark {name}: pushdown and baseline rows differ"
            )
        stats, base = pushed.statistics, baseline.statistics
        queries[name] = {
            "bytes_pushdown": stats.bytes_total,
            "bytes_baseline": base.bytes_total,
            "reduction": round(1.0 - stats.bytes_total / max(1, base.bytes_total), 4),
            "data_bytes_pushdown": stats.data_bytes,
            "data_bytes_baseline": base.data_bytes,
            "messages_pushdown": stats.messages_total,
            "messages_baseline": base.messages_total,
            "pages_total": stats.scan_pages_total,
            "pages_pruned": stats.scan_pages_pruned,
            # Per-codec encoded column bytes of the pushdown run (the
            # baseline run encodes too, but the pushdown numbers are what
            # the committed targets gate).
            "encoded_bytes": {
                codec: encoding_after["encoded_bytes"][codec]
                - encoding_before["encoded_bytes"][codec]
                for codec in sorted(encoding_after["encoded_bytes"])
            },
            "encoded_batches": encoding_after["batches_encoded"]
            - encoding_before["batches_encoded"],
        }
        print(f"traffic.{name:6s} {stats.bytes_total:>10,d} B pushed  "
              f"{base.bytes_total:>10,d} B baseline  "
              f"(-{queries[name]['reduction']:.1%}, "
              f"{stats.scan_pages_pruned}/{stats.scan_pages_total} pages pruned)",
              file=sys.stderr)

    # One extra traced run, *after* every measured query so the numbers above
    # stay byte-identical to untraced runs, attributing the wire bytes of a
    # figure query to protocol phases from its span tree.
    spans_section = _traced_span_summary(cluster, build("Q3"), options)
    print(f"traffic.spans  Q3: {spans_section['span_count']} spans, "
          f"{spans_section['coverage']:.1%} byte coverage", file=sys.stderr)

    return {
        "meta": {"nodes": nodes, "scale_factor": scale_factor, "seed": seed,
                 "queries": list(TRAFFIC_QUERIES)},
        "queries": queries,
        "spans": spans_section,
    }


#: Protocol phase each span kind belongs to in the ``spans`` summary.
def _span_phase(kind: str) -> str:
    if kind.startswith("store.") or kind == "rpc.response":
        return "storage"
    if kind.startswith("query.scan"):
        return "scan"
    if kind in ("query.data", "query.eos", "query.eos_summary"):
        return "exchange"
    return "control"  # query.start/abort/recover, op root spans, gossip


def _traced_span_summary(cluster, query, options) -> dict:
    """Run ``query`` with tracing on; summarise its span tree per phase."""
    tracer = cluster.enable_tracing()
    before = cluster.network.traffic.snapshot()
    traced = cluster.query(query, options=options)
    metered = before.delta(cluster.network.traffic.snapshot())
    trace_id = traced.statistics.trace_id
    spans = tracer.spans_of(trace_id)
    phases: dict[str, dict[str, int]] = {}
    for span in spans:
        bucket = phases.setdefault(_span_phase(span.name), {"spans": 0, "bytes": 0})
        bucket["spans"] += 1
        bucket["bytes"] += span.bytes
    span_bytes = sum(span.bytes for span in spans)
    cluster.disable_tracing()
    return {
        "query": "Q3",
        "trace_id": trace_id,
        "span_count": len(spans),
        "span_bytes": span_bytes,
        "metered_bytes": metered.total_bytes,
        "coverage": round(span_bytes / max(1, metered.total_bytes), 4),
        "phases": {name: phases[name] for name in sorted(phases)},
    }


# ---------------------------------------------------------------------------
# Gray-failure benchmark (simulated latencies: deterministic, machine-independent)
# ---------------------------------------------------------------------------

#: Acceptance thresholds for the gray-failure point: with the resilience
#: layer on, the degraded p99 stays within this multiple of the clean p99 …
GRAY_HEDGED_MAX_RATIO = 3.0
#: … and without it, the degraded p99 must blow past the raw slowdown factor
#: (queue buildup amplifies the tail) — otherwise the experiment lost its
#: teeth and the hedged number proves nothing.
GRAY_UNHEDGED_MIN_RATIO = 10.0


def run_gray_suite(seed: int = 11) -> dict:
    """One gray-failure point: p50/p99 per mode plus the headline ratios.

    Simulated latencies of :func:`~repro.bench.harness.run_gray_failure_experiment`
    — exact and machine-independent under a pinned ``PYTHONHASHSEED``, so the
    regression gate compares them with no calibration and no variance floor.
    """
    from .harness import run_gray_failure_experiment

    rows = run_gray_failure_experiment(seed=seed)
    modes = {}
    for row in rows:
        modes[row["mode"]] = {
            "p50_ms": round(row["p50_ms"], 4),
            "p95_ms": round(row["p95_ms"], 4),
            "p99_ms": round(row["p99_ms"], 4),
            "p99_vs_clean": round(row["p99_vs_clean"], 4)
            if row["p99_vs_clean"] is not None else None,
            "failed": row["failed"],
        }
        print(f"gray.{row['mode']:18s} p50={row['p50_ms']:7.3f} ms  "
              f"p99={row['p99_ms']:7.3f} ms  "
              f"(x{row['p99_vs_clean']:.2f} vs clean)", file=sys.stderr)
    return {
        "meta": {"seed": seed, "modes": [row["mode"] for row in rows]},
        "modes": modes,
    }


def check_gray_regressions(reference: dict, fresh: dict,
                           tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Gate the gray-failure point: absolute thresholds plus drift.

    Two absolute invariants (the experiment's reason to exist): the hedged
    degraded p99 stays within :data:`GRAY_HEDGED_MAX_RATIO` of clean, and the
    unhedged one exceeds :data:`GRAY_UNHEDGED_MIN_RATIO` — if the latter
    collapses, the injected degradation no longer hurts and the hedged number
    is vacuous.  On top of that, the hedged p99 may not drift more than
    ``tolerance`` above the committed reference (simulated time: exact).
    """
    ref_modes = reference.get("gray", {}).get("modes", {})
    new_modes = fresh.get("gray", {}).get("modes", {})
    if ref_modes and not new_modes:
        # Section skipped wholesale (--no-gray): nothing to compare.
        return []
    failures = []
    for mode in ref_modes:
        if mode not in new_modes:
            failures.append(f"gray.{mode}: present in reference but not in this run")
    if failures or not new_modes:
        return failures
    hedged = new_modes.get("hedged-degraded", {})
    unhedged = new_modes.get("unhedged-degraded", {})
    hedged_ratio = hedged.get("p99_vs_clean")
    if hedged_ratio is not None and hedged_ratio > GRAY_HEDGED_MAX_RATIO:
        failures.append(
            f"gray.hedged-degraded: p99 is {hedged_ratio:.2f}x clean "
            f"(must stay <= {GRAY_HEDGED_MAX_RATIO:.0f}x — the resilience "
            f"layer stopped routing around the gray node)"
        )
    unhedged_ratio = unhedged.get("p99_vs_clean")
    if unhedged_ratio is not None and unhedged_ratio <= GRAY_UNHEDGED_MIN_RATIO:
        failures.append(
            f"gray.unhedged-degraded: p99 is only {unhedged_ratio:.2f}x clean "
            f"(must exceed {GRAY_UNHEDGED_MIN_RATIO:.0f}x — the degradation "
            f"no longer bites, so the hedged number proves nothing)"
        )
    for mode, ref in ref_modes.items():
        new = new_modes[mode]
        ref_p99, new_p99 = ref.get("p99_ms"), new.get("p99_ms")
        if ref_p99 and new_p99 and new_p99 > ref_p99 * (1.0 + tolerance):
            failures.append(
                f"gray.{mode}: p99 {new_p99:.3f} ms vs reference "
                f"{ref_p99:.3f} ms (tolerance {tolerance:.0%}, simulated "
                f"latencies are deterministic)"
            )
        if new.get("failed"):
            failures.append(f"gray.{mode}: {new['failed']} operations failed")
    return failures


# ---------------------------------------------------------------------------
# Corruption benchmark (simulated detection/repair: deterministic)
# ---------------------------------------------------------------------------

#: The scrubber must converge (one clean round after the last repair) within
#: this many rounds for the committed corruption point — matches the
#: default ``IntegrityConfig.max_scrub_rounds``.
CORRUPTION_MAX_SCRUB_ROUNDS = 4


def run_corruption_suite(seed: int = 17) -> dict:
    """One silent-corruption point: detection, repair convergence, overhead.

    Simulated results of :func:`~repro.bench.harness.run_corruption_experiment`
    — exact and machine-independent under a pinned ``PYTHONHASHSEED``, so the
    regression gate applies absolute invariants (zero corrupt rows served,
    full detection and repair) with no variance floor.
    """
    from .harness import run_corruption_experiment

    result = run_corruption_experiment(seed=seed)
    section = {
        "meta": {"nodes": result["nodes"], "ops": result["ops"],
                 "corruptions": result["injected"], "seed": seed},
        "failed": result["failed"],
        "corrupt_rows_served": result["corrupt_rows_served"],
        "detected_by_reads": result["detected_by_reads"],
        "detected_total": result["detected_total"],
        "repaired_total": result["repaired_total"],
        "unrepairable": result["unrepairable"],
        "quarantine_leftover": result["quarantine_leftover"],
        "detection_ms_mean": round(result["detection_ms_mean"], 4),
        "detection_ms_max": round(result["detection_ms_max"], 4),
        "scrub_rounds_to_converge": result["scrub_rounds_to_converge"],
        "scrub_bytes": result["scrub_bytes"],
        "scrub_overhead_ratio": round(result["scrub_overhead_ratio"], 4),
        "p50_ms": round(result["p50_ms"], 4),
        "p99_ms": round(result["p99_ms"], 4),
    }
    print(f"corruption.detect  {section['detected_total']}/{section['meta']['corruptions']} "
          f"detected ({section['detected_by_reads']} by reads), "
          f"mean latency {section['detection_ms_mean']:.1f} ms", file=sys.stderr)
    print(f"corruption.repair  {section['repaired_total']} repaired, "
          f"{section['unrepairable']} unrepairable, "
          f"{section['corrupt_rows_served']} corrupt rows served, "
          f"converged in {section['scrub_rounds_to_converge']} scrub rounds "
          f"({section['scrub_bytes']:,d} scrub bytes, "
          f"x{section['scrub_overhead_ratio']:.2f} of stored)", file=sys.stderr)
    return section


def check_corruption_regressions(reference: dict, fresh: dict,
                                 tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Gate the corruption point: absolute integrity invariants plus drift.

    The absolute invariants are the experiment's reason to exist: no acked
    row is ever served corrupted, every injected corruption is detected and
    repaired, nothing is left unrepairable or quarantined, and the scrubber
    converges within :data:`CORRUPTION_MAX_SCRUB_ROUNDS`.  On top of that the
    scrub byte overhead may not drift more than ``tolerance`` above the
    committed reference (simulated bytes: exact).
    """
    ref_section = reference.get("corruption", {})
    new_section = fresh.get("corruption", {})
    if ref_section and not new_section:
        # Section skipped wholesale (--no-corruption): nothing to compare.
        return []
    if not new_section:
        return []
    failures = []
    if new_section.get("corrupt_rows_served", 0):
        failures.append(
            f"corruption: {new_section['corrupt_rows_served']} corrupted rows "
            f"served to clients (must be 0 — verification stopped catching "
            f"checksum mismatches on the read path)"
        )
    if new_section.get("failed", 0):
        failures.append(
            f"corruption: {new_section['failed']} operations failed (repair "
            f"should make every injected corruption transparent to readers)"
        )
    injected = new_section.get("meta", {}).get("corruptions", 0)
    detected = new_section.get("detected_total", 0)
    if detected < injected:
        failures.append(
            f"corruption: only {detected}/{injected} injected corruptions "
            f"detected — the scrubber or read verification lost coverage"
        )
    repaired = new_section.get("repaired_total", 0)
    if repaired < detected:
        failures.append(
            f"corruption: only {repaired}/{detected} detected corruptions "
            f"repaired — read-repair or scrub back-fill stopped converging"
        )
    if new_section.get("unrepairable", 0):
        failures.append(
            f"corruption: {new_section['unrepairable']} entries unrepairable "
            f"(every corruption has a clean replica in this experiment)"
        )
    if new_section.get("quarantine_leftover", 0):
        failures.append(
            f"corruption: {new_section['quarantine_leftover']} entries still "
            f"quarantined after scrubbing — repair did not drain the quarantine"
        )
    rounds = new_section.get("scrub_rounds_to_converge", 0)
    if rounds > CORRUPTION_MAX_SCRUB_ROUNDS:
        failures.append(
            f"corruption: scrubber took {rounds} rounds to converge "
            f"(bound {CORRUPTION_MAX_SCRUB_ROUNDS})"
        )
    ref_overhead = ref_section.get("scrub_overhead_ratio")
    new_overhead = new_section.get("scrub_overhead_ratio")
    if ref_overhead and new_overhead and new_overhead > ref_overhead * (1.0 + tolerance):
        failures.append(
            f"corruption: scrub byte overhead x{new_overhead:.2f} of stored "
            f"bytes vs reference x{ref_overhead:.2f} (tolerance "
            f"{tolerance:.0%}, simulated bytes are deterministic)"
        )
    return failures


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------


#: Scale presets: (micro row count, e2e nodes, e2e scale factor).
SCALES = {
    "smoke": (2_000, 4, 0.2),
    "default": (20_000, 4, 0.5),
}

E2E_QUERIES = ("Q1", "Q3", "Q6")
BATCH_ROWS = 256
#: Passes the decode and predicate benchmarks make over the encoded batches.
#: One pass over the default scale takes about 25 ms — under
#: ``VARIANCE_FLOOR_SECONDS``, where ``--check`` gates nothing.
ENCODED_READ_PASSES = 4
#: Same reason, scan path: one pass of ``storage.lookup_tuples`` over the
#: default scale is ~15 ms, one (projection + residual) pass of
#: ``operators.scan_source`` ~45 ms, and a cached ``TupleId.hash_key`` read
#: ~0.05 us — 100k of them were 12 ms and never gated.
LOOKUP_PASSES = 6
SCAN_SOURCE_PASSES = 2
TUPLE_ID_HASH_PASSES = 20


#: Cluster shape of the traffic suite per scale preset: (nodes, scale factor).
TRAFFIC_SCALES = {
    "smoke": (5, 0.5),
    "default": (8, 5.0),
}


def run_suite(seed: int = 0, repeat: int = 3, scale: str = "default",
              include_e2e: bool = True, include_traffic: bool = True,
              include_gray: bool = True, include_corruption: bool = True) -> dict:
    """Run every benchmark; returns the BENCH_perf.json document."""
    micro_rows, e2e_nodes, e2e_sf = SCALES[scale]
    tpch_rows = _tpch_like_rows(micro_rows, seed)
    stb_rows = _stb_like_rows(micro_rows, seed + 1)
    mixed_rows = _mixed_value_tuples(max(512, micro_rows // 4), seed + 2)
    decode_payloads = [
        TupleBatch.build(
            _TPCH_ATTRIBUTES, tpch_rows[start:start + BATCH_ROWS]
        ).compressed_payload()
        for start in range(0, len(tpch_rows), BATCH_ROWS)
    ]
    # Encoded-batch inputs are pre-built (outside the timed region) for the
    # decode and predicate benchmarks; the encode benchmark rebuilds its own.
    encoded_batches = [
        EncodedTupleBatch.build(_TPCH_ATTRIBUTES, tpch_rows[start:start + BATCH_ROWS])
        for start in range(0, len(tpch_rows), BATCH_ROWS)
    ]
    encoded_payloads = [batch.compressed_payload() for batch in encoded_batches]
    hash_keys = [(f"customer-{index % 512}",) for index in range(2048)]
    tuple_ids = [
        TupleId((f"order-{index % 512}", index % 16), epoch=1)
        for index in range(2048)
    ]
    hash_lookups = micro_rows * 5
    # Operator inputs are pre-built so the operator benchmarks time operator
    # work only (fresh operators are constructed inside each timed run).
    tpch_batches = _tagged_batches(_TPCH_ATTRIBUTES, tpch_rows, BATCH_ROWS)
    join_build_rows = [
        (values[1], f"part-{values[1] % 4096}") for values in tpch_rows[::4]
    ]
    join_build_batches = _tagged_batches(
        ("p_partkey", "p_name"), join_build_rows, BATCH_ROWS
    )
    join_total = len(tpch_rows) + len(join_build_rows)
    # Scan-path inputs: a loaded data node and its pages' ID lists, and the
    # stored tuples batched page by page the way query.scan_tuples delivers.
    scan_service, scan_schema, scan_pages = _loaded_storage_pages(tpch_rows)
    scan_batches = [
        scan_service.lookup_tuples(scan_schema.name, tuple_ids)[0]
        for tuple_ids in scan_pages
    ]

    benchmarks: list[tuple[str, Callable[[], int]]] = [
        ("calibration.spin", bench_calibration_spin),
        ("serialization.encode_tpch",
         lambda: bench_serialization_encode_tpch(tpch_rows, BATCH_ROWS)),
        ("serialization.encode_stb",
         lambda: bench_serialization_encode_stb(stb_rows, BATCH_ROWS)),
        ("serialization.decode_tpch",
         lambda: bench_serialization_decode(decode_payloads)),
        ("serialization.values_roundtrip",
         lambda: bench_serialization_values_roundtrip(mixed_rows)),
        ("encoding.encode_tpch",
         lambda: bench_encoding_encode_tpch(tpch_rows, BATCH_ROWS)),
        ("encoding.decode_tpch",
         lambda: bench_encoding_decode_tpch(encoded_payloads * ENCODED_READ_PASSES)),
        ("encoding.predicate_over_encoded",
         lambda: bench_encoding_predicate(encoded_batches * ENCODED_READ_PASSES)),
        ("hashing.partition_hash",
         lambda: bench_hashing_partition(hash_keys, hash_lookups)),
        ("hashing.tuple_id_hash_key",
         lambda: bench_hashing_tuple_ids(tuple_ids, hash_lookups * TUPLE_ID_HASH_PASSES)),
        ("hashing.sha1_identifiers",
         lambda: bench_hashing_sha1_identifiers(hash_lookups // 5)),
        ("operators.select_project",
         lambda: bench_operators_select_project(tpch_batches, len(tpch_rows))),
        ("operators.hash_join",
         lambda: bench_operators_hash_join(
             tpch_batches, join_build_batches, join_total)),
        ("operators.aggregate",
         lambda: bench_operators_aggregate(tpch_batches, len(tpch_rows))),
        ("operators.scan_source",
         lambda: bench_operators_scan_source(
             scan_schema, scan_batches, SCAN_SOURCE_PASSES)),
        ("storage.lookup_tuples",
         lambda: bench_storage_lookup_tuples(
             scan_service, scan_schema.name, scan_pages, LOOKUP_PASSES)),
    ]
    if include_e2e:
        benchmarks.append((
            "e2e.tpch",
            lambda: bench_e2e_tpch(e2e_nodes, e2e_sf, seed, E2E_QUERIES),
        ))

    results = {}
    for name, func in benchmarks:
        seconds, ops = _time_best_of(repeat, func)
        results[name] = {
            "seconds": round(seconds, 6),
            "ops": ops,
            "us_per_op": round(seconds / ops * 1e6, 6),
        }
        print(f"{name:36s} {seconds * 1e3:10.2f} ms  "
              f"{seconds / ops * 1e6:10.3f} us/op  ({ops} ops)",
              file=sys.stderr)

    document = {
        "meta": {
            "python": platform.python_version(),
            "seed": seed,
            "repeat": repeat,
            "scale": scale,
            "batch_rows": BATCH_ROWS,
            "e2e": {"nodes": e2e_nodes, "scale_factor": e2e_sf,
                    "queries": list(E2E_QUERIES)} if include_e2e else None,
        },
        "benchmarks": results,
    }
    if include_traffic:
        traffic_nodes, traffic_sf = TRAFFIC_SCALES[scale]
        document["traffic"] = run_traffic_suite(
            seed=seed, nodes=traffic_nodes, scale_factor=traffic_sf
        )
    if include_gray:
        document["gray"] = run_gray_suite()
    if include_corruption:
        document["corruption"] = run_corruption_suite()
    return document


# ---------------------------------------------------------------------------
# Regression check (CI perf-smoke)
# ---------------------------------------------------------------------------


def check_traffic_regressions(reference: dict, fresh: dict,
                              tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Compare the wire-traffic section against a committed reference.

    Traffic bytes are *simulated* — exact and machine-independent under a
    pinned ``PYTHONHASHSEED`` — so unlike the timing check there is no
    calibration and no variance floor: any query whose pushdown bytes grew
    beyond ``tolerance`` fails, as does a pushdown plan that lost its edge
    over the committed baseline run (reduction collapsing to less than half
    the recorded one signals the optimizer stopped pushing).
    """
    ref_traffic = reference.get("traffic", {}).get("queries", {})
    new_traffic = fresh.get("traffic", {}).get("queries", {})
    if ref_traffic and not new_traffic:
        # The whole section is absent: the fresh run skipped traffic
        # intentionally (--no-traffic); only an *individually* missing query
        # signals a silently dropped benchmark.
        return []
    failures = []
    for name, ref in ref_traffic.items():
        new = new_traffic.get(name)
        if new is None:
            failures.append(f"traffic.{name}: present in reference but not in this run")
            continue
        ref_bytes = ref["bytes_pushdown"]
        new_bytes = new["bytes_pushdown"]
        if new_bytes > ref_bytes * (1.0 + tolerance):
            failures.append(
                f"traffic.{name}: {new_bytes:,d} B on the wire vs reference "
                f"{ref_bytes:,d} B (tolerance {tolerance:.0%}, byte counts are "
                f"deterministic)"
            )
        ref_reduction = ref.get("reduction", 0.0)
        new_reduction = new.get("reduction", 0.0)
        if ref_reduction > 0.1 and new_reduction < ref_reduction / 2:
            failures.append(
                f"traffic.{name}: pushdown reduction fell to {new_reduction:.1%} "
                f"(reference {ref_reduction:.1%}) — the optimizer stopped pushing"
            )
    return failures


def check_regressions(reference: dict, fresh: dict,
                      tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Compare a fresh run against a committed reference document.

    Times are normalised by the ``calibration.spin`` ratio so that a slower
    (or faster) CI machine does not read as a regression (or mask one);
    traffic bytes are exact and compared without a floor
    (:func:`check_traffic_regressions`).  Returns human-readable failure
    strings; empty means the check passed.
    """
    ref_benches = reference.get("benchmarks", {})
    new_benches = fresh.get("benchmarks", {})
    if ref_benches and not new_benches:
        # Timing section skipped wholesale (--traffic-only): compare only
        # the sections the fresh run actually produced.
        ref_benches = {}
    ref_calibration = ref_benches.get("calibration.spin", {}).get("seconds")
    new_calibration = new_benches.get("calibration.spin", {}).get("seconds")
    if ref_calibration and new_calibration:
        machine_ratio = new_calibration / ref_calibration
    else:
        machine_ratio = 1.0
    failures = []
    for name, ref in ref_benches.items():
        if name == "calibration.spin":
            continue
        new = new_benches.get(name)
        if new is None:
            failures.append(f"{name}: present in reference but not in this run")
            continue
        ref_seconds = ref["seconds"] * machine_ratio
        if max(ref_seconds, new["seconds"]) < VARIANCE_FLOOR_SECONDS:
            continue  # below the variance floor: informational only
        if new["seconds"] > ref_seconds * (1.0 + tolerance):
            failures.append(
                f"{name}: {new['seconds']:.3f}s vs reference "
                f"{ref['seconds']:.3f}s (machine-normalised "
                f"{ref_seconds:.3f}s, tolerance {tolerance:.0%})"
            )
    failures.extend(check_traffic_regressions(reference, fresh, tolerance))
    failures.extend(check_gray_regressions(reference, fresh, tolerance))
    failures.extend(check_corruption_regressions(reference, fresh, tolerance))
    return failures


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf",
        description="Seeded perf microbenchmarks; emits BENCH_perf.json.",
    )
    parser.add_argument("--output", default=None,
                        help="write results JSON to this path")
    parser.add_argument("--check", default=None, metavar="REFERENCE",
                        help="compare against a committed BENCH json; "
                             "exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed slowdown fraction for --check "
                             "(default 0.25)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=3,
                        help="best-of-N runs per benchmark (default 3)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="default")
    parser.add_argument("--no-e2e", action="store_true",
                        help="skip the end-to-end TPC-H benchmark")
    parser.add_argument("--no-traffic", action="store_true",
                        help="skip the wire-traffic benchmarks")
    parser.add_argument("--no-gray", action="store_true",
                        help="skip the gray-failure benchmark")
    parser.add_argument("--no-corruption", action="store_true",
                        help="skip the silent-corruption benchmark")
    parser.add_argument("--traffic-only", action="store_true",
                        help="run only the wire-traffic benchmarks (emits a "
                             "document with a traffic section and no timings)")
    parser.add_argument("--gray-only", action="store_true",
                        help="run only the gray-failure experiment (emits a "
                             "document with a gray section and no timings)")
    parser.add_argument("--corruption-only", action="store_true",
                        help="run only the silent-corruption experiment "
                             "(emits a document with a corruption section "
                             "and no timings)")
    args = parser.parse_args(argv)

    if args.corruption_only:
        # Like --gray-only: no other sections at all, so --check compares
        # only the corruption section (the nightly scrub-smoke job's gate).
        # The corruption suite keeps its own fixed seed (the committed
        # point), exactly as in a full run.
        document = {
            "meta": {"python": platform.python_version(),
                     "corruption_only": True},
            "corruption": run_corruption_suite(),
        }
    elif args.gray_only:
        # Like --traffic-only: no "benchmarks"/"traffic" keys at all, so
        # --check compares only the gray section (the nightly gray-smoke
        # job's gate) instead of reporting every unmeasured timing as
        # vanished.
        # The gray suite keeps its own fixed seed (the committed point),
        # exactly as in a full run.
        document = {
            "meta": {"python": platform.python_version(),
                     "gray_only": True},
            "gray": run_gray_suite(),
        }
    elif args.traffic_only:
        # No "benchmarks" key at all: an empty section would read as "every
        # timing benchmark vanished"; a missing one means "not measured" and
        # --check skips the timing comparison entirely.
        nodes, scale_factor = TRAFFIC_SCALES[args.scale]
        document = {
            "meta": {"python": platform.python_version(), "seed": args.seed,
                     "scale": args.scale, "traffic_only": True},
            "traffic": run_traffic_suite(seed=args.seed, nodes=nodes,
                                         scale_factor=scale_factor),
        }
    else:
        document = run_suite(seed=args.seed, repeat=args.repeat, scale=args.scale,
                             include_e2e=not args.no_e2e,
                             include_traffic=not args.no_traffic,
                             include_gray=not args.no_gray,
                             include_corruption=not args.no_corruption)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        print()

    if args.check:
        with open(args.check, encoding="utf-8") as handle:
            reference = json.load(handle)
        failures = check_regressions(reference, document, args.tolerance)
        if failures:
            print("PERF REGRESSIONS DETECTED:", file=sys.stderr)
            for line in failures:
                print(f"  - {line}", file=sys.stderr)
            return 1
        print("perf check passed: no benchmark regressed beyond "
              f"{args.tolerance:.0%}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
