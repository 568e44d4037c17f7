"""Measure one workload: set-up, the timed closed loop, the oracle, the metrics.

Two kinds of run share this code:

* the **untraced** run yields the end-to-end metrics.  Host-time metrics
  (``ops_per_s``, ``wall_ms_*``, ``setup_s``) are read over
  every timed operation, as medians over cycles or blocks of cycles; the simulated-cost metrics (``virt_ms_*``,
  ``wire_bytes_per_op``, ``messages_per_op``, ``stored_bytes_per_user_byte``)
  and ``peak_rss_mb`` are read over a *counted prefix* — the first whole cycles that reach
  ``min_ops`` operations — so they do not depend on how many operations a
  faster or slower host fits into the time limit and repeat bit-for-bit for
  a given seed;
* the **traced** run (:mod:`trace`) yields the per-layer metrics, after an
  untraced reference phase over the same first cycles that prices the
  tracing itself (``trace.overhead_ratio``).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

from workloads import OpRecord, Workload

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed operations every run reaches regardless of the time limit: the
#: count at which p95 still has ten samples beyond it.
MIN_TIMED_OPS = 200
#: Consecutive blocks of whole cycles the timed ops are cut into for the
#: latency percentiles: each percentile is taken per block and the median
#: block is reported, so a burst of host noise that swamps one or two blocks
#: (and would double a pooled p95) does not move it.
LATENCY_BLOCKS = 5
#: Iterations of the fixed spin loop behind ``host.spin_ms``.
SPIN_ITERATIONS = 2_000_000


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def build(workload_cls: type[Workload], seed: int) -> tuple[Workload, float]:
    """One full set-up (data, cluster, initial publish, warm-up cycle)."""
    gc.collect()
    started = time.perf_counter()
    workload = workload_cls(seed)
    workload.setup()
    return workload, time.perf_counter() - started


class Loop:
    """Runs whole cycles of one workload and keeps what they produced."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.records: list[OpRecord] = []
        #: Host ns spent inside the program, per cycle (serial workloads: the
        #: sum of the op times; concurrent: the closed-loop round).
        self.busy_ns: list[int] = []
        self.cycles = 0

    def run_cycle(self) -> None:
        before = len(self.records)
        started = time.perf_counter_ns()
        self.workload.run_cycle(self.cycles, self.records)
        elapsed = time.perf_counter_ns() - started
        if self.workload.clients == 1:
            elapsed = sum(record.wall_ns for record in self.records[before:])
        self.busy_ns.append(elapsed)
        self.cycles += 1

    def run(self, seconds: float, min_ops: int = 0, min_cycles: int = 0,
            after_cycle=None) -> None:
        """Whole cycles until the time, op and cycle floors are all met."""
        deadline = time.perf_counter() + seconds
        while True:
            self.run_cycle()
            if after_cycle is not None:
                after_cycle()
            if (len(self.records) >= min_ops and self.cycles >= min_cycles
                    and time.perf_counter() >= deadline):
                return

    def busy_seconds(self) -> float:
        return sum(self.busy_ns) / 1e9

    def ops_per_second(self) -> float:
        """Throughput of the median cycle (every cycle holds the same ops), so
        a burst of host noise inside the run does not move it."""
        return len(self.records) / self.cycles / (statistics.median(self.busy_ns) / 1e9)

    def wall_ms_percentile(self, fraction: float) -> float:
        """Median over ``LATENCY_BLOCKS`` blocks of the block's percentile of
        host ms per op (submit to resolve)."""
        per_cycle = len(self.records) // self.cycles
        blocks = min(LATENCY_BLOCKS, self.cycles)
        edges = [round(index * self.cycles / blocks) * per_cycle for index in range(blocks + 1)]
        return statistics.median(
            percentile([record.wall_ns / 1e6 for record in self.records[low:high]], fraction)
            for low, high in zip(edges, edges[1:])
        )

    def verify(self) -> tuple[int, list[str]]:
        """Run the deferred oracles; returns (failed ops, messages)."""
        problems = self.workload.final_check()
        for record in self.records:
            if record.ok is None:
                record.ok = record.check() if record.check is not None else True
                record.check = None
                if not record.ok:
                    record.error = "result differs from the reference"
        failed = [record for record in self.records if not record.ok]
        for record in failed[:5]:
            problems.append(f"{record.label}: {record.error}")
        # A wrong final state is one failed operation even when every single
        # result checked out.
        return max(len(failed), 1 if problems else 0), problems


class Counters:
    """Deterministic simulator counters at one instant."""

    def __init__(self, workload: Workload) -> None:
        network = workload.cluster.network
        self.bytes = network.traffic.total_bytes
        self.messages = network.traffic.total_messages


def measure(workload_cls: type[Workload], seed: int, seconds: float,
            min_ops: int = MIN_TIMED_OPS) -> dict:
    """The untraced run: end-to-end metrics of one workload."""
    setups = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous instance before timing the next
        workload, elapsed = build(workload_cls, seed)
        setups.append(elapsed)
    loop = Loop(workload)
    prefix: dict = {}

    def close_prefix() -> None:
        if prefix or len(loop.records) < min_ops:
            return
        after = Counters(workload)
        prefix.update(
            ops=len(loop.records),
            bytes=after.bytes - start.bytes,
            messages=after.messages - start.messages,
            stored=workload.stored_bytes(),
            user=workload.user_bytes(),
            # Read here, not at the end of the run: versions and results pile
            # up with every op, so a faster host would otherwise report more
            # memory for fitting more ops into the time limit.
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )

    gc.collect()
    start = Counters(workload)
    loop.run(seconds, min_ops=min_ops, after_cycle=close_prefix)
    failed, problems = loop.verify()

    records = loop.records
    counted = records[: prefix["ops"]]
    virt_ms = [record.virt_s * 1e3 for record in counted]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (loop.ops_per_second(), "1/s"),
        "wall_ms_p50": (loop.wall_ms_percentile(0.50), "ms"),
        "wall_ms_p95": (loop.wall_ms_percentile(0.95), "ms"),
        "peak_rss_mb": (prefix["peak_rss_mb"], "MB"),
        "virt_ms_p50": (percentile(virt_ms, 0.50), "ms"),
        "virt_ms_p95": (percentile(virt_ms, 0.95), "ms"),
        "wire_bytes_per_op": (prefix["bytes"] / prefix["ops"], "B"),
        "messages_per_op": (prefix["messages"] / prefix["ops"], "count"),
        "stored_bytes_per_user_byte": (prefix["stored"] / prefix["user"], "ratio"),
    }
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def spin_ms() -> float:
    """A fixed pure-Python loop, so numbers can be read across machines."""
    started = time.perf_counter()
    total = 0
    for value in range(SPIN_ITERATIONS):
        total += value & 7
    return (time.perf_counter() - started) * 1e3


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

#: Layers of the program (``trace.BENCH`` is the benchmark's own code).
#: Dotted names are sub-layers of one package.
LAYERS = (
    "net", "transport", "overlay", "storage.client", "storage.service",
    "query.service", "query.operators", "optimizer", "codec.encode", "codec.decode",
    "codec.size", "hashing", "runtime", "cache", "obs", "resilience", "integrity", "cdss",
)
#: Layers that must do nothing unless the workload switches them on.
OPT_IN_LAYERS = ("cache", "obs", "resilience", "integrity")
#: Share of the traced wall the named layers must account for.
MIN_COVERAGE = 0.90


def _self_metric(layer: str) -> str:
    return f"{layer}_self_ms_per_op" if "." in layer else f"{layer}.self_ms_per_op"


class PublicStats:
    """The program's own counters (public stats objects) at one instant."""

    def __init__(self, workload: Workload) -> None:
        from repro.common.serialization import ENCODING_STATS
        from repro.overlay.routing import RoutingSnapshot

        cluster = workload.cluster
        self.events = cluster.network.events_processed
        self.snapshot_builds = RoutingSnapshot.build_count
        self.encoded = dict(ENCODING_STATS.encoded_bytes)
        caches = cluster.cache_statistics()
        self.cache = {
            tier: (stats.hits, stats.misses, stats.evictions) for tier, stats in caches.items()
        }
        self.hedges = cluster.resilience_statistics().hedges_launched
        self.obs_spans = len(cluster.tracer.spans) if cluster.tracer is not None else 0


def measure_traced(workload_cls: type[Workload], seed: int, seconds: float) -> dict:
    """The traced run: per-layer metrics of one workload, plus a trace document."""
    import trace as tracing

    # Untraced reference over the first cycles: what the same operations cost
    # with no wrapper installed (handlers are wrapped at registration, so the
    # reference must run before install()).
    workload, _ = build(workload_cls, seed)
    reference = Loop(workload)
    gc.collect()
    events_before = workload.cluster.network.events_processed
    reference.run(seconds / 2)
    reference_events = workload.cluster.network.events_processed - events_before
    reference_failed, problems = reference.verify()
    workload = None

    rec = tracing.Recorder()
    tracing.install(rec)
    rec.calibrate()
    workload, _ = build(workload_cls, seed)
    loop = Loop(workload)
    per_cycle: list[dict[str, float]] = []
    mark = rec.snapshot()

    def after_cycle() -> None:
        nonlocal mark
        rec.detail = False  # full spans for the first cycle only
        per_cycle.append({
            layer: entry["self_ns"] / 1e6
            for layer, entry in rec.by_layer(since=mark).items()
        })
        mark = rec.snapshot()

    gc.collect()
    before = PublicStats(workload)
    spans_before = rec.next_span  # calibration made spans too
    rec.active = rec.detail = True
    try:
        loop.run(seconds, min_cycles=reference.cycles, after_cycle=after_cycle)
    finally:
        rec.active = False
    after = PublicStats(workload)
    failed, traced_problems = loop.verify()
    problems += traced_problems

    records = loop.records
    ops = len(records)
    layers = rec.by_layer()
    names = rec.by_name()
    idle = {"self_ns": 0.0, "calls": 0}
    self_ms = {layer: layers.get(layer, idle)["self_ns"] / 1e6 for layer in LAYERS}
    bench_ms = layers.get(tracing.BENCH, idle)["self_ns"] / 1e6
    named_ms = sum(self_ms.values())
    name_ms = {(row["layer"], row["name"]): row["self_ms"] for row in names}

    def fact(key: str) -> float:
        return sum(record.facts.get(key, 0) for record in records if record.facts)

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    def cycle_ratio(traced_ns: list) -> float:
        """Median over the reference cycles of traced / untraced host time of
        the same cycle (the median shrugs off a burst of host noise)."""
        return statistics.median(
            traced / plain for traced, plain in zip(traced_ns, reference.busy_ns)
        )

    def hit_share(tier: str) -> float:
        hits = after.cache[tier][0] - before.cache[tier][0]
        misses = after.cache[tier][1] - before.cache[tier][1]
        return per(hits, hits + misses)

    store_calls = sum(
        row["calls"] for row in names
        if row["layer"] == "storage.service" and row["name"].startswith("store.")
    )
    codec_calls = {
        part: layers.get(f"codec.{part}", idle)["calls"]
        for part in ("encode", "decode", "size")
    }
    encoded = {codec: after.encoded[codec] - before.encoded[codec] for codec in after.encoded}
    stats = workload.cluster.runtime.stats
    queue_ms = [record.queue_s * 1e3 for record in records]
    imports = fact("import")

    metrics: dict[str, tuple[float, str]] = {
        _self_metric(layer): (per(self_ms[layer], ops), "ms") for layer in LAYERS
    }
    metrics.update({
        "net.events_per_op": (per(after.events - before.events, ops), "count"),
        "net.us_per_event": (per(reference.busy_seconds() * 1e6, reference_events), "us"),
        "net.loop_self_ms_per_op": (per(name_ms.get(("net", "net.loop"), 0.0), ops), "ms"),
        "net.sends_per_op": (per(rec.calls("net.send"), ops), "count"),
        "transport.rpc_calls_per_op": (per(rec.calls("transport.call"), ops), "count"),
        "overlay.snapshot_builds": (after.snapshot_builds - before.snapshot_builds, "count"),
        "storage.handler_calls_per_op": (per(store_calls, ops), "count"),
        "storage.pages_written_per_publish": (
            per(rec.calls("store.put_page"), fact("publish")), "count"),
        "storage.pages_read_per_retrieve": (per(fact("pages_read"), fact("retrieve")), "count"),
        "storage.stored_bytes": (workload.stored_bytes(), "B"),
        "query.rows_scanned_per_row_returned": (
            per(rec.counts.get("rows_scanned", 0), fact("rows_returned")), "ratio"),
        "query.pages_pruned_share": (per(fact("pages_pruned"), fact("pages_total")), "share"),
        "query.data_bytes_per_op": (per(fact("data_bytes"), ops), "B"),
        "optimizer.compile_ms_per_query": (
            per(self_ms["optimizer"], rec.calls("planner.compile_query")), "ms"),
        "codec.encode_calls_per_op": (per(codec_calls["encode"], ops), "count"),
        "codec.decode_calls_per_op": (per(codec_calls["decode"], ops), "count"),
        "codec.size_estimate_calls_per_op": (per(codec_calls["size"], ops), "count"),
        "codec.encoded_bytes_per_op": (per(sum(encoded.values()), ops), "B"),
        "codec.raw_fallback_byte_share": (
            per(encoded.get("raw", 0), sum(encoded.values())), "share"),
        "hashing.calls_per_op": (per(layers.get("hashing", idle)["calls"], ops), "count"),
        "runtime.queue_delay_virt_ms_p50": (percentile(queue_ms, 0.50), "ms"),
        "runtime.max_in_flight": (stats.max_in_flight, "count"),
        "runtime.shed": (stats.shed, "count"),
        "cache.node_hit_share": (hit_share("node"), "share"),
        "cache.result_hit_share": (hit_share("result"), "share"),
        "cache.evictions": (
            sum(after.cache[t][2] - before.cache[t][2] for t in after.cache), "count"),
        "obs.spans_per_op": (per(after.obs_spans - before.obs_spans, ops), "count"),
        "resilience.hedges_per_op": (per(after.hedges - before.hedges, ops), "count"),
        "integrity.verifications_per_op": (
            per(rec.calls("NodeIntegrity.verify") + rec.calls("NodeIntegrity.verify_cached"), ops),
            "count"),
        "cdss.exchange_self_ms_per_import": (
            per(name_ms.get(("cdss", "UpdateExchange.compute_deltas"), 0.0), imports), "ms"),
        "cdss.reconcile_self_ms_per_import": (
            per(name_ms.get(("cdss", "Reconciler.reconcile"), 0.0), imports), "ms"),
        "cdss.changes_per_import": (per(fact("changes"), imports), "count"),
        "trace.coverage_share": (per(named_ms, named_ms + bench_ms), "share"),
        "trace.overhead_ratio": (cycle_ratio(loop.busy_ns), "ratio"),
        "trace.residual_ratio": (
            cycle_ratio([sum(cycle.values()) * 1e6 for cycle in per_cycle]), "ratio"),
        "trace.spans_per_op": (per(rec.next_span - spans_before, ops), "count"),
        "host.spin_ms": (spin_ms(), "ms"),
    })

    if not workload.layers_on:
        for name, (value, _unit) in metrics.items():
            if name.split(".")[0] in OPT_IN_LAYERS and value:
                problems.append(f"{name} = {value} on a workload with the opt-in layers off")
    coverage = metrics["trace.coverage_share"][0]
    if coverage < MIN_COVERAGE:
        problems.append(f"trace.coverage_share = {coverage:.3f} < {MIN_COVERAGE}")

    document = {
        "workload": workload.name,
        "seed": seed,
        "ops": ops,
        "cycles": loop.cycles,
        "calibration_ns": {
            "inside": rec.inside_ns, "outside": rec.outside_ns, "bind": rec.bind_ns,
        },
        "layers_self_ms": {**self_ms, tracing.BENCH: bench_ms},
        "names": names,
        "per_cycle_layer_self_ms": per_cycle,
        "first_cycle_spans": rec.detailed_spans(),
    }
    failed = max(failed + reference_failed, 1 if problems else 0)
    return {
        "correct": failed == 0,
        "attempted": ops + len(reference.records),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "trace": document,
    }
