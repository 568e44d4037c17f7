"""Cluster wiring: build a simulated CDSS deployment in one call.

A :class:`Cluster` creates the simulated network from a
:class:`~repro.net.profiles.NetworkProfile`, adds the requested number of
participant nodes and attaches to each one the full per-node stack used by the
paper's system: RPC endpoint, membership view, epoch gossip, storage service
(coordinator / index / data / inverse roles) and — when the query engine is
installed via :meth:`enable_query_processing` — the distributed query
executor.

Operations are submitted through the concurrent runtime layer
(:mod:`repro.runtime`): :meth:`Cluster.session` returns a per-initiator
:class:`~repro.runtime.session.Session` whose ``submit_publish`` /
``submit_retrieve`` / ``submit_query`` methods return futures resolved by
the event loop, so any number of operations can be in flight concurrently
under the admission-controlled scheduler.  The *blocking* convenience
wrappers (``publish``, ``retrieve``, ``query``) that examples, tests and
benchmarks use are thin shims over that layer: submit one operation, drive
the discrete-event loop until it drains, return the future's result —
issuing exactly the message sequence the single-operation path always did.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .cache import CacheConfig, CacheStats, NodeCache, SemanticResultCache
from .common.errors import ReproError
from .common.serialization import ENCODING_STATS
from .common.types import RelationData, Value
from .net.profiles import LAN_GIGABIT, NetworkProfile
from .net.simnet import Network, SimNode, TrafficSnapshot
from .net.transport import rpc_endpoint
from .overlay.allocation import RangeAllocator
from .overlay.gossip import EpochGossip
from .overlay.membership import MembershipView
from .integrity import (
    IntegrityConfig,
    IntegrityScrubber,
    IntegrityStats,
    NodeIntegrity,
    ScrubReport,
)
from .overlay.replication import BackgroundReplicator, ReplicationReport
from .overlay.routing import RoutingSnapshot
from .resilience.config import ResilienceConfig
from .resilience.service import NodeResilience
from .resilience.stats import ResilienceStats
from .runtime.scheduler import SchedulerConfig
from .runtime.session import Runtime, Session
from .storage.client import RetrieveResult, StorageClient, UpdateBatch, register_retrieve_handlers
from .storage.service import StorageService, storage_of


@contextmanager
def _repair_attribution(integrity, source: str):
    """Attribute quarantine back-fills inside the block to ``source``.

    The guard counts a repair when a quarantined entry is re-stored; which
    path performed the write (failover / replication / scrub) is ambient, so
    the maintenance paths flip it around their copy calls.
    """
    if integrity is None:
        yield
        return
    previous = integrity.repair_source
    integrity.repair_source = source
    try:
        yield
    finally:
        integrity.repair_source = previous


@dataclass
class ClusterNode:
    """All per-node components of one simulated participant."""

    node: SimNode
    membership: MembershipView
    gossip: EpochGossip
    storage: StorageService
    storage_client: StorageClient
    #: Version-keyed page/tuple/coordinator cache (None when caching is off).
    cache: NodeCache | None = None
    #: Initiator-side semantic result cache (None when caching is off).
    result_cache: SemanticResultCache | None = None
    #: Gray-failure resilience layer (None when resilience is off).
    resilience: NodeResilience | None = None
    #: End-to-end data integrity guard (None when integrity is off).
    integrity: NodeIntegrity | None = None

    @property
    def address(self) -> str:
        return self.node.address


class Cluster:
    """A simulated deployment of the storage and query subsystem."""

    def __init__(
        self,
        num_nodes: int,
        profile: NetworkProfile = LAN_GIGABIT,
        replication_factor: int = 3,
        allocator: RangeAllocator | None = None,
        page_capacity: int = 2048,
        address_prefix: str = "node",
        cache_config: CacheConfig | None = None,
        scheduler_config: SchedulerConfig | None = None,
        resilience_config: ResilienceConfig | None = None,
        integrity_config: IntegrityConfig | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.profile = profile
        self.replication_factor = min(replication_factor, num_nodes)
        self.page_capacity = page_capacity
        #: Caching is opt-in: without a config the cluster behaves exactly
        #: like the cache-less system (the regime the paper's figures report).
        self.cache_config = cache_config
        #: Admission-control knobs of the runtime scheduler (None = defaults).
        self.scheduler_config = scheduler_config
        #: Gray-failure resilience (adaptive timeouts, hedging, breakers) is
        #: opt-in for the same reason as caching: with it off, every message
        #: sequence is byte-identical to the pre-resilience system.
        self.resilience_config = resilience_config
        #: End-to-end data integrity (checksummed storage, verified reads,
        #: read-repair, scrubbing) is opt-in too: with it off nothing is
        #: checksummed and the golden wire vectors stay byte-identical.
        self.integrity_config = integrity_config
        #: Cluster-level scrub accounting (rounds, digests, bytes); merged
        #: with the per-node detection/repair counters by
        #: :meth:`integrity_statistics`.
        self._scrub_stats = IntegrityStats()
        self.network: Network = profile.create_network()
        self.addresses = [f"{address_prefix}-{i:03d}" for i in range(num_nodes)]
        self.nodes: dict[str, ClusterNode] = {}
        self.current_epoch = 0
        #: Highest epoch whose publish has *completed* (written durably and
        #: announced).  ``current_epoch`` is bumped when an epoch is assigned
        #: at submission; with concurrent publishes in flight the two differ,
        #: and operations default to the durable one — "the data available at
        #: the epoch in which the operation starts".
        self.durable_epoch = 0
        self._runtime: Runtime | None = None
        self._query_services: dict[str, object] = {}
        #: Nodes currently down (crashed and not yet restarted); maintained by
        #: the network's crash hook at the instant of the crash, so cluster
        #: bookkeeping never trails the simulator's own liveness.
        self.failed_addresses: set[str] = set()
        #: Per-relation tail of the publish chain: concurrent publishes to the
        #: same relation are serialised so each version builds on its
        #: committed predecessor (see :meth:`Session.submit_publish`).
        self._publish_tails: dict[str, object] = {}
        #: The publish currently *executing* per relation (a chained entry
        #: whose predecessor died before starting re-chains onto this).
        self._publishing: dict[str, object] = {}
        #: Highest epoch acknowledged per relation — the floor the next
        #: publish of that relation builds on even when every reachable
        #: catalog replica is stale (e.g. just after a rejoin).
        self._acked_epochs: dict[str, int] = {}
        #: Shared gossip peer list: one list object handed to every node's
        #: gossip component and kept until liveness changes.  The gossip layer
        #: caches its filtered+sorted view keyed by the list's identity, so
        #: steady-state rounds cost O(FANOUT) instead of rebuilding an O(n)
        #: list per message.  Crash and restart hooks drop it.
        self._gossip_peers: list[str] | None = None
        # The optimizer's catalog is maintained as relations are published.
        from .optimizer.catalog import Catalog

        self.catalog = Catalog()
        # The metrics registry exists from construction (it is a handful of
        # dicts) and pulls the hot-path stats objects through collectors at
        # snapshot time, so the message path pays nothing for it.
        from .obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        self.metrics.register_collector(
            lambda: self.network.traffic.metric_series()
        )
        self.metrics.register_collector(self._scheduler_series)
        self.metrics.register_collector(self._cache_series)
        self.metrics.register_collector(self._fault_series)
        self.metrics.register_collector(ENCODING_STATS.metric_series)
        self.metrics.register_collector(self._resilience_series)
        self.metrics.register_collector(self._integrity_series)
        self.metrics.register_collector(self._query_series)
        for address in self.addresses:
            sim_node = self.network.add_node(address, profile.host)
            rpc_endpoint(sim_node)
            resilience = None
            if resilience_config is not None:
                resilience = NodeResilience(
                    sim_node, resilience_config, peers=self.live_addresses
                )
            membership = MembershipView(
                sim_node, self.addresses, self.replication_factor, allocator=allocator
            )
            gossip = EpochGossip(sim_node, peers=self._gossip_peer_list)
            node_cache = result_cache = None
            if cache_config is not None:
                node_cache = cache_config.build_node_cache(address)
                result_cache = cache_config.build_result_cache(address)
                # Gossip is the conservative staleness guard: learning of a
                # newer epoch drops every cached resolution/result that the
                # new publish could affect (version-keyed entries survive).
                gossip.add_listener(node_cache.note_epoch)
                if result_cache is not None:
                    gossip.add_listener(result_cache.note_epoch)
            integrity = None
            if integrity_config is not None:
                integrity = NodeIntegrity(integrity_config)
                if node_cache is not None:
                    node_cache.attach_integrity(integrity, node=sim_node)
            storage = StorageService(sim_node, cache=node_cache, integrity=integrity)
            register_retrieve_handlers(storage, self.replication_factor)
            client = StorageClient(
                sim_node, membership, self.replication_factor, page_capacity,
                cache=node_cache,
            )
            self.nodes[address] = ClusterNode(
                sim_node, membership, gossip, storage, client,
                cache=node_cache, result_cache=result_cache,
                resilience=resilience, integrity=integrity,
            )
        self.network.add_crash_listener(self._on_node_crash)
        self.network.add_restart_listener(self._on_node_restart)

    # ------------------------------------------------------------------ access

    def __len__(self) -> int:
        return len(self.addresses)

    def node(self, address: str) -> ClusterNode:
        return self.nodes[address]

    def live_addresses(self) -> list[str]:
        return self.network.live_nodes()

    def _gossip_peer_list(self) -> list[str]:
        """The gossip peer list, rebuilt only when liveness changed.

        Returns the *same* list object between membership events so each
        node's gossip component can reuse its sorted view (see
        :class:`~repro.overlay.gossip.EpochGossip`).
        """
        peers = self._gossip_peers
        if peers is None:
            peers = self._gossip_peers = list(self.network.live_nodes())
        return peers

    def first_live_address(self) -> str:
        live = self.live_addresses()
        if not live:
            raise ReproError("all cluster nodes have failed")
        return live[0]

    def storage(self, address: str) -> StorageService:
        return storage_of(self.network.node(address))

    def snapshot(self, from_address: str | None = None) -> RoutingSnapshot:
        address = from_address or self.first_live_address()
        return self.nodes[address].membership.snapshot()

    # -------------------------------------------------------------------- clock

    def run(self, until: float | None = None) -> float:
        """Drive the event loop; returns the simulated time."""
        return self.network.run(until)

    @property
    def now(self) -> float:
        return self.network.now

    def traffic_snapshot(self) -> TrafficSnapshot:
        return self.network.traffic.snapshot()

    # ------------------------------------------------------------- observability

    def enable_tracing(self, tracer=None):
        """Install a tracer on the network (idempotent); returns it.

        Tracing is **off by default**: enabling it adds the propagated trace
        context's bytes to every remote message, so traced runs are not
        byte-identical to untraced ones — which is exactly why the golden
        wire vectors and the committed traffic numbers are recorded with it
        off.
        """
        if self.network.tracer is None:
            if tracer is None:
                from .obs.trace import Tracer

                tracer = Tracer()
            self.network.tracer = tracer
        return self.network.tracer

    def disable_tracing(self) -> None:
        """Remove the tracer; captured spans stay readable on the old one."""
        self.network.tracer = None

    @property
    def tracer(self):
        return self.network.tracer

    def observability(self) -> dict:
        """One uniformly-named snapshot of everything the cluster measures.

        ``metrics`` is the flat ``{"name{tags}": value}`` view over the
        eight registered collectors: the traffic meter, the scheduler, the
        cache tiers, the fault injector, the encoding pipeline, the
        resilience layer, the integrity layer and the query services
        (``rpc.bytes{kind=...}``, ``scheduler.admitted{initiator=...}``,
        ``cache.hits{tier=...}``, ``page.encoded_bytes{codec=...}``,
        ``rpc.hedges{outcome=...}``, ``integrity.detected{site=...}``,
        ``query.snapshot_fetches``, ...); ``tracing`` summarises the
        installed tracer, if any.
        """
        tracer = self.network.tracer
        return {
            "metrics": self.metrics.snapshot(),
            "tracing": {
                "enabled": tracer is not None,
                "spans": len(tracer.spans) if tracer is not None else 0,
                "traces": len(tracer.query_traces) if tracer is not None else 0,
            },
        }

    def _scheduler_series(self):
        if self._runtime is None:
            return []
        return self._runtime.scheduler.stats.metric_series()

    def _cache_series(self):
        if self.cache_config is None:
            return []
        samples = []
        for tier, stats in self.cache_statistics().items():
            samples.extend(stats.metric_series(tier=tier))
        # Current occupancy per tier (gauges): the bytes actually held under
        # the budgets right now, cluster-wide.  With encoded tuple batches in
        # the node tier these are *encoded* bytes — the same charged sizes
        # the eviction budget enforces.
        for tier, occupied in self.cache_bytes().items():
            samples.append(("cache.bytes", {"tier": tier}, occupied))
        return samples

    def _fault_series(self):
        injector = self.network.fault_injector
        if injector is None:
            return []
        return injector.stats.metric_series()

    def _resilience_series(self):
        """Cluster-wide resilience counters plus per-pair breaker gauges.

        The counters are the exact sum of the per-node
        :class:`~repro.resilience.stats.ResilienceStats` objects (the
        reconciliation tests hold the registry to that); breaker gauges are
        emitted per observing node so two nodes' views of the same sick peer
        stay distinguishable.
        """
        if self.resilience_config is None:
            return []
        from .resilience.breaker import BREAKER_STATES

        samples = self.resilience_statistics().metric_series()
        for address in self.addresses:
            resilience = self.nodes[address].resilience
            if resilience is None:
                continue
            for peer, state in resilience.breaker_states().items():
                samples.append(
                    (
                        "breaker.state",
                        {"node": address, "peer": peer},
                        BREAKER_STATES[state],
                    )
                )
        return samples

    def _integrity_series(self):
        """Cluster-wide integrity counters for the metrics registry.

        The exact sum of the per-node :class:`~repro.integrity.IntegrityStats`
        plus the cluster-level scrub accounting — the reconciliation tests
        hold the registry view to that sum.
        """
        if self.integrity_config is None:
            return []
        return self.integrity_statistics().metric_series()

    def _query_series(self):
        if not self._query_services:
            return []
        from .query.service import QueryServiceStats

        return self._merged(QueryServiceStats, self._query_services.values()).metric_series()

    def _components(self, layer: str) -> list:
        """Every node's ``layer`` component (None where the layer is off)."""
        return [getattr(cluster_node, layer) for cluster_node in self.nodes.values()]

    def _merged(self, stats_class, components):
        """The sum of ``components``' stats (absent components skipped)."""
        total = stats_class()
        for component in components:
            if component is not None:
                total.merge(component.stats)
        return total

    def integrity_statistics(self) -> IntegrityStats:
        """Cluster-wide integrity counters, aggregated over all nodes."""
        total = self._merged(IntegrityStats, self._components("integrity"))
        return total.merge(self._scrub_stats)

    @property
    def integrity_enabled(self) -> bool:
        return self.integrity_config is not None

    def quarantined_entries(self) -> dict[str, set]:
        """Per-node quarantine sets (address -> {(tree, key)}), for invariants."""
        return {
            address: set(cluster_node.integrity.quarantined)
            for address, cluster_node in self.nodes.items()
            if cluster_node.integrity is not None and cluster_node.integrity.quarantined
        }

    def resilience_statistics(self) -> ResilienceStats:
        """Cluster-wide resilience counters, aggregated over all nodes."""
        return self._merged(ResilienceStats, self._components("resilience"))

    def start_resilience_heartbeats(self, duration: float) -> int:
        """Schedule heartbeat probe trains on every live node for ``duration``.

        Heartbeats are windowed (not free-running) so ``run()`` still drains;
        workload drivers start a train covering their operation window.
        Returns the total number of probe rounds scheduled.
        """
        rounds = 0
        for cluster_node in self.nodes.values():
            if cluster_node.resilience is not None and cluster_node.node.alive:
                rounds += cluster_node.resilience.start_heartbeats(duration)
        return rounds

    # ------------------------------------------------------------------ runtime

    @property
    def runtime(self) -> Runtime:
        """The cluster's concurrent runtime (created lazily, one per cluster)."""
        if self._runtime is None:
            self._runtime = Runtime(self, self.scheduler_config)
        return self._runtime

    def session(self, address: str | None = None) -> Session:
        """An asynchronous session initiating from ``address``.

        Sessions submit operations without driving the event loop; call
        :meth:`run` (or ``cluster.runtime.drain()``) to make progress and
        resolve the returned futures.
        """
        return self.runtime.session(address)

    def note_publish(self, relation: str, epoch: int) -> None:
        """Tell every node's caches that ``relation`` changed at ``epoch``.

        Exact invalidation: gossip only carries the epoch number, so this is
        how caches learn *which* relation changed.  It also covers publishes
        at an epoch the gossip already knew (announce() would not re-fire).
        """
        for cluster_node in self.nodes.values():
            if cluster_node.cache is not None:
                cluster_node.cache.note_publish(relation, epoch)
            if cluster_node.result_cache is not None:
                cluster_node.result_cache.note_publish(relation, epoch)

    # ------------------------------------------------------------------ publish

    def next_epoch(self) -> int:
        self.current_epoch += 1
        return self.current_epoch

    def publish(
        self,
        data: UpdateBatch | RelationData,
        epoch: int | None = None,
        from_address: str | None = None,
    ) -> int:
        """Publish a batch (blocking shim over a session) and gossip the epoch.

        Returns the epoch the batch was published at.
        """
        future = self.session(from_address).submit_publish(data, epoch=epoch)
        self.network.run()
        return future.result()

    def publish_relations(
        self, relations: Iterable[RelationData], epoch: int | None = None
    ) -> int:
        """Publish several relations under a single epoch; returns the epoch."""
        epoch = epoch if epoch is not None else self.next_epoch()
        for relation in relations:
            self.publish(relation, epoch=epoch)
        return epoch

    # ------------------------------------------------------------------ retrieve

    def retrieve(
        self,
        relation: str,
        epoch: int | None = None,
        key_predicate: Callable[[tuple[Value, ...]], bool] | None = None,
        from_address: str | None = None,
        predicate=None,
        columns: Sequence[str] | None = None,
    ) -> RetrieveResult:
        """Retrieve a relation version (blocking shim around Algorithm 1).

        ``predicate`` (an expression over the relation's attributes) and
        ``columns`` (a projection) are pushed to the data nodes: tuples are
        filtered and narrowed where they are stored, before crossing the
        simulated network.  Projected tuples carry values in ``columns``
        order.
        """
        future = self.session(from_address).submit_retrieve(
            relation, epoch=epoch, key_predicate=key_predicate,
            predicate=predicate, columns=columns,
        )
        self.network.run()
        return future.result()

    # ------------------------------------------------------------------ failures

    def fail_node(self, address: str, at_time: float | None = None) -> None:
        """Crash a node immediately or at an absolute simulated time.

        A scheduled crash is bound to the node's current incarnation: if the
        node crashes and restarts before ``at_time``, the stale schedule does
        not kill the restarted process.  :attr:`failed_addresses`,
        ``Network.live_nodes`` and — once the detection delay elapsed — every
        live node's membership view agree on the outcome.
        """
        if at_time is None:
            self.network.fail_node(address)
        else:
            self.network.fail_node_at(address, at_time)

    def _on_node_crash(self, address: str) -> None:
        """Crash-instant bookkeeping (fires from the network, no detection lag)."""
        self.failed_addresses.add(address)
        self._gossip_peers = None
        if self._runtime is not None:
            self._runtime.scheduler.fail_initiator_ops(
                address,
                ReproError(f"initiator {address!r} crashed with the operation in flight"),
            )

    def _on_node_restart(self, address: str) -> None:
        """Restart-instant bookkeeping: the live set changed, drop caches."""
        self._gossip_peers = None

    def restart_node(self, address: str, rejoin: bool = True) -> None:
        """Crash-*restart*: bring a failed node back and re-enter membership.

        The restarted process keeps its durable local store (the B+-tree
        databases of the storage service — BerkeleyDB's role in the paper's
        prototype) and replays from it; everything that lived in volatile
        memory is gone: outstanding RPC calls, in-flight query state, and the
        node's caches.  With ``rejoin`` (the default) the node announces
        itself to its configured seed peers — every live node adds it back to
        its membership view, and the first reply rebuilds the rejoiner's own
        routing table — and pulls the current epoch through the gossip layer.
        Drive the event loop (:meth:`run`) to let the rejoin complete, and run
        :meth:`run_background_replication` to restore the replication factor
        for the ranges the node inherits back.
        """
        cluster_node = self.nodes[address]
        self.network.restart_node(address)
        self.failed_addresses.discard(address)
        self._gossip_peers = None
        rpc_endpoint(cluster_node.node).reset_volatile()
        cluster_node.storage_client.reset_volatile()
        if cluster_node.resilience is not None:
            cluster_node.resilience.reset_volatile()
        if cluster_node.cache is not None:
            cluster_node.cache.clear()
        if cluster_node.result_cache is not None:
            cluster_node.result_cache.clear()
        query_service = self._query_services.get(address)
        if query_service is not None:
            query_service.reset_volatile()
        if rejoin:
            peers = [peer for peer in self.addresses if peer != address]
            cluster_node.membership.rejoin(peers)
            cluster_node.gossip.pull(peers)

    # ------------------------------------------------------- background repair

    def run_background_replication(self) -> ReplicationReport:
        """One anti-entropy round repairing under-replicated tuples.

        Runs directly against the nodes' local stores (this is maintenance
        traffic, not part of any measured query), using the Bloom-filter
        exchange of the PAST-style replicator.
        """
        snapshot = self.snapshot()
        # ``(address, item key) -> tuple-tree store key`` of every listed
        # copy.  A copy's source was listed in the same replica group, so the
        # copy reads that one entry instead of walking the relation.
        store_keys: dict[tuple[str, object], tuple] = {}

        def list_items(address: str, key_range) -> dict[object, int]:
            service = self.storage(address)
            items: dict[object, int] = {}
            for tup in service.all_local_tuples():
                if key_range.contains(tup.hash_key):
                    key = (tup.relation, tup.tuple_id.key_values, tup.tuple_id.epoch)
                    items[key] = tup.estimated_size()
                    store_keys[address, key] = (tup.relation, tup.hash_key, tup.tuple_id)
            return items

        def copy_item(src: str, dst: str, key) -> int:
            source = self.storage(src)
            store_key = store_keys.get((src, key))
            # A copy quarantined or deleted since the listing reads as absent.
            tup = None if store_key is None else source.store.get("tuples", store_key)
            if tup is None:
                return 0
            if source.integrity is not None and not source.integrity.verify(
                source.store, "tuples", store_key, tup, "replication",
                node=source.node,
            ):
                # The source copy itself is rotten: don't propagate it.
                # It is quarantined now; the scrubber (or a later
                # round from a clean holder) back-fills both sides.
                return 0
            destination = self.storage(dst)
            with _repair_attribution(destination.integrity, "replication"):
                destination.store_tuple(tup)
            return tup.estimated_size()

        replicator = BackgroundReplicator(self.replication_factor, list_items, copy_item)
        return replicator.run_round(snapshot)

    def run_scrub(self) -> ScrubReport:
        """One digest-exchange scrub round over tuples, pages and coordinators.

        Detects *divergent* — not just absent — copies by comparing freshly
        recomputed checksums across each range's replica group, quarantines
        corrupt or minority copies and back-fills them from the resolution
        winner (highest epoch, then checksum quorum).  Requires the cluster
        to run with an :class:`~repro.integrity.IntegrityConfig`.

        Like background replication this is maintenance work running directly
        against the local stores; its byte cost is *accounted* (digest and
        repair bytes in the report and in ``scrub.bytes``) rather than pushed
        through the simulated network.
        """
        if self.integrity_config is None:
            raise ReproError("run_scrub() requires integrity_config")
        snapshot = self.snapshot()
        total = ScrubReport(rounds=1)
        for tree in StorageService.SCRUB_TREES:

            def list_digests(address: str, key_range, tree=tree):
                return self.storage(address).scrub_digests(tree, key_range)

            def copy_item(src: str, dst: str, key, tree=tree) -> int:
                value = self.storage(src).scrub_fetch(tree, key)
                if value is None:
                    return 0
                destination = self.storage(dst)
                with _repair_attribution(destination.integrity, "scrub"):
                    return destination.scrub_store(tree, key, value)

            def quarantine(address: str, key, tree=tree) -> None:
                self.storage(address).scrub_quarantine(tree, key)

            scrubber = IntegrityScrubber(
                self.replication_factor, list_digests, copy_item, quarantine,
                digest_entry_bytes=self.integrity_config.digest_entry_bytes,
            )
            report = scrubber.run_round(snapshot)
            total.digest_entries += report.digest_entries
            total.digest_bytes += report.digest_bytes
            total.corrupt_copies += report.corrupt_copies
            total.divergent_keys += report.divergent_keys
            total.unrepairable += report.unrepairable
            total.items_copied += report.items_copied
            total.bytes_copied += report.bytes_copied
            total.repairs.extend(report.repairs)
        self._scrub_stats.scrub_rounds += 1
        self._scrub_stats.scrub_digests += total.digest_entries
        self._scrub_stats.scrub_bytes += total.total_bytes
        self._scrub_stats.unrepairable += total.unrepairable
        return total

    # ------------------------------------------------------------------ queries

    def query(
        self,
        query,
        epoch: int | None = None,
        options=None,
        from_address: str | None = None,
        planner_options=None,
    ):
        """Compile and execute a query (blocking shim over a session).

        ``query`` may be a :class:`~repro.query.logical.LogicalQuery` (compiled
        with the cost-based optimizer against this cluster's catalog), an
        already-compiled :class:`~repro.query.physical.PhysicalPlan`, or a SQL
        string (parsed by the single-block SQL frontend).
        """
        future = self.session(from_address).submit_query(
            query, epoch=epoch, options=options, planner_options=planner_options
        )
        self.network.run()
        return future.result()

    # ------------------------------------------------------------ query wiring

    def enable_query_processing(self) -> None:
        """Attach the distributed query executor to every node.

        Implemented lazily (imported here) so the storage layer has no import
        dependency on the query engine.
        """
        from .query.service import QueryService

        for cluster_node in self.nodes.values():
            if cluster_node.address not in self._query_services:
                self._query_services[cluster_node.address] = QueryService(
                    cluster_node.node,
                    cluster_node.membership,
                    cluster_node.storage,
                    replication_factor=self.replication_factor,
                    result_cache=cluster_node.result_cache,
                )

    def query_service(self, address: str):
        if address not in self._query_services:
            self.enable_query_processing()
        return self._query_services[address]

    # ------------------------------------------------------------ cache metrics

    @property
    def cache_enabled(self) -> bool:
        return self.cache_config is not None

    def cache_statistics(self) -> dict[str, CacheStats]:
        """Cluster-wide cache counters, aggregated over all nodes.

        Returns ``{"node": ..., "result": ...}`` — the node-cache tiers
        (coordinator records, pages, tuple batches, resolutions) and the
        semantic result caches.  Empty stats when caching is disabled.
        """
        return {
            "node": self._merged(CacheStats, self._components("cache")),
            "result": self._merged(CacheStats, self._components("result_cache")),
        }

    def cache_bytes(self) -> dict[str, int]:
        """Bytes currently held per cache tier, cluster-wide.

        Tuple-batch entries are charged at their encoded payload size, so the
        node tier reports encoded occupancy — the quantity the eviction
        budget actually enforces.
        """
        node_bytes = result_bytes = 0
        for cluster_node in self.nodes.values():
            if cluster_node.cache is not None:
                node_bytes += cluster_node.cache.bytes_used
            if cluster_node.result_cache is not None:
                result_bytes += cluster_node.result_cache.store.bytes_used
        return {"node": node_bytes, "result": result_bytes}


def build_cluster(
    num_nodes: int,
    profile: NetworkProfile = LAN_GIGABIT,
    relations: Sequence[RelationData] = (),
    replication_factor: int = 3,
    page_capacity: int = 2048,
    cache_config: CacheConfig | None = None,
) -> Cluster:
    """Create a cluster and publish ``relations`` as epoch 1 in one call."""
    cluster = Cluster(
        num_nodes,
        profile=profile,
        replication_factor=replication_factor,
        page_capacity=page_capacity,
        cache_config=cache_config,
    )
    if relations:
        cluster.publish_relations(relations)
    return cluster
