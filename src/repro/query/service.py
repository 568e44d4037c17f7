"""Distributed query execution service (Sections V-A through V-D).

One :class:`QueryService` runs on every node.  It plays two roles:

* **participant** — it receives the plan + routing snapshot from a query
  initiator, instantiates the local operator fragment, performs the index-node
  and data-node sides of the leaf scans, exchanges data and end-of-stream
  messages with the other participants, and executes recovery instructions;
* **initiator (coordinator)** — for queries submitted locally it resolves the
  scanned relation versions, takes the routing snapshot, disseminates the
  plan, collects the shipped results, detects participant failures through the
  transport layer, and drives either a full restart or the four-stage
  incremental recovery of Section V-D.

All communication uses one-way casts; completion is tracked with the
end-of-stream protocol described in the paper (scans → rehash → ship), so the
initiator knows the result is complete exactly when every participant has
reported end-of-stream for the final ship exchange.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..cache.result import SemanticResultCache, plan_fingerprint
from ..common.errors import QueryError
from ..common.hashing import KeyRange
from ..common.serialization import ENCODING_STATS, EncodedTupleBatch, TupleBatch
from ..common.types import Value
from ..net.simnet import SimNode
from ..net.transport import RpcEndpoint, rpc_endpoint
from ..overlay.membership import MembershipView
from ..overlay.replication import replica_set
from ..overlay.routing import RoutingSnapshot, physical_address
from ..storage.client import StorageClient, route_tuple_ids, search_targets
from ..storage.pages import CoordinatorRecord, PageRef
from ..storage.service import StorageService
from .operators import Fragment, build_fragment
from .pushdown import ScanPredicate, prune_page_refs
from .physical import (
    COLLECT_MERGE_PARTIALS,
    COLLECT_REPLACE_GROUPS,
    PhysScan,
    PhysShip,
    PhysicalPlan,
)
from .provenance import TaggedRow, provenance_overhead

#: Recovery strategies of Section V-D / Figure 21.
RECOVERY_RESTART = "restart"
RECOVERY_INCREMENTAL = "incremental"


@dataclass
class QueryOptions:
    """Per-query knobs.

    ``provenance_enabled`` turns the per-tuple provenance tags (and therefore
    incremental-recovery support) on or off — the Section VI-E overhead
    experiment compares the two.  ``recovery_mode`` selects what the initiator
    does when a participant fails mid-query.
    """

    provenance_enabled: bool = True
    recovery_mode: str = RECOVERY_INCREMENTAL
    batch_rows: int = 256
    max_restarts: int = 3
    #: Consult/fill the initiator's semantic result cache (only effective when
    #: the cluster was built with a :class:`~repro.cache.config.CacheConfig`).
    use_result_cache: bool = True


@dataclass
class QueryStatistics:
    """Execution statistics reported alongside the result rows."""

    started_at: float = 0.0
    completed_at: float = 0.0
    phases: int = 1
    restarts: int = 0
    failures_handled: int = 0
    rows_shipped: int = 0
    bytes_total: int = 0
    bytes_per_node: dict[str, int] = field(default_factory=dict)
    participating_nodes: int = 0
    #: True when the answer was served from the semantic result cache.
    result_cache_hit: bool = False
    #: Remote messages the query put on the wire (local sends are free).
    messages_total: int = 0
    #: Bytes per protocol stage (RPC method → bytes), e.g. ``query.start``
    #: (plan + scan-spec dissemination), ``query.scan_tuples`` (leaf-scan
    #: tuple-ID requests), ``query.data`` (exchange rows) — the breakdown the
    #: wire-traffic benchmarks report.
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    #: Index pages of all leaf scans under the launch snapshot, and how many
    #: of them plan-time pruning removed before any node was asked for them.
    scan_pages_total: int = 0
    scan_pages_pruned: int = 0
    #: Columnar-encoding footprint of this query (all attempts): per-codec
    #: encoded column bytes plus batch encode/decode/skip counts, the delta
    #: of :data:`repro.common.serialization.ENCODING_STATS` over the run.
    encoding: dict[str, object] = field(default_factory=dict)
    #: Resilience activity attributable to this query (all attempts): the
    #: delta of the merged per-node :class:`~repro.resilience.ResilienceStats`
    #: over the run — hedges by outcome, retries, adaptive timeouts, breaker
    #: skips.  Empty when the cluster runs without a resilience config (or
    #: when the query triggered none of it).
    resilience: dict[str, object] = field(default_factory=dict)
    #: Integrity activity attributable to this query (all attempts): the
    #: delta of the merged per-node :class:`~repro.integrity.IntegrityStats`
    #: over the run — detections by site, repairs by source, quarantines.
    #: Empty when the cluster runs without an integrity config (or the
    #: query's reads all verified clean).
    integrity: dict[str, object] = field(default_factory=dict)
    #: Trace identity of the query's span tree, set when the cluster has
    #: tracing enabled (:meth:`repro.cluster.Cluster.enable_tracing`).
    trace_id: int | None = None

    # Bound by the service when tracing is on; not dataclass fields so they
    # stay out of __init__/__repr__ and equality.
    _tracer = None
    _plan = None

    @property
    def execution_time(self) -> float:
        return self.completed_at - self.started_at

    @property
    def data_bytes(self) -> int:
        """Exchange-row bytes (``query.data``): the pushdown-sensitive share."""
        return self.bytes_by_kind.get("query.data", 0)

    def profile(self):
        """The per-operator execution profile, attributed from the span tree.

        Returns a :class:`~repro.obs.profile.QueryProfile` (render it with
        ``.format()`` or :func:`repro.obs.profile.format_profile`), or
        ``None`` when the query ran without tracing — including result-cache
        hits, which execute no operators.
        """
        if self._tracer is None or self.trace_id is None or self._plan is None:
            return None
        from ..obs.profile import build_profile

        return build_profile(
            self._tracer, self.trace_id, self._plan, encoding=self.encoding,
            resilience=self.resilience, integrity=self.integrity,
        )

    def to_dict(self) -> dict:
        """Common stats-serialization protocol (see :mod:`repro.obs.metrics`)."""
        return {
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "execution_time": self.execution_time,
            "phases": self.phases,
            "restarts": self.restarts,
            "failures_handled": self.failures_handled,
            "rows_shipped": self.rows_shipped,
            "bytes_total": self.bytes_total,
            "bytes_per_node": dict(self.bytes_per_node),
            "participating_nodes": self.participating_nodes,
            "result_cache_hit": self.result_cache_hit,
            "messages_total": self.messages_total,
            "bytes_by_kind": dict(self.bytes_by_kind),
            "scan_pages_total": self.scan_pages_total,
            "scan_pages_pruned": self.scan_pages_pruned,
            "encoding": dict(self.encoding),
            "resilience": dict(self.resilience),
            "integrity": dict(self.integrity),
            "trace_id": self.trace_id,
        }

    def metric_series(self):
        """Registry samples: ``query.bytes{kind=...}``, ``query.rows``, ..."""
        samples = [
            ("query.bytes", {}, self.bytes_total),
            ("query.messages", {}, self.messages_total),
            ("query.rows_shipped", {}, self.rows_shipped),
            ("query.phases", {}, self.phases),
            ("query.restarts", {}, self.restarts),
        ]
        for kind in sorted(self.bytes_by_kind):
            samples.append(("query.bytes", {"kind": kind}, self.bytes_by_kind[kind]))
        encoded = self.encoding.get("encoded_bytes", {})
        for codec in sorted(encoded):
            samples.append(("query.encoded_bytes", {"codec": codec}, encoded[codec]))
        hedges = self.resilience.get("hedges", {})
        for outcome in sorted(hedges):
            samples.append(("query.hedges", {"outcome": outcome}, hedges[outcome]))
        if self.resilience.get("retries"):
            samples.append(("query.rpc_retries", {}, self.resilience["retries"]))
        detected = self.integrity.get("detected", {})
        for site in sorted(detected):
            samples.append(("query.integrity_detected", {"site": site}, detected[site]))
        repaired = self.integrity.get("repaired", {})
        for source in sorted(repaired):
            samples.append(("query.integrity_repaired", {"source": source}, repaired[source]))
        return samples

    def _absorb_traffic(self, delta) -> None:
        """Fold one attempt's traffic delta into the cumulative counters."""
        self.bytes_total += delta.total_bytes
        self.messages_total += delta.total_messages
        for address, count in delta.per_node_bytes().items():
            self.bytes_per_node[address] = self.bytes_per_node.get(address, 0) + count
        for kind, count in delta.bytes_by_kind.items():
            if count:
                self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + count

    def _absorb_encoding(self, before: dict, after: dict) -> None:
        """Fold one attempt's encoding-stats delta into the cumulative view."""
        if not before:
            return  # no launch-time snapshot (e.g. result-cache hit)
        deltas = {
            codec: count - before["encoded_bytes"].get(codec, 0)
            for codec, count in after["encoded_bytes"].items()
            if count - before["encoded_bytes"].get(codec, 0)
        }
        if deltas:
            encoded = self.encoding.setdefault("encoded_bytes", {})
            for codec, delta in deltas.items():
                encoded[codec] = encoded.get(codec, 0) + delta
        for counter in (
            "batches_encoded", "batches_decoded", "batches_skipped",
            "columns_decoded", "values_decoded",
        ):
            delta = after[counter] - before[counter]
            if delta:
                self.encoding[counter] = self.encoding.get(counter, 0) + delta

    def _absorb_resilience(self, before: dict, after: dict) -> None:
        """Fold one attempt's resilience-stats delta into the cumulative view.

        ``before``/``after`` are merged cluster-wide snapshots (the resilience
        layer, like :data:`~repro.common.serialization.ENCODING_STATS`, keeps
        live process-side counters), so the delta attributes every hedge and
        retry that fired while this query's attempt was in flight.
        """
        if not before:
            return  # resilience disabled, or no launch-time snapshot
        for counter in ("calls", "retries", "timeouts", "breaker_skips"):
            delta = after[counter] - before[counter]
            if delta:
                self.resilience[counter] = self.resilience.get(counter, 0) + delta
        deltas = {
            outcome: count - before["hedges"].get(outcome, 0)
            for outcome, count in after["hedges"].items()
            if count - before["hedges"].get(outcome, 0)
        }
        if deltas:
            hedges = self.resilience.setdefault("hedges", {})
            for outcome, delta in deltas.items():
                hedges[outcome] = hedges.get(outcome, 0) + delta

    def _absorb_integrity(self, before: dict, after: dict) -> None:
        """Fold one attempt's integrity-stats delta into the cumulative view.

        ``before``/``after`` are merged cluster-wide snapshots, so every
        corruption this query's reads surfaced — and every read-repair its
        failover performed — is attributed to it.
        """
        if not before:
            return  # integrity disabled, or no launch-time snapshot
        for tagged in ("detected", "repaired"):
            deltas = {
                key: count - before[tagged].get(key, 0)
                for key, count in after[tagged].items()
                if count - before[tagged].get(key, 0)
            }
            if deltas:
                folded = self.integrity.setdefault(tagged, {})
                for key, delta in deltas.items():
                    folded[key] = folded.get(key, 0) + delta
        delta = after["quarantined"] - before["quarantined"]
        if delta:
            self.integrity["quarantined"] = self.integrity.get("quarantined", 0) + delta


@dataclass
class QueryResult:
    """Final answer of a distributed query."""

    attributes: tuple[str, ...]
    rows: list[tuple[Value, ...]]
    statistics: QueryStatistics

    def __len__(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> list[dict[str, Value]]:
        return [dict(zip(self.attributes, row)) for row in self.rows]


@dataclass
class _ScanSpec:
    """Initiator-computed description of one leaf scan.

    The initiator keeps the full page assignment (``pages_by_index_node``
    covering every index node); each participant receives a slimmed copy that
    lists only the pages *it* must serve as index node, because that is all a
    participant needs — the expected end-of-stream senders and the scan-done
    recipients are precomputed by the initiator (see :meth:`QueryService._launch`).
    """

    scan_op_id: int
    relation: str
    epoch: int
    covering: bool
    pages_by_index_node: dict[str, list[PageRef]]
    #: Sargable predicate as a *serializable descriptor* (expression tree +
    #: key-attribute signature); each index node compiles it positionally.
    key_predicate: ScanPredicate | None

    def key_predicate_function(self) -> Callable[[tuple[Value, ...]], bool] | None:
        return None if self.key_predicate is None else self.key_predicate.compile()

    def index_nodes(self) -> list[str]:
        return sorted(self.pages_by_index_node.keys())

    def estimated_size(self) -> int:
        """Wire size of this spec inside a ``query.start`` payload.

        Charges the real contents: fixed framing, each page reference
        (:meth:`PageRef.estimated_size`), the per-index-node grouping, and
        the pushed predicate descriptor — not a flat 64 bytes per page.  The
        projection descriptor rides in the plan itself
        (:meth:`PhysScan.estimated_descriptor_size`), so it is not
        double-charged here.
        """
        # Page-ref lists ship delta-encoded: refs are sorted by hash range,
        # so the first carries both 160-bit bounds (64 bytes, the standalone
        # PageRef size) and each subsequent ref shares its start bound with
        # its predecessor's end — page id, one bound, framing (44 bytes).
        pages = sum(
            64 + 44 * (len(refs) - 1)
            for refs in self.pages_by_index_node.values()
            if refs
        )
        groups = 16 * len(self.pages_by_index_node)
        predicate = 0 if self.key_predicate is None else self.key_predicate.estimated_size()
        return 48 + predicate + groups + pages

    def restricted_to(self, address: str) -> "_ScanSpec":
        """A copy carrying only the page assignment of ``address``."""
        own_pages = self.pages_by_index_node.get(address)
        return _ScanSpec(
            scan_op_id=self.scan_op_id,
            relation=self.relation,
            epoch=self.epoch,
            covering=self.covering,
            pages_by_index_node={address: list(own_pages)} if own_pages else {},
            key_predicate=self.key_predicate,
        )


def _scan_completion_maps(
    scan_specs: Mapping[int, "_ScanSpec"],
    participants: Sequence[str],
    snapshot: RoutingSnapshot,
) -> tuple[dict[str, dict[int, list[str]]], dict[str, dict[int, list[str]]]]:
    """Precompute the scan end-of-stream exchanges for every participant.

    Returns two maps, both keyed by participant address and scan operator id:

    * ``expected[participant][scan]`` — index nodes whose ``scan_done`` the
      participant must wait for before its leaf scan can complete.  For a
      non-covering scan these are the index nodes owning a page whose hash
      range overlaps one of the participant's key ranges (only those index
      nodes can route tuple IDs to it); for a covering scan rows are produced
      at the index node itself, so a participant only waits for itself.
    * ``receivers[index_node][scan]`` — the inverse map: participants an index
      node must notify when it finishes requesting tuples for its pages.

    Both maps are derived from the same page/range overlap relation, so a
    ``scan_done`` is sent exactly to the nodes that are waiting for it.  This
    keeps the completion protocol O(pages) instead of O(participants²): thanks
    to the co-location of index pages and tuple data (Section IV) a page
    overlaps only one or two adjacent nodes' ranges — found by walking the
    ring from the page range's start (:meth:`RoutingSnapshot.owners_overlapping`)
    rather than testing every participant's ranges against every page.
    """
    order_index = {address: i for i, address in enumerate(participants)}
    expected: dict[str, dict[int, list[str]]] = {
        address: {} for address in participants
    }
    receivers: dict[str, dict[int, list[str]]] = {
        address: {} for address in participants
    }
    for op_id, spec in scan_specs.items():
        for address in participants:
            expected[address][op_id] = []
            receivers[address][op_id] = []
        for index_node, pages in spec.pages_by_index_node.items():
            if index_node not in receivers:
                continue
            if spec.covering:
                # Covering scans produce rows right at the index node.
                if pages:
                    receivers[index_node][op_id].append(index_node)
                    expected[index_node][op_id].append(index_node)
                continue
            touched: set[str] = set()
            for ref in pages:
                for entry in snapshot.owners_overlapping(ref.hash_range):
                    touched.add(physical_address(entry))
            # Participant order (not discovery order) keeps the scan_done
            # send sequence identical to the participant-major formulation.
            for participant in sorted(
                (address for address in touched if address in order_index),
                key=order_index.__getitem__,
            ):
                receivers[index_node][op_id].append(participant)
                expected[participant][op_id].append(index_node)
    return expected, receivers


class _ResultCollector:
    """Initiator-side collector for the ship exchange of one query."""

    def __init__(self, ship: PhysShip, participants: Sequence[str]) -> None:
        self.ship = ship
        self.mode = ship.collector_mode
        self._rows: list[TaggedRow] = []
        self._groups: dict[tuple, TaggedRow] = {}
        self._partials: list[TaggedRow] = []
        #: End-of-stream senders received, grouped by phase.
        self._eos_by_phase: dict[int, set[str]] = {}
        self._expected: set[str] = set(participants)
        #: Per-phase set of expected senders still outstanding, maintained
        #: incrementally so completion checks need not rebuild O(n) sets on
        #: every EOS (built lazily; dropped whenever ``_expected`` changes).
        self._pending: dict[int, set[str]] = {}
        self.rows_received = 0

    def accept(self, rows: list[TaggedRow], failed: set[str]) -> None:
        if failed:
            live = [row for row in rows if not row.nodes & failed]
        else:
            live = rows  # batch fast path: no failure, nothing is tainted
        self.rows_received += len(live)
        if self.mode == COLLECT_MERGE_PARTIALS:
            self._partials.extend(live)
        elif self.mode == COLLECT_REPLACE_GROUPS:
            for row in live:
                key = tuple(row.row[attr] for attr in self.ship.group_by)
                current = self._groups.get(key)
                if current is None or row.phase >= current.phase:
                    self._groups[key] = row
        else:
            self._rows.extend(live)

    def sender_eos(self, sender: str, phase: int = 0) -> None:
        self._eos_by_phase.setdefault(phase, set()).add(sender)
        pending = self._pending.get(phase)
        if pending is not None:
            pending.discard(sender)

    def purge_tainted(self, failed: set[str]) -> None:
        self._rows = [row for row in self._rows if not row.tainted_by(failed)]
        self._partials = [row for row in self._partials if not row.tainted_by(failed)]
        for key in list(self._groups.keys()):
            if self._groups[key].tainted_by(failed):
                del self._groups[key]

    def reset_eos(self, participants: Sequence[str], failed: set[str]) -> None:
        self._expected = {address for address in participants if address not in failed}
        self._pending.clear()

    def is_complete(self, failed: set[str], phase: int) -> bool:
        # Equivalent to (expected - failed) <= received(phase), restated as
        # pending <= failed with pending := expected - received(phase): the
        # common mid-stream call answers False after one length comparison
        # instead of materialising two O(n) sets per EOS message.
        pending = self._pending.get(phase)
        if pending is None:
            received = self._eos_by_phase.get(phase, ())
            pending = {a for a in self._expected if a not in received}
            self._pending[phase] = pending
        if not pending:
            return True
        if len(pending) > len(failed):
            return False
        return pending <= failed

    # -- final result -------------------------------------------------------------

    def final_rows(self) -> list[tuple[Value, ...]]:
        attributes = self.ship.output_attributes()
        if self.mode == COLLECT_MERGE_PARTIALS:
            rows = self._merge_partials()
        elif self.mode == COLLECT_REPLACE_GROUPS:
            rows = [tagged.row.values for tagged in self._groups.values()]
        else:
            rows = [tagged.row.values for tagged in self._rows]
        if self.ship.order_by:
            for attribute, ascending in reversed(self.ship.order_by):
                index = attributes.index(attribute)
                rows = sorted(rows, key=lambda r: (r[index] is None, r[index]), reverse=not ascending)
        if self.ship.limit is not None:
            rows = rows[: self.ship.limit]
        return list(rows)

    def _merge_partials(self) -> list[tuple[Value, ...]]:
        group_by = self.ship.group_by
        aggregates = self.ship.aggregates
        merged: dict[tuple, list[Value]] = {}
        for tagged in self._partials:
            key = tuple(tagged.row[attr] for attr in group_by)
            states = merged.get(key)
            if states is None:
                states = [spec.function.initial() for spec in aggregates]
                merged[key] = states
            for index, spec in enumerate(aggregates):
                states[index] = spec.function.merge(states[index], tagged.row[spec.name])
        results = []
        for key, states in merged.items():
            values = tuple(key) + tuple(
                spec.function.result(state) for spec, state in zip(aggregates, states)
            )
            results.append(values)
        return results


class _NodeQueryContext:
    """Per-node, per-query execution context (implements FragmentContext)."""

    def __init__(
        self,
        service: "QueryService",
        query_id: str,
        plan: PhysicalPlan,
        snapshot: RoutingSnapshot,
        initiator: str,
        options: QueryOptions,
        scan_specs: Mapping[int, _ScanSpec],
    ) -> None:
        self.service = service
        self.query_id = query_id
        self.plan = plan
        self.snapshot = snapshot
        self.initiator_address = initiator
        self.options = options
        self.scan_specs = dict(scan_specs)
        self.phase = 0
        self.failed_nodes: set[str] = set()
        self.provenance_enabled = options.provenance_enabled
        self.encoding_enabled = getattr(plan, "enable_encoding", True)
        # Frozen from the start snapshot so every node (and the initiator)
        # agrees on the relay decision for the query's whole lifetime,
        # regardless of how failures later shrink the live set.
        self.eos_relay_enabled = (
            len(service.participants_of(snapshot))
            >= QueryService.EOS_RELAY_MIN_PARTICIPANTS
        )
        self.fragment: Fragment = build_fragment(plan, self)
        # scan op id -> participants this node must notify when it finishes its
        # index-node duties for that scan (precomputed by the initiator; during
        # a recovery phase both sides re-derive the narrowed receiver sets
        # from the rescan plan via ``_recovery_receivers``).
        self.scan_done_receivers: dict[int, Sequence[str]] = {}
        # scan op id -> set of (index node, phase) markers we are waiting for.
        # Tokens carry the phase they were armed in: a recovery re-arm keeps
        # the previous phase's unsatisfied tokens (that work is still on the
        # wire), and a marker from a sender satisfies every token of the same
        # sender with an equal or older phase — per-pair FIFO guarantees all
        # rows the sender produced up to that phase arrived before it.
        self._pending_scan_done: dict[int, set[tuple[str, int]]] = {}
        self._scan_completed: set[int] = set()
        # scan_done markers that arrived for a phase this node has not entered
        # yet: a fast peer can finish its recovery rescan before this node
        # even receives the initiator's recover message (messages on different
        # node pairs are not mutually ordered).  They are replayed when
        # arm_scans enters the phase; dropping them would hang the query.
        self._early_scan_done: list[tuple[int, int, str]] = []
        # Outstanding replica chases for tuple versions this data node was
        # asked to produce but does not hold locally; the scan cannot
        # complete while any are in flight, or the recovered rows would
        # arrive after the operators sealed.
        self._scan_fetches: dict[int, int] = {}

    # -- FragmentContext interface ----------------------------------------------------

    @property
    def address(self) -> str:
        return self.service.node.address

    def charge_cpu(self, seconds: float) -> None:
        self.service.node.charge_cpu(seconds)

    def destination_for(self, hash_key: int) -> str:
        return physical_address(self.snapshot.owner_of(hash_key))

    def participants(self) -> list[str]:
        return self.service.participants_of(self.snapshot)

    def initiator(self) -> str:
        return self.initiator_address

    def send_rows(
        self, destination: str, exchange_id: int, rows: list[TaggedRow], eos: bool = False
    ) -> None:
        self.service.send_data(self, destination, exchange_id, rows, eos=eos)

    def send_eos(self, destination: str, exchange_id: int) -> None:
        self.service.send_eos(self, destination, exchange_id)

    def send_eos_summary(self, exchange_id: int, zero_destinations: list[str]) -> None:
        self.service.send_eos_summary(self, exchange_id, zero_destinations)

    # -- scan end-of-stream bookkeeping -------------------------------------------------

    def arm_scans(
        self,
        expected_index_nodes: Mapping[int, Sequence[str]],
        carry_pending: bool = False,
    ) -> None:
        """Arm (or re-arm, for a recovery phase) the per-scan EOS tracking.

        With ``carry_pending`` (recovery re-arms) the previous phase's
        unsatisfied tokens are kept alongside the new expectations: a launch
        scan whose rows and marker are still in flight when the recover
        message lands must keep gating the scan, or those rows would arrive
        after the operators sealed and silently vanish from the answer.
        """
        self._scan_completed.clear()
        self._scan_fetches.clear()
        for scan_op_id in self.fragment.scan_sources:
            expected = {
                (sender, self.phase)
                for sender in expected_index_nodes.get(scan_op_id, ())
                if sender not in self.failed_nodes
            }
            if carry_pending:
                expected |= {
                    token
                    for token in self._pending_scan_done.get(scan_op_id, ())
                    if token[0] not in self.failed_nodes
                }
            self._pending_scan_done[scan_op_id] = expected
            if not expected:
                self._complete_scan(scan_op_id)
        # Replay markers that raced ahead of this phase's recover message.
        ready = [entry for entry in self._early_scan_done if entry[0] == self.phase]
        self._early_scan_done = [
            entry for entry in self._early_scan_done if entry[0] > self.phase
        ]
        for phase, scan_op_id, sender in ready:
            self.scan_done_received(scan_op_id, sender, phase)

    def note_scan_done(self, scan_op_id: int, sender: str, phase: int) -> None:
        """Record a scan_done marker, buffering ones from a future phase."""
        if phase > self.phase:
            self._early_scan_done.append((phase, scan_op_id, sender))
        else:
            # Markers from the current *or an older* phase are credited: a
            # stale marker still proves every row its sender produced up to
            # that phase has been delivered on this pair (FIFO).
            self.scan_done_received(scan_op_id, sender, phase)

    def scan_done_received(
        self, scan_op_id: int, sender: str, phase: int | None = None
    ) -> None:
        pending = self._pending_scan_done.get(scan_op_id)
        if pending is None:
            return
        marker_phase = self.phase if phase is None else phase
        pending -= {
            token
            for token in pending
            if token[0] == sender and token[1] <= marker_phase
        }
        if not pending:
            self._complete_scan(scan_op_id)

    def drop_failed_scan_producers(self, failed: set[str]) -> None:
        for scan_op_id, pending in self._pending_scan_done.items():
            pending -= {token for token in pending if token[0] in failed}
            if not pending:
                self._complete_scan(scan_op_id)

    def begin_scan_fetch(self, scan_op_id: int) -> None:
        self._scan_fetches[scan_op_id] = self._scan_fetches.get(scan_op_id, 0) + 1

    def end_scan_fetch(self, scan_op_id: int) -> None:
        remaining = self._scan_fetches.get(scan_op_id, 0) - 1
        if remaining > 0:
            self._scan_fetches[scan_op_id] = remaining
        else:
            self._scan_fetches.pop(scan_op_id, None)
            pending = self._pending_scan_done.get(scan_op_id)
            if pending is not None and not pending:
                self._complete_scan(scan_op_id)

    def _complete_scan(self, scan_op_id: int) -> None:
        if scan_op_id in self._scan_completed:
            return
        if self._scan_fetches.get(scan_op_id):
            return  # replica chases still in flight; completion re-fires after
        self._scan_completed.add(scan_op_id)
        source = self.fragment.scan_sources.get(scan_op_id)
        if source is not None:
            source.complete()


@dataclass
class _ActiveQuery:
    """Initiator-side state of one running query."""

    query_id: str
    plan: PhysicalPlan
    epoch: int
    options: QueryOptions
    snapshot: RoutingSnapshot
    original_snapshot: RoutingSnapshot
    scan_specs: dict[int, _ScanSpec]
    collector: _ResultCollector
    on_complete: Callable[[QueryResult], None]
    statistics: QueryStatistics
    failed_nodes: set[str] = field(default_factory=set)
    phase: int = 0
    completed: bool = False
    traffic_start: object = None
    #: ENCODING_STATS snapshot at launch; deltas feed ``statistics.encoding``.
    encoding_start: dict = field(default_factory=dict)
    #: Merged resilience-stats snapshot at launch (empty when the cluster has
    #: no resilience layer); deltas feed ``statistics.resilience``.
    resilience_start: dict = field(default_factory=dict)
    #: Merged integrity-stats snapshot at launch (empty when the cluster has
    #: no integrity layer); deltas feed ``statistics.integrity``.
    integrity_start: dict = field(default_factory=dict)
    #: Canonical plan fingerprint (None when result caching is off) and one
    #: ``(relation, resolved epoch, pinned epoch)`` triple per leaf scan,
    #: recorded so the finished result can enter the semantic cache with
    #: exact version keys.
    fingerprint: object = None
    scans: tuple = ()
    #: Publish sequence number of the initiator's result cache when this
    #: attempt's scan resolution started.  If it moved by completion time, a
    #: publish raced the execution and the result must not enter the cache —
    #: its scans may mix pre- and post-publish resolutions.
    cache_publish_seq: int = 0
    #: Participants already sent ``query.abort`` for this query, making the
    #: abort fan-out idempotent per ``(query_id, node)``.
    aborts_sent: set[str] = field(default_factory=set)
    #: Error callback of the submitting session (None for legacy callers):
    #: exhausting the restart budget resolves the operation through it
    #: instead of raising into the event loop.
    on_error: Callable[[Exception], None] | None = None
    #: EOS-relay aggregation (large clusters only): ``(exchange_id, phase)``
    #: -> ``{sender: [destinations the sender had no data for]}``.  Once every
    #: live participant has reported, the initiator sends each listed
    #: destination one aggregated ``query.eos`` and drops the entry.
    eos_summaries: dict[tuple[int, int], dict[str, list[str]]] = field(
        default_factory=dict
    )


class QueryService:
    """Per-node query execution service and (for local submissions) coordinator."""

    def __init__(
        self,
        node: SimNode,
        membership: MembershipView,
        storage: StorageService,
        replication_factor: int = 3,
        result_cache: SemanticResultCache | None = None,
    ) -> None:
        self.node = node
        self.rpc: RpcEndpoint = rpc_endpoint(node)
        self.membership = membership
        self.storage = storage
        self.replication_factor = replication_factor
        #: Semantic result cache for queries this node initiates (optional).
        self.result_cache = result_cache
        self._query_ids = itertools.count(1)
        #: Queries this node participates in (including ones it initiated),
        #: keyed by the cluster-unique query id.
        self._contexts: dict[str, _NodeQueryContext] = {}
        #: Queries this node initiated.
        self._active: dict[str, _ActiveQuery] = {}
        #: Messages that raced ahead of their query's ``query.start``: message
        #: channels are FIFO per node pair, but nothing orders the initiator's
        #: start against a *peer's* dataflow — under skewed link delays a
        #: participant can receive tuple requests, scan_done markers or row
        #: batches for a query it has not heard of yet.  Dropping them would
        #: lose rows silently (or hang the completion protocol), so they are
        #: held back and replayed in arrival order when the start arrives.
        self._pending_messages: dict[str, list[tuple[str, Mapping[str, object]]]] = {}
        #: Query ids whose state this node already tore down (abort received):
        #: stragglers for these are late, not early, and must stay dropped.
        #: Insertion-ordered and pruned to a fixed horizon — a straggler can
        #: only trail its query by the message-delay bound, so tombstones for
        #: long-finished queries are dead weight on a long-running node.
        self._finished_queries: dict[str, None] = {}
        self._register_handlers()
        node.add_failure_listener(self._on_peer_failure)
        node.services["query"] = self

    #: Tombstones retained for finished queries (see ``_finished_queries``).
    FINISHED_QUERY_HORIZON = 4096

    #: Participant count at which rehash end-of-stream for zero-data pairs
    #: switches from the direct per-pair fan-out to the initiator relay.  The
    #: direct path costs one fixed-overhead message per empty (sender,
    #: destination) pair — O(n²) on clusters where most pairs exchange no
    #: rows — while the relay costs n summaries plus at most n aggregated
    #: markers.  Below the crossover the per-query summary traffic would
    #: exceed the handful of empty pairs it replaces, so small clusters keep
    #: the direct path.
    EOS_RELAY_MIN_PARTICIPANTS = 16

    def _note_finished(self, query_id: str) -> None:
        self._finished_queries[query_id] = None
        while len(self._finished_queries) > self.FINISHED_QUERY_HORIZON:
            self._finished_queries.pop(next(iter(self._finished_queries)))

    # ------------------------------------------------------------------ registration

    def _register_handlers(self) -> None:
        self.rpc.register("query.start", self._on_start)
        self.rpc.register("query.scan_tuples", self._on_scan_tuples)
        self.rpc.register("query.scan_done", self._on_scan_done)
        self.rpc.register("query.scan_failed", self._on_scan_failed)
        self.rpc.register("query.data", self._on_data)
        self.rpc.register("query.eos", self._on_eos)
        self.rpc.register("query.eos_summary", self._on_eos_summary)
        self.rpc.register("query.recover", self._on_recover)
        self.rpc.register("query.abort", self._on_abort)

    # ------------------------------------------------------------------ coordinator

    def execute(
        self,
        plan: PhysicalPlan,
        epoch: int,
        on_complete: Callable[[QueryResult], None],
        options: QueryOptions | None = None,
        on_error: Callable[[Exception], None] | None = None,
    ) -> str:
        """Initiate ``plan`` at ``epoch``; the callback receives the result.

        Returns the query id — unique across the *cluster*, not just this
        node, because participants of concurrently initiated queries key
        their per-query state by it (two initiators' local counters would
        collide).
        """
        options = options or QueryOptions()
        query_id = self._next_query_id()
        fingerprint = None
        if self.result_cache is not None and options.use_result_cache:
            fingerprint = plan_fingerprint(plan)
            cached = self.result_cache.lookup(fingerprint, epoch)
            if cached is not None:
                self._serve_cached_result(cached, on_complete)
                return query_id
        snapshot = self.membership.snapshot()
        statistics = QueryStatistics(
            started_at=self.node.network.now,
            participating_nodes=len(self.participants_of(snapshot)),
        )
        tracer = self.node.network.tracer
        if tracer is not None:
            # Bind the statistics to the trace the query runs under — the
            # scheduler's operation root span when submitted through the
            # runtime, or (for direct execute() calls) the trace the first
            # message will open.  Restarts relaunch under new query ids but
            # keep this trace, so the profile spans every attempt.
            context = tracer.current()
            statistics.trace_id = (
                context.trace_id if context is not None else None
            )
            statistics._tracer = tracer
            statistics._plan = plan
            if context is not None:
                tracer.query_traces.setdefault(query_id, context.trace_id)
        # Captured before scan resolution: a publish completing between here
        # and the result's completion bumps the sequence, which vetoes the
        # result-cache fill (see _maybe_complete).
        cache_seq = self._cache_publish_seq()
        self._resolve_scans(
            plan, epoch, snapshot,
            # The routing snapshot the query runs with is taken at launch time
            # (after scan resolution), so a node that failed in the meantime
            # is already excluded rather than discovered mid-query.
            on_ready=lambda records: self._launch(
                query_id, plan, epoch, options, self.membership.snapshot(), records,
                statistics, on_complete, fingerprint=fingerprint,
                cache_publish_seq=cache_seq, on_error=on_error,
            ),
            on_error=on_error or (lambda exc: (_ for _ in ()).throw(exc)),
        )
        return query_id

    def _next_query_id(self) -> str:
        """Cluster-unique query id, namespaced by the initiating node."""
        return f"{self.node.address}/q{next(self._query_ids)}"

    def _resilience_totals(self) -> dict:
        """Merged cluster-wide resilience-stats snapshot (empty if disabled).

        The per-node stats objects are process-side observers (exactly like
        :data:`ENCODING_STATS`), so reading them here does not touch the
        simulated wire; the launch/finish delta attributes hedges and retries
        to the query that was in flight.
        """
        merged = None
        for peer in self.node.network.nodes.values():
            resilience = peer.services.get("resilience")
            if resilience is None:
                continue
            if merged is None:
                from ..resilience import ResilienceStats

                merged = ResilienceStats()
            merged.merge(resilience.stats)
        return merged.snapshot() if merged is not None else {}

    def _integrity_totals(self) -> dict:
        """Merged cluster-wide integrity-stats snapshot (empty if disabled).

        Same process-side-observer pattern as :meth:`_resilience_totals`: the
        launch/finish delta attributes detections and read-repairs to the
        query whose reads surfaced them.
        """
        merged = None
        for peer in self.node.network.nodes.values():
            storage = peer.services.get("storage")
            integrity = getattr(storage, "integrity", None)
            if integrity is None:
                continue
            if merged is None:
                from ..integrity import IntegrityStats

                merged = IntegrityStats()
            merged.merge(integrity.stats)
        return merged.snapshot() if merged is not None else {}

    def reset_volatile(self) -> None:
        """Drop all in-flight query state after a crash-restart.

        Queries this node participated in were recovered (or restarted) by
        their initiators when the crash was detected; queries it *initiated*
        had their futures failed by the runtime at crash time.  The query-id
        counter keeps counting across incarnations, so ids stay unique.
        """
        for context in self._contexts.values():
            context.fragment.release()
        self._contexts.clear()
        self._active.clear()
        self._pending_messages.clear()
        self._finished_queries.clear()

    def _cache_publish_seq(self) -> int:
        """Current publish sequence of this initiator's result cache."""
        return self.result_cache.publish_seq if self.result_cache is not None else 0

    def _serve_cached_result(self, cached, on_complete: Callable[[QueryResult], None]) -> None:
        """Answer a query from the semantic result cache: no network at all."""
        statistics = QueryStatistics(
            started_at=self.node.network.now,
            participating_nodes=1,
            result_cache_hit=True,
        )

        def deliver() -> None:
            # Materialising the cached rows is the only work left; charge the
            # initiator a per-row CPU cost comparable to local dispatch.
            self.node.charge_cpu(0.1e-6 * len(cached.rows))
            statistics.completed_at = self.node.network.now
            on_complete(QueryResult(
                attributes=tuple(cached.attributes),
                rows=[tuple(row) for row in cached.rows],
                statistics=statistics,
            ))

        self.node.network.schedule(1e-6, deliver)

    def _resolve_scans(
        self,
        plan: PhysicalPlan,
        epoch: int,
        snapshot: RoutingSnapshot,
        on_ready: Callable[[dict[int, tuple[CoordinatorRecord, int]]], None],
        on_error: Callable[[Exception], None],
    ) -> None:
        """Resolve each scanned relation version and fetch its coordinator record."""
        storage_client: StorageClient = self.node.services["storage_client"]
        scans = plan.scans()
        records: dict[int, tuple[CoordinatorRecord, int]] = {}
        remaining = len(scans)
        if remaining == 0:
            on_ready(records)
            return
        errors: list[Exception] = []

        def scan_resolved(scan: PhysScan, record: CoordinatorRecord, resolved_epoch: int) -> None:
            nonlocal remaining
            records[scan.op_id] = (record, resolved_epoch)
            remaining -= 1
            if remaining == 0:
                if errors:
                    on_error(errors[0])
                else:
                    on_ready(records)

        def scan_failed(exc: Exception) -> None:
            nonlocal remaining
            errors.append(exc)
            remaining -= 1
            if remaining == 0:
                on_error(errors[0])

        for scan in scans:
            scan_epoch = scan.epoch if scan.epoch is not None else epoch

            def resolve(scan=scan, scan_epoch=scan_epoch) -> None:
                storage_client.resolve_epoch(
                    scan.schema.name, scan_epoch, snapshot,
                    on_resolved=lambda resolved, scan=scan: storage_client.fetch_coordinator(
                        scan.schema.name, resolved, snapshot,
                        on_record=lambda record, scan=scan, resolved=resolved: scan_resolved(
                            scan, record, resolved
                        ),
                        on_error=scan_failed,
                    ),
                    on_error=scan_failed,
                )

            resolve()

    def _launch(
        self,
        query_id: str,
        plan: PhysicalPlan,
        epoch: int,
        options: QueryOptions,
        snapshot: RoutingSnapshot,
        scan_records: dict[int, tuple[CoordinatorRecord, int]],
        statistics: QueryStatistics,
        on_complete: Callable[[QueryResult], None],
        fingerprint: object = None,
        cache_publish_seq: int = 0,
        on_error: Callable[[Exception], None] | None = None,
    ) -> None:
        if not self.node.alive:
            # The initiator crashed while its scans were resolving; the
            # operation's future was failed at crash time.
            return
        participants = self.participants_of(snapshot)
        statistics.participating_nodes = len(participants)
        # Assign every index page of every scanned relation to its owner under
        # the launch snapshot; these assignments drive the leaf scans.
        scan_specs: dict[int, _ScanSpec] = {}
        resilience = self.node.services.get("resilience")
        for scan in plan.scans():
            record, resolved_epoch = scan_records[scan.op_id]
            # Page pruning: a page whose hash range contains none of the
            # plan-time candidate hashes provably holds no matching tuple ID,
            # so it is never assigned to an index node — no scan request, no
            # tuple-ID fan-out, no scan_done marker for it.
            refs, pruned = prune_page_refs(record.pages, scan.prune_hashes)
            statistics.scan_pages_total += len(record.pages)
            statistics.scan_pages_pruned += pruned
            pages_by_node: dict[str, list[PageRef]] = {}
            for ref in refs:
                if resilience is None:
                    owner = physical_address(snapshot.owner_of(ref.storage_key))
                else:
                    # Any page replica can run the leaf scan (participants
                    # chase pages they lack), so route around suspected
                    # owners; with every replica healthy this is exactly the
                    # primary-owner assignment.
                    owner = resilience.select_target(
                        replica_set(snapshot, ref.storage_key, self.replication_factor)
                    )
                pages_by_node.setdefault(owner, []).append(ref)
            scan_specs[scan.op_id] = _ScanSpec(
                scan_op_id=scan.op_id,
                relation=scan.schema.name,
                epoch=resolved_epoch,
                covering=scan.covering,
                pages_by_index_node=pages_by_node,
                key_predicate=(
                    None if scan.sargable is None
                    else ScanPredicate(scan.sargable, scan.schema.key)
                ),
            )
        collector = _ResultCollector(plan.root, participants)
        pinned_epochs = {scan.op_id: scan.epoch for scan in plan.scans()}
        scanned = tuple(
            (spec.relation, spec.epoch, pinned_epochs.get(op_id))
            for op_id, spec in sorted(scan_specs.items())
        )
        active = _ActiveQuery(
            query_id=query_id,
            plan=plan,
            epoch=epoch,
            options=options,
            snapshot=snapshot,
            original_snapshot=snapshot,
            scan_specs=scan_specs,
            collector=collector,
            on_complete=on_complete,
            statistics=statistics,
            traffic_start=self.node.network.traffic.snapshot(),
            encoding_start=ENCODING_STATS.snapshot(),
            resilience_start=self._resilience_totals(),
            integrity_start=self._integrity_totals(),
            fingerprint=fingerprint,
            scans=scanned,
            cache_publish_seq=cache_publish_seq,
            on_error=on_error,
        )
        self._active[query_id] = active
        # Each participant receives only what it needs: the plan, the routing
        # snapshot, its own index-node page assignments, the index nodes it
        # must wait for (scan end-of-stream senders) and the nodes it must
        # notify when its own index duties finish.  Shipping the full page
        # catalogue to every node would make plan dissemination grow with
        # (pages × participants) — a real implementation sends scan requests
        # only to the index nodes that own the pages (Algorithm 1).
        expected_by_participant, receivers_by_index_node = _scan_completion_maps(
            scan_specs, participants, snapshot
        )
        base_size = plan.estimated_size() + 32 * len(snapshot)
        for address in participants:
            per_node_specs = {
                op_id: spec.restricted_to(address) for op_id, spec in scan_specs.items()
            }
            expected = expected_by_participant[address]
            receivers = receivers_by_index_node[address]
            start_payload = {
                "query_id": query_id,
                "initiator": self.node.address,
                "plan": plan,
                "snapshot": snapshot,
                "options": options,
                "scan_specs": per_node_specs,
                "expected_scan_senders": expected,
                "scan_done_receivers": receivers,
            }
            size = (
                base_size
                + sum(spec.estimated_size() for spec in per_node_specs.values())
                + 16 * sum(len(nodes) for nodes in expected.values())
                + 16 * sum(len(nodes) for nodes in receivers.values())
            )
            self.rpc.cast(address, "query.start", start_payload, size)

    def participants_of(self, snapshot: RoutingSnapshot) -> list[str]:
        """Physical participants under ``snapshot``, in ring order.

        Delegates to the snapshot's memoised physical-node tuple (the old
        per-call list-scan dedup was O(n²) and ran several times per message
        at large clusters); returns a fresh list so callers may mutate it.
        """
        return list(snapshot.physical_nodes())

    # ------------------------------------------------------------- participant side

    def _context_or_buffer(
        self, method: str, payload: Mapping[str, object]
    ) -> _NodeQueryContext | None:
        """The query's context, or None with the message buffered/dropped.

        Early messages (the query's start has not arrived here yet) are held
        for replay; late ones (the query was already aborted here) are
        dropped.  A message for a query whose initiator crashed before this
        node ever saw the start stays buffered — bounded by the crashed
        query's fan-out and reclaimed when this node itself restarts.
        """
        query_id = payload["query_id"]
        context = self._contexts.get(query_id)
        if context is not None:
            return context
        if query_id not in self._finished_queries:
            self._pending_messages.setdefault(query_id, []).append((method, payload))
        return None

    def _on_start(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        query_id: str = payload["query_id"]
        if query_id in self._finished_queries:
            return  # the query already completed cluster-wide; stale start
        plan: PhysicalPlan = payload["plan"]
        snapshot: RoutingSnapshot = payload["snapshot"]
        options: QueryOptions = payload["options"]
        scan_specs: Mapping[int, _ScanSpec] = payload["scan_specs"]
        context = _NodeQueryContext(
            self, query_id, plan, snapshot, payload["initiator"], options, scan_specs
        )
        self._contexts[query_id] = context
        context.scan_done_receivers = dict(payload["scan_done_receivers"])
        context.arm_scans(payload["expected_scan_senders"])
        # Perform this node's index-node duties for each scan.
        for spec in scan_specs.values():
            assigned = spec.pages_by_index_node.get(self.node.address, [])
            if assigned:
                self._run_index_scan(context, spec, assigned, restrict_ranges=None)
        # Replay whatever raced ahead of the start, in arrival order.
        for method, early_payload in self._pending_messages.pop(query_id, ()):
            self._replay(method, early_payload)

    def _replay(self, method: str, payload: Mapping[str, object]) -> None:
        handler = {
            "query.scan_tuples": self._on_scan_tuples,
            "query.scan_done": self._on_scan_done,
            "query.data": self._on_data,
            "query.eos": self._on_eos,
            "query.recover": self._on_recover,
        }[method]
        handler("", payload, None)

    def _run_index_scan(
        self,
        context: _NodeQueryContext,
        spec: _ScanSpec,
        pages: Sequence[PageRef],
        restrict_ranges: Sequence[KeyRange] | None,
    ) -> None:
        """Index-node role: filter pages and fan out tuple requests.

        ``restrict_ranges`` limits the produced tuple IDs to the given hash
        ranges (used during incremental recovery, where only the failed nodes'
        ranges must be re-produced).  When all assigned pages have been
        processed, a ``scan_done`` marker is sent to every participant that may
        have received tuple requests from this index node (the set precomputed
        by the initiator); during a recovery phase it is broadcast to everyone.
        """
        remaining = {"count": len(pages)}

        def page_processed() -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                done_payload = {
                    "query_id": context.query_id,
                    "scan_op_id": spec.scan_op_id,
                    "sender": self.node.address,
                    "phase": context.phase,
                }
                receivers = context.scan_done_receivers.get(spec.scan_op_id)
                if receivers is None or context.phase > 0:
                    receivers = context.participants()
                for address in receivers:
                    self.rpc.cast(address, "query.scan_done", done_payload, 12)

        if not pages:
            page_processed()
            return

        for ref in pages:
            self._process_scan_page(context, spec, ref, restrict_ranges, page_processed)

    def _process_scan_page(
        self,
        context: _NodeQueryContext,
        spec: _ScanSpec,
        ref: PageRef,
        restrict_ranges: Sequence[KeyRange] | None,
        done: Callable[[], None],
    ) -> None:
        page = self.storage.local_or_cached_page(ref.page_id)
        if page is None:
            # Fetch the page from a replica before scanning it (the ring may
            # have moved since the page was written).
            targets = search_targets(
                context.snapshot, ref.storage_key, self.replication_factor,
                exclude=(self.node.address,),
            )

            def fetched(rep) -> None:
                # Keep the immutable page version for the next query that
                # scans it here (the ring will not move back on its own).
                if self.storage.cache is not None:
                    self.storage.cache.put_page(rep["page"])
                self._scan_page_contents(context, spec, rep["page"], restrict_ranges, done)

            def attempt(index: int) -> None:
                if index >= len(targets):
                    # No reachable node can produce this page right now (its
                    # holders are down or unreachable): rows would silently
                    # vanish from the answer.  Tell the initiator, which
                    # restarts the query against a fresh snapshot.
                    self.rpc.cast(
                        context.initiator(), "query.scan_failed",
                        {"query_id": context.query_id, "page_id": ref.page_id}, 24,
                    )
                    done()
                    return
                self.rpc.call(
                    targets[index], "store.get_page", {"page_id": ref.page_id}, 32,
                    on_reply=lambda rep: fetched(rep)
                    if not rep.get("missing") else attempt(index + 1),
                    on_failure=lambda _addr: attempt(index + 1),
                )

            resilience = self.node.services.get("resilience")
            if resilience is not None:
                def unavailable() -> None:
                    self.rpc.cast(
                        context.initiator(), "query.scan_failed",
                        {"query_id": context.query_id, "page_id": ref.page_id}, 24,
                    )
                    done()

                resilience.chase_call(
                    targets, "store.get_page", {"page_id": ref.page_id}, 32,
                    accept=lambda _src, rep: (
                        False if rep.get("missing") else (fetched(rep) or True)
                    ),
                    on_exhausted=unavailable,
                )
                return

            attempt(0)
            return
        self._scan_page_contents(context, spec, page, restrict_ranges, done)

    def _scan_page_contents(self, context, spec, page, restrict_ranges, done) -> None:
        self.node.charge_cpu(0.2e-6 * len(page.tuple_ids))
        matching = page.tuple_ids
        key_predicate = spec.key_predicate_function()
        if key_predicate is not None:
            matching = [tid for tid in matching if key_predicate(tid.key_values)]
        if restrict_ranges:
            matching = [
                tid for tid in matching
                if any(key_range.contains(tid.hash_key) for key_range in restrict_ranges)
            ]
        if spec.covering:
            # Covering index scan: rows are produced right here at the index node.
            source = context.fragment.scan_sources.get(spec.scan_op_id)
            if source is not None and matching:
                source.deliver_key_rows(matching)
            done()
            return
        by_data_node = route_tuple_ids(
            context.snapshot, matching, self.replication_factor,
            self.node.services.get("resilience"),
        )
        for data_node, tids in by_data_node.items():
            self.rpc.cast(
                data_node, "query.scan_tuples",
                {
                    "query_id": context.query_id,
                    "scan_op_id": spec.scan_op_id,
                    "relation": spec.relation,
                    "tuple_ids": tids,
                },
                size=24 * len(tids) + 64,
            )
        done()

    def _on_scan_tuples(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        context = self._context_or_buffer("query.scan_tuples", payload)
        if context is None:
            return
        scan_op_id = payload["scan_op_id"]
        source = context.fragment.scan_sources.get(scan_op_id)
        if source is None:
            return
        relation = payload["relation"]
        found, missing = self.storage.lookup_tuples(relation, payload["tuple_ids"])
        source.deliver_tuples(found)
        if not missing:
            return
        # Tuple versions this node should serve but does not hold (the ring
        # moved and background replication has not caught up): chase each one
        # across the replicas before the scan is allowed to complete, exactly
        # as Algorithm-1 retrieval does — dropping them would silently lose
        # rows from the answer.  A version found on no live node aborts the
        # query attempt through the initiator (scan_failed → restart).
        phase = context.phase
        resilience = self.node.services.get("resilience")
        for tid in missing:
            context.begin_scan_fetch(scan_op_id)
            replicas = search_targets(
                context.snapshot, tid.hash_key, self.replication_factor,
                exclude=(self.node.address,),
            )

            if resilience is not None:

                def accept(_src, reply, tid=tid) -> bool:
                    if context.phase != phase:
                        return True  # superseded: consume silently
                    fetched = [t for t in reply.get("tuples", []) if t.tuple_id == tid]
                    if not fetched:
                        return False
                    self.storage.store_tuple(fetched[0])
                    source.deliver_tuples(fetched)
                    context.end_scan_fetch(scan_op_id)
                    return True

                def exhausted(tid=tid) -> None:
                    if context.phase != phase:
                        return
                    self.rpc.cast(
                        context.initiator(), "query.scan_failed",
                        {"query_id": context.query_id, "tuple_id": tid}, 24,
                    )
                    context.end_scan_fetch(scan_op_id)

                resilience.chase_call(
                    replicas, "store.get_tuples",
                    {"relation": relation, "tuple_ids": [tid]}, 48,
                    accept, on_exhausted=exhausted,
                )
                continue

            def attempt(index: int, tid=tid, replicas=replicas) -> None:
                if context.phase != phase:
                    return  # recovery superseded this attempt's chases
                if index >= len(replicas):
                    self.rpc.cast(
                        context.initiator(), "query.scan_failed",
                        {"query_id": context.query_id, "tuple_id": tid}, 24,
                    )
                    context.end_scan_fetch(scan_op_id)
                    return

                def handle(reply: Mapping[str, object]) -> None:
                    if context.phase != phase:
                        return
                    fetched = [t for t in reply.get("tuples", []) if t.tuple_id == tid]
                    if fetched:
                        self.storage.store_tuple(fetched[0])
                        source.deliver_tuples(fetched)
                        context.end_scan_fetch(scan_op_id)
                    else:
                        attempt(index + 1)

                self.rpc.call(
                    replicas[index], "store.get_tuples",
                    {"relation": relation, "tuple_ids": [tid]}, 48,
                    on_reply=handle,
                    on_failure=lambda _addr: attempt(index + 1),
                )

            attempt(0)

    def _on_scan_failed(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        """A participant could not produce a leaf page from any replica.

        Completing the query would silently drop the page's rows, so the
        initiator restarts it instead: the fresh attempt resolves against the
        current membership, where the page's holder is typically back (or the
        page has been re-replicated).  Bounded by ``max_restarts`` like every
        other restart, after which the query fails loudly.
        """
        active = self._active.get(payload["query_id"])
        if active is None or active.completed:
            return
        self._restart_query(active)

    def _on_scan_done(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        context = self._context_or_buffer("query.scan_done", payload)
        if context is None:
            return
        context.note_scan_done(
            payload["scan_op_id"], payload["sender"], payload["phase"]
        )

    # ----------------------------------------------------------------- data exchange

    def send_data(
        self,
        context: _NodeQueryContext,
        destination: str,
        exchange_id: int,
        rows: list[TaggedRow],
        eos: bool = False,
    ) -> None:
        attributes = rows[0].row.attributes if rows else ()
        values = [row.row.values for row in rows]
        if context.encoding_enabled:
            # Exchanges ship encoded columns: the charged wire size is the
            # compressed *encoded* batch.  ``enable_encoding=False`` (the A/B
            # knob mirroring ``enable_pushdown``) restores the raw batch size.
            batch = EncodedTupleBatch.build(attributes, values)
        else:
            batch = TupleBatch.build(attributes, values)
        size = batch.wire_size
        if context.provenance_enabled:
            # Identical to batch_size(rows) - sum(row sizes): only the tag
            # overhead rides on top of the real compressed batch size.
            size += provenance_overhead(rows)
        payload = {
            "query_id": context.query_id,
            "exchange_id": exchange_id,
            "sender": self.node.address,
            "phase": context.phase,
            "rows": rows,
        }
        if eos:
            # Piggybacked end-of-stream marker: one flag byte on the final
            # batch instead of a separate fixed-overhead query.eos message.
            payload["eos"] = True
            size += 1
        self.rpc.cast(destination, "query.data", payload, size)

    def send_eos(self, context: _NodeQueryContext, destination: str, exchange_id: int) -> None:
        payload = {
            "query_id": context.query_id,
            "exchange_id": exchange_id,
            "sender": self.node.address,
            "phase": context.phase,
        }
        self.rpc.cast(destination, "query.eos", payload, 12)

    def send_eos_summary(
        self, context: _NodeQueryContext, exchange_id: int, zero_destinations: list[str]
    ) -> None:
        """Report exchange completion to the initiator (large clusters only).

        ``zero_destinations`` are the participants this sender shipped no rows
        to; the initiator relays their end-of-stream in aggregate instead of
        this node fanning out one empty-pair EOS message each.  Charged as the
        12-byte control frame plus a destination bitmap over the participants.
        """
        payload = {
            "query_id": context.query_id,
            "exchange_id": exchange_id,
            "sender": self.node.address,
            "phase": context.phase,
            "zero": list(zero_destinations),
        }
        size = 12 + (len(context.participants()) + 7) // 8
        self.rpc.cast(context.initiator_address, "query.eos_summary", payload, size)

    def _on_eos_summary(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        active = self._active.get(payload["query_id"])
        if active is None or active.completed:
            return
        phase = payload["phase"]
        if phase < active.phase:
            # Stale report from before a recovery phase bump: the sender will
            # re-run finish() in the current phase and report again.
            return
        key = (payload["exchange_id"], phase)
        active.eos_summaries.setdefault(key, {})[payload["sender"]] = list(
            payload["zero"]
        )
        self._maybe_relay_eos(active, key)

    def _maybe_relay_eos(self, active: _ActiveQuery, key: tuple[int, int]) -> None:
        """Relay aggregated EOS once every live sender reported ``key``."""
        reports = active.eos_summaries.get(key)
        if reports is None:
            return
        # Cheap lower bound first: |expected| >= |participants| - |failed|,
        # and expected <= reports needs len(reports) >= |expected|.  Every
        # summary but the last one fails this length test, so the O(n) set
        # comparison below runs once per (exchange, phase), not per report.
        if len(reports) < len(active.snapshot.physical_nodes()) - len(active.failed_nodes):
            return
        expected = {
            address
            for address in self.participants_of(active.snapshot)
            if address not in active.failed_nodes
        }
        if not expected <= set(reports):
            return
        exchange_id, phase = key
        del active.eos_summaries[key]
        by_destination: dict[str, list[str]] = {}
        for sender in sorted(expected):
            for destination in reports[sender]:
                by_destination.setdefault(destination, []).append(sender)
        # One aggregated marker per destination: the control frame plus a
        # sender bitmap over the participants.
        size = 12 + (len(expected) + 7) // 8
        for destination, senders in by_destination.items():
            if destination in active.failed_nodes:
                continue
            relay_payload = {
                "query_id": active.query_id,
                "exchange_id": exchange_id,
                "phase": phase,
                "senders": senders,
            }
            self.rpc.cast(destination, "query.eos", relay_payload, size)

    def _on_data(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        query_id = payload["query_id"]
        exchange_id = payload["exchange_id"]
        rows: list[TaggedRow] = payload["rows"]
        eos = payload.get("eos", False)
        active = self._active.get(query_id)
        if active is not None and exchange_id == active.plan.root.op_id:
            if not active.completed:
                active.collector.accept(rows, active.failed_nodes)
                if eos:
                    active.collector.sender_eos(payload["sender"], payload["phase"])
                    self._maybe_complete(active)
            return
        context = self._context_or_buffer("query.data", payload)
        if context is None:
            return
        receiver = context.fragment.receivers.get(exchange_id)
        if receiver is not None:
            receiver.accept(rows)
            if eos:
                receiver.sender_eos(payload["sender"], payload["phase"])

    def _on_eos(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        query_id = payload["query_id"]
        exchange_id = payload["exchange_id"]
        phase = payload["phase"]
        # Direct EOS names one sender; an initiator relay carries the
        # aggregated list of senders that had no data for this node.
        senders = payload.get("senders")
        if senders is None:
            senders = (payload["sender"],)
        active = self._active.get(query_id)
        if active is not None and exchange_id == active.plan.root.op_id:
            if not active.completed:
                for sender in senders:
                    active.collector.sender_eos(sender, phase)
                self._maybe_complete(active)
            return
        context = self._context_or_buffer("query.eos", payload)
        if context is None:
            return
        receiver = context.fragment.receivers.get(exchange_id)
        if receiver is not None:
            for sender in senders:
                receiver.sender_eos(sender, phase)

    def _maybe_complete(self, active: _ActiveQuery) -> None:
        if active.completed or not active.collector.is_complete(
            active.failed_nodes, active.phase
        ):
            return
        active.completed = True
        network = self.node.network
        active.statistics.completed_at = network.now
        traffic = active.traffic_start.delta(network.traffic.snapshot())
        active.statistics._absorb_traffic(traffic)
        active.statistics._absorb_encoding(
            active.encoding_start, ENCODING_STATS.snapshot()
        )
        active.statistics._absorb_resilience(
            active.resilience_start, self._resilience_totals()
        )
        active.statistics._absorb_integrity(
            active.integrity_start, self._integrity_totals()
        )
        active.statistics.rows_shipped = active.collector.rows_received
        result = QueryResult(
            attributes=active.plan.output_attributes(),
            rows=active.collector.final_rows(),
            statistics=active.statistics,
        )
        if (
            self.result_cache is not None
            and active.options.use_result_cache
            and active.fingerprint is not None
            # A publish that completed while this query ran may have raced
            # its scan resolutions (some scans pre-publish, some post); such
            # a result is correct for *no* epoch key, so it never enters the
            # cache.  On the serial path the sequence cannot move mid-query
            # and every result is cached exactly as before.
            and self._cache_publish_seq() == active.cache_publish_seq
        ):
            self.result_cache.store_result(
                active.fingerprint,
                active.epoch,
                result.attributes,
                result.rows,
                active.scans,
                cold_bytes=active.statistics.bytes_total,
            )
        # Clean up participant-side state for this query everywhere.
        self._send_aborts(active)
        del self._active[active.query_id]
        active.on_complete(result)

    def _send_aborts(self, active: _ActiveQuery, include_self: bool = True) -> None:
        """Fan ``query.abort`` out to the query's live participants.

        The single place both completion and restart broadcast from, and
        idempotent per ``(query_id, node)``: a participant that was already
        told to drop the query's state is never messaged again.
        """
        for address in self.participants_of(active.snapshot):
            if address in active.failed_nodes or address in active.aborts_sent:
                continue
            if not include_self and address == self.node.address:
                continue
            active.aborts_sent.add(address)
            self.rpc.cast(address, "query.abort", {"query_id": active.query_id}, 12)

    def _on_abort(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        query_id = payload["query_id"]
        self._teardown_context(query_id)
        self._pending_messages.pop(query_id, None)
        self._note_finished(query_id)

    def _teardown_context(self, query_id: str) -> None:
        """Drop the participant-side context, reporting operator summaries to
        the tracer first so per-operator row/batch counts survive teardown.
        Crash resets bypass this deliberately: a dead node reports nothing.

        The fragment is unlinked last, so the query's operator state is freed
        by reference counting right here instead of piling up as cyclic
        garbage.  Callbacks that outlive the query (a replica-chase reply, a
        page fetch) still hold the context or a scan source; they find the
        fragment empty and the source inert."""
        context = self._contexts.pop(query_id, None)
        if context is None:
            return
        tracer = self.node.network.tracer
        if tracer is not None:
            self._emit_operator_summaries(tracer, context)
        context.fragment.release()

    def _emit_operator_summaries(self, tracer, context: _NodeQueryContext) -> None:
        from .operators import AggregateOperator, HashJoinOperator

        node = self.node.address
        query_id = context.query_id
        fragment = context.fragment
        for op_id, source in fragment.scan_sources.items():
            tracer.record_operator_summary(
                query_id, node, op_id, "scan", {"rows_out": source.rows_produced}
            )
        for op_id, sender in fragment.senders.items():
            tracer.record_operator_summary(
                query_id, node, op_id, "sender",
                {"rows_sent": sender.rows_sent, "batches_sent": sender.batches_sent},
            )
        for op_id, receiver in fragment.receivers.items():
            tracer.record_operator_summary(
                query_id, node, op_id, "receiver",
                {"rows_received": receiver.rows_received},
            )
        for op_id, operator in fragment.operators.items():
            if op_id < 0:
                continue  # negative ids alias exchange senders, reported above
            if isinstance(operator, HashJoinOperator):
                tracer.record_operator_summary(
                    query_id, node, op_id, "join", {"rows_out": operator.rows_joined}
                )
            elif isinstance(operator, AggregateOperator):
                tracer.record_operator_summary(
                    query_id, node, op_id, "aggregate",
                    {"rows_out": operator.group_count()},
                )

    # ------------------------------------------------------------------- failures

    def _on_peer_failure(self, failed_address: str) -> None:
        for context in self._contexts.values():
            context.failed_nodes.add(failed_address)
        for active in list(self._active.values()):
            if active.completed:
                continue
            if failed_address not in self.participants_of(active.snapshot):
                continue
            if failed_address in active.failed_nodes:
                continue
            active.failed_nodes.add(failed_address)
            active.statistics.failures_handled += 1
            # Failure listeners run with no active trace context; open a phase
            # span in the query's existing trace so the restart/recovery
            # fan-out stays in the trace instead of becoming orphan roots.
            if active.options.recovery_mode == RECOVERY_RESTART:
                phase = self._trace_phase(active.statistics, "query.restart")
                try:
                    self._restart_query(active)
                finally:
                    self._end_trace_phase(phase)
            else:
                phase = self._trace_phase(active.statistics, "query.recovery")
                try:
                    self._incremental_recovery(active, failed_address)
                finally:
                    self._end_trace_phase(phase)

    def _trace_phase(self, statistics: QueryStatistics, name: str):
        """Open and activate ``name`` as a span inside the query's trace;
        returns the token for :meth:`_end_trace_phase` (``None`` untraced)."""
        tracer = self.node.network.tracer
        if tracer is None or statistics.trace_id is None:
            return None
        context = tracer.current()
        parent_id = (
            context.span_id
            if context is not None and context.trace_id == statistics.trace_id
            else None
        )
        span = tracer.open_span(
            name, self.node.address, self.node.network.now,
            trace_id=statistics.trace_id, parent_id=parent_id,
        )
        token = tracer.activate(span)
        return (tracer, span, token)

    def _end_trace_phase(self, phase) -> None:
        if phase is None:
            return
        tracer, span, token = phase
        tracer.deactivate(token)
        tracer.end_span(span, self.node.network.now)

    # -- full restart ------------------------------------------------------------------

    def _restart_query(self, active: _ActiveQuery) -> None:
        """Abort the in-flight execution and re-run the query from scratch."""
        if active.statistics.restarts >= active.options.max_restarts:
            error = QueryError(
                f"query {active.query_id} exceeded the maximum number of restarts"
            )
            if active.on_error is not None:
                # Resolve the submitting session's operation instead of
                # blowing up the event loop from a message handler.
                self._send_aborts(active, include_self=False)
                self._teardown_context(active.query_id)
                self._active.pop(active.query_id, None)
                active.completed = True
                active.on_error(error)
                return
            raise QueryError(
                f"query {active.query_id} exceeded the maximum number of restarts"
            )
        self._send_aborts(active, include_self=False)
        self._teardown_context(active.query_id)
        del self._active[active.query_id]

        # Account the aborted attempt's traffic before the relaunch resets the
        # per-attempt traffic baseline.
        aborted_traffic = active.traffic_start.delta(self.node.network.traffic.snapshot())
        statistics = active.statistics
        statistics._absorb_traffic(aborted_traffic)
        statistics._absorb_encoding(active.encoding_start, ENCODING_STATS.snapshot())
        statistics._absorb_resilience(active.resilience_start, self._resilience_totals())
        statistics._absorb_integrity(active.integrity_start, self._integrity_totals())
        statistics.restarts += 1

        def relaunch() -> None:
            new_snapshot = self.membership.snapshot()
            query_id = self._next_query_id()
            tracer = self.node.network.tracer
            if tracer is not None and statistics.trace_id is not None:
                # The relaunched attempt keeps the submission's trace.
                tracer.query_traces.setdefault(query_id, statistics.trace_id)
            new_statistics = statistics  # keep cumulative timing and counters
            # The restart re-resolves every scan, so the publish-race guard
            # window restarts here too.
            cache_seq = self._cache_publish_seq()
            self._resolve_scans(
                active.plan, active.epoch, new_snapshot,
                on_ready=lambda specs: self._launch(
                    query_id, active.plan, active.epoch, active.options, new_snapshot,
                    specs, new_statistics, active.on_complete,
                    fingerprint=active.fingerprint, cache_publish_seq=cache_seq,
                    on_error=active.on_error,
                ),
                on_error=active.on_error or (lambda exc: (_ for _ in ()).throw(exc)),
            )

        relaunch()

    # -- incremental recovery -------------------------------------------------------------

    def _incremental_recovery(self, active: _ActiveQuery, failed_address: str) -> None:
        """The four recovery stages of Section V-D, driven by the initiator."""
        # Stage 1: determine the change in the assignment of ranges to nodes.
        failed_ranges = [active.snapshot.range_of(entry)
                         for entry in active.snapshot.nodes
                         if physical_address(entry) == failed_address]
        new_snapshot, _moves = active.snapshot.reassign_failed(
            [entry for entry in active.snapshot.nodes
             if physical_address(entry) == failed_address],
            self.replication_factor,
        )
        active.snapshot = new_snapshot
        active.phase += 1
        active.statistics.phases += 1
        # Summaries gathered for earlier phases are void: every live sender
        # re-runs finish() in the new phase and reports afresh.
        active.eos_summaries = {
            key: reports
            for key, reports in active.eos_summaries.items()
            if key[1] >= active.phase
        }

        # Stage 2 will be executed at every node on receipt of the recover
        # message (drop tainted intermediate results).  The collector purges
        # its own tainted results here.
        active.collector.purge_tainted(active.failed_nodes)
        active.collector.reset_eos(self.participants_of(new_snapshot), active.failed_nodes)

        # Stage 3: restart leaf-level operations for the failed ranges.
        rescan_by_node: dict[str, list] = {}
        for op_id, spec in active.scan_specs.items():
            for index_node, pages in spec.pages_by_index_node.items():
                for ref in pages:
                    if index_node == failed_address:
                        # The failed node was the index node: the new owner of
                        # the page re-scans it entirely.
                        new_owner = physical_address(new_snapshot.owner_of(ref.storage_key))
                        rescan_by_node.setdefault(new_owner, []).append((op_id, ref, None))
                    elif not spec.covering:
                        # Live index node: re-produce only the tuple IDs whose
                        # data lived on the failed node.
                        rescan_by_node.setdefault(index_node, []).append(
                            (op_id, ref, failed_ranges)
                        )
            # Update the spec's page assignment (failed node's pages move to
            # the new owners) so a later failure reassigns from current state.
            reassigned: dict[str, list[PageRef]] = {}
            for index_node, pages in spec.pages_by_index_node.items():
                for ref in pages:
                    target = index_node
                    if index_node == failed_address:
                        target = physical_address(new_snapshot.owner_of(ref.storage_key))
                    reassigned.setdefault(target, []).append(ref)
            spec.pages_by_index_node = reassigned

        # Stage 2 + 4 are executed by the participants when they receive the
        # recover message: purge tainted state, then re-create data that was
        # sent to the failed nodes from the exchange caches.
        recover_payload = {
            "query_id": active.query_id,
            "failed": set(active.failed_nodes),
            "snapshot": new_snapshot,
            "phase": active.phase,
            "rescans": rescan_by_node,
        }
        size = 64 + 32 * len(new_snapshot) + 64 * sum(len(v) for v in rescan_by_node.values())
        for address in self.participants_of(new_snapshot):
            self.rpc.cast(address, "query.recover", recover_payload, size)

    def _on_recover(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        context = self._context_or_buffer("query.recover", payload)
        if context is None:
            return
        failed: set[str] = set(payload["failed"])
        context.failed_nodes |= failed
        context.snapshot = payload["snapshot"]
        context.phase = payload["phase"]

        # Stage 2: drop all intermediate results dependent on the failed nodes.
        context.fragment.purge_tainted(failed)
        context.fragment.reset_for_phase(context.phase)

        # Stage 4: re-create data that was sent to the failed nodes.  This must
        # happen before the new phase's end-of-stream tracking is armed so the
        # re-sent rows are on the wire (FIFO per node pair) before any phase
        # end-of-stream marker this node may emit.
        for sender in context.fragment.senders.values():
            sender.resend_for_failed(failed)

        # Re-arm scan end-of-stream tracking for the recovery phase.  Each
        # participant derives, from the shared rescan plan, the set of
        # rescanning index nodes whose rows can reach it; waiters and senders
        # apply the same rule, so no scan_done is awaited that is never sent.
        # Previous-phase tokens still pending are carried over: their senders'
        # rows and markers may still be in flight towards this node.
        expected: dict[int, set[str]] = {}
        for index_node, rescan_entries in payload["rescans"].items():
            for op_id, ref, ranges in rescan_entries:
                rescan_spec = context.scan_specs.get(op_id)
                if rescan_spec is None:
                    continue
                receivers = _recovery_receivers(
                    context.snapshot, index_node, rescan_spec, ref, ranges
                )
                if self.node.address in receivers:
                    expected.setdefault(op_id, set()).add(index_node)
        context.arm_scans(expected, carry_pending=True)

        # Stage 3: restart leaf-level operations for this node's share of the
        # failed ranges (acting as index node for the rescanned pages).
        my_rescans = payload["rescans"].get(self.node.address, [])
        by_scan: dict[int, list[tuple[PageRef, Sequence[KeyRange] | None]]] = {}
        for op_id, ref, ranges in my_rescans:
            by_scan.setdefault(op_id, []).append((ref, ranges))
        for op_id, entries in by_scan.items():
            spec = context.scan_specs.get(op_id)
            if spec is None:
                continue
            self._run_recovery_scan(context, spec, entries)

    def _run_recovery_scan(
        self,
        context: _NodeQueryContext,
        spec: _ScanSpec,
        entries: Sequence[tuple[PageRef, Sequence[KeyRange] | None]],
    ) -> None:
        remaining = {"count": len(entries)}

        def page_processed() -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                done_payload = {
                    "query_id": context.query_id,
                    "scan_op_id": spec.scan_op_id,
                    "sender": self.node.address,
                    "phase": context.phase,
                }
                receivers: set[str] = set()
                for ref, ranges in entries:
                    receivers |= _recovery_receivers(
                        context.snapshot, self.node.address, spec, ref, ranges
                    )
                for address in sorted(receivers):
                    self.rpc.cast(address, "query.scan_done", done_payload, 12)

        for ref, ranges in entries:
            self._process_scan_page(context, spec, ref, ranges, page_processed)


def _recovery_receivers(
    snapshot: RoutingSnapshot,
    index_node: str,
    spec: _ScanSpec,
    ref: PageRef,
    ranges: Sequence[KeyRange] | None,
) -> set[str]:
    """Participants a recovery rescan of ``ref`` at ``index_node`` can reach.

    Covering rescans produce their rows locally, so only the rescanning index
    node itself gates on the scan.  Non-covering rescans route every
    re-produced tuple to ``snapshot.owner_of(key)`` with the key inside the
    rescanned ranges (the whole page's hash range when the index node died,
    otherwise the failed node's old ranges), so the owners overlapping those
    ranges under the recovery snapshot are a guaranteed superset of the actual
    data receivers.  The rescanning sender and every armed waiter derive their
    expectations from this same function; the previous full broadcast per
    rescanning node made each mid-query failure O(participants²) scan_done
    messages, the dominant wall in large-cluster churn runs.
    """
    if spec.covering:
        return {index_node}
    pieces = (ref.hash_range,) if ranges is None else tuple(ranges)
    touched: set[str] = set()
    for piece in pieces:
        for entry in snapshot.owners_overlapping(piece):
            touched.add(physical_address(entry))
    return touched


def query_service_of(node: SimNode) -> QueryService:
    service = node.services.get("query")
    if not isinstance(service, QueryService):
        raise LookupError(f"node {node.address!r} has no query service")
    return service
