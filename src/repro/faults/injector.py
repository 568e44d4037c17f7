"""Deterministic packet-level fault injection for the simulated network.

The injector sits below the reliable per-pair channel that
:class:`~repro.net.simnet.Network` switches on when an injector is installed.
It decides the *fate* of each transmission attempt — delivered, delivered
late, delivered twice, lost, or blocked by a partition — from a seeded
``random.Random``, consulted strictly in event order, so an entire chaos run
is a pure function of its seed.

What the application observes is exactly what it would observe over real TCP
on a lossy network: added latency (retransmissions), traffic inflation, long
stalls across partitions that resume on heal, and crash/restart churn.  What
it never observes is silent loss, duplication or reordering of application
messages — those are transport guarantees the paper's engine assumes from its
persistent connections, and the channel layer restores them.

Node-level degradation (:meth:`FaultInjector.degrade_node`) models a
transiently slow machine — the "hung or slow" peers of Section V-C — by
scaling the node's CPU factor and link bandwidths for a window.
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..net.simnet import HostSpec, Message, Network
from ..obs.counters import Counters, counter


@dataclass(frozen=True)
class LinkChaos:
    """Per-link fault probabilities applied to each transmission attempt.

    ``delay`` is the maximum extra one-way latency (uniform in ``[0, delay]``)
    added to a delivered copy.  ``reorder`` is the probability of adding a
    further ``[0, reorder_delay]`` of jitter, which perturbs arrival order
    relative to neighbouring messages on the same link.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0
    reorder_delay: float = 0.001

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be within [0, 1]")
        if self.delay < 0 or self.reorder_delay < 0:
            raise ValueError("delays cannot be negative")

    def is_clean(self) -> bool:
        return not (self.drop or self.duplicate or self.delay or self.reorder)


CLEAN_LINK = LinkChaos()


@dataclass
class FaultStats(Counters):
    """Counters for every fault decision the injector made."""

    dropped: int = counter("faults.dropped")
    duplicated: int = counter("faults.duplicated")
    delayed: int = counter("faults.delayed")
    reordered: int = counter("faults.reordered")
    blocked: int = counter("faults.blocked")
    retransmits: int = counter("faults.retransmits")
    deduplicated: int = counter("faults.deduplicated")
    abandoned: int = counter("faults.abandoned")
    partitions_started: int = counter("faults.partitions_started")
    partitions_healed: int = counter("faults.partitions_healed")
    degradations: int = counter("faults.degradations")
    corruptions_injected: int = counter("faults.corruptions_injected")


@dataclass(frozen=True)
class CorruptionEvent:
    """One silent at-rest mutation the injector applied.

    The scenario invariants replay this list after stabilisation: every
    event's location must either verify clean (repaired in place) or be
    absent with a verified replica elsewhere (quarantined and re-replicated).
    """

    at: float
    address: str
    #: What was corrupted: ``tuple``, ``page``, ``coordinator`` (store trees)
    #: or ``cache`` (a cached scan batch).
    site: str
    #: Store tree holding the object (None for cache corruption).
    tree: str | None
    key: object
    description: str


#: Store trees the injector can corrupt, in the order candidates are drawn.
CORRUPTION_TREES = ("tuples", "pages", "coordinator")


@dataclass
class _Degradation:
    original: HostSpec
    incarnation: int


@dataclass
class _Partition:
    side_a: frozenset
    side_b: frozenset
    heal_event: object = None
    #: ``False`` models a half-open link: traffic from ``side_a`` to
    #: ``side_b`` is cut while the reverse direction still delivers.
    symmetric: bool = True


class FaultInjector:
    """Seeded fault source for one :class:`~repro.net.simnet.Network`.

    Installing the injector switches the network's remote messaging onto the
    reliable channel path; an injector with no chaos configured and no active
    partitions delivers every message exactly once with zero extra delay and
    consumes no randomness, so a "clean" chaos run exercises the same message
    sequences as the fault-free simulator.
    """

    def __init__(
        self,
        network: Network,
        seed: int = 0,
        rto: float = 0.002,
        max_retransmits: int = 100,
    ) -> None:
        if network.fault_injector is not None:
            raise ValueError("network already has a fault injector installed")
        self.network = network
        self.rng = random.Random(seed)
        self.seed = seed
        #: Base retransmission timeout; attempt ``n`` waits ``rto * 2**min(n, 5)``.
        self.rto = rto
        self.max_retransmits = max_retransmits
        self.stats = FaultStats()
        #: Dedicated RNG stream for at-rest corruption (the PR 9 jitter
        #: pattern): seeded from a CRC of the injector seed, never from the
        #: fate RNG, so enabling corruption leaves every existing fault
        #: schedule byte-identical and replays stay exact.
        self.corruption_rng = random.Random(
            zlib.crc32(f"{seed}:corruption".encode())
        )
        self.corruption_events: list[CorruptionEvent] = []
        self.default_chaos: LinkChaos = CLEAN_LINK
        self._link_chaos: dict[tuple[str, str], LinkChaos] = {}
        self._partitions: dict[int, _Partition] = {}
        self._partition_ids = itertools.count(1)
        self._degraded: dict[str, _Degradation] = {}
        network.fault_injector = self
        # A crash-restarted process comes back at full speed: lift any active
        # degradation the moment the node restarts.
        network.add_restart_listener(self._on_node_restart)

    # -- link chaos --------------------------------------------------------------

    def set_default_chaos(self, chaos: LinkChaos) -> None:
        """Apply ``chaos`` to every link without a per-link override."""
        self.default_chaos = chaos

    def clear_default_chaos(self) -> None:
        self.default_chaos = CLEAN_LINK

    def set_link_chaos(
        self, src: str, dst: str, chaos: LinkChaos, bidirectional: bool = True
    ) -> None:
        self._link_chaos[(src, dst)] = chaos
        if bidirectional:
            self._link_chaos[(dst, src)] = chaos

    def chaos_for(self, src: str, dst: str) -> LinkChaos:
        return self._link_chaos.get((src, dst), self.default_chaos)

    def chaos_window(self, chaos: LinkChaos, start: float, duration: float) -> None:
        """Schedule ``chaos`` as the default for ``[start, start + duration)``."""
        self.network.schedule_at(start, lambda: self.set_default_chaos(chaos))
        self.network.schedule_at(start + duration, self.clear_default_chaos)

    # -- partitions --------------------------------------------------------------

    def partition(
        self,
        side_a: Iterable[str],
        side_b: Iterable[str],
        heal_after: float | None = None,
        symmetric: bool = True,
    ) -> int:
        """Cut every link between ``side_a`` and ``side_b``, both directions.

        Messages crossing the cut — including ones already in flight — are
        blocked and retried by the transport until :meth:`heal` (scheduled
        automatically ``heal_after`` seconds from now when given).

        With ``symmetric=False`` only the ``side_a`` → ``side_b`` direction
        is cut — a half-open link, the gray failure where a node can hear
        its peers but they cannot hear it (requests arrive, replies vanish,
        or vice versa, depending on which side initiates).
        """
        partition = _Partition(frozenset(side_a), frozenset(side_b), symmetric=symmetric)
        if partition.side_a & partition.side_b:
            raise ValueError("partition sides must be disjoint")
        if not partition.side_a or not partition.side_b:
            raise ValueError("both partition sides must be non-empty")
        partition_id = next(self._partition_ids)
        self._partitions[partition_id] = partition
        self.stats.partitions_started += 1
        if heal_after is not None:
            partition.heal_event = self.network.schedule(
                heal_after, lambda: self.heal(partition_id)
            )
        return partition_id

    def heal(self, partition_id: int) -> None:
        partition = self._partitions.pop(partition_id, None)
        if partition is None:
            return
        if partition.heal_event is not None:
            partition.heal_event.cancel()
        self.stats.partitions_healed += 1

    def heal_all(self) -> None:
        for partition_id in list(self._partitions):
            self.heal(partition_id)

    def blocked(self, src: str, dst: str) -> bool:
        """Whether the ordered pair is currently cut by any partition."""
        for partition in self._partitions.values():
            if src in partition.side_a and dst in partition.side_b:
                return True
            if partition.symmetric and (
                src in partition.side_b and dst in partition.side_a
            ):
                return True
        return False

    @property
    def active_partitions(self) -> int:
        return len(self._partitions)

    # -- transmission fates ------------------------------------------------------

    def fate(self, message: Message, attempt: int) -> Sequence[float]:
        """Extra delays of the copies of this attempt that reach the receiver.

        An empty sequence means the attempt was lost entirely (the transport
        retries).  The randomness is consumed lazily — a clean link draws
        nothing — so unrelated links do not perturb each other's streams.
        """
        chaos = self.chaos_for(message.src, message.dst)
        if chaos.is_clean():
            return (0.0,)
        deliveries: list[float] = []
        if chaos.drop and self.rng.random() < chaos.drop:
            self.stats.dropped += 1
        else:
            deliveries.append(self._copy_delay(chaos))
        if chaos.duplicate and self.rng.random() < chaos.duplicate:
            self.stats.duplicated += 1
            deliveries.append(self._copy_delay(chaos))
        return deliveries

    def _copy_delay(self, chaos: LinkChaos) -> float:
        extra = 0.0
        if chaos.delay:
            extra += self.rng.uniform(0.0, chaos.delay)
            self.stats.delayed += 1
        if chaos.reorder and self.rng.random() < chaos.reorder:
            extra += self.rng.uniform(0.0, chaos.reorder_delay)
            self.stats.reordered += 1
        return extra

    def retransmit_delay(
        self, attempt: int, src: str | None = None, dst: str | None = None
    ) -> float:
        """Exponential backoff, capped so long partitions stay affordable.

        When the transmitting pair is known, a deterministic per-pair jitter
        of up to one ``rto`` is added: a healing partition otherwise releases
        every blocked pair's retry on the *same* backoff schedule, and the
        synchronized retransmission wave hits the healed links all at once.
        The jitter is derived from a CRC over ``(seed, src, dst, attempt)``
        — not from Python's ``hash()`` (which varies with ``PYTHONHASHSEED``)
        and not from the injector's fate RNG (whose stream position depends
        on unrelated traffic) — so replays of a seed are exact and pairs stay
        decorrelated from each other.
        """
        base = self.rto * (2 ** min(attempt, 5))
        if src is None or dst is None:
            return base
        digest = zlib.crc32(f"{self.seed}:{src}:{dst}:{attempt}".encode())
        return base + self.rto * (digest / 2**32)

    # -- slow nodes --------------------------------------------------------------

    def degrade_node(
        self,
        address: str,
        cpu_slowdown: float = 1.0,
        bandwidth_slowdown: float = 1.0,
        duration: float | None = None,
    ) -> None:
        """Transiently slow a node's CPU and/or network interface.

        ``cpu_slowdown`` / ``bandwidth_slowdown`` are divisors (2.0 = half
        speed).  The degradation is automatically lifted after ``duration``
        simulated seconds; a node that crashes and restarts meanwhile comes
        back at full speed (the restore is bound to the incarnation).
        """
        if cpu_slowdown < 1.0 or bandwidth_slowdown < 1.0:
            raise ValueError("slowdown factors must be >= 1")
        node = self.network.node(address)
        if address not in self._degraded:
            self._degraded[address] = _Degradation(node.host, node.incarnation)
        original = self._degraded[address].original
        node.host = HostSpec(
            cpu_factor=original.cpu_factor / cpu_slowdown,
            egress_bandwidth=original.egress_bandwidth / bandwidth_slowdown,
            ingress_bandwidth=original.ingress_bandwidth / bandwidth_slowdown,
            disk_read_bandwidth=original.disk_read_bandwidth,
        )
        self.stats.degradations += 1
        if duration is not None:
            self.network.schedule(duration, lambda: self.restore_node(address))

    def restore_node(self, address: str) -> None:
        degradation = self._degraded.pop(address, None)
        if degradation is None:
            return
        node = self.network.node(address)
        if node.incarnation == degradation.incarnation:
            node.host = degradation.original

    def restore_all_nodes(self) -> None:
        for address in list(self._degraded):
            self.restore_node(address)

    def _on_node_restart(self, address: str) -> None:
        degradation = self._degraded.pop(address, None)
        if degradation is not None:
            self.network.node(address).host = degradation.original

    # -- silent at-rest corruption ----------------------------------------------

    def corrupt_at_rest(
        self,
        targets: Sequence[str] = CORRUPTION_TREES,
        include_cache: bool = False,
    ) -> CorruptionEvent | None:
        """Silently mutate one stored object at rest on a random live node.

        Picks a (node, tree, key) from the dedicated corruption RNG stream,
        replaces the stored object with a bit-flipped copy *behind* the
        store's size and checksum bookkeeping — exactly what a latent media
        error does — and records a :class:`CorruptionEvent`.  With
        ``include_cache`` a cached scan batch can be the victim instead,
        modelling a flipped bit in a cache buffer.

        Returns None when nothing corruptible exists (or every candidate is
        already corrupted).  Draws only from :attr:`corruption_rng`, so the
        fate stream — and with it every existing fault schedule — replays
        byte-identically whether or not corruption is enabled.
        """
        from ..integrity.corruption import (
            corrupted_page,
            corrupted_record,
            corrupted_scan_batch,
            corrupted_tuple,
        )

        rng = self.corruption_rng
        candidates: list[tuple[str, str]] = []
        for address in self.network.live_nodes():
            storage = self.network.node(address).services.get("storage")
            if storage is None:
                continue
            for tree in targets:
                if storage.store.count(tree):
                    candidates.append((address, tree))
            if include_cache and getattr(storage, "cache", None) is not None:
                if any(self._cache_scan_entries(storage.cache)):
                    candidates.append((address, "cache"))
        if not candidates:
            return None

        # Skip logical objects already corrupted *anywhere*: independent
        # media errors hitting every replica of the same object at once is
        # not the regime the repair invariant is about — with all copies
        # rotten there is nothing to repair from, only loud unrepairable
        # failure (which the scrubber unit tests cover directly).
        already = {(e.tree, e.key) for e in self.corruption_events}
        mutators = {
            "tuples": ("tuple", corrupted_tuple, lambda v: bool(v.values)),
            "pages": ("page", corrupted_page, lambda v: bool(v.tuple_ids)),
            "coordinator": ("coordinator", corrupted_record, lambda v: bool(v.pages)),
        }
        for _ in range(16):
            address, tree = candidates[rng.randrange(len(candidates))]
            storage = self.network.node(address).services.get("storage")
            if tree == "cache":
                entries = self._cache_scan_entries(storage.cache)
                if not entries:
                    continue
                entry = entries[rng.randrange(len(entries))]
                if (None, entry.key) in already:
                    continue
                entry.value = corrupted_scan_batch(entry.value, rng)
                event = CorruptionEvent(
                    at=self.network.now, address=address, site="cache",
                    tree=None, key=entry.key,
                    description=f"mutated cached scan batch {entry.key!r}",
                )
            else:
                site, mutate, eligible = mutators[tree]
                entries = [
                    (key, value)
                    for key, value in storage.store.items(tree)
                    if eligible(value) and (tree, key) not in already
                ]
                if not entries:
                    continue
                key, value = entries[rng.randrange(len(entries))]
                # Swap the corrupted copy in behind the size/checksum
                # bookkeeping: the recorded CRC still describes the original.
                storage.store.tree(tree).put(key, mutate(value, rng))
                event = CorruptionEvent(
                    at=self.network.now, address=address, site=site,
                    tree=tree, key=key,
                    description=f"mutated {site} {key!r} in tree {tree!r}",
                )
            self.corruption_events.append(event)
            self.stats.corruptions_injected += 1
            return event
        return None

    @staticmethod
    def _cache_scan_entries(cache) -> list:
        """Cached scan-batch entries of one node cache (mutable in place)."""
        return [
            entry
            for entry in cache.store.entries()
            if isinstance(entry.key, tuple) and entry.key and entry.key[0] == "scan"
        ]

    # -- introspection -----------------------------------------------------------

    def quiescent(self) -> bool:
        """No active partitions, degradations or non-clean chaos remain."""
        return (
            not self._partitions
            and not self._degraded
            and self.default_chaos.is_clean()
            and all(chaos.is_clean() for chaos in self._link_chaos.values())
        )
