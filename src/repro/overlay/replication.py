"""Replica placement and PAST-style background replication (Section III-C).

Base data is replicated the way Pastry/PAST replicate it: for a replication
factor ``r``, each item lives at its owner plus ``⌊r/2⌋`` nodes clockwise and
``⌊r/2⌋`` nodes counter-clockwise of the owner.  When a node fails, its ring
neighbours therefore already hold copies of everything it owned and can take
over its range transparently.

The paper replicates data eagerly on insert and notes that, for completeness,
the Bloom-filter-based *background* replication of PAST could be added to
repair under-replicated ranges after churn.  We implement both: eager replica
fan-out is performed by the storage layer using :func:`replica_set`, and
:class:`BackgroundReplicator` runs periodic anti-entropy rounds in which nodes
exchange Bloom filters summarising the keys they hold for each range they
should replicate, then fetch whatever the filter says they are missing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..common.hashing import sha1_key
from .routing import RoutingSnapshot, physical_address


def replica_set(snapshot: RoutingSnapshot, key: int, replication_factor: int) -> list[str]:
    """Physical addresses that should hold a copy of the item at ``key``."""
    return replica_set_of_owner(snapshot, snapshot.owner_of(key), replication_factor)


def replica_set_of_owner(
    snapshot: RoutingSnapshot, owner: str, replication_factor: int
) -> list[str]:
    """:func:`replica_set` of every key the snapshot entry ``owner`` owns."""
    result: list[str] = []
    for entry in snapshot.replicas_for_owner(owner, replication_factor):
        address = physical_address(entry)
        if address not in result:
            result.append(address)
    return result


class BloomFilter:
    """A simple Bloom filter over arbitrary hashable keys.

    Used by the background replicator to summarise the set of tuple IDs a
    node holds within a key range, so that anti-entropy exchanges cost
    O(filter size) rather than O(number of tuples).
    """

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01) -> None:
        expected_items = max(1, expected_items)
        if not 0 < false_positive_rate < 1:
            raise ValueError("false positive rate must be in (0, 1)")
        ln2 = math.log(2)
        self.num_bits = max(8, int(-expected_items * math.log(false_positive_rate) / (ln2 * ln2)))
        self.num_hashes = max(1, int(round(self.num_bits / expected_items * ln2)))
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.count = 0

    def _positions(self, key: object) -> Iterable[int]:
        digest = sha1_key(("bloom", key))
        # Double hashing: derive k positions from two 80-bit halves.
        h1 = digest >> 80
        h2 = digest & ((1 << 80) - 1)
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: object) -> None:
        for position in self._positions(key):
            self._bits[position // 8] |= 1 << (position % 8)
        self.count += 1

    def __contains__(self, key: object) -> bool:
        return all(
            self._bits[position // 8] & (1 << (position % 8))
            for position in self._positions(key)
        )

    def size_bytes(self) -> int:
        return len(self._bits)


@dataclass
class ReplicationReport:
    """Summary of one background anti-entropy round."""

    rounds: int = 0
    filters_exchanged: int = 0
    items_copied: int = 0
    bytes_copied: int = 0
    #: Keys a member's own Bloom filter claimed it held but the exact
    #: membership double-check against its store disproved; each one would
    #: have been a silently skipped repair.
    bloom_false_positives: int = 0
    repairs: list[tuple[str, str, object]] = field(default_factory=list)


class BackgroundReplicator:
    """Periodic anti-entropy repair of under-replicated data.

    The replicator is deliberately decoupled from the storage engine through
    two callbacks so it can be unit-tested in isolation and reused by both the
    index-page and the tuple stores:

    ``list_items(address, key_range)``
        keys (with their ring hash) held by ``address`` inside ``key_range``.
    ``copy_item(src, dst, key)``
        copy one item from ``src`` to ``dst``; returns the item's size.
    """

    def __init__(
        self,
        replication_factor: int,
        list_items: Callable[[str, object], dict[object, int]],
        copy_item: Callable[[str, str, object], int],
    ) -> None:
        self.replication_factor = replication_factor
        self._list_items = list_items
        self._copy_item = copy_item

    def run_round(self, snapshot: RoutingSnapshot) -> ReplicationReport:
        """One anti-entropy round over every owner range's replica group.

        The round is *symmetric*: every member of a range's replica group
        (the owner plus its ring neighbours) publishes a Bloom filter of the
        keys it holds inside the range, and every member fetches from the
        group whatever its own filter says it is missing.  Repairing the
        owner as well as the replicas matters after membership changes — the
        node that inherits a failed node's range usually held only part of
        it, and it is the owner that Algorithm-1 lookups contact first.
        """
        report = ReplicationReport(rounds=1)
        for entry in snapshot.nodes:
            owner = physical_address(entry)
            owner_range = snapshot.range_of(entry)
            if owner_range.is_empty():
                continue
            group = [owner]
            for replica in snapshot.replicas_for_owner(entry, self.replication_factor):
                address = physical_address(replica)
                if address not in group:
                    group.append(address)

            holdings = {member: self._list_items(member, owner_range) for member in group}
            summaries: dict[str, BloomFilter] = {}
            for member, items in holdings.items():
                summary = BloomFilter(expected_items=max(1, len(items)))
                for key in items:
                    summary.add(key)
                summaries[member] = summary
                report.filters_exchanged += 1

            # Union of the group's holdings; remember one holder per key.
            holder_of: dict[object, str] = {}
            for member, items in holdings.items():
                for key in items:
                    holder_of.setdefault(key, member)

            for member in group:
                summary = summaries[member]
                member_items = holdings[member]
                for key, source in holder_of.items():
                    if source == member:
                        continue
                    if key in summary:
                        # A Bloom hit only *suggests* the member holds the
                        # key; a false positive in its own filter would skip
                        # the repair forever.  The exact double-check is a
                        # local store lookup — no wire cost.
                        if key in member_items:
                            continue
                        report.bloom_false_positives += 1
                    copied_bytes = self._copy_item(source, member, key)
                    report.items_copied += 1
                    report.bytes_copied += copied_bytes
                    report.repairs.append((source, member, key))
        return report
