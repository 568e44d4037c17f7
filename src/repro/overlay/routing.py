"""Full (one-hop) routing tables and immutable routing snapshots.

Following Section III-B, every node keeps a *complete* routing table — one
entry per participant — giving single-hop routing for memberships of up to a
few hundred nodes.  The table maps each node address to the key range it owns
under the active allocation strategy.

Query execution (Section V) never consults the live table directly: the query
initiator takes an immutable :class:`RoutingSnapshot` when the query starts
and ships its 16-byte :attr:`RoutingSnapshot.digest` with the plan.  A
participant whose own snapshot has the same digest runs under it; one whose
view differs fetches the initiator's snapshot.  Either way every participant
uses exactly the same key → node assignment for the lifetime of the query
even if membership changes mid-flight.  After a failure, the initiator
derives a *new* snapshot from the old one with
:meth:`RoutingSnapshot.reassign_failed`, which spreads each failed node's
range over the replicas of its data — this is the first stage of incremental
recovery (Section V-D).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from ..common.errors import RoutingError
from ..common.hashing import KEY_SPACE_MASK, KeyRange, node_id_for, sha1_digest
from .allocation import BalancedAllocation, RangeAllocator


@dataclass(frozen=True)
class RangeMove:
    """A piece of the key space whose owner changed between two snapshots."""

    key_range: KeyRange
    old_owner: str
    new_owner: str


class RoutingSnapshot:
    """An immutable assignment of key ranges to node addresses."""

    #: Constructions since import.  Building a snapshot sorts the whole ring
    #: (O(n log n)), so regression tests pin *how many* are built per workload
    #: against this counter rather than timing anything.
    build_count = 0

    def __init__(self, ranges: Mapping[str, KeyRange], version: int = 0) -> None:
        if not ranges:
            raise RoutingError("a routing snapshot must contain at least one node")
        RoutingSnapshot.build_count += 1
        self._ranges = dict(ranges)
        self.version = version
        # Pre-sort the ring boundaries for O(log n) owner lookup and for the
        # clockwise/counter-clockwise neighbour computations replication needs.
        self._ordered = sorted(
            ((key_range.start, address) for address, key_range in self._ranges.items()
             if not key_range.is_empty()),
        )
        if not self._ordered:
            raise RoutingError("a routing snapshot must cover the ring")
        self._starts = [start for start, _address in self._ordered]
        # Snapshots are immutable, and per-tuple routing walks these
        # constantly: materialise the node order once and memoise the small
        # neighbour/replica sets instead of recomputing them per lookup.
        self._nodes = tuple(address for _start, address in self._ordered)
        self._node_index = {address: i for i, address in enumerate(self._nodes)}
        self._neighbour_cache: dict[tuple[str, int, bool], list[str]] = {}
        self._replica_cache: dict[tuple[str, int], list[str]] = {}
        self._physical_cache: tuple[str, ...] | None = None

    # -- basic accessors --------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        """Addresses participating in this snapshot, in ring order."""
        return self._nodes

    def __len__(self) -> int:
        return len(self._ordered)

    def __contains__(self, address: str) -> bool:
        return address in self._ranges and not self._ranges[address].is_empty()

    def range_of(self, address: str) -> KeyRange:
        try:
            return self._ranges[address]
        except KeyError:
            raise RoutingError(f"node {address!r} not in routing snapshot") from None

    def ranges(self) -> dict[str, KeyRange]:
        return dict(self._ranges)

    def physical_nodes(self) -> tuple[str, ...]:
        """Distinct physical addresses in ring order.

        Synthetic ``addr#k`` sub-entries (created by :meth:`reassign_failed`)
        collapse onto their physical node; the first ring-order occurrence
        wins.  Memoised: the query layer asks for the participant list many
        times per query and the snapshot is immutable.
        """
        cached = self._physical_cache
        if cached is None:
            seen: set[str] = set()
            ordered: list[str] = []
            for address in self._nodes:
                physical = physical_address(address)
                if physical not in seen:
                    seen.add(physical)
                    ordered.append(physical)
            cached = self._physical_cache = tuple(ordered)
        return cached

    @cached_property
    def digest(self) -> bytes:
        """16-byte content digest of the key → node assignment.

        A truncated SHA-1 over ``address start end`` of every non-empty range
        in ring order (``(start, address)``, a canonical order) — exactly
        what routing depends on.  The version is left out: it is a per-node
        counter, and two nodes whose ranges are equal route identically.
        Computed once (the snapshot is immutable).
        """
        ranges = self._ranges
        return sha1_digest("\0".join([
            "%s\0%x\0%x" % (address, start, ranges[address].end)
            for start, address in self._ordered
        ]))

    # -- lookups ---------------------------------------------------------------

    def owner_of(self, key: int) -> str:
        """The node responsible for ``key`` under this snapshot.

        Because the allocated ranges tile the ring, the owner is the entry
        with the largest start ≤ key (wrapping to the last entry for keys
        before the first boundary); a binary search keeps per-tuple routing
        cheap during rehash operations.
        """
        key &= KEY_SPACE_MASK
        index = bisect_right(self._starts, key) - 1
        if index < 0:
            index = len(self._ordered) - 1
        _candidate_start, candidate = self._ordered[index]
        if self._ranges[candidate].contains(key):
            return candidate
        # Fall back to a linear scan for unusual allocations (e.g. Pastry-style
        # ranges whose starts are midpoints and may not be in tiling order).
        for address, key_range in self._ranges.items():
            if key_range.contains(key):
                return address
        raise RoutingError(f"no node owns key {key}")

    @cached_property
    def _owner_tables(self) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
        """Owner entry and physical owner by ``bisect_right(self._starts,
        key)``, or None for a non-tiling allocation.  Built on first use:
        only batched routing (:meth:`owners_of`) reads them, and most
        snapshots — a query participant's own view, say — never route a batch.

        The tables are valid only when the ranges *tile* the ring in start
        order — every entry's range ends exactly where the next entry's
        starts, wrapping from the last to the first — because then the entry
        with the largest start ≤ key always contains the key and
        :meth:`owner_of` never takes its linear fallback.  Slot 0 holds the
        last entry (keys before the first boundary wrap to it); slot ``i``
        holds entry ``i - 1``.
        """
        ordered = self._ordered
        count = len(ordered)
        for index, (_start, address) in enumerate(ordered):
            key_range = self._ranges[address]
            if key_range.end != ordered[(index + 1) % count][0]:
                return None
            if key_range.full != (count == 1):
                # start == end: a full range is the whole ring (legal for a
                # single entry only); anything else would contain nothing.
                return None
        entries = (self._nodes[-1], *self._nodes)
        return entries, tuple(physical_address(address) for address in entries)

    def owners_of(self, keys: Iterable[int], physical: bool = False) -> list[str]:
        """The owner of each key, in input order: the batched :meth:`owner_of`.

        Routes a whole index page of tuple IDs at once — one C-level bisect
        per key into a per-snapshot table, no per-key range check.  With
        ``physical`` the synthetic ``addr#k`` entries are already collapsed
        onto their node (``physical_address(owner_of(key))`` per key).
        Non-tiling allocations fall back to :meth:`owner_of`.
        """
        tables = self._owner_tables
        if tables is None:
            owners = [self.owner_of(key) for key in keys]
            return [physical_address(entry) for entry in owners] if physical else owners
        table = tables[1] if physical else tables[0]
        starts = self._starts
        return [table[bisect_right(starts, key & KEY_SPACE_MASK)] for key in keys]

    def owners_overlapping(self, key_range: KeyRange) -> list[str]:
        """Snapshot entries whose range overlaps ``key_range``, in clockwise
        ring order starting at the owner of ``key_range.start``.

        With a tiling allocation the overlapping entries form one contiguous
        clockwise run, so the lookup costs O(log n + k) for k overlaps
        instead of the O(n) filter a per-entry overlap test needs.  Falls
        back to the full scan for non-tiling allocations (detected exactly
        like :meth:`owner_of` detects them).
        """
        if key_range.is_empty():
            return []
        if key_range.full:
            return list(self._nodes)
        key = key_range.start & KEY_SPACE_MASK
        index = bisect_right(self._starts, key) - 1
        if index < 0:
            index = len(self._ordered) - 1
        _start, candidate = self._ordered[index]
        if not self._ranges[candidate].contains(key):
            # Non-tiling allocation: overlaps need not be contiguous.
            return [
                address for address in self._nodes
                if self._ranges[address].overlaps(key_range)
            ]
        result: list[str] = []
        count = len(self._ordered)
        for offset in range(count):
            address = self._nodes[(index + offset) % count]
            if not self._ranges[address].overlaps(key_range):
                break
            result.append(address)
        return result

    def neighbours(self, address: str, count: int, clockwise: bool) -> list[str]:
        """``count`` distinct ring neighbours of ``address`` in one direction."""
        cache_key = (address, count, clockwise)
        cached = self._neighbour_cache.get(cache_key)
        if cached is not None:
            return list(cached)
        order = self.nodes
        index = self._node_index.get(address)
        if index is None:
            raise RoutingError(f"node {address!r} not in routing snapshot")
        step = 1 if clockwise else -1
        result: list[str] = []
        position = index
        while len(result) < count and len(result) < len(order) - 1:
            position = (position + step) % len(order)
            candidate = order[position]
            if candidate != address and candidate not in result:
                result.append(candidate)
        self._neighbour_cache[cache_key] = result
        return list(result)

    def replicas_for_key(self, key: int, replication_factor: int) -> list[str]:
        """Owner plus replica holders for ``key``.

        As in Pastry/PAST (Section III-C): ``⌊r/2⌋`` nodes clockwise and the
        same number counter-clockwise of the owner, for ``r`` total copies
        (fewer when the membership is smaller than ``r``).
        """
        owner = self.owner_of(key)
        return self.replicas_for_owner(owner, replication_factor)

    def replicas_for_owner(self, owner: str, replication_factor: int) -> list[str]:
        if replication_factor < 1:
            raise ValueError("replication factor must be at least 1")
        cache_key = (owner, replication_factor)
        cached = self._replica_cache.get(cache_key)
        if cached is not None:
            return list(cached)
        extra = replication_factor - 1
        clockwise = self.neighbours(owner, (extra + 1) // 2, clockwise=True)
        counter = self.neighbours(owner, extra // 2, clockwise=False)
        replicas = [owner]
        for candidate in clockwise + counter:
            if candidate not in replicas:
                replicas.append(candidate)
        replicas = replicas[:replication_factor]
        self._replica_cache[cache_key] = replicas
        return list(replicas)

    # -- deriving new snapshots --------------------------------------------------

    def reassign_failed(
        self,
        failed: Iterable[str],
        replication_factor: int,
    ) -> tuple["RoutingSnapshot", list[RangeMove]]:
        """Derive a snapshot with the failed nodes' ranges handed to replicas.

        Each failed node's range is split evenly among the surviving holders
        of its replicated data ("if the failed nodes' data is available on
        more than one replica, the initiator will evenly divide among them the
        task of recomputing the missing answers", Section V-D).  Returns the
        new snapshot plus the list of moved ranges, which the recovery manager
        uses to know which leaf operations to restart and which previously
        sent data to re-create.
        """
        failed_set = {address for address in failed if address in self._ranges}
        survivors = [address for address in self.nodes if address not in failed_set]
        if not survivors:
            raise RoutingError("all nodes failed; cannot reassign ranges")
        if not failed_set:
            return self, []

        new_ranges: dict[str, KeyRange] = {
            address: key_range
            for address, key_range in self._ranges.items()
            if address not in failed_set
        }
        moves: list[RangeMove] = []
        merged_ranges: dict[str, list[KeyRange]] = {a: [new_ranges[a]] for a in new_ranges}

        for failed_address in sorted(failed_set):
            failed_range = self._ranges[failed_address]
            if failed_range.is_empty():
                continue
            # Surviving replica holders for this node's data, in preference order.
            holders = [
                address
                for address in self.replicas_for_owner(failed_address, replication_factor)
                if address not in failed_set
            ]
            if not holders:
                # Data owned only by failed nodes: replication factor was too
                # small for the failure pattern.  Hand the range to the ring
                # successor anyway; the storage layer will raise when asked
                # for tuples that no longer exist anywhere.
                holders = [self.neighbour_successor(failed_address, survivors)]
            pieces = failed_range.split(len(holders))
            for holder, piece in zip(holders, pieces):
                if piece.is_empty():
                    continue
                merged_ranges.setdefault(holder, []).append(piece)
                moves.append(RangeMove(piece, failed_address, holder))

        flattened = _flatten_ranges(merged_ranges)
        return RoutingSnapshot(flattened, version=self.version + 1), moves

    def neighbour_successor(self, address: str, survivors: Sequence[str]) -> str:
        """The first surviving node clockwise of ``address``."""
        order = self.nodes
        index = self._node_index[address]
        survivor_set = set(survivors)
        for offset in range(1, len(order) + 1):
            candidate = order[(index + offset) % len(order)]
            if candidate in survivor_set:
                return candidate
        raise RoutingError("no surviving successor found")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoutingSnapshot(v{self.version}, {len(self)} nodes)"


def _flatten_ranges(merged: Mapping[str, list[KeyRange]]) -> dict[str, KeyRange]:
    """Collapse multi-arc ownership into per-arc pseudo-entries.

    After reassignment a surviving node may own several disjoint arcs.  The
    snapshot data structure keys ranges by owner address, so we encode the
    extra arcs under synthetic sub-addresses ``"addr#k"`` that map back to the
    same physical node.  :class:`RoutingTable` and the storage layer resolve
    sub-addresses with :func:`physical_address`.  Suffixes are chosen to be
    unique across the whole result, so repeated reassignments (multiple
    successive failures) never overwrite an existing entry.
    """
    result: dict[str, KeyRange] = {}
    existing_keys = set(merged.keys())
    # First free suffix per address: repeated reassignments used to re-probe
    # from 1 every time, which is quadratic in the number of arcs a node
    # accumulates over a long churn run.  The counter resumes where the last
    # probe ended and produces exactly the same suffixes.
    next_suffix: dict[str, int] = {}

    def unique_key(address: str) -> str:
        suffix = next_suffix.get(address, 1)
        candidate = f"{address}#{suffix}"
        while candidate in result or candidate in existing_keys:
            suffix += 1
            candidate = f"{address}#{suffix}"
        next_suffix[address] = suffix + 1
        return candidate

    for address, pieces in merged.items():
        non_empty = [p for p in pieces if not p.is_empty()]
        if not non_empty:
            continue
        result[address] = non_empty[0]
        for piece in non_empty[1:]:
            result[unique_key(address)] = piece
    return result


def physical_address(address: str) -> str:
    """Map a (possibly synthetic ``addr#k``) snapshot entry to its node."""
    return address.split("#", 1)[0]


class RoutingTable:
    """The live, mutable routing table a node (or the cluster bootstrap) keeps.

    The table recomputes the allocation whenever membership changes and can
    produce immutable snapshots for queries.  With the balanced allocator a
    single join or leave shifts *every* boundary slightly — the paper accepts
    this cost in exchange for uniform data distribution (Section III-C).
    """

    def __init__(
        self,
        addresses: Iterable[str],
        allocator: RangeAllocator | None = None,
    ) -> None:
        self.allocator = allocator or BalancedAllocation()
        self._members: list[str] = []
        self._allocation: dict[str, KeyRange] = {}
        self._version = 0
        self._snapshot_cache: RoutingSnapshot | None = None
        for address in addresses:
            self._members.append(address)
        self._recompute()

    # -- membership --------------------------------------------------------------

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(self._members)

    @property
    def version(self) -> int:
        return self._version

    def add_node(self, address: str) -> list[RangeMove]:
        if address in self._members:
            return []
        before = dict(self._allocation)
        self._members.append(address)
        self._recompute()
        return self._diff(before)

    def remove_node(self, address: str) -> list[RangeMove]:
        if address not in self._members:
            return []
        before = dict(self._allocation)
        self._members.remove(address)
        self._recompute()
        return self._diff(before)

    def _recompute(self) -> None:
        self._allocation = self.allocator.allocate(self._members)
        self._version += 1
        self._snapshot_cache = None

    def _diff(self, before: Mapping[str, KeyRange]) -> list[RangeMove]:
        """Ranges whose ownership changed, expressed as moves (approximate:
        reported at the granularity of the new owners' ranges)."""
        moves: list[RangeMove] = []
        # With the balanced allocator a single membership change shifts every
        # boundary, so almost every entry needs its previous owner looked up.
        # A per-entry linear scan of ``before`` made each recompute O(n²) per
        # node — O(n³) cluster-wide per join/leave once every member's view
        # processes the event.  Sort the old boundaries once and bisect.
        ordered = sorted(
            (key_range.start, address)
            for address, key_range in before.items()
            if not key_range.is_empty()
        )
        starts = [start for start, _address in ordered]
        for address, new_range in self._allocation.items():
            old_range = before.get(address)
            if old_range is not None and old_range == new_range:
                continue
            previous_owner = None
            if ordered:
                key = new_range.start & KEY_SPACE_MASK
                index = bisect_right(starts, key) - 1
                if index < 0:
                    index = len(ordered) - 1
                candidate = ordered[index][1]
                if before[candidate].contains(key):
                    previous_owner = candidate
                else:
                    # Non-tiling allocations (midpoint-style ranges): fall
                    # back to the scan, exactly like ``RoutingSnapshot``.
                    previous_owner = _owner_in(before, new_range.start)
            if previous_owner is not None and previous_owner != address:
                moves.append(RangeMove(new_range, previous_owner, address))
        return moves

    # -- lookups ------------------------------------------------------------------

    def owner_of(self, key: int) -> str:
        for address, key_range in self._allocation.items():
            if key_range.contains(key):
                return address
        raise RoutingError(f"no node owns key {key}")

    def range_of(self, address: str) -> KeyRange:
        try:
            return self._allocation[address]
        except KeyError:
            raise RoutingError(f"node {address!r} not in routing table") from None

    def allocation(self) -> dict[str, KeyRange]:
        return dict(self._allocation)

    def snapshot(self) -> RoutingSnapshot:
        """An immutable snapshot of the current allocation.

        Cached per membership version: queries, publishes and retrieves all
        take a snapshot up front, and rebuilding one re-sorts the whole ring
        (O(n log n)).  Any membership change goes through :meth:`_recompute`,
        which drops the cache, so an unchanged membership hands every caller
        the same immutable object.
        """
        cached = self._snapshot_cache
        if cached is None or cached.version != self._version:
            cached = RoutingSnapshot(self._allocation, version=self._version)
            self._snapshot_cache = cached
        return cached

    def node_id(self, address: str) -> int:
        return node_id_for(address)


def _owner_in(allocation: Mapping[str, KeyRange], key: int) -> str | None:
    for address, key_range in allocation.items():
        if key_range.contains(key):
            return address
    return None
