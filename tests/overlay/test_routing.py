"""Tests for routing tables, snapshots and failure reassignment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import RoutingError
from repro.common.hashing import ranges_partition_ring, sha1_key
from repro.overlay.allocation import PastryAllocation
from repro.overlay.routing import RoutingSnapshot, RoutingTable, physical_address


def addresses(n):
    return [f"node-{i}" for i in range(n)]


class TestRoutingTable:
    def test_snapshot_partitions_ring(self):
        table = RoutingTable(addresses(8))
        snapshot = table.snapshot()
        assert ranges_partition_ring(snapshot.ranges().values())
        assert len(snapshot) == 8

    def test_owner_lookup_consistent_with_ranges(self):
        table = RoutingTable(addresses(6))
        for i in range(100):
            key = sha1_key(("probe", i))
            owner = table.owner_of(key)
            assert table.range_of(owner).contains(key)

    def test_add_node_changes_version(self):
        table = RoutingTable(addresses(4))
        version = table.version
        table.add_node("new-node")
        assert table.version == version + 1
        assert "new-node" in table.members

    def test_add_existing_node_is_noop(self):
        table = RoutingTable(addresses(4))
        version = table.version
        assert table.add_node("node-1") == []
        assert table.version == version

    def test_remove_node(self):
        table = RoutingTable(addresses(4))
        table.remove_node("node-2")
        assert "node-2" not in table.members
        assert ranges_partition_ring(table.allocation().values())

    def test_remove_unknown_node_is_noop(self):
        table = RoutingTable(addresses(4))
        assert table.remove_node("missing") == []

    def test_membership_changes_report_moves(self):
        table = RoutingTable(addresses(4))
        moves = table.add_node("node-99")
        assert moves  # the new node took over ranges from existing nodes
        assert any(m.new_owner == "node-99" for m in moves)

    def test_pastry_allocator_supported(self):
        table = RoutingTable(addresses(5), allocator=PastryAllocation())
        assert ranges_partition_ring(table.allocation().values())

    def test_unknown_range_of(self):
        table = RoutingTable(addresses(2))
        with pytest.raises(RoutingError):
            table.range_of("missing")


class TestRoutingSnapshot:
    def test_empty_snapshot_rejected(self):
        with pytest.raises(RoutingError):
            RoutingSnapshot({})

    def test_owner_of_matches_contains(self):
        snapshot = RoutingTable(addresses(10)).snapshot()
        for i in range(200):
            key = sha1_key(("k", i))
            owner = snapshot.owner_of(key)
            assert snapshot.range_of(owner).contains(key)

    def test_nodes_in_ring_order(self):
        snapshot = RoutingTable(addresses(5)).snapshot()
        starts = [snapshot.range_of(a).start for a in snapshot.nodes]
        assert starts == sorted(starts)

    def test_contains(self):
        snapshot = RoutingTable(addresses(3)).snapshot()
        assert "node-0" in snapshot
        assert "missing" not in snapshot

    def test_neighbours_clockwise_and_counter(self):
        snapshot = RoutingTable(addresses(5)).snapshot()
        nodes = snapshot.nodes
        cw = snapshot.neighbours(nodes[0], 2, clockwise=True)
        ccw = snapshot.neighbours(nodes[0], 2, clockwise=False)
        assert cw == [nodes[1], nodes[2]]
        assert ccw == [nodes[-1], nodes[-2]]

    def test_neighbours_capped_by_membership(self):
        snapshot = RoutingTable(addresses(3)).snapshot()
        assert len(snapshot.neighbours(snapshot.nodes[0], 10, clockwise=True)) == 2

    def test_replicas_for_key(self):
        snapshot = RoutingTable(addresses(6)).snapshot()
        key = sha1_key("some-key")
        replicas = snapshot.replicas_for_key(key, replication_factor=3)
        assert len(replicas) == 3
        assert replicas[0] == snapshot.owner_of(key)
        assert len(set(replicas)) == 3

    def test_replicas_more_than_members(self):
        snapshot = RoutingTable(addresses(2)).snapshot()
        replicas = snapshot.replicas_for_key(0, replication_factor=5)
        assert len(replicas) == 2

    def test_replication_factor_must_be_positive(self):
        snapshot = RoutingTable(addresses(2)).snapshot()
        with pytest.raises(ValueError):
            snapshot.replicas_for_key(0, replication_factor=0)


class TestFailureReassignment:
    def test_reassign_preserves_partition(self):
        snapshot = RoutingTable(addresses(8)).snapshot()
        failed = snapshot.nodes[2]
        new_snapshot, moves = snapshot.reassign_failed([failed], replication_factor=3)
        assert ranges_partition_ring(new_snapshot.ranges().values())
        assert failed not in new_snapshot
        assert moves
        assert all(m.old_owner == failed for m in moves)

    def test_moved_ranges_cover_failed_range(self):
        snapshot = RoutingTable(addresses(8)).snapshot()
        failed = snapshot.nodes[0]
        failed_range = snapshot.range_of(failed)
        _new_snapshot, moves = snapshot.reassign_failed([failed], replication_factor=3)
        assert sum(m.key_range.size() for m in moves) == failed_range.size()

    def test_new_owners_are_replica_holders(self):
        snapshot = RoutingTable(addresses(8)).snapshot()
        failed = snapshot.nodes[3]
        replicas = {physical_address(r) for r in snapshot.replicas_for_owner(failed, 3)}
        _new, moves = snapshot.reassign_failed([failed], replication_factor=3)
        for move in moves:
            assert physical_address(move.new_owner) in replicas

    def test_multiple_failures(self):
        snapshot = RoutingTable(addresses(10)).snapshot()
        failed = list(snapshot.nodes[:3])
        new_snapshot, _moves = snapshot.reassign_failed(failed, replication_factor=3)
        assert ranges_partition_ring(new_snapshot.ranges().values())
        for address in failed:
            assert address not in new_snapshot

    def test_no_failures_returns_same_snapshot(self):
        snapshot = RoutingTable(addresses(4)).snapshot()
        same, moves = snapshot.reassign_failed([], replication_factor=3)
        assert same is snapshot
        assert moves == []

    def test_all_failed_raises(self):
        snapshot = RoutingTable(addresses(3)).snapshot()
        with pytest.raises(RoutingError):
            snapshot.reassign_failed(list(snapshot.nodes), replication_factor=3)

    def test_version_increments(self):
        snapshot = RoutingTable(addresses(4)).snapshot()
        new_snapshot, _ = snapshot.reassign_failed([snapshot.nodes[0]], replication_factor=3)
        assert new_snapshot.version == snapshot.version + 1

    def test_physical_address_of_synthetic_entries(self):
        assert physical_address("node-1#2") == "node-1"
        assert physical_address("node-1") == "node-1"

    @given(
        n=st.integers(min_value=3, max_value=16),
        fail_count=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=30)
    def test_reassignment_property(self, n, fail_count):
        fail_count = min(fail_count, n - 1)
        snapshot = RoutingTable(addresses(n)).snapshot()
        failed = list(snapshot.nodes[:fail_count])
        new_snapshot, moves = snapshot.reassign_failed(failed, replication_factor=3)
        assert ranges_partition_ring(new_snapshot.ranges().values())
        total_moved = sum(m.key_range.size() for m in moves)
        total_failed = sum(snapshot.range_of(f).size() for f in failed)
        assert total_moved == total_failed
        # Every key still has exactly one owner, and it is a surviving node.
        for i in range(20):
            key = sha1_key(("probe", i))
            owner = physical_address(new_snapshot.owner_of(key))
            assert owner not in failed


class TestScalingRegressions:
    """Counter-based pins for the large-cluster routing fixes."""

    def test_snapshot_object_reused_until_membership_changes(self):
        # Back-to-back snapshots of an unchanged membership are the *same*
        # object: query initiation at high rates must not rebuild the O(n)
        # snapshot per query.
        table = RoutingTable(addresses(12))
        first = table.snapshot()
        assert table.snapshot() is first
        table.add_node("node-99")
        second = table.snapshot()
        assert second is not first
        assert table.snapshot() is second
        table.remove_node("node-99")
        assert table.snapshot() is not second

    def test_snapshot_builds_counted_once_per_version(self):
        table = RoutingTable(addresses(16))
        table.snapshot()
        before = RoutingSnapshot.build_count
        for _ in range(50):
            table.snapshot()
        assert RoutingSnapshot.build_count == before

    def test_membership_diff_probes_scale_linearly(self):
        # The join/leave diff locates each new range's old owner by bisection;
        # the former linear probe per range made one membership change O(n^2)
        # KeyRange.contains calls (O(n^3) cluster-wide per churn event).
        from repro.common.hashing import KeyRange

        counts = {}
        original = KeyRange.contains

        def run(n):
            table = RoutingTable(addresses(n))
            calls = {"n": 0}

            def counting(self, key):
                calls["n"] += 1
                return original(self, key)

            KeyRange.contains = counting
            try:
                table.add_node("node-999")
            finally:
                KeyRange.contains = original
            return calls["n"]

        counts[64] = run(64)
        counts[128] = run(128)
        assert counts[64] > 0
        # 2x the members: a linear probe per range would be ~4x the calls.
        assert counts[128] <= 3 * counts[64], counts

    def test_owners_overlapping_matches_linear_scan(self):
        table = RoutingTable(addresses(9))
        snapshot = table.snapshot()
        for i in range(25):
            start = sha1_key(("ov", i))
            key_range = KeyRangeFor(start, (start + 2**155) % (2**160))
            expected = {
                entry for entry, kr in snapshot.ranges().items()
                if kr.overlaps(key_range)
            }
            assert set(snapshot.owners_overlapping(key_range)) == expected


def KeyRangeFor(start, end):
    from repro.common.hashing import KeyRange

    return KeyRange(start, end)


class TestBatchedOwnerLookup:
    """``owners_of`` routes a page of keys at once; it must agree with
    ``owner_of`` key by key on every kind of snapshot the system builds."""

    @staticmethod
    def probe_keys(snapshot):
        keys = [sha1_key(("batched", i)) for i in range(400)]
        for key_range in snapshot.ranges().values():
            # Both edges of every range, and their neighbours.
            for edge in (key_range.start, key_range.end):
                keys += [edge, (edge - 1) % 2**160, (edge + 1) % 2**160]
        keys += [0, 2**160 - 1, 2**160, 2**160 + 12345, -1]  # wraps like owner_of
        return keys

    def assert_agrees(self, snapshot):
        keys = self.probe_keys(snapshot)
        entries = [snapshot.owner_of(key) for key in keys]
        assert snapshot.owners_of(keys) == entries
        assert snapshot.owners_of(iter(keys)) == entries
        assert snapshot.owners_of(keys, physical=True) == [
            physical_address(entry) for entry in entries
        ]
        assert snapshot.owners_of([]) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 100])
    def test_balanced_snapshot(self, n):
        snapshot = RoutingTable(addresses(n)).snapshot()
        assert snapshot._owner_tables is not None  # the table path is the one tested
        self.assert_agrees(snapshot)

    def test_pastry_snapshot(self):
        self.assert_agrees(RoutingTable(addresses(12), PastryAllocation()).snapshot())

    @pytest.mark.parametrize("n,failed", [(8, ["node-3"]), (8, ["node-1", "node-6"]),
                                          (32, ["node-7", "node-8", "node-20"])])
    def test_post_failure_snapshot_with_synthetic_entries(self, n, failed):
        snapshot = RoutingTable(addresses(n)).snapshot()
        for address in failed:  # successive failures stack addr#k entries
            snapshot, _moves = snapshot.reassign_failed([address], replication_factor=3)
        assert any("#" in entry for entry in snapshot.nodes)
        assert snapshot._owner_tables is not None
        self.assert_agrees(snapshot)
        physical = set(snapshot.owners_of(self.probe_keys(snapshot), physical=True))
        assert physical == set(addresses(n)) - set(failed)

    def test_non_tiling_snapshots_take_the_owner_of_path(self):
        quarter = 2**158
        gap = RoutingSnapshot({  # a stretch of ring nobody owns
            "a": KeyRangeFor(0, quarter), "b": KeyRangeFor(quarter, 2 * quarter),
            "c": KeyRangeFor(3 * quarter, 0),
        })
        overlap = RoutingSnapshot({  # starts out of tiling order
            "a": KeyRangeFor(0, 2 * quarter), "b": KeyRangeFor(quarter, 3 * quarter),
            "c": KeyRangeFor(3 * quarter, 0),
        })
        partial = RoutingSnapshot({"solo": KeyRangeFor(5, 2 * quarter)})
        for snapshot in (gap, overlap, partial):
            assert snapshot._owner_tables is None
            keys = [k for k in self.probe_keys(snapshot) if self.owned(snapshot, k)]
            assert keys
            assert snapshot.owners_of(keys) == [snapshot.owner_of(k) for k in keys]
            assert snapshot.owners_of(keys, physical=True) == [
                physical_address(snapshot.owner_of(k)) for k in keys
            ]
        with pytest.raises(RoutingError):
            gap.owners_of([2 * quarter + 1])  # unowned, exactly like owner_of

    @staticmethod
    def owned(snapshot, key):
        try:
            snapshot.owner_of(key)
        except RoutingError:
            return False
        return True


class TestRouteTupleIds:
    """Routing a page at once groups the IDs exactly like routing each ID."""

    @staticmethod
    def reference(snapshot, tuple_ids, replication_factor, resilience):
        # The per-ID loop of the PR 12 tree (query/service.py and
        # storage/client.py carried one copy each).
        from repro.overlay.replication import replica_set

        by_data_node = {}
        for tid in tuple_ids:
            if resilience is None:
                owner = physical_address(snapshot.owner_of(tid.hash_key))
            else:
                owner = resilience.select_target(
                    replica_set(snapshot, tid.hash_key, replication_factor)
                )
            by_data_node.setdefault(owner, []).append(tid)
        return by_data_node

    class AvoidOne:
        """Stand-in for the resilience layer's replica ranking."""

        def __init__(self, suspect):
            self.suspect = suspect
            self.calls = 0

        def select_target(self, targets):
            self.calls += 1
            healthy = [t for t in targets if t != self.suspect]
            return (healthy or list(targets))[0]

    @pytest.mark.parametrize("failed", [[], ["node-2"], ["node-2", "node-5"]])
    def test_matches_per_id_routing(self, failed):
        from repro.common.types import TupleId
        from repro.storage.client import route_tuple_ids

        snapshot = RoutingTable(addresses(8)).snapshot()
        for address in failed:
            snapshot, _moves = snapshot.reassign_failed([address], replication_factor=3)
        ids = [TupleId((f"k{i}", i), i % 3, 1) for i in range(900)]
        pages = [sorted(ids[i::4], key=lambda t: (t.hash_key, t.epoch)) for i in range(4)]
        pages += [ids[:50], []]  # unsorted, and the empty page
        for page in pages:
            expected = self.reference(snapshot, page, 3, None)
            got = route_tuple_ids(snapshot, page, 3)
            assert got == expected
            assert list(got) == list(expected)  # data nodes in first-ID order
            suspect = "node-4"
            ranked = self.AvoidOne(suspect)
            expected = self.reference(snapshot, page, 3, self.AvoidOne(suspect))
            got = route_tuple_ids(snapshot, page, 3, ranked)
            assert got == expected and list(got) == list(expected)
            assert suspect not in got
            # One health ranking per distinct owner, not one per tuple ID.
            assert ranked.calls <= len(snapshot)
