"""Routing-snapshot agreement at query start (Section V-D's shared snapshot).

Every participant must run a query under the initiator's routing snapshot,
because recovery reasons about that snapshot's ranges.  ``query.start``
carries only the snapshot's 16-byte digest: a participant whose own view has
the same digest runs under it, and one whose view differs fetches the
initiator's snapshot with one ``query.snapshot`` request.  These tests pin
the size of a start (no term grows with the snapshot), the fetch path in both
directions of disagreement, and the fetch window's interaction with aborts
and with messages that race ahead of the start.
"""

import pytest

from repro.cluster import Cluster
from repro.common.hashing import KeyRange
from repro.common.types import RelationData, Schema
from repro.net.transport import RpcEndpoint
from repro.overlay.routing import RoutingSnapshot, RoutingTable
from repro.query.logical import LogicalJoin, LogicalQuery, LogicalScan
from repro.query.reference import evaluate_query, normalise
from repro.query.service import QueryOptions, QueryService

#: Participant whose membership view is made to disagree with the initiator.
LAGGING = "node-003"


def make_relations():
    r = RelationData(Schema("R", ["x", "y", "v"], key=["x"]))
    s = RelationData(Schema("S", ["sk", "yy", "z"], key=["sk"]))
    for i in range(120):
        r.add(f"x{i:03d}", f"y{i % 30}", i)
    for i in range(60):
        s.add(f"s{i:03d}", f"y{i % 30}", i * 10)
    return {"R": r, "S": s}


def join_query(relations):
    return LogicalQuery(
        LogicalJoin(
            LogicalScan(relations["R"].schema),
            LogicalScan(relations["S"].schema),
            [("y", "yy")],
        ),
        name="agreement_join",
    )


def make_cluster(num_nodes, relations):
    cluster = Cluster(num_nodes)
    cluster.publish_relations(list(relations.values()))
    cluster.enable_query_processing()
    return cluster


def lag_behind_a_failure(cluster):
    """Fail a node; every live view drops it except the lagging one's.

    The survivors' ranges are re-balanced, so index pages no longer nest in
    one node's range and leaf scans send tuple requests across nodes.
    """
    cluster.fail_node("node-005")
    cluster.run()
    cluster.nodes[LAGGING].membership.routing_table.add_node("node-005")


def fetches(cluster):
    return {
        address: cluster.query_service(address).stats.snapshot_fetches
        for address in cluster.addresses
    }


def record_start_snapshots(monkeypatch):
    """``(node, snapshot)`` for every context a start builds, in order."""
    started = []
    plain = QueryService._start_context

    def start_context(self, payload, snapshot):
        started.append((self.node.address, snapshot))
        return plain(self, payload, snapshot)

    monkeypatch.setattr(QueryService, "_start_context", start_context)
    return started


class TestSnapshotDigest:
    def test_equal_ranges_under_different_versions_agree(self):
        members = [f"node-{i:03d}" for i in range(12)]
        fresh = RoutingTable(members).snapshot()
        churned_table = RoutingTable(members)
        churned_table.add_node("node-999")
        churned_table.remove_node("node-999")
        churned = churned_table.snapshot()
        assert churned.version != fresh.version
        assert churned.ranges() == fresh.ranges()
        assert churned.digest == fresh.digest
        assert RoutingSnapshot(fresh.ranges(), version=41).digest == fresh.digest
        assert len(fresh.digest) == 16

    def test_any_range_change_changes_the_digest(self):
        members = [f"node-{i:03d}" for i in range(12)]
        base = RoutingTable(members).snapshot()
        ranges = base.ranges()
        first, second = base.nodes[0], base.nodes[1]

        moved = dict(ranges)
        boundary = ranges[first].end - 1
        moved[first] = KeyRange(ranges[first].start, boundary)
        moved[second] = KeyRange(boundary, ranges[second].end)
        renamed = dict(ranges)
        renamed["node-other"] = renamed.pop(first)
        grown = RoutingTable(members + ["node-999"]).snapshot()
        failed, _moves = base.reassign_failed([second], replication_factor=3)

        digests = {
            snapshot.digest
            for snapshot in (
                base, RoutingSnapshot(moved), RoutingSnapshot(renamed), grown, failed
            )
        }
        assert len(digests) == 5


class TestStartSize:
    @staticmethod
    def start_residuals(num_nodes, monkeypatch):
        """Per start: its charge minus the plan, scan-spec and completion-map
        terms, plus the launch snapshot's length."""
        relations = make_relations()
        cluster = make_cluster(num_nodes, relations)
        starts = []
        plain_cast = RpcEndpoint.cast

        def cast(self, dst, method, payload, size):
            if method == "query.start":
                starts.append((payload, size))
            return plain_cast(self, dst, method, payload, size)

        monkeypatch.setattr(RpcEndpoint, "cast", cast)
        result = cluster.query(
            join_query(relations), options=QueryOptions(use_result_cache=False)
        )
        monkeypatch.setattr(RpcEndpoint, "cast", plain_cast)
        assert normalise(result.rows) == normalise(
            evaluate_query(join_query(relations), relations)
        )
        assert len(starts) == num_nodes
        residuals = set()
        for payload, size in starts:
            assert "snapshot" not in payload
            residuals.add(
                size
                - payload["plan"].estimated_size()
                - sum(spec.estimated_size() for spec in payload["scan_specs"].values())
                - 16 * sum(len(nodes) for nodes in payload["expected_scan_senders"].values())
                - 16 * sum(len(nodes) for nodes in payload["scan_done_receivers"].values())
            )
        return residuals, len(cluster.snapshot())

    def test_no_start_term_scales_with_the_snapshot(self, monkeypatch):
        small, small_len = self.start_residuals(8, monkeypatch)
        large, large_len = self.start_residuals(100, monkeypatch)
        assert (small_len, large_len) == (8, 100)
        # Everything but the plan, scan-spec and completion-map terms is the
        # 16-byte digest, at 8 nodes and at 100 alike.
        assert small == large == {16}


class TestDisagreeingParticipant:
    def run_disagreeing(self, monkeypatch, disagree):
        relations = make_relations()
        cluster = make_cluster(8, relations)
        disagree(cluster)
        initiator_snapshot = cluster.snapshot("node-000")
        assert cluster.snapshot(LAGGING).digest != initiator_snapshot.digest
        started = record_start_snapshots(monkeypatch)
        result = cluster.query(
            join_query(relations),
            options=QueryOptions(use_result_cache=False),
            from_address="node-000",
        )
        assert normalise(result.rows) == normalise(
            evaluate_query(join_query(relations), relations)
        )
        counts = fetches(cluster)
        assert counts.pop(LAGGING) == 1
        assert set(counts.values()) == {0}
        # Every context, the disagreeing node's included, ran under the
        # initiator's ranges.
        assert {address for address, _ in started} == set(initiator_snapshot.physical_nodes())
        for _address, snapshot in started:
            assert snapshot.ranges() == initiator_snapshot.ranges()
        registry = cluster.observability()["metrics"]
        assert registry["query.snapshot_fetches"] == 1

    def test_participant_lagging_behind_a_failure_fetches_once(self, monkeypatch):
        self.run_disagreeing(monkeypatch, lag_behind_a_failure)

    def test_participant_ahead_of_the_initiator_fetches_once(self, monkeypatch):
        def ahead(cluster):
            # This view already dropped a member the initiator still runs on.
            cluster.nodes[LAGGING].membership.routing_table.remove_node("node-006")

        self.run_disagreeing(monkeypatch, ahead)

    def test_agreeing_views_fetch_nothing(self):
        relations = make_relations()
        cluster = make_cluster(8, relations)
        cluster.query(join_query(relations), options=QueryOptions(use_result_cache=False))
        assert set(fetches(cluster).values()) == {0}
        assert cluster.observability()["metrics"]["query.snapshot_fetches"] == 0


class TestFetchWindow:
    """The disagreeing participant's fetch reply is held back at the
    initiator, so everything else happens inside the fetch window."""

    @staticmethod
    def held_fetch(cluster):
        """Withhold the initiator's ``query.snapshot`` replies; returns the
        held requests and the function that answers them."""
        initiator = cluster.query_service("node-000")
        held = []
        initiator.rpc.register(
            "query.snapshot", lambda src, payload, respond: held.append((src, payload, respond))
        )

        def release():
            for request in held:
                initiator._on_snapshot_request(*request)
            held.clear()

        return held, release

    def start_held(self):
        relations = make_relations()
        cluster = make_cluster(8, relations)
        lag_behind_a_failure(cluster)
        held, release = self.held_fetch(cluster)
        future = cluster.session("node-000").submit_query(
            join_query(relations), options=QueryOptions(use_result_cache=False)
        )
        cluster.run()
        lagging = cluster.query_service(LAGGING)
        assert len(held) == 1
        assert len(lagging._pending_starts) == 1
        (query_id,) = lagging._pending_starts
        return relations, cluster, future, release, lagging, query_id

    def test_racing_messages_are_replayed_after_the_fetch(self):
        relations, cluster, future, release, lagging, query_id = self.start_held()
        assert not future.done()
        assert query_id not in lagging._contexts
        buffered = {method for method, _payload in lagging._pending_messages[query_id]}
        assert {"query.scan_tuples", "query.data", "query.eos"} <= buffered
        release()
        cluster.run()
        assert normalise(future.result().rows) == normalise(
            evaluate_query(join_query(relations), relations)
        )
        assert query_id not in lagging._pending_messages
        assert not lagging._pending_starts
        assert lagging.stats.snapshot_fetches == 1

    @pytest.mark.parametrize("release_first", [False, True])
    def test_abort_during_the_fetch_leaves_no_context(self, release_first):
        _relations, cluster, _future, release, lagging, query_id = self.start_held()
        lagging._on_abort("", {"query_id": query_id}, None)
        if release_first:
            # The reply carrying the snapshot lands after the abort.
            release()
        cluster.run()
        release()
        cluster.run()
        assert query_id not in lagging._contexts
        assert query_id not in lagging._pending_starts
        assert query_id not in lagging._pending_messages
        assert query_id in lagging._finished_queries

    def test_start_after_the_tombstone_fetches_nothing(self):
        relations = make_relations()
        cluster = make_cluster(8, relations)
        cluster.nodes[LAGGING].membership.routing_table.remove_node("node-006")
        lagging = cluster.query_service(LAGGING)
        lagging._note_finished("node-000/q99")
        lagging._on_start("", {"query_id": "node-000/q99", "snapshot_digest": b""}, None)
        cluster.run()
        assert lagging.stats.snapshot_fetches == 0
        assert not lagging._pending_starts
        assert "node-000/q99" not in lagging._contexts

    def test_initiator_failure_drops_the_pending_start(self):
        _relations, cluster, _future, _release, lagging, query_id = self.start_held()
        cluster.fail_node("node-000")
        cluster.run()
        assert query_id not in lagging._pending_starts
        assert query_id not in lagging._pending_messages
        assert query_id not in lagging._contexts
