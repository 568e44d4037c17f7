"""Background replication reads each copied tuple with one store lookup.

``Cluster.run_background_replication`` lists every replica group member's
tuples once per owner range and records each listed item's store key; a
copy then reads that one entry.  The reference round below is the previous
implementation, which walked the source's whole relation for every item it
copied.  On the same seeded failure scenario — with integrity on and rotten
source copies, so some copies are refused and quarantined mid-round — both
rounds must produce the same report, and the new round must list each
member's store once per group it belongs to, however many items it copies.
"""

from repro.cluster import Cluster, _repair_attribution
from repro.common.types import RelationData, Schema
from repro.faults.injector import FaultInjector
from repro.integrity import IntegrityConfig
from repro.overlay.replication import BackgroundReplicator
from repro.overlay.routing import physical_address
from repro.storage.service import StorageService

REPLICATION_FACTOR = 3


def failed_cluster():
    """Six nodes, two relations, rotten tuple copies, one crashed node."""
    cluster = Cluster(
        6, replication_factor=REPLICATION_FACTOR, integrity_config=IntegrityConfig()
    )
    for name, rows in (("R", 240), ("S", 90)):
        data = RelationData(Schema(name, ["k", "v"], key=["k"]))
        for i in range(rows):
            data.add(f"{name}{i:04d}", i)
        cluster.publish(data)
    injector = FaultInjector(cluster.network, seed=3)
    for _ in range(8):
        injector.corrupt_at_rest(targets=("tuples",))
    cluster.fail_node(cluster.addresses[2])
    cluster.run()
    return cluster


def reference_round(cluster):
    """The relation-walking round this one replaced."""

    def list_items(address, key_range):
        return {
            (tup.relation, tup.tuple_id.key_values, tup.tuple_id.epoch): tup.estimated_size()
            for tup in cluster.storage(address).all_local_tuples()
            if key_range.contains(tup.hash_key)
        }

    def copy_item(src, dst, key):
        relation, key_values, epoch = key
        source = cluster.storage(src)
        for tup in source.all_local_tuples(relation):
            if tup.tuple_id.key_values == key_values and tup.tuple_id.epoch == epoch:
                store_key = (tup.relation, tup.hash_key, tup.tuple_id)
                if source.integrity is not None and not source.integrity.verify(
                    source.store, "tuples", store_key, tup, "replication",
                    node=source.node,
                ):
                    return 0
                destination = cluster.storage(dst)
                with _repair_attribution(destination.integrity, "replication"):
                    destination.store_tuple(tup)
                return tup.estimated_size()
        return 0

    return BackgroundReplicator(REPLICATION_FACTOR, list_items, copy_item).run_round(
        cluster.snapshot()
    )


def report_fields(report):
    return (
        report.items_copied,
        report.bytes_copied,
        report.bloom_false_positives,
        list(report.repairs),
    )


def listed_members(cluster):
    """Replica-group members listed by one round: one per (range, member)."""
    snapshot = cluster.snapshot()
    total = 0
    for entry in snapshot.nodes:
        group = {physical_address(entry)} | {
            physical_address(replica)
            for replica in snapshot.replicas_for_owner(entry, REPLICATION_FACTOR)
        }
        total += len(group)
    return total


def test_round_matches_the_relation_walking_reference(monkeypatch):
    expected = report_fields(reference_round(failed_cluster()))
    cluster = failed_cluster()
    calls = []
    plain = StorageService.all_local_tuples

    def counting(self, relation=None):
        calls.append(relation)
        return plain(self, relation)

    monkeypatch.setattr(StorageService, "all_local_tuples", counting)
    report = cluster.run_background_replication()
    assert report_fields(report) == expected
    assert report.items_copied > 0
    quarantined = cluster.integrity_statistics().quarantined
    assert quarantined > 0, "the scenario must refuse some rotten source copies"
    # One listing per group member, whatever the copy count.
    assert len(calls) == listed_members(cluster)
    assert set(calls) == {None}

