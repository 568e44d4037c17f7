"""A relation's first publish stores the fold of its batch.

With no earlier version, the first version used to be built from the batch's
inserts alone: a modification or a delete in the same batch was dropped, so
publishing inserts ``(1,'a'),(2,'b'),(3,'c')``, a modify ``(1,'A')`` and a
delete ``(2,)`` served all three original rows.  The first version now holds
the fold — inserts, then modifications, then deletes — and an insert-only
first batch (every workload's set-up) publishes exactly what it did.
"""

from repro.cdss import Orchestra, Participant
from repro.cluster import Cluster
from repro.common.types import Schema
from repro.storage.client import UpdateBatch

R = Schema("R", ["x", "v"], key=["x"])


def publish_first(batch: UpdateBatch):
    cluster = Cluster(4)
    before = cluster.traffic_snapshot()
    epoch = cluster.publish(batch)
    traffic = before.delta(cluster.traffic_snapshot())
    pages = sorted(
        (page.page_id, tuple(page.tuple_ids))
        for address in sorted(cluster.nodes)
        for page in cluster.storage(address).local_pages_for_relation("R")
    )
    return cluster, epoch, traffic, pages


def test_first_batch_with_modify_and_delete_serves_the_fold():
    cluster, epoch, _traffic, _pages = publish_first(UpdateBatch(
        R,
        inserts=[(1, "a"), (2, "b"), (3, "c")],
        modifications=[(1, "A")],
        deletes=[(2,)],
    ))
    assert sorted(cluster.retrieve("R").rows()) == [(1, "A"), (3, "c")]
    assert sorted(cluster.retrieve("R", epoch=epoch).rows()) == [(1, "A"), (3, "c")]


def test_modify_of_a_key_not_inserted_adds_it_and_delete_of_an_unknown_key_is_a_no_op():
    cluster, _epoch, _traffic, _pages = publish_first(UpdateBatch(
        R, inserts=[(1, "a")], modifications=[(4, "d")], deletes=[(9,)],
    ))
    assert sorted(cluster.retrieve("R").rows()) == [(1, "a"), (4, "d")]


def test_folded_batch_publishes_what_its_fold_publishes_as_inserts():
    """Same pages, tuple IDs and messages as the insert-only batch of the fold."""
    rows = [(i, f"v{i}") for i in range(40)]
    folded = publish_first(UpdateBatch(
        R,
        inserts=rows[:30] + [(99, "gone")],
        modifications=[(row[0], row[1]) for row in rows[30:]],
        deletes=[(99,)],
    ))
    plain = publish_first(UpdateBatch(R, inserts=rows))
    assert folded[3] == plain[3]
    assert sorted(folded[0].retrieve("R").rows()) == sorted(plain[0].retrieve("R").rows()) == rows
    assert folded[2] == plain[2]


def test_participant_edits_queued_before_the_first_publish_reach_the_store():
    orchestra = Orchestra(num_nodes=4)
    alice = orchestra.add_participant(Participant("alice", [R]))
    alice.insert("R", 1, "a")
    alice.insert("R", 2, "b")
    alice.insert("R", 3, "c")
    alice.modify("R", 1, "A")
    alice.delete("R", 2)
    epoch = alice.publish()
    stored = sorted(orchestra.cluster.retrieve("R", epoch=epoch).rows())
    assert stored == sorted(alice.local_database["R"].rows) == [(1, "A"), (3, "c")]
