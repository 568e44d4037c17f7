"""The keyed replica: one row per primary key, at every entry point.

A participant's replica relation is a :class:`KeyedRelation`.  Writing a key
it already holds used to be accepted: after alice published ``g1`` a second
``insert("SourceGenes", "g1", "OTHER", ...)`` left two ``g1`` rows in her
replica and in the shared store, and a later ``delete("g1")`` removed only one
of them from the store.  Every way into the replica — ``Participant.insert``,
``KeyedRelation.add`` (the curated-edit path) and ``share_relations`` — now
refuses the second row and leaves the replica and the pending publish as
they were.
"""

import pytest

from repro.cdss import KeyedRelation, Orchestra, Participant, share_relations
from repro.common.errors import CDSSError, SchemaError
from repro.common.types import RelationData, Schema

SOURCE = Schema("SourceGenes", ["gene_id", "symbol", "organism"], key=["gene_id"])


def published_alice():
    orchestra = Orchestra(num_nodes=4)
    alice = orchestra.add_participant(Participant("alice", [SOURCE]))
    alice.insert("SourceGenes", "g1", "BRCA1", "human")
    alice.insert("SourceGenes", "g2", "TP53", "human")
    return orchestra.cluster, alice, alice.publish()


def g1_rows(cluster, alice, epoch):
    replica = [row for row in alice.local_database["SourceGenes"] if row[0] == "g1"]
    stored = [row for row in cluster.retrieve("SourceGenes", epoch=epoch).rows() if row[0] == "g1"]
    return replica, stored


def insert_again(alice):
    alice.insert("SourceGenes", "g1", "OTHER", "human")


def add_again(alice):
    alice.local_database["SourceGenes"].add("g1", "OTHER", "human")


def share_again(alice):
    share_relations(alice, [RelationData(SOURCE, [("g3", "EGFR", "mouse"), ("g1", "OTHER", "human")])])


def share_twice_in_one_call(alice):
    share_relations(alice, [
        RelationData(SOURCE, [("g3", "EGFR", "mouse")]),
        RelationData(SOURCE, [("g4", "MYC", "human"), ("g3", "EGFR-2", "mouse")]),
    ])


@pytest.mark.parametrize(
    "write_again", [insert_again, add_again, share_again, share_twice_in_one_call]
)
def test_second_row_for_a_held_key_is_refused(write_again):
    cluster, alice, epoch = published_alice()
    before = alice.local_database["SourceGenes"].rows

    with pytest.raises(CDSSError):
        write_again(alice)

    assert alice.local_database["SourceGenes"].rows == before
    assert alice.pending_changes() == 0
    assert alice.publish() == epoch  # nothing was queued
    assert g1_rows(cluster, alice, epoch) == ([("g1", "BRCA1", "human")], [("g1", "BRCA1", "human")])

    alice.delete("SourceGenes", "g1")
    epoch = alice.publish()
    assert g1_rows(cluster, alice, epoch) == ([], [])
    assert [row[0] for row in cluster.retrieve("SourceGenes", epoch=epoch).rows()] == ["g2"]


def test_share_relations_repeating_a_key_within_the_data_changes_nothing():
    orchestra = Orchestra(num_nodes=3)
    alice = orchestra.add_participant(Participant("alice", [SOURCE]))
    data = RelationData(SOURCE, [("g1", "BRCA1", "human"), ("g1", "OTHER", "human")])
    with pytest.raises(CDSSError):
        share_relations(alice, [data])
    assert len(alice.local_database["SourceGenes"]) == 0
    assert alice.pending_changes() == 0


def test_share_relations_copies_and_never_touches_the_callers_data():
    orchestra = Orchestra(num_nodes=3)
    alice = orchestra.add_participant(Participant("alice", [SOURCE]))
    rows = [("g1", "BRCA1", "human"), ("g2", "TP53", "human")]
    data = RelationData(SOURCE, list(rows))
    share_relations(alice, [data])
    assert alice.local_database["SourceGenes"] is not data
    alice.publish()
    alice.modify("SourceGenes", "g1", "BRCA1-renamed", "human")
    alice.delete("SourceGenes", "g2")
    alice.insert("SourceGenes", "g3", "EGFR", "mouse")
    assert data.rows == rows
    assert list(alice.local_database["SourceGenes"].rows) == [
        ("g1", "BRCA1-renamed", "human"), ("g3", "EGFR", "mouse"),
    ]
    epoch = alice.publish()
    assert sorted(orchestra.cluster.retrieve("SourceGenes", epoch=epoch).rows()) == [
        ("g1", "BRCA1-renamed", "human"), ("g3", "EGFR", "mouse"),
    ]


class TestKeyedRelation:
    def test_rows_keep_first_arrival_order(self):
        relation = KeyedRelation(SOURCE)
        relation.add("g1", "A", "human")
        relation.add("g2", "B", "human")
        relation.put(("g1", "A2", "human"))  # a held key keeps its position
        relation.put(("g3", "C", "mouse"))   # a new key appends
        relation.discard(("g2",))
        relation.discard(("absent",))
        relation.add("g2", "B2", "human")    # a dropped key may come back, at the end
        assert list(relation) == [("g1", "A2", "human"), ("g3", "C", "mouse"), ("g2", "B2", "human")]
        assert list(relation.rows) == list(relation)
        assert len(relation) == 3
        assert relation.get(("g3",)) == ("g3", "C", "mouse")
        assert relation.get(("g9",)) is None
        assert ("g1",) in relation and ("g9",) not in relation

    def test_rows_is_a_read_only_snapshot(self):
        relation = KeyedRelation(SOURCE)
        relation.add("g1", "A", "human")
        rows = relation.rows
        assert isinstance(rows, tuple)
        with pytest.raises(AttributeError):
            relation.rows.append(("g2", "B", "human"))
        relation.add("g2", "B", "human")
        assert rows == (("g1", "A", "human"),)
        assert len(relation) == 2

    def test_arity_is_checked(self):
        relation = KeyedRelation(SOURCE)
        with pytest.raises(SchemaError):
            relation.add("g1", "A")
        with pytest.raises(SchemaError):
            relation.put(("g1",))
        assert len(relation) == 0

    def test_modify_keeps_position_in_the_participant_replica(self):
        alice = Participant("alice", [SOURCE])
        for gene in ("g1", "g2", "g3"):
            alice.insert("SourceGenes", gene, gene.upper(), "human")
        alice.modify("SourceGenes", "g2", "G2-renamed", "human")
        assert [row[1] for row in alice.local_database["SourceGenes"]] == ["G1", "G2-renamed", "G3"]
