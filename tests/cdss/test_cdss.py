"""Tests for the CDSS layer: mappings, update exchange, reconciliation,
participants and the publish/import cycle over the shared storage."""

import pytest

from repro.cdss.mappings import SchemaMapping, UpdateExchange
from repro.cdss.participant import Orchestra, Participant, share_relations
from repro.cdss.replica import KeyedRelation
from repro.cdss.reconciliation import Reconciler, candidates_from_rows
from repro.common.errors import CDSSError, MappingError
from repro.common.types import RelationData, Schema
from repro.query.expressions import col, concat, lit

SOURCE = Schema("SourceGenes", ["gene_id", "symbol", "organism"], key=["gene_id"])
TARGET = Schema("LocalGenes", ["lg_id", "lg_label"], key=["lg_id"])
ANNOT = Schema("Annotations", ["an_gene", "an_text"], key=["an_gene"])


class TestSchemaMapping:
    def test_projection_mapping_query(self):
        mapping = SchemaMapping(
            "copy_genes", TARGET, [SOURCE],
            outputs=[("lg_id", col("gene_id")), ("lg_label", concat(col("symbol"), lit("/"), col("organism")))],
        )
        query = mapping.to_query()
        assert query.output_attributes() == ("lg_id", "lg_label")
        assert mapping.referenced_relations() == {"SourceGenes"}

    def test_join_mapping_requires_condition(self):
        with pytest.raises(MappingError):
            SchemaMapping("bad", TARGET, [SOURCE, ANNOT])

    def test_default_outputs_copy_positionally(self):
        mapping = SchemaMapping("default", TARGET, [SOURCE])
        names = [name for name, _ in mapping.outputs]
        assert names == list(TARGET.attributes)

    def test_invalid_output_attribute(self):
        with pytest.raises(MappingError):
            SchemaMapping("bad", TARGET, [SOURCE], outputs=[("nope", col("gene_id"))])

    def test_too_many_sources(self):
        with pytest.raises(MappingError):
            SchemaMapping("bad", TARGET, [SOURCE, ANNOT, TARGET], join=[("a", "b")])


class TestUpdateExchangeDiff:
    def make_exchange(self):
        mapping = SchemaMapping(
            "copy", TARGET, [SOURCE],
            outputs=[("lg_id", col("gene_id")), ("lg_label", col("symbol"))],
        )
        return UpdateExchange([mapping])

    def test_new_rows_become_inserts(self):
        exchange = self.make_exchange()
        deltas = exchange.compute_deltas(
            run_query=lambda q: [("g1", "BRCA1"), ("g2", "TP53")],
            local_state={"LocalGenes": KeyedRelation(TARGET)},
        )
        (delta,) = deltas
        assert len(delta.inserts) == 2
        assert not delta.modifications

    def test_changed_rows_become_modifications(self):
        exchange = self.make_exchange()
        local = KeyedRelation(TARGET)
        local.add("g1", "OLD")
        local.add("g2", "TP53")
        deltas = exchange.compute_deltas(
            run_query=lambda q: [("g1", "BRCA1"), ("g2", "TP53")],
            local_state={"LocalGenes": local},
        )
        (delta,) = deltas
        assert delta.modifications == [("g1", "BRCA1")]
        assert delta.unchanged == 1
        assert not delta.inserts

    def test_duplicate_derivations_are_collapsed(self):
        exchange = self.make_exchange()
        deltas = exchange.compute_deltas(
            run_query=lambda q: [("g1", "BRCA1"), ("g1", "BRCA1")],
            local_state={},
        )
        assert len(deltas[0].inserts) == 1

    def test_arity_mismatch_rejected(self):
        exchange = self.make_exchange()
        with pytest.raises(MappingError):
            exchange.compute_deltas(run_query=lambda q: [("only-one",)], local_state={})

    def test_required_relations(self):
        assert self.make_exchange().required_relations() == {"SourceGenes"}


class TestReconciliation:
    def test_no_conflict_when_values_agree(self):
        reconciler = Reconciler({"alice": 2, "bob": 1})
        candidates = candidates_from_rows(
            TARGET, {"alice": [("g1", "X")], "bob": [("g1", "X")]}
        )
        outcome = reconciler.reconcile(candidates)
        assert not outcome.conflicts
        assert outcome.accepted[("LocalGenes", ("g1",))].values == ("g1", "X")

    def test_higher_priority_wins(self):
        reconciler = Reconciler({"alice": 5, "bob": 1})
        candidates = candidates_from_rows(
            TARGET, {"alice": [("g1", "ALICE")], "bob": [("g1", "BOB")]}
        )
        outcome = reconciler.reconcile(candidates)
        assert len(outcome.conflicts) == 1
        assert outcome.accepted[("LocalGenes", ("g1",))].publisher == "alice"

    def test_tie_break_is_deterministic(self):
        reconciler = Reconciler({"alice": 1, "bob": 1})
        candidates = candidates_from_rows(
            TARGET, {"alice": [("g1", "Z")], "bob": [("g1", "A")]}
        )
        outcome = reconciler.reconcile(candidates)
        assert outcome.accepted[("LocalGenes", ("g1",))].values == ("g1", "A")

    def test_defer_unresolved(self):
        reconciler = Reconciler({}, defer_unresolved=True)
        candidates = candidates_from_rows(
            TARGET, {"alice": [("g1", "Z")], "bob": [("g1", "A")]}
        )
        outcome = reconciler.reconcile(candidates)
        assert len(outcome.deferred) == 1
        assert ("LocalGenes", ("g1",)) not in outcome.accepted

    def test_accepted_rows_helper(self):
        reconciler = Reconciler({})
        candidates = candidates_from_rows(TARGET, {"alice": [("g1", "X"), ("g2", "Y")]})
        outcome = reconciler.reconcile(candidates)
        assert sorted(outcome.accepted_rows("LocalGenes")) == [("g1", "X"), ("g2", "Y")]


class TestPublishImportCycle:
    def build_cdss(self):
        orchestra = Orchestra(num_nodes=4)
        alice = orchestra.add_participant(
            Participant("alice", [SOURCE], trust={"alice": 10, "import": 5})
        )
        mapping = SchemaMapping(
            "import_genes", TARGET, [SOURCE],
            outputs=[("lg_id", col("gene_id")), ("lg_label", col("symbol"))],
        )
        bob = orchestra.add_participant(
            Participant("bob", [TARGET], mappings=[mapping], trust={"bob": 1, "import": 5})
        )
        return orchestra, alice, bob

    def test_publish_then_import(self):
        orchestra, alice, bob = self.build_cdss()
        alice.insert("SourceGenes", "g1", "BRCA1", "human")
        alice.insert("SourceGenes", "g2", "TP53", "human")
        epoch = alice.publish()
        report = bob.import_updates(epoch)
        assert report.total_changes() == 2
        assert sorted(bob.local_database["LocalGenes"].rows) == [
            ("g1", "BRCA1"), ("g2", "TP53"),
        ]

    def test_second_import_is_incremental(self):
        orchestra, alice, bob = self.build_cdss()
        alice.insert("SourceGenes", "g1", "BRCA1", "human")
        bob.import_updates(alice.publish())
        alice.insert("SourceGenes", "g3", "EGFR", "human")
        report = bob.import_updates(alice.publish())
        assert report.total_changes() == 1
        assert len(bob.local_database["LocalGenes"].rows) == 2

    def test_import_at_old_epoch_ignores_later_publications(self):
        orchestra, alice, bob = self.build_cdss()
        alice.insert("SourceGenes", "g1", "BRCA1", "human")
        first_epoch = alice.publish()
        alice.insert("SourceGenes", "g2", "TP53", "human")
        alice.publish()
        report = bob.import_updates(first_epoch)
        assert report.total_changes() == 1

    def test_local_modifications_are_published(self):
        orchestra, alice, bob = self.build_cdss()
        alice.insert("SourceGenes", "g1", "BRCA1", "human")
        bob.import_updates(alice.publish())
        alice.modify("SourceGenes", "g1", "BRCA1-renamed", "human")
        report = bob.import_updates(alice.publish())
        assert report.deltas[0].modifications == [("g1", "BRCA1-renamed")]
        assert list(bob.local_database["LocalGenes"].rows) == [("g1", "BRCA1-renamed")]

    def test_trusted_local_value_survives_import(self):
        orchestra, alice, bob = self.build_cdss()
        bob.reconciler = Reconciler({"bob": 10, "import": 1})
        bob.local_database["LocalGenes"].add("g1", "curated-label")
        alice.insert("SourceGenes", "g1", "BRCA1", "human")
        report = bob.import_updates(alice.publish())
        # Bob trusts his curated value more than the imported one.
        assert list(bob.local_database["LocalGenes"].rows) == [("g1", "curated-label")]
        assert report.reconciliation is not None
        assert len(report.reconciliation.conflicts) == 1

    def test_share_relations_helper_and_deletes(self):
        orchestra, alice, bob = self.build_cdss()
        data = RelationData(SOURCE)
        data.add("g1", "BRCA1", "human")
        data.add("g2", "TP53", "human")
        share_relations(alice, [data])
        epoch = alice.publish()
        assert orchestra.cluster.retrieve("SourceGenes", epoch=epoch).rows()
        alice.delete("SourceGenes", "g2")
        new_epoch = alice.publish()
        remaining = orchestra.cluster.retrieve("SourceGenes", epoch=new_epoch)
        assert sorted(r[0] for r in remaining.rows()) == ["g1"]

    def test_participant_requires_membership(self):
        lonely = Participant("solo", [SOURCE])
        with pytest.raises(CDSSError):
            lonely.publish()
        with pytest.raises(CDSSError):
            lonely.import_updates()

    def test_duplicate_participant_rejected(self):
        orchestra, alice, _bob = self.build_cdss()
        with pytest.raises(CDSSError):
            orchestra.add_participant(Participant("alice", [SOURCE]))

    def test_analytic_query_over_shared_storage(self):
        orchestra, alice, bob = self.build_cdss()
        alice.insert("SourceGenes", "g1", "BRCA1", "human")
        alice.insert("SourceGenes", "g2", "TP53", "mouse")
        alice.publish()
        result = orchestra.run_query("SELECT organism, COUNT(*) AS n FROM SourceGenes GROUP BY organism")
        assert sorted(result.rows) == [("human", 1), ("mouse", 1)]
