"""The full CDSS of Figure 1 running over the paper's storage/query subsystem.

Three collaborating participants with different local schemas publish and
import through the simulated cluster: a sequencing centre produces raw gene
annotations, a clinical group maps them into its own schema and annotates
further, and an analytics group runs OLAP-style queries directly over the
shared versioned storage.  The tests also reproduce the running example of
Section V (Example 5.1) and exercise the publish/import cycle while cluster
nodes fail.
"""

import pytest

from repro.cdss.mappings import SchemaMapping
from repro.cdss.participant import Orchestra, Participant, share_relations
from repro.cluster import Cluster
from repro.common.types import RelationData, Schema
from repro.query.expressions import AggregateSpec, Min, col
from repro.query.logical import LogicalAggregate, LogicalJoin, LogicalQuery, LogicalScan
from repro.query.reference import evaluate_query, normalise

SEQ_SCHEMA = Schema("SeqGenes", ["gene_id", "symbol", "organism", "confidence"], key=["gene_id"])
CLINIC_SCHEMA = Schema("ClinicGenes", ["cg_id", "cg_symbol", "cg_organism"], key=["cg_id"])


def build_confederation(num_nodes=5):
    orchestra = Orchestra(num_nodes=num_nodes)
    sequencing = orchestra.add_participant(
        Participant("sequencing", [SEQ_SCHEMA], trust={"sequencing": 10, "import": 5})
    )
    mapping = SchemaMapping(
        "seq_to_clinic",
        CLINIC_SCHEMA,
        [SEQ_SCHEMA],
        outputs=[
            ("cg_id", col("gene_id")),
            ("cg_symbol", col("symbol")),
            ("cg_organism", col("organism")),
        ],
    )
    # The clinic trusts imported data over its own replica by default; the
    # curated-value test overrides this with a high local priority.
    clinic = orchestra.add_participant(
        Participant("clinic", [CLINIC_SCHEMA], mappings=[mapping],
                    trust={"clinic": 1, "import": 5})
    )
    return orchestra, sequencing, clinic


class TestPublishImportCycle:
    def test_multi_epoch_collaboration_converges(self):
        orchestra, sequencing, clinic = build_confederation()

        # Epoch 1: the sequencing centre publishes a first batch.
        for i in range(60):
            sequencing.insert("SeqGenes", f"g{i:03d}", f"SYM{i}", "human", 0.9)
        first = sequencing.publish()
        clinic.import_updates(first)
        assert len(clinic.local_database["ClinicGenes"].rows) == 60

        # Epoch 2: more data plus a correction to an existing gene.
        for i in range(60, 90):
            sequencing.insert("SeqGenes", f"g{i:03d}", f"SYM{i}", "mouse", 0.7)
        sequencing.modify("SeqGenes", "g000", "SYM0-corrected", "human", 0.95)
        second = sequencing.publish()
        report = clinic.import_updates(second)
        assert report.epoch == second
        rows = {row[0]: row for row in clinic.local_database["ClinicGenes"].rows}
        assert len(rows) == 90
        assert rows["g000"][1] == "SYM0-corrected"

        # Importing the *old* epoch again must not resurrect the old value.
        clinic.import_updates(second)
        rows = {row[0]: row for row in clinic.local_database["ClinicGenes"].rows}
        assert rows["g000"][1] == "SYM0-corrected"

    def test_import_of_historical_epoch_sees_old_state(self):
        orchestra, sequencing, clinic = build_confederation()
        sequencing.insert("SeqGenes", "g1", "BRCA1", "human", 0.99)
        first = sequencing.publish()
        sequencing.modify("SeqGenes", "g1", "BRCA1-v2", "human", 0.99)
        sequencing.publish()

        clinic.import_updates(first)
        assert list(clinic.local_database["ClinicGenes"].rows) == [("g1", "BRCA1", "human")]

    def test_curated_values_win_reconciliation(self):
        from repro.cdss.reconciliation import Reconciler

        orchestra, sequencing, clinic = build_confederation()
        clinic.reconciler = Reconciler({"clinic": 10, "import": 1})
        clinic.local_database["ClinicGenes"].add("g5", "curated-name", "human")
        sequencing.insert("SeqGenes", "g5", "auto-name", "human", 0.5)
        report = clinic.import_updates(sequencing.publish())
        assert list(clinic.local_database["ClinicGenes"].rows) == [("g5", "curated-name", "human")]
        assert report.reconciliation is not None
        assert len(report.reconciliation.conflicts) == 1

    def test_analytics_participant_queries_shared_state(self):
        orchestra, sequencing, _clinic = build_confederation()
        for i in range(80):
            sequencing.insert(
                "SeqGenes", f"g{i:03d}", f"SYM{i}", "human" if i % 3 else "mouse", 0.5 + (i % 5) / 10
            )
        sequencing.publish()
        result = orchestra.run_query(
            "SELECT organism, COUNT(*) AS genes, MAX(confidence) AS best "
            "FROM SeqGenes GROUP BY organism"
        )
        counts = {row[0]: row[1] for row in result.rows}
        assert counts == {"human": 53, "mouse": 27}

    def test_cycle_survives_storage_node_failure(self):
        orchestra, sequencing, clinic = build_confederation(num_nodes=6)
        for i in range(100):
            sequencing.insert("SeqGenes", f"g{i:03d}", f"SYM{i}", "human", 0.8)
        first = sequencing.publish()

        orchestra.cluster.fail_node(orchestra.cluster.addresses[2])
        orchestra.cluster.run()

        clinic.import_updates(first)
        assert len(clinic.local_database["ClinicGenes"].rows) == 100

        # Publishing keeps working on the surviving nodes.
        for i in range(100, 120):
            sequencing.insert("SeqGenes", f"g{i:03d}", f"SYM{i}", "rat", 0.6)
        second = sequencing.publish()
        clinic.import_updates(second)
        assert len(clinic.local_database["ClinicGenes"].rows) == 120


class TestPaperExample51:
    """Example 5.1: SELECT x, MIN(z) FROM R, S WHERE R.y = S.y GROUP BY x."""

    def make_relations(self):
        r = RelationData(Schema("R", ["x", "y"], key=["x"]))
        s = RelationData(Schema("S", ["yy", "z"], key=["yy"]))
        # The tuples of the running example (Figures 4 and 6) plus extra rows
        # so the rehash exchanges actually move data between the nodes.
        r.add("a", "b")
        r.add("c", "d")
        r.add("f", "a")
        r.add("b", "c")
        r.add("e", "e")
        s.add("b", "j")
        s.add("f", "k")
        s.add("d", "m")
        for i in range(40):
            r.add(f"x{i}", f"y{i}")
            s.add(f"y{i}", i)
        return r, s

    def example_query(self, r, s):
        join = LogicalJoin(LogicalScan(r.schema), LogicalScan(s.schema), [("y", "yy")])
        aggregate = LogicalAggregate(join, ["x"], [AggregateSpec("min_z", Min(), col("z"))])
        return LogicalQuery(aggregate, name="example_5_1")

    @pytest.mark.parametrize("num_nodes", [3, 4])
    def test_distributed_plan_matches_reference(self, num_nodes):
        r, s = self.make_relations()
        query = self.example_query(r, s)
        cluster = Cluster(num_nodes)
        cluster.publish_relations([r, s])
        result = cluster.query(query)
        expected = evaluate_query(query, {"R": r, "S": s})
        assert normalise(result.rows) == normalise(expected)
        # The example's own tuples: R(a,b) joins S(b,j), so x=a has MIN(z)='j'.
        by_x = dict(result.rows)
        assert by_x["a"] == "j"

    def test_sql_form_of_example(self):
        r, s = self.make_relations()
        cluster = Cluster(3)
        cluster.publish_relations([r, s])
        result = cluster.query("SELECT x, MIN(z) AS min_z FROM R, S WHERE y = yy GROUP BY x")
        expected = evaluate_query(self.example_query(r, s), {"R": r, "S": s})
        assert normalise(result.rows) == normalise(expected)

    def test_example_with_failure_during_execution(self):
        from repro.query.service import RECOVERY_INCREMENTAL, QueryOptions

        r, s = self.make_relations()
        query = self.example_query(r, s)
        cluster = Cluster(4)
        cluster.network.failure_detection_delay = 0.001
        cluster.publish_relations([r, s])
        cluster.enable_query_processing()
        cluster.fail_node(cluster.addresses[1], at_time=cluster.now + 0.0005)
        result = cluster.query(query, options=QueryOptions(recovery_mode=RECOVERY_INCREMENTAL))
        expected = evaluate_query(query, {"R": r, "S": s})
        assert normalise(result.rows) == normalise(expected)


class TestSharedStorageScales:
    def test_many_participants_one_epoch_each(self):
        orchestra = Orchestra(num_nodes=6)
        participants = []
        for index in range(4):
            schema = Schema(f"Obs{index}", ["o_id", "o_value"], key=["o_id"])
            participant = orchestra.add_participant(Participant(f"lab-{index}", [schema]))
            data = RelationData(schema)
            for i in range(50):
                data.add(f"lab{index}-{i:03d}", i * (index + 1))
            share_relations(participant, [data])
            participants.append((participant, schema))

        epoch = orchestra.publish_all()
        assert epoch >= len(participants)
        for index, (participant, schema) in enumerate(participants):
            stored = orchestra.cluster.retrieve(schema.name)
            assert len(stored.rows()) == 50
