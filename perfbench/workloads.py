"""The six referee workloads.

Each workload owns its inputs: data and the operation sequence are generated
here from the seed, the program under test only ever sees the generated
relations, batches, queries and predicates, and is driven through its public
entry points (``Cluster``, ``Session``, ``ClosedLoopDriver``,
``Orchestra``/``Participant``).  A workload also keeps a plain-Python *model*
of the user data it published, which the correctness oracle and the
``stored_bytes_per_user_byte`` metric read.

All workloads are closed-loop and produce their operations in *cycles*: one
cycle issues every operation shape of the workload once, so any prefix of
whole cycles has the same mix and medians do not depend on where a
time-limited run happened to stop.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.cache import CacheConfig
from repro.cdss import Orchestra, Participant, SchemaMapping, share_relations
from repro.cluster import Cluster
from repro.common.serialization import encode_values
from repro.common.types import RelationData, Row, Schema
from repro.integrity import IntegrityConfig
from repro.query.expressions import col
from repro.query.reference import evaluate_query, normalise
from repro.query.service import QueryOptions
from repro.resilience import ResilienceConfig
from repro.runtime import ClosedLoopDriver
from repro.storage.client import UpdateBatch
from repro.workloads import tpch

#: TPC-H scale factor of every TPC-H workload (6,000 lineitem rows at the
#: generator's 1/2000 scaling) — the size ``BENCH_scale.json`` also uses.
SCALE_FACTOR = 2.0


@dataclass
class OpRecord:
    """What the harness keeps of one executed operation."""

    label: str
    wall_ns: int
    virt_s: float
    #: ``None`` until the oracle ran; an op that raised is recorded as False.
    ok: bool | None = None
    error: str | None = None
    #: Deferred oracle (runs outside the timed section).
    check: Callable[[], bool] | None = None
    #: Shape-specific facts the per-layer table reads (pages scanned, ...).
    facts: dict | None = None
    #: Virtual seconds the scheduler held the op before admitting it.
    queue_s: float = 0.0


def _fold(model: dict, schema: Schema, batch: UpdateBatch) -> None:
    """Apply ``batch`` to a ``{key: row}`` model of one relation."""
    for row in batch.inserts:
        model[schema.key_of(row)] = tuple(row)
    for row in batch.modifications:
        model[schema.key_of(row)] = tuple(row)
    for key in batch.deletes:
        model.pop(tuple(key), None)


def _keyed(data: RelationData) -> dict:
    return {data.schema.key_of(row): tuple(row) for row in data.rows}


class Workload:
    """Base class: set-up, cycle generation, oracle and model accounting."""

    name = ""
    why = ""
    #: Concurrent closed-loop clients (1 = strictly serial operations).
    clients = 1
    #: True only for the workload that switches the four opt-in layers on.
    layers_on = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed * 7919 + 17)
        self.cluster: Cluster | None = None
        #: relation name -> {key: row}: the live user data, maintained here.
        self.model: dict[str, dict] = {}
        self.schemas: dict[str, Schema] = {}
        self._op_counter = 0

    # -- protocol -----------------------------------------------------------------

    def setup(self) -> None:
        """Generate data, build the cluster, publish, run one warm-up cycle."""
        raise NotImplementedError

    def run_cycle(self, cycle: int, records: list[OpRecord]) -> None:
        """Execute one cycle, appending one :class:`OpRecord` per operation."""
        raise NotImplementedError

    def final_check(self) -> list[str]:
        """End-of-run oracle over the final state; returns mismatch messages."""
        return []

    # -- shared helpers -------------------------------------------------------------

    def _load_tpch(self, num_nodes: int, **cluster_options) -> None:
        instance = tpch.generate(SCALE_FACTOR, self.seed)
        self.cluster = Cluster(num_nodes, **cluster_options)
        self.cluster.publish_relations(instance.relation_list())
        self.cluster.enable_query_processing()
        self.instance = instance
        for name, data in instance.relations.items():
            self.schemas[name] = data.schema
            self.model[name] = _keyed(data)

    def _initiator(self) -> str:
        """Rotate the initiating node so no single node's state stays hot."""
        addresses = self.cluster.addresses
        self._op_counter += 1
        return addresses[self._op_counter % len(addresses)]

    def _timed(self, label: str, submit: Callable[[], object],
               check: Callable[[object], bool] | None,
               facts: Callable[[object], dict] | None = None) -> OpRecord:
        """Run one serial operation: submit, drive the loop, take the result."""
        cluster = self.cluster
        started = time.perf_counter_ns()
        try:
            future = submit()
            cluster.run()
            result = future.result()
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            wall = time.perf_counter_ns() - started
            return OpRecord(label, wall, 0.0, ok=False, error=repr(exc))
        wall = time.perf_counter_ns() - started
        record = OpRecord(label, wall, future.completed_at - future.submitted_at,
                          queue_s=future.queue_delay or 0.0)
        if check is not None:
            record.check = lambda: check(result)
        if facts is not None:
            record.facts = facts(result)
        return record

    def model_data(self, relation: str) -> RelationData:
        return RelationData(self.schemas[relation], list(self.model[relation].values()))

    def user_bytes(self) -> int:
        """Canonical encoded size of the live user tuples."""
        return sum(
            len(encode_values(row))
            for rows in self.model.values()
            for row in rows.values()
        )

    def stored_bytes(self) -> int:
        cluster = self.cluster
        return sum(cluster.storage(a).store.bytes_stored for a in cluster.addresses)

    # -- batch generation -----------------------------------------------------------

    def _make_batch(self, relation: str, share: int = 1) -> UpdateBatch:
        """A batch of ``1/share`` the relation's edit counts; folds it into
        the model."""
        mutate, fresh, counts = _EDITS[relation]
        modifies, inserts, deletes = (count // share for count in counts)
        schema = self.schemas[relation]
        model = self.model[relation]
        rng = self.rng
        chosen = rng.sample(sorted(model), modifies + deletes)
        batch = UpdateBatch(schema)
        for key in chosen[:modifies]:
            batch.modifications.append(mutate(model[key], rng))
        for key in chosen[modifies:]:
            batch.deletes.append(key)
        template = model[chosen[0]]
        for _ in range(inserts):
            self._fresh_key += 1
            batch.inserts.append(fresh(template, self._fresh_key))
        _fold(model, schema, batch)
        return batch


# ---------------------------------------------------------------------------
# TPC-H row edits (the columns the measured queries aggregate over)
# ---------------------------------------------------------------------------


def _mutate_lineitem(row: tuple, rng: random.Random) -> tuple:
    values = list(row)
    values[4] = rng.randint(1, 50)                                  # l_quantity
    values[5] = round(values[4] * rng.uniform(900.0, 2000.0), 2)    # l_extendedprice
    return tuple(values)


def _fresh_lineitem(template: tuple, fresh_key: int) -> tuple:
    return (fresh_key, 1) + tuple(template[2:])


def _mutate_orders(row: tuple, rng: random.Random) -> tuple:
    values = list(row)
    values[3] = round(rng.uniform(800.0, 500_000.0), 2)             # o_totalprice
    values[4] = rng.randint(1992, 1998) * 10_000 + rng.randint(1, 12) * 100 + rng.randint(1, 28)
    return tuple(values)


def _fresh_orders(template: tuple, fresh_key: int) -> tuple:
    return (fresh_key,) + tuple(template[1:])


def _mutate_customer(row: tuple, rng: random.Random) -> tuple:
    values = list(row)
    values[5] = round(rng.uniform(-999.99, 9999.99), 2)             # c_acctbal
    return tuple(values)


#: relation -> (row mutator, fresh-row builder, (modifies, inserts, deletes)
#: per batch).  Inserts equal deletes, so relation sizes stay stationary.
_EDITS = {
    "lineitem": (_mutate_lineitem, _fresh_lineitem, (160, 20, 20)),
    "orders": (_mutate_orders, _fresh_orders, (160, 20, 20)),
    "customer": (_mutate_customer, _fresh_orders, (40, 5, 5)),
}


# ---------------------------------------------------------------------------
# 1. publish_ingest
# ---------------------------------------------------------------------------


class PublishIngest(Workload):
    name = "publish_ingest"
    why = ("Storage write path alone: page versioning, tuple-id hashing, encoding and "
           "replication fan-out with the query engine idle; versions pile up, so space "
           "amplification shows.")

    #: Relations the publisher rotates over: three batch shapes, so the
    #: median sits inside the middle one.  (``partsupp`` is left out: the
    #: generator emits duplicate keys for it, which would make the fold
    #: oracle ambiguous.)
    RELATIONS = ("lineitem", "orders", "customer")

    def setup(self) -> None:
        self._load_tpch(8)
        self._fresh_key = 10_000_000
        self.run_cycle(-1, [])

    def run_cycle(self, cycle: int, records: list[OpRecord]) -> None:
        for relation in self.RELATIONS:
            batch = self._make_batch(relation)
            session = self.cluster.session(self._initiator())
            records.append(self._timed(
                f"publish:{relation}",
                lambda: session.submit_publish(batch),
                check=None,
                facts=lambda _epoch: {"publish": 1},
            ))

    def final_check(self) -> list[str]:
        problems = []
        for relation in self.RELATIONS:
            got = sorted(self.cluster.retrieve(relation).rows())
            want = sorted(self.model[relation].values())
            if got != want:
                problems.append(
                    f"{relation}: stored state differs from the fold of the batches "
                    f"({len(got)} rows stored, {len(want)} expected)"
                )
        return problems


# ---------------------------------------------------------------------------
# 2. retrieve_scan
# ---------------------------------------------------------------------------


class RetrieveScan(Workload):
    name = "retrieve_scan"
    why = ("Storage read path alone (Algorithm 1: coordinator, index nodes, data nodes, "
           "decode) with caches off; the same layer as publish_ingest used the other "
           "way, so a write-side win that costs reads shows.")

    def setup(self) -> None:
        self._load_tpch(8)
        price = sorted(row[3] for row in self.model["orders"].values())
        self._price_cut = price[len(price) * 3 // 4]
        self._expected: dict[str, list] = {}
        self.run_cycle(-1, [])

    def _shapes(self):
        cut = self._price_cut
        orders_schema = self.schemas["orders"]
        predicate = col("o_totalprice").gt(cut)
        customer_columns = ("c_custkey", "c_name", "c_acctbal")
        customer_positions = [self.schemas["customer"].index_of(c) for c in customer_columns]
        return [
            ("retrieve:lineitem", {}, lambda: list(self.model["lineitem"].values())),
            ("retrieve:orders+predicate", {"predicate": predicate},
             lambda: [row for row in self.model["orders"].values()
                      if predicate.evaluate(Row(orders_schema.attributes, row))]),
            ("retrieve:customer+projection", {"columns": customer_columns},
             lambda: [tuple(row[i] for i in customer_positions)
                      for row in self.model["customer"].values()]),
        ]

    def run_cycle(self, cycle: int, records: list[OpRecord]) -> None:
        for label, options, expected in self._shapes():
            relation = label.split(":")[1].split("+")[0]
            if label not in self._expected:
                self._expected[label] = sorted(expected())
            want = self._expected[label]
            session = self.cluster.session(self._initiator())
            records.append(self._timed(
                label,
                lambda: session.submit_retrieve(relation, **options),
                check=lambda result, want=want: sorted(result.rows()) == want,
                facts=lambda result: {"retrieve": 1, "pages_read": result.pages_scanned},
            ))


# ---------------------------------------------------------------------------
# 3./4. tpch_query and tpch_query_100n
# ---------------------------------------------------------------------------


def _query_facts(result) -> dict:
    """What the per-layer table reads off a ``QueryResult``."""
    stats = result.statistics
    return {
        "query": 1,
        "rows_returned": len(result.rows),
        "data_bytes": stats.data_bytes,
        "pages_total": stats.scan_pages_total,
        "pages_pruned": stats.scan_pages_pruned,
        "result_cache_hit": int(stats.result_cache_hit),
    }


class TpchQuery(Workload):
    name = "tpch_query"
    why = ("Query path where row work dominates event work: optimizer, plan "
           "dissemination, scans, operators, exchanges and codecs on 8 nodes with the "
           "result cache bypassed.")
    NODES = 8
    QUERIES = ("Q1", "Q3", "Q5", "Q6", "Q10")

    def setup(self) -> None:
        self._load_tpch(self.NODES)
        self._options = QueryOptions(use_result_cache=False)
        self._reference: dict[str, list] = {}
        self.run_cycle(-1, [])

    def run_cycle(self, cycle: int, records: list[OpRecord]) -> None:
        for name in self.QUERIES:
            if name not in self._reference:
                self._reference[name] = normalise(
                    evaluate_query(tpch.query(name), self.instance.relations)
                )
            want = self._reference[name]
            query = tpch.query(name)
            session = self.cluster.session(self._initiator())
            records.append(self._timed(
                name,
                lambda: session.submit_query(query, options=self._options),
                check=lambda result, want=want: normalise(result.rows) == want,
                facts=_query_facts,
            ))


class TpchQuery100n(TpchQuery):
    name = "tpch_query_100n"
    why = ("Same data and queries on 100 nodes: simnet scheduling, routing and "
           "EOS/scan_done fan-out dominate (about 4x the events per op), so a per-event "
           "saving shows here and barely in tpch_query.")
    NODES = 100
    QUERIES = ("Q1", "Q3", "Q6")


# ---------------------------------------------------------------------------
# 5. cdss_exchange
# ---------------------------------------------------------------------------

_A = Schema("SiteA", ["a_id", "a_name", "a_group", "a_score"], key=["a_id"])
_B = Schema("SiteB", ["b_id", "b_ref", "b_kind", "b_amount"], key=["b_id"])
_C1 = Schema("CopyA", ["c1_id", "c1_name", "c1_score"], key=["c1_id"])
_C2 = Schema("JoinAB", ["c2_id", "c2_name", "c2_kind", "c2_amount"], key=["c2_id"])


class CdssExchange(Workload):
    name = "cdss_exchange"
    why = ("The paper's own workload and the only coverage of repro.cdss: two "
           "participants edit and publish update logs, a third imports through a "
           "projection and a two-source join mapping and reconciles.")
    ROWS = 2000
    CHANGES = 50

    def setup(self) -> None:
        rng = self.rng
        self.orchestra = Orchestra(8)
        self.cluster = self.orchestra.cluster
        self.site_a = self.orchestra.add_participant(Participant("A", [_A]))
        self.site_b = self.orchestra.add_participant(Participant("B", [_B]))
        mappings = [
            SchemaMapping("copy_a", _C1, [_A], outputs=[
                ("c1_id", col("a_id")), ("c1_name", col("a_name")), ("c1_score", col("a_score")),
            ]),
            SchemaMapping("join_ab", _C2, [_B, _A], join=[("b_ref", "a_id")], outputs=[
                ("c2_id", col("b_id")), ("c2_name", col("a_name")),
                ("c2_kind", col("b_kind")), ("c2_amount", col("b_amount")),
            ]),
        ]
        self.mappings = mappings
        # Imported values outrank the importer's replica, so every cycle's
        # delta is exactly the rows the publishers changed (stationary cost).
        self.site_c = self.orchestra.add_participant(
            Participant("C", [_C1, _C2], mappings=mappings, trust={"import": 10, "C": 1})
        )
        a_data = RelationData(_A)
        for key in range(self.ROWS):
            a_data.add(key, f"name-{rng.randrange(10**6)}", key % 40, round(rng.uniform(0, 100), 3))
        b_data = RelationData(_B)
        for key in range(self.ROWS):
            b_data.add(key, rng.randrange(self.ROWS), rng.choice("uvwxyz"), rng.randint(1, 10**5))
        share_relations(self.site_a, [a_data])
        share_relations(self.site_b, [b_data])
        self.schemas = {"SiteA": _A, "SiteB": _B}
        self.model = {"SiteA": _keyed(a_data), "SiteB": _keyed(b_data)}
        self.site_a.publish()
        self.site_b.publish()
        self.site_c.import_updates()
        self.run_cycle(-1, [])

    def _edits(self, relation: str, mutate) -> list[tuple]:
        """The rows one participant changes this cycle (folded into the model)."""
        model = self.model[relation]
        rows = [mutate(model[key]) for key in self.rng.sample(sorted(model), self.CHANGES)]
        for row in rows:
            model[row[:1]] = row
        return rows

    def _timed_call(self, label: str, call: Callable[[], object], facts) -> OpRecord:
        cluster = self.cluster
        virtual = cluster.now
        started = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            wall = time.perf_counter_ns() - started
            return OpRecord(label, wall, 0.0, ok=False, error=repr(exc))
        wall = time.perf_counter_ns() - started
        return OpRecord(label, wall, cluster.now - virtual, facts=facts(result))

    def run_cycle(self, cycle: int, records: list[OpRecord]) -> None:
        """Edit and publish at A, edit and publish at B, import at C.

        The local edits are operations of their own: they are what a CDSS
        user does between publishes, and ``Participant.modify`` rewrites the
        replica per call, so they are not free.
        """
        rng = self.rng
        edits = (
            (self.site_a, "SiteA", lambda row: (
                row[0], f"name-{rng.randrange(10**6)}", row[2], round(rng.uniform(0, 100), 3))),
            (self.site_b, "SiteB", lambda row: (
                row[0], row[1], row[2], rng.randint(1, 10**5))),
        )
        for participant, relation, mutate in edits:
            rows = self._edits(relation, mutate)

            def edit(participant=participant, relation=relation, rows=rows) -> None:
                for row in rows:
                    participant.modify(relation, *row)

            records.append(self._timed_call(
                f"cdss.edit:{participant.name}", edit, lambda _none: {"edit": 1}))
            records.append(self._timed_call(
                f"cdss.publish:{participant.name}", participant.publish,
                lambda _epoch: {"publish": 1}))
        records.append(self._timed_call(
            "cdss.import:C", self.site_c.import_updates,
            lambda report: {"import": 1, "changes": report.total_changes()}))

    def final_check(self) -> list[str]:
        """C's replica must equal the mappings applied to the final A and B
        in one process, imported values winning every conflict."""
        relations = {name: self.model_data(name) for name in self.model}
        problems = []
        for mapping in self.mappings:
            want = {mapping.target.key_of(row): tuple(row)
                    for row in evaluate_query(mapping.to_query(), relations)}
            got = _keyed(self.site_c.local_database[mapping.target.name])
            if got != want:
                problems.append(
                    f"{mapping.target.name}: importer replica differs from the "
                    f"single-process mapping result ({len(got)} vs {len(want)} rows)"
                )
        return problems


# ---------------------------------------------------------------------------
# 6. mixed_layers_on
# ---------------------------------------------------------------------------


class MixedLayersOn(Workload):
    name = "mixed_layers_on"
    why = ("The only run where cache, resilience, integrity, tracing, the scheduler and "
           "4 concurrent clients do work; publishes beside cached reads exercise "
           "invalidation, so a cache win that slows writes shows.")
    clients = 4
    layers_on = True
    OPS_PER_CLIENT = 5
    #: Per-client op kinds of one round: 10 queries, 6 retrieves, 4 publishes.
    #: Q1, Q6 and the customer retrieve read relations nobody publishes to
    #: and are answered from the caches; the other 15 ops depend on
    #: ``orders``, which every publish invalidates.  Cached ops are a quarter
    #: of the mix, so the median sits well inside the uncached group instead
    #: of on the boundary between the two.
    PATTERN = (
        ("Q3", "retrieve:orders+predicate", "publish:orders", "Q1", "Q10"),
        ("Q10", "Q6", "retrieve:orders+predicate", "Q3", "publish:orders"),
        ("retrieve:orders+predicate", "Q3", "Q6", "publish:orders", "retrieve:customer"),
        ("Q1", "publish:orders", "retrieve:orders+predicate", "Q10", "retrieve:orders+predicate"),
    )

    def setup(self) -> None:
        self._load_tpch(
            8,
            cache_config=CacheConfig(),
            resilience_config=ResilienceConfig(),
            integrity_config=IntegrityConfig(),
        )
        self.cluster.enable_tracing()
        self._fresh_key = 20_000_000
        price = sorted(row[3] for row in self.model["orders"].values())
        self._predicate = col("o_totalprice").gt(price[len(price) // 2])
        #: (epoch, batch) of every acknowledged publish, in epoch order.
        self._published: list[tuple[int, UpdateBatch]] = []
        #: Reads pinned to an epoch, verified after the run against the fold.
        self._pinned: list[tuple[int, str, object, OpRecord]] = []
        self._orders_at_start = dict(self.model["orders"])
        self.run_cycle(-1, [])

    def _submit_op(self, records: list[OpRecord], session, client: int, op_index: int):
        """The closed-loop driver's op factory: submit one op of the pattern."""
        cluster = self.cluster
        label = self.PATTERN[client][op_index]
        epoch = cluster.durable_epoch
        started = time.perf_counter_ns()
        if label.startswith("Q"):
            future = session.submit_query(tpch.query(label), epoch=epoch)
        elif label == "retrieve:customer":
            future = session.submit_retrieve("customer", epoch=epoch)
        elif label == "retrieve:orders+predicate":
            future = session.submit_retrieve("orders", epoch=epoch, predicate=self._predicate)
        else:
            # Publishes to one relation are chained in submission order, the
            # order the model folds them in, so concurrently staged batches
            # stay consistent with the store.
            batch = self._make_batch("orders", share=self.clients)
            future = session.submit_publish(batch)
            future.add_done_callback(
                lambda fut: fut.succeeded() and self._published.append((fut.result(), batch))
            )
        record = OpRecord(label, 0, 0.0)
        records.append(record)

        def resolved(fut) -> None:
            record.wall_ns = time.perf_counter_ns() - started
            if not fut.succeeded():
                record.ok, record.error = False, repr(fut.exception() or fut.state)
                return
            record.virt_s = fut.completed_at - fut.submitted_at
            record.queue_s = fut.queue_delay or 0.0
            result = fut.result()
            if label.startswith("publish"):
                record.facts = {"publish": 1}
            elif label.startswith("retrieve"):
                record.facts = {"retrieve": 1, "pages_read": result.pages_scanned}
                self._pinned.append((epoch, label, sorted(result.rows()), record))
            else:
                record.facts = _query_facts(result)
                self._pinned.append((epoch, label, normalise(result.rows), record))

        future.add_done_callback(resolved)
        return future

    def run_cycle(self, cycle: int, records: list[OpRecord]) -> None:
        """One closed-loop round: every client works through its pattern."""
        cluster = self.cluster
        driver = ClosedLoopDriver(
            cluster.runtime, self.clients,
            lambda session, client, op_index: self._submit_op(records, session, client, op_index),
            self.OPS_PER_CLIENT,
            initiators=cluster.addresses[: self.clients],
        )
        driver.run()

    def final_check(self) -> list[str]:
        """Every pinned read against the reference over the fold at its epoch."""
        orders = dict(self._orders_at_start)
        schema = self.schemas["orders"]
        published = sorted(self._published, key=lambda item: item[0])
        relations = dict(self.instance.relations)
        cache: dict[tuple[int, str], object] = {}
        applied = 0
        customer = sorted(self.model["customer"].values())
        for epoch, label, got, record in sorted(self._pinned, key=lambda item: item[0]):
            while applied < len(published) and published[applied][0] <= epoch:
                _fold(orders, schema, published[applied][1])
                applied += 1
                relations["orders"] = RelationData(schema, list(orders.values()))
            version = (applied, label)
            if version not in cache:
                if label == "retrieve:customer":
                    cache[version] = customer
                elif label.startswith("retrieve"):
                    cache[version] = sorted(
                        row for row in orders.values()
                        if self._predicate.evaluate(Row(schema.attributes, row))
                    )
                else:
                    cache[version] = normalise(evaluate_query(tpch.query(label), relations))
            record.ok = got == cache[version]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PublishIngest, RetrieveScan, TpchQuery, TpchQuery100n, CdssExchange, MixedLayersOn)
}
