"""Query teardown: a finished query's state dies by reference counting.

A participant's per-query state is a ring of references — context →
fragment → operators → context — with the join tables, exchange caches and
emitted-ID sets hanging off it.  Left intact, every finished query leaves
that ring to the cycle collector: ~19,000 objects per TPC-H Q3 on 8 nodes,
and generation-2 passes that cost a fifth of a query-heavy run.
``QueryService._teardown_context`` cuts the ring, so this file pins two
things: a query leaves (almost) no cyclic garbage behind, and whatever still
holds a piece of a torn-down query — a replica-chase reply in flight, a timer
— finds an inert object rather than a dangling one.
"""

import gc

import pytest

from repro.cluster import Cluster
from repro.common.types import RelationData, Schema
from repro.query.logical import LogicalQuery, LogicalScan
from repro.query.reference import evaluate_query, normalise
from repro.query.service import RECOVERY_INCREMENTAL, QueryOptions
from repro.workloads import tpch

#: HEAD before the teardown change left 18,801 unreachable objects per Q3;
#: what remains now is a few hundred (self-referential retry closures in the
#: storage client's epoch/coordinator resolution, plan-walk helpers).
GARBAGE_BUDGET = 2_000


@pytest.fixture(scope="module")
def tpch_instance():
    return tpch.generate(2.0, seed=0)


def garbage_of(run) -> int:
    """Unreachable objects ``run()`` leaves behind, collector off meanwhile."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_a_finished_query_leaves_no_cyclic_garbage(tpch_instance):
    cluster = Cluster(8)
    cluster.publish_relations(tpch_instance.relation_list())
    cluster.enable_query_processing()
    query = tpch.query("Q3")
    options = QueryOptions(use_result_cache=False)
    expected = normalise(evaluate_query(query, tpch_instance.relations))
    results = []
    results.append(cluster.query(query, options=options))  # warm-up: caches, lazy imports
    unreachable = garbage_of(lambda: results.append(cluster.query(query, options=options)))
    assert all(normalise(result.rows) == expected for result in results)
    assert unreachable <= GARBAGE_BUDGET, unreachable
    # Every participant dropped its context, and nothing else holds one.
    assert all(not service._contexts for service in cluster._query_services.values())


def test_a_query_recovered_from_a_mid_query_failure_leaves_none_either(tpch_instance):
    query = tpch.query("Q3")
    options = QueryOptions(use_result_cache=False, recovery_mode=RECOVERY_INCREMENTAL)
    expected = normalise(evaluate_query(query, tpch_instance.relations))
    cluster = Cluster(8)
    cluster.publish_relations(tpch_instance.relation_list())
    cluster.enable_query_processing()
    cluster.query(query, options=options)  # warm-up
    results = []

    def run() -> None:
        cluster.fail_node(cluster.addresses[3], at_time=cluster.now + 0.002)
        results.append(cluster.query(query, options=options))

    unreachable = garbage_of(run)
    (result,) = results
    assert result.statistics.failures_handled == 1 and result.statistics.phases == 2
    assert normalise(result.rows) == expected
    assert unreachable <= GARBAGE_BUDGET, unreachable


# ---------------------------------------------------------------------------
# Late callbacks
# ---------------------------------------------------------------------------

ITEMS = Schema("items", ["k", "v"], key=["k"])


def items_cluster() -> tuple[Cluster, RelationData]:
    data = RelationData(ITEMS)
    for k in range(240):
        data.add(f"k{k}", k)
    cluster = Cluster(4)
    cluster.publish_relations([data])
    cluster.enable_query_processing()
    return cluster, data


def run_until(cluster: Cluster, condition, step: float = 2e-5, limit: float = 1.0) -> None:
    deadline = cluster.now + limit
    while not condition():
        assert cluster.now < deadline, "condition never became true"
        cluster.network.run(until=cluster.now + step)


def test_replica_chase_reply_after_teardown_is_a_no_op():
    """A data node asked for a tuple version it lacks chases it across the
    replicas; if the query is torn down before the reply lands, the reply
    must back-fill the store and otherwise go nowhere."""
    cluster, _data = items_cluster()
    victim = cluster.addresses[1]
    storage = cluster.nodes[victim].storage
    service = cluster._query_services[victim]
    lost = storage.all_local_tuples("items")[0]
    lost_key = ("items", lost.hash_key, lost.tuple_id)
    assert storage.store.delete("tuples", lost_key)

    future = cluster.session(cluster.addresses[0]).submit_query(
        LogicalQuery(LogicalScan(ITEMS), name="copy"),
        options=QueryOptions(use_result_cache=False),
    )
    run_until(cluster, lambda: any(c._scan_fetches for c in service._contexts.values()))
    (query_id, context), = service._contexts.items()
    (scan_op_id, source), = context.fragment.scan_sources.items()
    produced = source.rows_produced

    service._teardown_context(query_id)  # as if the initiator's abort arrived now
    sends = []
    service.send_data = lambda *args, **kwargs: sends.append(args)
    service.send_eos = lambda *args, **kwargs: sends.append(args)
    assert not context.fragment.operators and not context.fragment.scan_sources
    assert source.parent is None and source.context is None

    cluster.network.run()  # the chase reply arrives, finds the query gone
    assert storage.store.get("tuples", lost_key) == lost  # still back-filled
    assert source.rows_produced == produced
    assert not context._scan_fetches
    assert sends == []  # nothing shipped on behalf of the dead query
    assert not future.done()  # this node's share never arrived, by construction


def test_a_timer_firing_after_teardown_finds_inert_objects():
    cluster, _data = items_cluster()
    address = cluster.addresses[2]
    storage = cluster.nodes[address].storage
    service = cluster._query_services[address]
    cluster.session(cluster.addresses[0]).submit_query(
        LogicalQuery(LogicalScan(ITEMS), name="copy"),
        options=QueryOptions(use_result_cache=False),
    )
    run_until(cluster, lambda: bool(service._contexts))
    (query_id, context), = service._contexts.items()
    (scan_op_id, source), = context.fragment.scan_sources.items()
    tuples = storage.all_local_tuples("items")
    fired = []

    def late() -> None:
        # Everything a straggler could still do with what its closure holds:
        # the context and the scan source (the service's chase callbacks
        # capture nothing else of the fragment).
        source.deliver_tuples(tuples)
        source.deliver_key_rows([t.tuple_id for t in tuples])
        context.begin_scan_fetch(scan_op_id)
        context.end_scan_fetch(scan_op_id)
        context.scan_done_received(scan_op_id, address)
        source.complete()
        fired.append(cluster.now)

    cluster.network.schedule(0.5, late)
    service._teardown_context(query_id)
    emitted = set(source._emitted_ids)
    produced = source.rows_produced
    cluster.network.run()
    assert fired
    assert source._emitted_ids == emitted and source.rows_produced == produced
    assert not service._contexts


def test_crash_reset_releases_contexts():
    cluster, _data = items_cluster()
    address = cluster.addresses[2]
    service = cluster._query_services[address]
    cluster.session(cluster.addresses[0]).submit_query(
        LogicalQuery(LogicalScan(ITEMS), name="copy"),
        options=QueryOptions(use_result_cache=False),
    )
    run_until(cluster, lambda: bool(service._contexts))
    (context,) = service._contexts.values()
    operators = list(context.fragment.operators.values())
    service.reset_volatile()
    assert not service._contexts and not context.fragment.operators
    assert all(op.context is None and op.parent is None for op in operators)
