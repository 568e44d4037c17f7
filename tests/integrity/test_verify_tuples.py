"""Batch verification of a tuple lookup against the per-tuple loop it replaced.

``StorageService.lookup_tuples`` verifies its whole request with one
``NodeIntegrity.verify_tuples`` call.  Its side effects must be those of the
per-tuple ``verify`` loop, in the same order: the same found and missing
lists, detection counters, ``quarantined`` set, ``detection_times``, deleted
store entries and ``integrity.detected`` trace spans — including a key
requested again after its copy failed, which must read as missing without a
second detection.
"""

import random

import pytest

from repro.bench.harness import run_corruption_experiment
from repro.cluster import Cluster
from repro.common.types import RelationData, Schema, VersionedTuple
from repro.integrity import IntegrityConfig

SCHEMA = Schema("items", ["k", "part", "v", "w"], key=["k", "part"], partition_key=["k"])
TUPLES = "tuples"


def per_tuple_lookup(service, relation, tuple_ids):
    """The loop ``lookup_tuples`` ran before batch verification (charges left out)."""
    tuple_ids = list(tuple_ids)
    keys = [(relation, tid.hash_key, tid) for tid in tuple_ids]
    values = service.store.get_many(TUPLES, keys)
    for index, value in enumerate(values):
        if value is None:
            continue
        key = keys[index]
        if service._verified(TUPLES, key, value, "tuple") is None:
            for later in range(index, len(keys)):
                if keys[later] == key:
                    values[later] = None
    found = [tup for tup in values if tup is not None]
    missing = [tid for tid, tup in zip(tuple_ids, values) if tup is None]
    return found, missing


def loaded_cluster():
    cluster = Cluster(4, replication_factor=2, integrity_config=IntegrityConfig())
    cluster.enable_tracing()
    data = RelationData(SCHEMA)
    for k in range(240):
        data.add(k, k % 5, f"value-{k}", k * 0.5)
    cluster.publish_relations([data])
    return cluster


def rot(service, tid):
    """Replace a stored version behind its recorded checksum."""
    key = ("items", tid.hash_key, tid)
    good = service.store.get(TUPLES, key)
    service.store.tree(TUPLES).put(
        key, VersionedTuple(good.relation, good.tuple_id, good.values[:-1] + (-1.0,), good.deleted)
    )


def outcome(cluster, lookup, choose_rotten, extra):
    """Run ``lookup`` on every node after rotting the chosen copies there."""
    per_node = []
    for address in sorted(cluster.nodes):
        service = cluster.nodes[address].storage
        tracer = cluster.network.tracer
        spans_before = len(tracer.spans)
        held = sorted(
            (tup.tuple_id for tup in service.all_local_tuples("items")),
            key=lambda tid: (tid.hash_key, tid.epoch),
        )
        rotten = choose_rotten(held)
        for tid in rotten:
            rot(service, tid)
        request = held + extra(held, rotten)
        found, missing = lookup(service, request)
        guard = service.integrity
        per_node.append((
            [tup.tuple_id for tup in found],
            missing,
            guard.stats.snapshot(),
            sorted(map(repr, guard.quarantined)),
            sorted((repr(key), at) for key, at in guard.detection_times.items()),
            sorted(repr(tid) for tid in held
                   if service.store.get(TUPLES, ("items", tid.hash_key, tid)) is None),
            [(span.name, span.attrs) for span in list(tracer.spans.values())[spans_before:]
             if span.name == "integrity.detected"],
        ))
        assert set(rotten) <= set(missing)
    return per_node


def batched(service, request):
    return service.lookup_tuples("items", request)


def per_tuple(service, request):
    return per_tuple_lookup(service, "items", request)


POSITIONS = {
    "first, middle and last": lambda held: [held[0], held[len(held) // 2], held[-1]],
    "every tuple": lambda held: list(held),
    "none": lambda held: [],
    "seeded sample": lambda held: random.Random(len(held)).sample(held, 9),
}


@pytest.mark.parametrize("where", sorted(POSITIONS))
def test_batch_verify_matches_the_per_tuple_loop(where):
    choose = POSITIONS[where]

    def repeats(held, rotten):
        # One rotten key asked for again after its first read failed, a
        # clean key repeated, and a rotten key repeated twice in a row.
        extra = held[:2]
        if rotten:
            extra = [rotten[0]] + extra + [rotten[-1], rotten[-1]]
        return extra

    got = outcome(loaded_cluster(), batched, choose, repeats)
    expected = outcome(loaded_cluster(), per_tuple, choose, repeats)
    assert got == expected


def test_every_tuple_of_a_page_corrupted_is_detected_for_every_tuple():
    cluster = loaded_cluster()
    for address in sorted(cluster.nodes):
        service = cluster.nodes[address].storage
        held = [tup.tuple_id for tup in service.all_local_tuples("items")]
        for tid in held:
            rot(service, tid)
        found, missing = service.lookup_tuples("items", held)
        assert found == [] and missing == held
        assert service.integrity.stats.detected == {"tuple": len(held)}
        assert service.integrity.stats.quarantined == len(held)
        assert service.tuple_count() == 0


def test_verify_tuples_with_reads_unverified_or_checksums_absent():
    cluster = loaded_cluster()
    service = cluster.nodes[sorted(cluster.nodes)[0]].storage
    held = [tup.tuple_id for tup in service.all_local_tuples("items")]
    keys = [("items", tid.hash_key, tid) for tid in held]
    rot(service, held[0])
    values = service.store.get_many(TUPLES, keys)
    guard = service.integrity
    guard.config = IntegrityConfig(verify_reads=False)
    assert guard.verify_tuples(service.store, TUPLES, keys, values, "tuple") == [True] * len(keys)
    guard.config = IntegrityConfig()
    # An entry with no recorded checksum (written before integrity was on)
    # and a key the store does not hold both count as intact.
    service.store._checksums.pop((TUPLES, keys[0]))
    intact = guard.verify_tuples(service.store, TUPLES, keys + [("items", 0, held[0])],
                                 values + [None], "tuple")
    assert intact == [True] * (len(keys) + 1)
    assert guard.stats.detected_total == 0


def test_corruption_experiment_still_detects_and_repairs_everything():
    result = run_corruption_experiment()
    assert result["injected"] == 12
    assert result["detected_total"] == 12
    assert result["repaired_total"] == 12
    assert result["corrupt_rows_served"] == 0
    assert result["failed"] == 0
    assert result["quarantine_leftover"] == 0
