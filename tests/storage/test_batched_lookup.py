"""The batched point lookup against the per-key one.

``BPlusTree.get_many`` exists so that a data node serving a page's worth of
tuple IDs descends the tree once per leaf, not once per ID.  Its contract is
``[tree.get(key, default) for key in keys]`` — for *any* key sequence, not
just the clustered ascending one it is fast on — and
``StorageService.lookup_tuples``, which is built on it, must return what the
tuple-at-a-time loop in ``reference_lookup.py`` returned: the same found
tuples and missing IDs in request order, the same CPU and disk-read charges,
and with the integrity layer on, the same detections and quarantines.
"""

import random

import pytest

from reference_lookup import reference_lookup_tuples

from repro.cluster import Cluster
from repro.common.types import RelationData, Schema, VersionedTuple
from repro.integrity import IntegrityConfig
from repro.storage.localstore import BPlusTree, LocalStore

ABSENT = object()


def random_tree(rng: random.Random, order: int, size: int) -> tuple[BPlusTree, list]:
    """A tree grown by shuffled inserts (and some deletes, which leave
    under-full and even empty leaves behind), plus the keys it holds."""
    tree = BPlusTree(order)
    keys = rng.sample(range(0, size * 4, 2), size)  # even keys: odd ones are absent
    for key in keys:
        tree.put(key, f"v{key}")
    for key in rng.sample(keys, size // 5):
        tree.delete(key)
    return tree, [key for key in keys if key in tree]


def assert_matches_get(tree: BPlusTree, keys: list) -> None:
    expected = [tree.get(key, ABSENT) for key in keys]
    assert tree.get_many(keys, ABSENT) == expected
    assert tree.get_many(iter(keys), ABSENT) == expected  # any iterable
    assert tree.get_many(keys) == [tree.get(key) for key in keys]


@pytest.mark.parametrize("order", [4, 8, 64])
@pytest.mark.parametrize("size", [0, 1, 3, 50, 1200])
def test_get_many_matches_get(order, size):
    rng = random.Random(order * 10_007 + size)
    tree, present = random_tree(rng, order, size)
    universe = list(range(-3, size * 4 + 3))
    assert_matches_get(tree, [])
    assert_matches_get(tree, sorted(present))                      # clustered hits
    assert_matches_get(tree, universe)                             # hits and misses, ascending
    assert_matches_get(tree, universe[::-1])                       # descending
    assert_matches_get(tree, rng.choices(universe, k=500))         # unsorted, with repeats
    assert_matches_get(tree, [k for k in present[:40] for _ in range(3)])  # duplicates
    assert_matches_get(tree, [k + 1 for k in sorted(present)])     # every key absent
    assert_matches_get(tree, [-10**9, 10**9] * 3)                  # off both ends


@pytest.mark.parametrize("order", [4, 64])
def test_get_many_on_composite_keys(order):
    """The tuple tree's keys: ``(relation, hash_key, tuple_id)``."""
    rng = random.Random(order)
    schema = Schema("R", ["x", "y", "v"], key=["x", "y"], partition_key=["x"])
    tids = [schema.tuple_id_for((rng.randrange(60), i, 0), rng.randrange(3)) for i in range(700)]
    tree = BPlusTree(order)
    for relation in ("R", "S"):
        for tid in tids[:500]:
            tree.put((relation, tid.hash_key, tid), (relation, tid))
    page = sorted(tids, key=lambda tid: (tid.hash_key, tid.epoch))  # how a page lists them
    for relation in ("R", "S", "T"):
        assert_matches_get(tree, [(relation, tid.hash_key, tid) for tid in page])
        assert_matches_get(tree, [(relation, tid.hash_key, tid) for tid in tids])


def test_get_many_sees_writes_between_calls():
    tree = BPlusTree(order=4)
    for key in range(0, 100, 2):
        tree.put(key, key)
    assert tree.get_many([10, 11, 12]) == [10, None, 12]
    tree.put(11, "new")
    tree.delete(12)
    assert tree.get_many([10, 11, 12]) == [10, "new", None]


def test_local_store_get_many():
    store = LocalStore(order=4)
    assert store.get_many("empty", [1, 2], "d") == ["d", "d"]
    for key in range(30):
        store.put("t", key, key * key, size=8)
    assert store.get_many("t", [29, 3, 99, 3]) == [841, 9, None, 9]


# ---------------------------------------------------------------------------
# StorageService.lookup_tuples against the tuple-at-a-time reference
# ---------------------------------------------------------------------------

SCHEMA = Schema("items", ["k", "part", "v"], key=["k", "part"], partition_key=["k"])


def loaded_cluster(**options) -> Cluster:
    cluster = Cluster(4, replication_factor=2, **options)
    data = RelationData(SCHEMA)
    for k in range(300):
        data.add(k, k % 7, f"value-{k}")
    cluster.publish_relations([data])
    return cluster


class Charges:
    """Capture what a lookup charges the node instead of advancing its clock."""

    def __init__(self, node) -> None:
        self.cpu: list[float] = []
        self.disk: list[int] = []
        node.charge_cpu = self.cpu.append
        node.charge_disk_read = self.disk.append


def request_shapes(rng: random.Random, held: list, absent: list) -> list[list]:
    page_order = sorted(held, key=lambda tid: (tid.hash_key, tid.epoch))
    return [
        [],
        page_order,                                   # the common case: all found
        page_order[::-1],
        absent,                                       # all missing
        rng.sample(held + absent, len(held)),         # mixed, unsorted
        rng.choices(held + absent, k=150),            # with repeats
        [tid for tid in held[:20] for _ in range(2)],
    ]


@pytest.mark.parametrize("seed", range(3))
def test_lookup_tuples_matches_reference(seed):
    rng = random.Random(seed)
    cluster = loaded_cluster()
    for cluster_node in cluster.nodes.values():
        service = cluster_node.storage
        held = [tup.tuple_id for tup in service.all_local_tuples("items")]
        assert held
        absent = [tid.with_epoch(tid.epoch + 5) for tid in held[:40]]
        charges = Charges(service.node)
        for request in request_shapes(rng, held, absent):
            expected = reference_lookup_tuples(service, "items", list(request))
            expected_charges = (charges.cpu[:], charges.disk[:])
            charges.cpu.clear(), charges.disk.clear()
            got = service.lookup_tuples("items", iter(request))
            assert got == expected
            assert all(a is b for a, b in zip(got[0], expected[0]))
            assert (charges.cpu, charges.disk) == expected_charges
            charges.cpu.clear(), charges.disk.clear()
        # Another relation's name finds nothing, like the reference.
        assert service.lookup_tuples("other", held[:5]) == ([], held[:5])


def test_lookup_tuples_with_integrity_matches_reference():
    """Same detections, quarantines and results when stored copies rot —
    including an ID requested twice after its first read quarantined it."""
    outcomes = []
    for lookup in (
        lambda service, ids: service.lookup_tuples("items", ids),
        lambda service, ids: reference_lookup_tuples(service, "items", ids),
    ):
        cluster = loaded_cluster(integrity_config=IntegrityConfig())
        rng = random.Random(17)
        per_node = []
        for address in sorted(cluster.nodes):
            service = cluster.nodes[address].storage
            held = sorted(
                (tup.tuple_id for tup in service.all_local_tuples("items")),
                key=lambda tid: (tid.hash_key, tid.epoch),
            )
            rotten = rng.sample(held, 6)
            for tid in rotten:
                key = ("items", tid.hash_key, tid)
                good = service.store.get("tuples", key)
                # Rot the bytes behind the recorded checksum.
                service.store.tree("tuples").put(
                    key, VersionedTuple(good.relation, good.tuple_id, good.values[:-1] + ("rot",))
                )
            request = held + rotten[:3] + held[:10]
            found, missing = lookup(service, request)
            again = lookup(service, request)
            per_node.append((
                [t.tuple_id for t in found], missing,
                [t.tuple_id for t in again[0]], again[1],
                service.integrity.stats.snapshot(),
                sorted(map(repr, service.integrity.quarantined)),
                service.tuple_count(),
            ))
            assert set(rotten) <= set(missing)
        outcomes.append(per_node)
    assert outcomes[0] == outcomes[1]
