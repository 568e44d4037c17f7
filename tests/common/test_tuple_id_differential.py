"""Differential test: the tuple-subclass ``TupleId`` against the dataclass.

Tuple IDs are B+-tree keys, set members and dict keys on every path of the
system, so their order, equality and *hash value* are behaviour: the hash
decides set iteration order, and set iteration order decides message order.
``reference_tuple_id.py`` keeps the dataclass verbatim; over 10,000 seeded
IDs (single and composite keys, mixed-type keys, ``None``, every partition
width) the two must agree on everything observable.
"""

import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from reference_tuple_id import ReferenceTupleId

from repro.common.types import TupleId


def seeded_arguments(seed: int, count: int) -> list[tuple]:
    """``(key_values, epoch, partition_width)`` triples, duplicates included."""
    rng = random.Random(seed)

    def value(kind: int):
        if kind == 0:
            return rng.randrange(-50, 50)
        if kind == 1:
            return f"k{rng.randrange(40)}"
        if kind == 2:
            return rng.randrange(100) / 4
        if kind == 3:
            return None
        return rng.random() < 0.5

    arguments = []
    for _ in range(count):
        arity = rng.randrange(1, 4)
        # One kind per position so that IDs of one "relation shape" stay
        # mutually orderable, like the keys of one relation are.
        shape = rng.randrange(5)
        key_values = tuple(value((shape + position) % 5) for position in range(arity))
        arguments.append((key_values, rng.randrange(0, 6), rng.randrange(0, arity + 2)))
    return arguments


ARGUMENTS = seeded_arguments(20260926, 10_000)
NEW = [TupleId(*args) for args in ARGUMENTS]
OLD = [ReferenceTupleId(*args) for args in ARGUMENTS]


def fields(tid) -> tuple:
    return (tid.key_values, tid.epoch, tid.partition_width)


def test_fields_and_normalisation_agree():
    assert [fields(tid) for tid in NEW] == [fields(tid) for tid in OLD]
    assert [tid.partition_values for tid in NEW] == [tid.partition_values for tid in OLD]
    # Sequence keys are frozen to tuples, epoch and width coerced to int.
    assert fields(TupleId(["a", 1], 2.0, True)) == fields(ReferenceTupleId(["a", 1], 2.0, True))


def test_hash_value_is_the_dataclass_hash():
    assert [hash(tid) for tid in NEW] == [hash(tid) for tid in OLD]
    assert all(hash(tid) == hash(fields(tid)) for tid in NEW)


def test_hash_key_agrees_and_is_cached_per_instance():
    assert [tid.hash_key for tid in NEW] == [tid.hash_key for tid in OLD]
    tid = TupleId(("a", 7), 3, 1)
    assert "hash_key" not in vars(tid)
    first = tid.hash_key
    assert vars(tid) == {"hash_key": first}
    assert tid.hash_key is first


def test_sorted_order_agrees():
    # Order within one key shape (mixed shapes are not mutually orderable in
    # either implementation: str < int raises for both).
    by_shape: dict[tuple, list[int]] = {}
    for index, tid in enumerate(NEW):
        shape = tuple(type(v) for v in tid.key_values)
        if type(None) in shape:
            continue
        by_shape.setdefault(shape, []).append(index)
    assert len(by_shape) > 5
    for indexes in by_shape.values():
        new_order = sorted(indexes, key=NEW.__getitem__)
        old_order = sorted(indexes, key=OLD.__getitem__)
        assert [fields(NEW[i]) for i in new_order] == [fields(OLD[i]) for i in old_order]
        new_reverse = sorted((NEW[i] for i in indexes), reverse=True)
        old_reverse = sorted((OLD[i] for i in indexes), reverse=True)
        assert [fields(t) for t in new_reverse] == [fields(t) for t in old_reverse]


def test_mixed_type_keys_fail_to_order_in_both():
    for cls in (TupleId, ReferenceTupleId):
        with pytest.raises(TypeError):
            cls(("a",), 0) < cls((1,), 0)


def test_pairwise_comparisons_agree():
    rng = random.Random(7)
    for _ in range(20_000):
        i, j = rng.randrange(len(NEW)), rng.randrange(len(NEW))
        assert (NEW[i] == NEW[j]) == (OLD[i] == OLD[j])
        assert (NEW[i] != NEW[j]) == (OLD[i] != OLD[j])
        try:
            expected = OLD[i] < OLD[j], OLD[i] <= OLD[j], OLD[i] > OLD[j], OLD[i] >= OLD[j]
        except TypeError:
            with pytest.raises(TypeError):
                NEW[i] < NEW[j]
            continue
        assert (NEW[i] < NEW[j], NEW[i] <= NEW[j], NEW[i] > NEW[j], NEW[i] >= NEW[j]) == expected


def test_set_membership_and_iteration_order_agree():
    new_set, old_set = set(NEW), set(OLD)
    assert len(new_set) == len(old_set) < len(NEW)  # the generator repeats IDs
    assert [fields(tid) for tid in new_set] == [fields(tid) for tid in old_set]
    probes = seeded_arguments(99, 2_000)
    assert [TupleId(*p) in new_set for p in probes] == [
        ReferenceTupleId(*p) in old_set for p in probes
    ]
    # dict keys too: first-insertion order and replacement.
    assert [fields(t) for t in dict.fromkeys(NEW)] == [fields(t) for t in dict.fromkeys(OLD)]


def test_repr_agrees():
    assert [repr(tid) for tid in NEW[:2000]] == [repr(tid) for tid in OLD[:2000]]


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(protocol):
    for tid in NEW[:500]:
        tid.hash_key  # the cached ring position travels with the instance
        clone = pickle.loads(pickle.dumps(tid, protocol))
        assert type(clone) is TupleId
        assert clone == tid and hash(clone) == hash(tid)
        assert fields(clone) == fields(tid)
        assert vars(clone) == vars(tid)


def test_copy_round_trips():
    for tid in NEW[:500]:
        for clone in (copy.copy(tid), copy.deepcopy(tid)):
            assert type(clone) is TupleId
            assert clone == tid and fields(clone) == fields(tid)
            assert clone.hash_key == tid.hash_key


def test_with_epoch_agrees():
    for new, old in zip(NEW[:2000], OLD[:2000]):
        moved_new, moved_old = new.with_epoch(new.epoch + 3), old.with_epoch(old.epoch + 3)
        assert type(moved_new) is TupleId
        assert fields(moved_new) == fields(moved_old)
        assert moved_new.hash_key == moved_old.hash_key == new.hash_key


def test_instances_stay_frozen():
    tid = TupleId(("a",), 1)
    for name in ("epoch", "key_values", "partition_width", "hash_key", "anything"):
        with pytest.raises(FrozenInstanceError):
            setattr(tid, name, 5)
    with pytest.raises(FrozenInstanceError):
        del tid.epoch


def test_equality_with_a_bare_tuple_is_the_one_documented_difference():
    """A dataclass never equals a tuple; a tuple subclass equals the 3-tuple
    of its fields.  Nothing under ``src/`` compares an ID with a plain tuple
    (``grep -rn "tuple_id ==\\|tid ==\\|== tid" src/`` finds ID-to-ID
    comparisons only), so the difference is unobservable — it is pinned here
    so that it stays a decision rather than an accident."""
    assert ReferenceTupleId(("a",), 1, 1) != (("a",), 1, 1)
    assert TupleId(("a",), 1, 1) == (("a",), 1, 1)
    assert TupleId(("a",), 1) != (("a",), 1)  # only the full field triple
