"""The keyed previous-version lookup of a publish against the linear one.

A modification or delete in a publish supersedes the newest tuple ID with the
same key values on the previous version of its page.
``_PublishOperation._find_current_id`` answers that from a ``key values →
newest ID`` map built once per looked-into page; it must return exactly what
the page walk in ``reference_find_current.py`` returned — the same object,
including which of two equal-epoch IDs wins (the first on the page, as
``max`` picks).  The publish also builds each change's tuple ID, and with it
the hash, once per batch.
"""

import random

import pytest

from reference_find_current import reference_find_current_id

from repro.cluster import Cluster
from repro.common.hashing import KeyRange
from repro.common.types import RelationData, Schema, TupleId
from repro.storage.client import UpdateBatch, _PublishOperation
from repro.storage.pages import IndexPage, PageId, PageRef

SCHEMA = Schema("R", ["a", "b", "v"], key=["a", "b"])


def page_ref(sequence: int) -> PageRef:
    return PageRef(PageId("R", 1, sequence), KeyRange.full_ring())


def publish_operation(pages: list[IndexPage]) -> _PublishOperation:
    operation = _PublishOperation(None, UpdateBatch(SCHEMA), 99, None, lambda _record: None)
    for page in pages:
        operation._previous_pages[page.page_id] = page
    return operation


def random_page(rng: random.Random, sequence: int, size: int) -> IndexPage:
    """IDs over few keys and few epochs, so most keys repeat and many repeat
    at one epoch; a partition width of 1 or 2 keeps equal-epoch IDs of one
    key distinct objects that do not compare equal."""
    tids = [
        TupleId((rng.randrange(6), rng.choice("xy")), rng.randrange(1, 4), rng.choice((1, 2)))
        for _ in range(size)
    ]
    return IndexPage(page_ref(sequence), tids)


@pytest.mark.parametrize("seed", range(20))
def test_lookup_matches_page_walk(seed):
    rng = random.Random(seed)
    pages = [random_page(rng, sequence, rng.randrange(0, 40)) for sequence in range(3)]
    operation = publish_operation(pages)
    reference = publish_operation(pages)
    keys = [(a, b) for a in range(-1, 7) for b in "xyz"]
    refs = [page.ref for page in pages] + [page_ref(7)]  # the last one was never fetched
    for _ in range(3):  # repeated lookups read the map built by the first
        for ref in refs:
            for key in keys:
                assert (
                    operation._find_current_id(ref, key)
                    is reference_find_current_id(reference, ref, key)
                )


def test_equal_epochs_first_on_page_wins():
    first = TupleId((1, "x"), 5, 1)
    second = TupleId((1, "x"), 5, 2)
    older, newer = TupleId((2, "x"), 3, 2), TupleId((2, "x"), 4, 2)
    page = IndexPage(page_ref(0), [older, first, newer, second, TupleId((1, "x"), 4, 1)])
    operation = publish_operation([page])
    assert first != second
    assert operation._find_current_id(page.ref, (1, "x")) is first
    assert reference_find_current_id(operation, page.ref, (1, "x")) is first
    assert operation._find_current_id(page.ref, (2, "x")) is newer
    assert operation._find_current_id(page.ref, (3, "x")) is None


def test_map_is_built_only_for_looked_into_pages():
    pages = [random_page(random.Random(sequence), sequence, 10) for sequence in range(3)]
    operation = publish_operation(pages)
    assert operation._current_ids == {}
    operation._find_current_id(pages[1].ref, (0, "x"))
    operation._find_current_id(pages[1].ref, (1, "y"))
    assert list(operation._current_ids) == [pages[1].page_id]


def test_publish_builds_each_changed_tuple_id_once(monkeypatch):
    cluster = Cluster(4)
    data = RelationData(SCHEMA, [(i, "x", i) for i in range(60)])
    cluster.publish(data)
    batch = UpdateBatch(
        SCHEMA,
        inserts=[(i, "y", i) for i in range(10)],
        modifications=[(i, "x", -i) for i in range(0, 20, 2)],
        deletes=[(i, "x") for i in range(30, 45)] + [(999, "x")],
    )
    built = []
    for name in ("tuple_id_for", "tuple_id_for_key"):
        original = getattr(Schema, name)

        def counted(self, *args, _original=original, _name=name):
            built.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Schema, name, counted)
    cluster.publish(batch)
    monkeypatch.undo()
    assert built.count("tuple_id_for") == len(batch.inserts) + len(batch.modifications)
    assert built.count("tuple_id_for_key") == len(batch.deletes)
    expected = {row[:2]: row for row in data.rows}
    expected.update({row[:2]: row for row in batch.inserts + batch.modifications})
    for key in batch.deletes:
        expected.pop(key, None)
    assert sorted(cluster.retrieve("R").rows()) == sorted(expected.values())
