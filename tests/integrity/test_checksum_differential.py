"""The column-at-a-time checksums against the value-at-a-time ones.

``tuple_checksums``, ``page_checksum`` and ``scan_batch_checksum`` encode a
whole batch column by column through ``encode_rows``; the CRCs they produce
are recorded beside stored entries, compared on every read and exchanged by
the scrubber, so they must equal the value-at-a-time functions kept in
``reference_checksum.py`` for every input — and ``encode_rows`` must equal
``encode_values`` row by row.  Driven over the TPC-H relations and over
seeded batches drawn from the encoder's edge values.
"""

import enum
import math
import random

import pytest

import reference_checksum as reference

from repro.common.hashing import KeyRange
from repro.common.serialization import (
    EncodedScanBatch,
    _INT_CACHE,
    encode_rows,
    encode_values,
)
from repro.common.types import TupleId, VersionedTuple
from repro.integrity import page_checksum, scan_batch_checksum, tuple_checksum, tuple_checksums
from repro.storage.pages import IndexPage, PageId, PageRef
from repro.workloads import tpch


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


#: The encoder's edge values, by kind.
EDGE_VALUES = {
    "small int": [0, 1, -1, 127, 128, 255, 256, -129, 65536, 2**39 - 1],
    "wide int": [2**40, -(2**40), 2**63, -(2**63) - 1, 2**100, 10**30],
    "bigint": [2**2031, -(2**2031), 2**4096 + 12345, -(10**700)],
    "bool": [True, False],
    "int enum": [Level.LOW, Level.HIGH],
    "float": [0.0, -0.0, 1.0, 3.25, -1e308, math.inf, -math.inf, math.nan, 5e-324],
    "str": ["", "a", "héllo", "日本語", "x" * 64, "y" * 65, "ü" * 200],
    "none": [None],
    "bytes": [b"", b"\x00\x01\xff", bytes(range(256))],
    "tuple": [(), (1,), (1, "a", None), (1, (2, (3,))), (True, 2.5, b"z")],
}
ALL_EDGES = [value for values in EDGE_VALUES.values() for value in values]


def same_bytes(rows):
    assert encode_rows(rows) == [encode_values(row) for row in rows]


def tuple_id(key_values, epoch):
    return TupleId(tuple(key_values), epoch)


def page_of(tuple_ids, relation="rel", epoch=1, sequence=0):
    ref = PageRef(PageId(relation, epoch, sequence), KeyRange(7, 2**40))
    return IndexPage(ref, list(tuple_ids))


def assert_checksums_match(tuples):
    assert tuple_checksums(tuples) == [reference.tuple_checksum(t) for t in tuples]
    for tup in tuples[:3]:
        assert tuple_checksum(tup) == reference.tuple_checksum(tup)
    page = page_of(t.tuple_id for t in tuples)
    assert page_checksum(page) == reference.page_checksum(page)


# -- the TPC-H relations --------------------------------------------------------


@pytest.fixture(scope="module")
def tpch_instance():
    return tpch.generate(1.0, 3)


def test_tpch_relations(tpch_instance):
    rng = random.Random(29)
    for name, data in sorted(tpch_instance.relations.items()):
        rows = [tuple(row) for row in data.rows]
        same_bytes(rows)
        tuples = [
            VersionedTuple(name, data.schema.tuple_id_for(row, rng.randint(1, 9)), row,
                           deleted=rng.random() < 0.1)
            for row in rows
        ]
        for start in range(0, len(tuples), 757):
            batch = tuples[start : start + rng.choice([1, 2, 64, 757])]
            assert_checksums_match(batch)
            scan = EncodedScanBatch.from_tuples(batch)
            assert scan_batch_checksum(scan) == reference.scan_batch_checksum(scan)


# -- edge values ----------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(EDGE_VALUES))
def test_single_type_columns(kind):
    values = EDGE_VALUES[kind]
    same_bytes([(value,) for value in values])
    same_bytes([(value, value, index) for index, value in enumerate(values)])
    tuples = [
        VersionedTuple("rel", tuple_id((index, value), 2), (value, value), deleted=index % 2 == 1)
        for index, value in enumerate(values)
    ]
    assert_checksums_match(tuples)


def test_ints_outside_the_memo_and_negative():
    wide = [2**40 + 1, -(2**41) - 3, 2**2040, -(2**3000)]
    for value in wide:
        assert value not in _INT_CACHE  # the memo keeps only 5-byte encodings
    wide += [-5, -(2**39)]
    same_bytes([(value,) for value in wide])
    assert_checksums_match([VersionedTuple("rel", tuple_id((v,), 1), (v, -v)) for v in wide])


def test_bool_int_float_and_int_enum_columns():
    """``True == 1 == Level.LOW == 1.0`` and they hash alike, so the int memo
    would answer for all four: only an exact int column may use it."""
    for column in ([True, False], [1, 0], [Level.LOW, Level.LOW], [True, 1, Level.LOW],
                   [1, True], [Level.HIGH, 300], [1.0, 1, True]):
        same_bytes([(value,) for value in column])
    tuples = [VersionedTuple("rel", tuple_id((k,), 1), (k,)) for k in (True, 1, Level.LOW, 1.0)]
    assert_checksums_match(tuples)
    # An IntEnum member encodes as its int; a bool and a float do not.
    assert len(set(tuple_checksums(tuples))) == 3


def test_special_floats():
    floats = [-0.0, 0.0, math.inf, -math.inf, math.nan]
    same_bytes([(value,) for value in floats])
    tuples = [VersionedTuple("rel", tuple_id((i,), 1), (value,)) for i, value in enumerate(floats)]
    assert_checksums_match(tuples)
    assert tuple_checksum(tuples[0]) != tuple_checksum(
        VersionedTuple("rel", tuple_id((0,), 1), (0.0,))
    )


def test_non_ascii_and_long_strings():
    strings = ["héllo", "日本語", "x" * 64, "y" * 65, "é" * 64, "ü" * 300]
    same_bytes([(value, value[:3]) for value in strings])
    assert_checksums_match(
        [VersionedTuple("rel", tuple_id((s,), 1), (s, len(s))) for s in strings]
    )


def test_none_bytes_and_nested_tuples():
    rows = [(None, b"", ()), (None, b"\x00", (1, (2, "x"))), (None, bytes(300), (None,))]
    same_bytes(rows)
    assert_checksums_match(
        [VersionedTuple("rel", tuple_id((i, None), 1), row) for i, row in enumerate(rows)]
    )


def test_mixed_type_columns_and_mixed_widths_in_one_batch():
    rows = [(1, "a"), ("a", 1), (None, 2.5), (1, 2, 3), (), ((1, 2),), ((1, 2, 3),), (b"x", None)]
    same_bytes(rows)
    tuples = [
        VersionedTuple(f"rel{len(row)}", tuple_id((i,) * (1 + i % 3), i), row)
        for i, row in enumerate(rows)
    ]
    assert_checksums_match(tuples)
    ids = [tuple_id((1,), 1), tuple_id(("a", 2), 1), tuple_id((None, 2.5, True), 3)]
    page = page_of(ids)
    assert page_checksum(page) == reference.page_checksum(page)


def test_empty_batch_and_page():
    assert encode_rows([]) == []
    assert tuple_checksums([]) == []
    assert page_checksum(page_of([])) == reference.page_checksum(page_of([]))
    scan = EncodedScanBatch.from_tuples([])
    assert scan_batch_checksum(scan) == reference.scan_batch_checksum(scan)


@pytest.mark.parametrize("seed", range(12))
def test_seeded_random_batches(seed):
    """Random widths, column types and batch sizes drawn from the edge values;
    some columns single-typed, some mixed."""
    rng = random.Random(seed)
    kinds = sorted(EDGE_VALUES)

    def column_source():
        if rng.random() < 0.6:
            pool = EDGE_VALUES[rng.choice(kinds)]
        else:
            pool = ALL_EDGES
        return lambda: rng.choice(pool)

    tuples = []
    rows = []
    for _group in range(rng.randint(1, 3)):
        width = rng.randint(0, 7)
        sources = [column_source() for _ in range(width)]
        key_sources = [column_source() for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 120)):
            row = tuple(source() for source in sources)
            key = tuple(source() for source in key_sources)
            rows.append(row)
            tuples.append(VersionedTuple(f"rel{width}", tuple_id(key, rng.randint(0, 2**33)),
                                         row, deleted=rng.random() < 0.2))
    rng.shuffle(tuples)
    rng.shuffle(rows)
    same_bytes(rows)
    assert_checksums_match(tuples)
    same_width = [t for t in tuples if len(t.values) == len(tuples[0].values)] if tuples else []
    if same_width:
        scan = EncodedScanBatch.from_tuples(same_width)
        assert scan_batch_checksum(scan) == reference.scan_batch_checksum(scan)
