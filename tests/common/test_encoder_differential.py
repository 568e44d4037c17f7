"""Differential test: the production column encoder against the reference.

``encode_column_values`` decides what every shipped batch costs on the wire,
so its contract is *byte identity*: whatever the kernel does internally, it
must pick the same codec (raw → FOR → dict → RLE, a later one winning only
when strictly smaller), build the same column object and emit the same
payload as the value-at-a-time encoder it replaced.  That encoder lives on,
verbatim, in ``reference_encoder.py``; this module drives both with the
adversarial generators of ``test_encoding_codecs.py``, with real workload
columns at the batch sizes the system ships, and with columns built to sit
exactly on each decision boundary.
"""

import enum
import math
import random
import struct

import pytest

import reference_encoder
from test_encoding_codecs import GENERATORS

from repro.common.serialization import (
    DictColumn,
    ForColumn,
    RawColumn,
    RleColumn,
    encode_column_values,
)
from repro.workloads import stbenchmark, tpch


def slots(encoded):
    """Every value-bearing slot of an encoded column, as comparable data."""
    if isinstance(encoded, DictColumn):
        return (encoded.dictionary, encoded.codes, encoded.code_width)
    if isinstance(encoded, RleColumn):
        return encoded.runs
    if isinstance(encoded, ForColumn):
        return (encoded.base, encoded.delta_width, encoded.deltas, encoded.hi, encoded.scale)
    assert isinstance(encoded, RawColumn)
    return encoded.values


def exact(value):
    """Type + repr, recursively: keeps 1 / 1.0 / True and 0.0 / -0.0 apart and
    makes NaN compare equal to itself."""
    if isinstance(value, tuple):
        return (type(value), tuple(exact(item) for item in value))
    return (type(value), repr(value))


def assert_identical(column):
    expected = reference_encoder.encode_column_values(list(column))
    for form in (list(column), tuple(column)):  # build() hands over tuples
        got = encode_column_values(form)
        assert type(got) is type(expected), (type(got), type(expected), column[:8])
        assert got.count == expected.count
        assert exact(slots(got)) == exact(slots(expected))
        assert got.payload() == expected.payload()
    return expected


# ---------------------------------------------------------------------------
# Adversarial generators (shared with the round-trip properties)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("generator", GENERATORS, ids=lambda g: g.__name__)
def test_adversarial_generators(generator):
    rng = random.Random(f"differential-{generator.__name__}")
    for _ in range(150):
        assert_identical(generator(rng))


# ---------------------------------------------------------------------------
# Workload columns at the batch sizes the system ships
# ---------------------------------------------------------------------------

BATCH_SIZES = (4, 7, 64, 256, 750)


def workload_relations():
    relations = list(tpch.generate(1.0, seed=11).relations.values())
    for scenario in stbenchmark.generate_all(800, seed=11).values():
        relations.extend(scenario.relations.values())
    return relations


def test_workload_columns():
    codecs = set()
    for data in workload_relations():
        for size in BATCH_SIZES:
            for start in range(0, min(len(data.rows), 3 * size), size):
                chunk = data.rows[start : start + size]
                for column in zip(*chunk):
                    codecs.add(type(assert_identical(column)))
    # The workloads exercise every codec, so none is compared vacuously.
    assert codecs == {DictColumn, RleColumn, ForColumn, RawColumn}


# ---------------------------------------------------------------------------
# Decision boundaries
# ---------------------------------------------------------------------------


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2
    BLUE = 3


def nan_with_payload(bits: int) -> float:
    (value,) = struct.unpack(">d", struct.pack(">Q", 0x7FF8000000000000 | bits))
    assert value != value
    return value


def boundary_columns():
    columns = {}

    # Dictionary: 1- vs 2-byte codes, and the distinct-value cap.
    for distinct in (255, 256, 257, 4096, 4097):
        columns[f"distinct-{distinct}-str"] = [f"v{i % distinct:05d}" for i in range(3 * distinct)]
        columns[f"distinct-{distinct}-int"] = [(i % distinct) << 40 for i in range(3 * distinct)]
        columns[f"distinct-{distinct}-float"] = [
            (i % distinct) + 0.125 for i in range(3 * distinct)
        ]

    # Frame of reference: delta-width boundaries and the int64 base limits.
    for span in (0xFF, 0x100, 0xFFFF, 0x10000, 2**32 - 1, 2**32, 2**64 - 1, 2**64):
        for base in (0, -5, -(2**63), 2**63 - 1 - span, 2**63 - span):
            columns[f"span-{span:#x}-base-{base}"] = [
                base + (span * step) // 16 for step in (0, 16, *range(1, 16))
            ]
    for base in (-(2**63) - 1, -(2**63), 2**63 - 1, 2**63):
        columns[f"base-{base}"] = [base, base + 1, base + 2, base + 3, base + 1]
    # Fixed-point floats hit the same limits after scaling by 100.
    for span in (0xFF, 0x100, 0xFFFF, 0x10000, 2**32 - 1, 2**32):
        columns[f"scaled-span-{span:#x}"] = [
            ((span * step) // 16) / 100.0 for step in (0, 16, *range(1, 16))
        ]
    columns["scaled-past-int64"] = [1e17, 2e17, 3e17, 1e17, 2e17]
    columns["scaled-at-int64"] = [2.0**63 / 100.0, 0.0, 1.0, 2.0**63 / 100.0]
    columns["ints-past-one-byte-length"] = [1 << 2031, 1 << 2032, -(1 << 2040), 1 << 2031] * 2
    columns["ints-at-one-byte-length"] = [(1 << 2031) - 1, -(1 << 2031), 0, 1] * 2

    # Run length: the 65,535 split.
    columns["run-65535"] = ["r"] * 65535 + ["s"] * 3
    columns["run-65536"] = ["r"] * 65536 + ["s"] * 3
    columns["run-2x65535"] = [7] * (2 * 65535) + [8]
    columns["run-float-65536"] = [2.5] * 65536
    columns["run-none-65536"] = [None] * 65536
    nans = [nan_with_payload(1)] * 65535 + [nan_with_payload(2)] * 5
    columns["run-nan-payloads"] = nans  # equal repr, different bits, split mid-run

    # Tiny columns never leave the raw codec.
    for count in range(4):
        columns[f"rows-{count}"] = [3, 3, 3][:count]
        columns[f"rows-{count}-float"] = [0.5, 0.5, 0.5][:count]

    # Floats: signed zeros, NaN, infinities, decimals that are not scale 2.
    columns["zeros-signed"] = [0.0, -0.0, 0.0, -0.0, -0.0, 0.0]
    columns["zeros-signed-runs"] = [0.0] * 6 + [-0.0] * 6
    columns["zeros-negative-only"] = [-0.0] * 5
    columns["zero-among-decimals"] = [-0.0, 0.25, 0.5, 1.0, 0.25]
    columns["nan"] = [math.nan] * 8
    columns["nan-objects"] = [float("nan") for _ in range(8)]
    columns["nan-payloads"] = [nan_with_payload(i % 3) for i in range(12)]
    columns["nan-among-decimals"] = [1.25, math.nan, 2.5, 1.25, math.nan, 2.5]
    columns["inf"] = [math.inf, 1.0, 2.0, 3.0, math.inf]
    columns["inf-both"] = [math.inf, -math.inf, math.inf, -math.inf]
    columns["three-decimals"] = [round(i / 1000.0, 3) for i in range(1, 200)]
    columns["one-three-decimal-value"] = [1.25, 2.5, 3.75, 1.125, 2.5, 1.25]
    columns["half-cents"] = [0.005, 0.015, 0.025, 0.035, 0.045]
    columns["repr-shortest"] = [0.1 + 0.2, 0.3, 0.1 + 0.2, 0.3, 0.3]
    columns["subnormal"] = [5e-324, 0.0, 5e-324, 0.0]
    columns["huge-finite"] = [1e300, -1e300, 1e300, -1e300]

    # Cross-type equality, subclasses, containers, NULLs.
    columns["one-three-ways"] = [1, 1.0, True] * 5
    columns["zero-four-ways"] = [0, 0.0, -0.0, False] * 4
    columns["bools"] = [True, False, True, True, False, False]
    columns["int-enum"] = [Colour.RED, Colour.GREEN, Colour.RED, Colour.BLUE] * 4
    columns["int-enum-among-ints"] = [Colour.RED, 1, Colour.RED, 1, 2, Colour.GREEN]
    columns["nested-tuples"] = [
        (1, (2.0, "a")), (1, (2, "a")), (1, (2.0, "a")), (True, (2, "a")),
    ] * 3
    columns["tuples-signed-zero"] = [(0.0,), (-0.0,), (0.0,), (-0.0,)] * 2
    columns["bytes"] = [b"", b"\x00", b"", b"\x00\x01", b""] * 2
    columns["null-heavy"] = [None] * 40 + ["x"] + [None] * 40 + [3, None, None]
    columns["null-then-ints"] = [None, 1, 2, 3, None, 1, 2, 3]
    columns["unicode"] = ["é", "日本", "é", "a", "日本", "𝄞", "a", "é"]
    columns["empty-strings"] = ["", "", "", "", "x", ""]
    columns["long-strings"] = ["k" * 70, "k" * 70, "k" * 69, "k" * 70] * 2
    return columns


BOUNDARY_COLUMNS = boundary_columns()


@pytest.mark.parametrize("name", BOUNDARY_COLUMNS)
def test_decision_boundaries(name):
    assert_identical(BOUNDARY_COLUMNS[name])


def test_boundary_columns_reach_both_sides():
    """The boundary columns are only worth their name if the codec choice
    actually flips across them."""

    def codec(name):
        return type(reference_encoder.encode_column_values(BOUNDARY_COLUMNS[name]))

    assert reference_encoder.encode_column_values(
        BOUNDARY_COLUMNS["distinct-256-str"]
    ).code_width == 1
    assert reference_encoder.encode_column_values(
        BOUNDARY_COLUMNS["distinct-257-str"]
    ).code_width == 2
    assert codec("distinct-4096-str") is DictColumn
    assert codec("distinct-4097-str") is RawColumn
    assert codec("span-0xffffffffffffffff-base-0") is ForColumn
    assert codec("span-0x10000000000000000-base-0") is not ForColumn
    assert codec(f"base-{-(2**63)}") is ForColumn
    assert codec(f"base-{-(2**63) - 1}") is not ForColumn
    assert codec("scaled-span-0xff") is ForColumn
    assert codec("zero-among-decimals") is not ForColumn
    assert [
        length
        for _, length in reference_encoder.encode_column_values(
            BOUNDARY_COLUMNS["run-65536"]
        ).runs
    ] == [65535, 1, 3]


def test_floats_whose_scaled_value_overflows_are_encodable():
    # The reference multiplies before it looks: 1e307 * 100 is inf and
    # round(inf) raises.  The kernel sizes the frame from the column's bounds
    # first, so such a column simply never becomes a scaled frame.
    column = [1e307, 2e307, 1e307, 2e307, 1e307]
    with pytest.raises(OverflowError):
        reference_encoder.encode_column_values(column)
    encoded = encode_column_values(column)
    assert type(encoded) is DictColumn
    assert encoded.decode() == column
