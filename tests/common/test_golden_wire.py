"""Golden wire-format vectors pinned against the original recursive codecs.

The paper's traffic figures (Figs 8-20) depend on the *exact* compressed size
of every batch on the wire, so the serialization fast paths must be
byte-identical to the original per-value recursive encoder.  These vectors
were generated with the pre-optimisation implementation and are pinned as
literals: any codec change that alters a single wire byte fails here before
it silently shifts every traffic figure.

Covers every type tag, the one-byte-length integer boundaries around
``_TAG_INT``/``_TAG_BIGINT`` (encodings of exactly 255 vs 256 bytes), the
row-level ``encode_values`` framing (also as built a batch at a time by
``encode_rows``) and the column-wise ``TupleBatch`` marshal layout.
"""

import hashlib
import zlib

import pytest

from repro.common.serialization import (
    TupleBatch,
    decode_value,
    decode_values,
    encode_column_tuples,
    encode_columns,
    encode_rows,
    encode_value,
    encode_values,
)

#: (value, hex of the pinned wire encoding) — generated pre-optimisation.
GOLDEN_VALUES = [
    (None, "00"),
    (True, "0101"),
    (False, "0100"),
    (0, "02020000"),
    (1, "02020001"),
    (-1, "0202ffff"),
    (127, "0202007f"),
    (128, "0203000080"),
    (255, "02030000ff"),
    (256, "0203000100"),
    (-128, "0203ffff80"),
    (-129, "0203ffff7f"),
    (65536, "020400010000"),
    (2**63 - 1, "0209007fffffffffffffff"),
    (-(2**63), "020affff8000000000000000"),
    (3.5, "03400c000000000000"),
    (-0.0, "038000000000000000"),
    (1e308, "037fe1ccf385ebc8a0"),
    ("", "0400000000"),
    ("héllo", "040000000668c3a96c6c6f"),
    ("abc", "0400000003616263"),
    (b"", "0500000000"),
    (b"\x00\x01\xff", "05000000030001ff"),
    ((), "0600000000"),
    ((1, "a", None), "06000000030202000104000000016100"),
    ((1, (2, (3,))), "060000000202020001060000000202020002060000000102020003"),
]

#: Big integers around the _TAG_INT one-byte-length limit: (value, pinned
#: 6-byte encoding prefix, pinned total length, sha256 of the encoding).
GOLDEN_BIGINTS = [
    # bit_length 2031 -> 255 payload bytes: the largest _TAG_INT encoding.
    (2**2030, "02ff00400000", 257,
     "a92f395573178b8bf421fda65bd0516ec4ac8ffb54dc14aea1d5e3b76802cff5"),
    # bit_length 2032 -> 256 payload bytes: the smallest _TAG_BIGINT.
    (2**2031, "070000010000", 261,
     "fdac748371e994b3d401e3d27c3a7de3a2f3d29f12746dcded4f5e6a21626492"),
    (-(2**2031), "0700000100ff", 261,
     "37e0b6a0af603592df1896502cb74b0aaf1e8cc9f1bbe769921c5a554287ac4a"),
    (-(2**2032), "0700000100ff", 261,
     "e018ff8906c6001e028bea978ba88d80a73b61c02923a410cd342205dee30aef"),
    (2**4096 + 12345, "070000020200", 519,
     "b6d5fc3e3ee2325c79b5ed9ffd4f2d1af9b09095214393b3ddbae9f1e34814ae"),
]

GOLDEN_ROW = (42, "order-42", 3.25, None, True, b"\x01")
GOLDEN_ROW_HEX = (
    "000000060202002a04000000086f726465722d343203400a0000000000000001"
    "01050000000101"
)

BATCH_ATTRIBUTES = ("id", "name", "qty", "price")
BATCH_ROWS = [
    (1, "alpha", 3, 9.75),
    (2, "beta", 1, 0.5),
    (3, "alpha", 7, 120.0),
    (4, None, 0, -2.25),
]
BATCH_MARSHAL_HEX = (
    "00000004000000040002696400046e616d6500037174790005707269636502020001"
    "0202000202020003020200040400000005616c7068610400000004626574610400000005"
    "616c7068610002020003020200010202000702020000034023800000000000033fe00000"
    "0000000003405e00000000000003c002000000000000"
)
BATCH_RAW_SIZE = 128


@pytest.mark.parametrize("value,expected_hex", GOLDEN_VALUES,
                         ids=[repr(v)[:40] for v, _ in GOLDEN_VALUES])
def test_encode_value_golden(value, expected_hex):
    assert encode_value(value).hex() == expected_hex


@pytest.mark.parametrize("value,expected_hex", GOLDEN_VALUES,
                         ids=[repr(v)[:40] for v, _ in GOLDEN_VALUES])
def test_decode_value_golden(value, expected_hex):
    decoded, offset = decode_value(bytes.fromhex(expected_hex))
    assert offset == len(expected_hex) // 2
    assert decoded == value
    assert type(decoded) is type(value)


@pytest.mark.parametrize("value,prefix,length,sha", GOLDEN_BIGINTS,
                         ids=[f"bits{v.bit_length()}" if v > 0 else
                              f"neg-bits{(-v).bit_length()}"
                              for v, _, _, _ in GOLDEN_BIGINTS])
def test_bigint_edges_golden(value, prefix, length, sha):
    encoded = encode_value(value)
    assert encoded[:6].hex() == prefix
    assert len(encoded) == length
    assert hashlib.sha256(encoded).hexdigest() == sha
    decoded, offset = decode_value(encoded)
    assert decoded == value and offset == length


def test_int_tag_boundary():
    """255-byte encodings stay _TAG_INT; 256 bytes switch to _TAG_BIGINT."""
    largest_int_tag = 2**2030          # encodes to exactly 255 payload bytes
    smallest_bigint_tag = 2**2031      # encodes to exactly 256 payload bytes
    assert encode_value(largest_int_tag)[0] == 2
    assert encode_value(largest_int_tag)[1] == 255
    assert encode_value(smallest_bigint_tag)[0] == 7


def test_encode_values_golden():
    assert encode_values(GOLDEN_ROW).hex() == GOLDEN_ROW_HEX
    decoded, offset = decode_values(bytes.fromhex(GOLDEN_ROW_HEX))
    assert decoded == GOLDEN_ROW
    assert offset == len(GOLDEN_ROW_HEX) // 2


def test_tuple_batch_marshal_golden():
    """The column-wise marshal layout is pinned byte for byte."""
    batch = TupleBatch.build(BATCH_ATTRIBUTES, BATCH_ROWS)
    marshal = TupleBatch._marshal(BATCH_ATTRIBUTES, batch.rows)
    assert marshal.hex() == BATCH_MARSHAL_HEX
    assert batch.raw_size == BATCH_RAW_SIZE


def test_tuple_batch_compression_consistency():
    """wire accounting == zlib level 1 of the pinned marshal, and the
    compressed payload round-trips to the identical batch."""
    batch = TupleBatch.build(BATCH_ATTRIBUTES, BATCH_ROWS)
    marshal = bytes.fromhex(BATCH_MARSHAL_HEX)
    assert batch.compressed_size == len(zlib.compress(marshal, 1))
    payload = batch.compressed_payload()
    assert zlib.decompress(payload) == marshal
    rebuilt = TupleBatch.unmarshal(payload)
    assert rebuilt.attributes == BATCH_ATTRIBUTES
    assert rebuilt.rows == BATCH_ROWS
    assert rebuilt.raw_size == batch.raw_size
    assert rebuilt.compressed_size == batch.compressed_size


def test_tuple_batch_empty_and_single_column():
    """Framing edges: zero rows, one column, and a None-only column."""
    empty = TupleBatch.build(("a", "b"), [])
    assert TupleBatch._marshal(("a", "b"), []).hex() == (
        "0000000200000000000161000162"
    )
    assert empty.raw_size == 14
    nones = TupleBatch.build(("x",), [(None,), (None,)])
    assert TupleBatch._marshal(("x",), nones.rows).hex() == (
        "000000010000000200017800 00".replace(" ", "")
    )


def test_heterogeneous_column_matches_value_encoder():
    """A column mixing every tag must equal per-value encoding exactly —
    the fast path's per-column dispatch may not change mixed columns."""
    import struct

    rows = [(v,) for v, _ in GOLDEN_VALUES] + [(v,) for v, _, _, _ in GOLDEN_BIGINTS]
    marshal = TupleBatch._marshal(("mixed",), [tuple(r) for r in rows])
    header = struct.pack(">II", 1, len(rows)) + b"\x00\x05mixed"
    body = b"".join(encode_value(r[0]) for r in rows)
    assert marshal == header + body


def test_encode_rows_golden():
    """The batch encoder emits the pinned row bytes, one entry per row, for
    single-type columns, every tag in one column, nested tuples and rows of
    different widths in one batch."""
    assert encode_rows([GOLDEN_ROW, GOLDEN_ROW]) == [bytes.fromhex(GOLDEN_ROW_HEX)] * 2
    assert encode_rows([]) == []
    assert encode_rows([(), ()]) == [bytes.fromhex("00000000")] * 2
    every_tag = [(value,) for value, _ in GOLDEN_VALUES]
    assert [row.hex() for row in encode_rows(every_tag)] == [
        "00000001" + expected_hex for _, expected_hex in GOLDEN_VALUES
    ]
    mixed_widths = [(1, "a", None), ((1, (2, (3,))),), GOLDEN_ROW, (True,)]
    assert [row.hex() for row in encode_rows(mixed_widths)] == [
        "00000003" + "0202000104000000016100",
        "00000001" + "060000000202020001060000000202020002060000000102020003",
        GOLDEN_ROW_HEX,
        "00000001" + "0101",
    ]


def test_encode_columns_and_column_tuples_golden():
    """Rows given as columns: per-row bytes, and the whole sequence of rows
    as one ``encode_values`` of tuples."""
    columns = [[1, None], ["a", (2, 3)]]
    assert [row.hex() for row in encode_columns(columns, 2)] == [
        "00000002" + "02020001" + "040000000161",
        "00000002" + "00" + "060000000202020002" + "02020003",
    ]
    assert encode_column_tuples(columns, 2) == encode_values(((1, "a"), (None, (2, 3))))
    assert encode_column_tuples(columns, 2).hex() == (
        "00000002"
        + "060000000202020001040000000161"
        + "060000000200060000000202020002" + "02020003"
    )
    assert encode_column_tuples([[], []], 0).hex() == "00000000"
