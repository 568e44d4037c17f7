"""The parent commit's column encoder, kept verbatim as a test-only reference.

``encode_column_values`` (with ``_distinct_key``) below is the implementation
that shipped before the single-pass typed encoder replaced it in
``repro.common.serialization``: one Python-level loop per column, a
``(type, repr)`` key per value and an ``encode_value`` call per candidate
value.  It is slow and obviously right, which is what a reference is for —
``test_encoder_differential.py`` asserts that the production encoder returns
the same column class, the same value in every slot and the same payload bytes.

Only the two function bodies are copied; the wire constants, column classes
and value encoders they use are imported from the production module so a
change to *those* is still caught by the golden vectors, not masked here.
"""

import struct
from typing import Sequence

from repro.common.serialization import (
    _DICT_HEADER,
    _DICT_MAX_DISTINCT,
    _FOR_WIDTH_FORMATS,
    _RLE_HEADER,
    _RLE_MAX_RUN,
    _RLE_RUN,
    _TAG_DICT,
    _TAG_FOR,
    _TAG_RAWCOL,
    _TAG_RLE,
    DictColumn,
    EncodedColumn,
    ForColumn,
    RawColumn,
    RleColumn,
    _encode_column,
    encode_value,
)
from repro.common.types import Value


def _distinct_key(value: Value):
    """Hashable identity that keeps equal-comparing but distinct values apart.

    A plain ``(type, value)`` key would collapse ``0.0`` and ``-0.0`` (same
    type, equal, same hash) and a bare value would collapse ``1``/``1.0``/
    ``True``; decoding must restore the *exact* stored value, so floats and
    tuples key on their repr (the same trick the page-pruning hash variants
    use).
    """
    kind = type(value)
    if kind is float or kind is tuple:
        return (kind, repr(value))
    return (kind, value)


def encode_column_values(column: Sequence[Value]) -> EncodedColumn:
    """Encode one column, choosing the cheapest codec by exact payload size.

    One pass collects runs and the distinct-value dictionary; each candidate
    codec's payload size is then computed exactly (distinct values go through
    the memoised :func:`encode_value`, so the sizing pass is cheap) and the
    smallest wins, with the raw tagged encoding as the fallback.  The choice
    is fully deterministic: first-occurrence dictionary order, fixed
    comparison order, no hashing of values.
    """
    count = len(column)
    raw_payload = _encode_column(column)
    best_size = len(raw_payload)
    best_tag = _TAG_RAWCOL
    if count >= 4:
        runs: list = []
        distinct: dict = {}
        distinct_values: list = []
        previous_key = None
        for value in column:
            key = _distinct_key(value)
            if runs and key == previous_key and runs[-1][1] < _RLE_MAX_RUN:
                runs[-1][1] += 1
            else:
                runs.append([value, 1])
                previous_key = key
            if distinct is not None and key not in distinct:
                if len(distinct) >= _DICT_MAX_DISTINCT:
                    distinct = None
                else:
                    distinct[key] = len(distinct)
                    distinct_values.append(value)

        # Frame-of-reference: int-only columns (bool is an int subclass but
        # decodes distinctly, so exact-type only) with an int64 base, or
        # float columns that are exactly fixed-point decimals (scale 2 —
        # prices, rates, balances), verified value-by-value before use.
        for_fields = None
        scaled_column: "list[int] | None" = None
        for_scale = 0
        if all(type(value) is int for value in column):
            scaled_column = list(column)
        elif all(type(value) is float for value in column):
            scaled = []
            for value in column:
                if value != value or value in (float("inf"), float("-inf")):
                    scaled = None
                    break
                as_int = int(round(value * 100))
                if as_int / 100.0 != value or repr(as_int / 100.0) != repr(value):
                    scaled = None
                    break
                scaled.append(as_int)
            if scaled is not None:
                scaled_column = scaled
                for_scale = 2
        if scaled_column is not None:
            lo = min(scaled_column)
            hi = max(scaled_column)
            span = hi - lo
            if -(1 << 63) <= lo < (1 << 63) and span < (1 << 64):
                if span <= 0xFF:
                    width = 1
                elif span <= 0xFFFF:
                    width = 2
                elif span <= 0xFFFFFFFF:
                    width = 4
                else:
                    width = 8
                for_size = 1 + len(encode_value(lo)) + width * count
                if for_size < best_size:
                    best_size = for_size
                    best_tag = _TAG_FOR
                    for_fields = (lo, hi, width)

        dict_fields = None
        if distinct:
            code_width = 1 if len(distinct) <= 256 else 2
            dict_size = (
                _DICT_HEADER.size
                + sum(len(encode_value(value)) for value in distinct_values)
                + code_width * count
            )
            if dict_size < best_size:
                best_size = dict_size
                best_tag = _TAG_DICT
                dict_fields = code_width

        rle_size = _RLE_HEADER.size + sum(
            len(encode_value(value)) + _RLE_RUN.size for value, _ in runs
        )
        if rle_size < best_size:
            best_size = rle_size
            best_tag = _TAG_RLE

        if best_tag == _TAG_RLE:
            return RleColumn(count, tuple((value, length) for value, length in runs))
        if best_tag == _TAG_DICT:
            dictionary = tuple(distinct_values)
            codes_map = distinct
            if dict_fields == 1:
                codes = bytes(codes_map[_distinct_key(value)] for value in column)
            else:
                packed = bytearray()
                for value in column:
                    code = codes_map[_distinct_key(value)]
                    packed.append(code >> 8)
                    packed.append(code & 0xFF)
                codes = bytes(packed)
            return DictColumn(count, dictionary, codes, dict_fields)
        if best_tag == _TAG_FOR:
            lo, hi, width = for_fields
            deltas = struct.pack(
                f">{count}{_FOR_WIDTH_FORMATS[width]}",
                *[value - lo for value in scaled_column],
            )
            return ForColumn(count, lo, width, deltas, hi, for_scale)
    return RawColumn(tuple(column), raw_payload)
