"""The 160-bit SHA-1 key space used by the overlay and storage layers.

The paper (Section III-A) uses 160-bit unsigned integers as the key space,
matching the output of SHA-1, and visualises the space as a ring starting at 0
and wrapping around at ``2**160 - 1``.  Every placement decision in the system
— which node owns a tuple, where an index page lives, which node coordinates a
relation version — is made by hashing some identifier into this space and
looking up the owner of the resulting point.

This module provides:

* :data:`KEY_SPACE_BITS` / :data:`KEY_SPACE_SIZE` — the ring geometry.
* :func:`sha1_key` — hash arbitrary values onto the ring.
* :func:`sha1_digest` — a 16-byte (truncated SHA-1) content digest of a value.
* :func:`node_id_for` — the DHT identifier of a node (hash of its address).
* :class:`KeyRange` — a half-open, possibly wrapping arc of the ring, with the
  membership, splitting and midpoint operations the storage layer relies on
  (index pages are placed at the *middle* of the range of tuple keys they
  cover; see Section IV).
* :func:`ring_distance` helpers for clockwise arithmetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator

KEY_SPACE_BITS = 160
KEY_SPACE_SIZE = 1 << KEY_SPACE_BITS
KEY_SPACE_MASK = KEY_SPACE_SIZE - 1

#: Upper bound of the :func:`sha1_key` memo.  Placement lookups re-hash the
#: same identifiers constantly (tuple keys during routing, page ids during
#: scans, relation-version coordinates during resolution); the bound keeps
#: long chaos sweeps from growing memory without limit while the working set
#: of any single workload stays comfortably inside it.
SHA1_CACHE_MAX = 1 << 16

_sha1_cache: dict[object, int] = {}


def _cache_key(value: object) -> object:
    """An injective, hashable cache key for a hash input.

    Python equality conflates values that :func:`_to_bytes` deliberately
    distinguishes (``1 == True == 1.0``, ``-0.0 == 0.0``), so the raw value
    cannot key the memo.  Scalars are paired with their exact type (floats
    with their ``repr``, which is what gets hashed), and sequences map to
    tuples of child keys — lists and tuples share one digest in
    ``_to_bytes``, so they may share one cache key too.
    """
    kind = type(value)
    if kind is str or kind is bytes:
        return value
    if kind is tuple or kind is list:
        # Strings are by far the most common element; test them inline so
        # the common flat-tuple-of-strings key costs one comprehension.
        return tuple([
            item if type(item) is str else _cache_key(item) for item in value
        ])
    if kind is float:
        return (float, repr(value))
    return (kind, value)


def _to_bytes(value: object) -> bytes:
    """Encode a hash input deterministically.

    Tuples and lists are encoded element-wise with length prefixes so that
    ``("ab", "c")`` and ``("a", "bc")`` hash differently, mirroring how the
    Java implementation hashes composite keys field by field.
    """
    if isinstance(value, bytes):
        return b"B" + len(value).to_bytes(8, "big") + value
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return b"S" + len(encoded).to_bytes(8, "big") + encoded
    if isinstance(value, bool):
        return b"L" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        encoded = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"I" + len(encoded).to_bytes(8, "big") + encoded
    if isinstance(value, float):
        encoded = repr(value).encode("ascii")
        return b"F" + len(encoded).to_bytes(8, "big") + encoded
    if value is None:
        return b"N"
    if isinstance(value, (tuple, list)):
        parts = [b"T", len(value).to_bytes(8, "big")]
        parts.extend(_to_bytes(item) for item in value)
        return b"".join(parts)
    raise TypeError(f"cannot hash value of type {type(value).__name__}")


def sha1_key(value: object) -> int:
    """Hash ``value`` onto the 160-bit ring.

    Accepts strings, bytes, ints, floats, booleans, ``None`` and (nested)
    tuples/lists of those.  The result is an unsigned integer in
    ``[0, 2**160)``.

    Results are memoised in a bounded cache (:data:`SHA1_CACHE_MAX` entries,
    oldest half evicted in bulk when the bound is hit — recency bookkeeping
    per hit would cost more than the amortised eviction): every placement
    decision in the system funnels through this function with a heavily
    repeating identifier population, so the common case is one dict hit
    instead of an encode + SHA-1.
    """
    cache = _sha1_cache
    try:
        key = _cache_key(value)
        cached = cache.get(key)
    except TypeError:
        # Unhashable input (e.g. a dict buried in a tuple): _to_bytes raises
        # the caller-visible TypeError exactly as it always did.
        digest = hashlib.sha1(_to_bytes(value)).digest()
        return int.from_bytes(digest, "big")
    if cached is not None:
        return cached
    digest = hashlib.sha1(_to_bytes(value)).digest()
    result = int.from_bytes(digest, "big")
    if len(cache) >= SHA1_CACHE_MAX:
        # Bulk-evict the oldest half (dicts iterate in insertion order).
        for stale in list(cache)[: SHA1_CACHE_MAX // 2]:
            del cache[stale]
    cache[key] = result
    return result


def sha1_digest(value: object) -> bytes:
    """The first 16 bytes of the SHA-1 of ``value``.

    Same input encoding as :func:`sha1_key`, but unmemoised and returned as
    bytes: for content digests of one-off values (a routing snapshot's
    ranges) that would only churn the placement memo.
    """
    return hashlib.sha1(_to_bytes(value)).digest()[:16]


def sha1_cache_size() -> int:
    """Current number of memoised digests (bounded by SHA1_CACHE_MAX)."""
    return len(_sha1_cache)


def clear_sha1_cache() -> None:
    """Drop the memo (tests; never required for correctness)."""
    _sha1_cache.clear()


def node_id_for(address: str) -> int:
    """Return the ring position of a node, i.e. the SHA-1 hash of its address.

    This mirrors Pastry/Chord assigning each node an ID by hashing its IP
    address (Section III-A).
    """
    return sha1_key(("node", address))


def ring_add(point: int, delta: int) -> int:
    """Move ``delta`` positions clockwise around the ring (modulo 2**160)."""
    return (point + delta) & KEY_SPACE_MASK


def ring_distance(start: int, end: int) -> int:
    """Clockwise distance from ``start`` to ``end`` on the ring."""
    return (end - start) & KEY_SPACE_MASK


def format_key(key: int, digits: int = 8) -> str:
    """Human-readable hex prefix of a key, used in logs and test output."""
    return f"0x{key:040x}"[: 2 + digits] + "..."


@dataclass(frozen=True)
class KeyRange:
    """A half-open arc ``[start, end)`` of the key ring.

    The arc may wrap around zero (``start > end``).  A range with
    ``start == end`` is interpreted as the *full* ring when ``full`` is true
    and as the empty range otherwise; both cases appear in practice (a single
    node owns the whole ring; an empty range results from splitting a
    zero-width arc).
    """

    start: int
    end: int
    full: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.start < KEY_SPACE_SIZE):
            raise ValueError(f"range start {self.start} outside the key space")
        if not (0 <= self.end < KEY_SPACE_SIZE):
            raise ValueError(f"range end {self.end} outside the key space")
        if self.full and self.start != self.end:
            raise ValueError("a full range must have start == end")

    @classmethod
    def full_ring(cls, start: int = 0) -> "KeyRange":
        """The range covering the entire key space, anchored at ``start``."""
        return cls(start, start, full=True)

    @classmethod
    def empty(cls, start: int = 0) -> "KeyRange":
        return cls(start, start, full=False)

    # -- predicates ---------------------------------------------------------

    def is_empty(self) -> bool:
        return self.start == self.end and not self.full

    def contains(self, key: int) -> bool:
        """Whether ``key`` falls inside the half-open arc."""
        key &= KEY_SPACE_MASK
        if self.start == self.end:
            return self.full
        if self.start < self.end:
            return self.start <= key < self.end
        return key >= self.start or key < self.end

    def overlaps(self, other: "KeyRange") -> bool:
        if self.is_empty() or other.is_empty():
            return False
        if self.full or other.full:
            return True
        return (
            self.contains(other.start)
            or other.contains(self.start)
        )

    # -- measurements -------------------------------------------------------

    def size(self) -> int:
        """Number of keys covered by the arc."""
        if self.start == self.end:
            return KEY_SPACE_SIZE if self.full else 0
        return ring_distance(self.start, self.end)

    def fraction(self) -> float:
        """Fraction of the whole ring covered, in ``[0, 1]``."""
        return self.size() / KEY_SPACE_SIZE

    def midpoint(self) -> int:
        """The key at the middle of the arc.

        Index pages are stored at the midpoint of the hash range of the tuple
        keys they reference, so that the index entry and the referenced tuples
        are co-located on the same node (Section IV).
        """
        if self.is_empty():
            return self.start
        return ring_add(self.start, self.size() // 2)

    # -- construction of sub-ranges ----------------------------------------

    def split(self, pieces: int) -> list["KeyRange"]:
        """Split the arc into ``pieces`` contiguous sub-arcs of near-equal size."""
        if pieces <= 0:
            raise ValueError("pieces must be positive")
        if self.is_empty():
            return [KeyRange.empty(self.start) for _ in range(pieces)]
        total = self.size()
        boundaries = [ring_add(self.start, (total * i) // pieces) for i in range(pieces)]
        boundaries.append(self.end if not self.full else self.start)
        result = []
        for i in range(pieces):
            start, end = boundaries[i], boundaries[i + 1]
            full = self.full and pieces == 1
            result.append(KeyRange(start, end, full=full))
        return result

    def keys_sample(self, count: int) -> Iterator[int]:
        """Yield ``count`` evenly spaced keys inside the arc (for tests)."""
        if self.is_empty() or count <= 0:
            return
        total = self.size()
        for i in range(count):
            yield ring_add(self.start, (total * i) // count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.full:
            return "KeyRange(<full ring>)"
        return f"KeyRange({format_key(self.start)}, {format_key(self.end)})"


def ranges_partition_ring(ranges: Iterable[KeyRange]) -> bool:
    """Check that a collection of ranges exactly partitions the ring.

    Used by tests and by :mod:`repro.overlay.allocation` assertions: the
    balanced allocator must always hand out ranges that tile the ring with no
    gaps and no overlaps.
    """
    ranges = [r for r in ranges if not r.is_empty()]
    if not ranges:
        return False
    if any(r.full for r in ranges):
        return len(ranges) == 1
    total = sum(r.size() for r in ranges)
    if total != KEY_SPACE_SIZE:
        return False
    # Starting points must chain: sort by start and check each range ends where
    # the next one begins (with wrap-around for the last).
    ordered = sorted(ranges, key=lambda r: r.start)
    for i, current in enumerate(ordered):
        nxt = ordered[(i + 1) % len(ordered)]
        if current.end != nxt.start:
            return False
    return True
