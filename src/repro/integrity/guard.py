"""Per-node verification state: record checksums, verify reads, quarantine.

One :class:`NodeIntegrity` is attached to each node's storage service (and
its caches) when the cluster runs with an
:class:`~repro.integrity.config.IntegrityConfig`.  It owns the node's
:class:`~repro.integrity.stats.IntegrityStats` and the quarantine
bookkeeping that turns a later re-store of a failed entry into a counted
read-repair.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Any, Sequence

from .checksum import checksum_of, tuple_checksums
from .config import IntegrityConfig
from .stats import IntegrityStats


class NodeIntegrity:
    """Checksum recording, read verification and quarantine for one node."""

    def __init__(self, config: IntegrityConfig, stats: IntegrityStats | None = None) -> None:
        self.config = config
        self.stats = stats or IntegrityStats()
        #: Entries failed and removed, awaiting a verified back-fill; a
        #: subsequent :meth:`record` of the same ``(tree, key)`` is the
        #: repair completing and is attributed to :attr:`repair_source`.
        self.quarantined: set[tuple[str, Any]] = set()
        #: Virtual time each ``(tree, key)`` first failed verification on this
        #: node — the corruption bench derives detection latency from it.
        self.detection_times: dict[tuple[str, Any], float] = {}
        #: Which repair path is currently writing: ``failover`` for the
        #: replica-chase read-repair (the default), flipped to
        #: ``replication``/``scrub`` by the cluster around those copy paths.
        self.repair_source = "failover"

    # -- write path ------------------------------------------------------------

    def record(self, store, tree: str, key: Any, value: Any) -> None:
        """Compute and store the content checksum beside a fresh write."""
        checksum = checksum_of(value)
        if checksum is None:
            return
        store.set_checksum(tree, key, checksum)
        if (tree, key) in self.quarantined:
            self.quarantined.discard((tree, key))
            self.stats.note_repaired(self.repair_source)

    def record_tuples(self, store, tree: str, keys: Sequence[Any],
                      tuples: Sequence[Any]) -> None:
        """:meth:`record` for a batch of tuple versions, checksummed in one pass.

        Keys are recorded in order, so a key written twice keeps the later
        version's checksum and its quarantine → repaired accounting happens
        once, as with one :meth:`record` per key.
        """
        checksums = tuple_checksums(tuples)
        store.set_checksums(tree, keys, checksums)
        if self.quarantined:
            for key in keys:
                if (tree, key) in self.quarantined:
                    self.quarantined.discard((tree, key))
                    self.stats.note_repaired(self.repair_source)

    # -- read path -------------------------------------------------------------

    def verify(self, store, tree: str, key: Any, value: Any, site: str,
               node=None) -> bool:
        """Re-checksum ``value`` against the stored CRC; quarantine on mismatch.

        Returns True when the entry is intact (or was written before the
        integrity layer was enabled, so no checksum is recorded).  On a
        mismatch the local copy is failed loudly — detection counter, trace
        span when tracing is on — and removed from the store so the existing
        replica-failover paths transparently fetch a verified copy and
        back-fill it.
        """
        if not self.config.verify_reads:
            return True
        expected = store.get_checksum(tree, key)
        if expected is None:
            return True
        if checksum_of(value) == expected:
            return True
        self._quarantine(store, tree, key, site, node)
        return False

    def verify_tuples(self, store, tree: str, keys: Sequence[Any],
                      values: Sequence[Any], site: str, node=None) -> list[bool]:
        """:meth:`verify` for a batch of fetched tuple versions, in one pass.

        ``values[i]`` is what the store held under ``keys[i]`` (None when it
        held nothing, which counts as intact).  Every version with a
        recorded checksum is re-encoded and compared; the failures are then
        quarantined in request order, with exactly the side effects of one
        :meth:`verify` per entry.  A key repeated after its copy failed is
        reported failed from there on without a second detection: that copy
        is gone.
        """
        intact = [True] * len(keys)
        if not self.config.verify_reads:
            return intact
        expected = store.get_checksums(tree, keys)
        checked = [
            index for index, (value, checksum) in enumerate(zip(values, expected))
            if value is not None and checksum is not None
        ]
        actual = tuple_checksums([values[index] for index in checked])
        failed_at: dict[Any, int] = {}
        for index in compress(checked, map(ne, actual, map(expected.__getitem__, checked))):
            key = keys[index]
            if key not in failed_at:
                failed_at[key] = index
                self._quarantine(store, tree, key, site, node)
        if failed_at:
            for index, key in enumerate(keys):
                if failed_at.get(key, index + 1) <= index:
                    intact[index] = False
        return intact

    def verify_cached(self, checksum: int | None, value: Any, site: str = "cache",
                      node=None, detail: Any = None) -> bool:
        """Verify a cache entry against the checksum recorded at fill time."""
        if checksum is None or not self.config.verify_cache:
            return True
        if checksum_of(value) == checksum:
            return True
        self.stats.note_detected(site)
        self._trace(node, site, "cache", detail)
        return False

    # -- internals -------------------------------------------------------------

    def _quarantine(self, store, tree: str, key: Any, site: str, node) -> None:
        """Fail a copy loudly: count it, quarantine it, delete it, trace it."""
        self.stats.note_detected(site)
        self.stats.quarantined += 1
        self.quarantined.add((tree, key))
        if node is not None:
            self.detection_times.setdefault((tree, key), node.now)
        store.delete(tree, key)
        self._trace(node, site, tree, key)

    def _trace(self, node, site: str, tree: str, key: Any) -> None:
        """Emit a zero-duration detection span when tracing is enabled."""
        if node is None:
            return
        tracer = getattr(node.network, "tracer", None)
        if tracer is None:
            return
        now = node.network.now
        context = tracer.current()
        span = tracer.open_span(
            "integrity.detected",
            node.address,
            now,
            trace_id=context.trace_id if context is not None else None,
            parent_id=context.span_id if context is not None else None,
            attrs={"site": site, "tree": tree, "key": repr(key)},
        )
        tracer.end_span(span, now)
