"""Per-node storage service: the RPC surface of the versioned storage layer.

Every participant runs one :class:`StorageService`.  It owns the node's local
ordered store (:class:`~repro.storage.localstore.LocalStore`) and registers
the RPC methods that implement the four roles a node can play in Figure 3 of
the paper:

* **relation coordinator** — serves the list of index pages for a relation
  version (``store.put_coordinator`` / ``store.get_coordinator``), plus the
  small catalog record listing the epochs at which a relation was published;
* **index node** — stores index pages and answers scan requests by filtering
  the page's tuple IDs with a sargable predicate (``store.put_page`` /
  ``store.scan_page``);
* **data storage node** — stores full tuple versions keyed by tuple ID and
  serves point reads and scans (``store.put_tuples`` / ``store.get_tuples``);
* **inverse node** — maps a tuple key to the page currently holding its
  latest version, used when a tuple is modified (``store.put_inverse`` /
  ``store.get_inverse``).

The service is deliberately ignorant of *placement*: clients decide which node
to contact using a routing snapshot, and replicas receive the same ``put``
messages as the owner.  If a read misses (e.g. the ring moved after a failure
and this node only just inherited a range), the client — not the service —
falls back to the replicas, implementing the paper's "search other nodes
nearby in the system until it found a copy" behaviour.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from ..common.types import TupleId, VersionedTuple
from ..net.simnet import SimNode
from ..net.transport import RpcEndpoint, rpc_endpoint
from .localstore import LocalStore
from .pages import CoordinatorRecord, IndexPage, PageId

#: CPU cost (seconds) of processing one tuple ID during an index-page scan.
INDEX_SCAN_COST_PER_ID = 0.2e-6
#: CPU cost (seconds) of materialising one stored tuple during a data scan.
DATA_SCAN_COST_PER_TUPLE = 1.0e-6
#: CPU cost (seconds) of inserting one tuple version.
INSERT_COST_PER_TUPLE = 1.5e-6

_COORD_TREE = "coordinator"
_CATALOG_TREE = "catalog"
_PAGE_TREE = "pages"
_TUPLE_TREE = "tuples"
_INVERSE_TREE = "inverse"


class StorageService:
    """Storage RPC handlers and local state for a single simulated node."""

    def __init__(self, node: SimNode, cache=None, integrity=None) -> None:
        self.node = node
        self.rpc: RpcEndpoint = rpc_endpoint(node)
        self.store = LocalStore()
        #: Optional :class:`~repro.cache.node.NodeCache`.  Index pages are
        #: version-keyed and immutable, so a page this node cached while
        #: acting as a client can safely be served to peers after the ring
        #: moved, instead of failing over to replicas.
        self.cache = cache
        #: Optional :class:`~repro.integrity.NodeIntegrity`.  When set, every
        #: write records a content checksum beside the entry and every read
        #: re-verifies it; a mismatch quarantines the local copy so the
        #: caller's replica-failover path read-repairs it transparently.
        self.integrity = integrity
        #: Local observers notified when tuples are written (used by tests and
        #: by the background replicator's bookkeeping).
        self._write_listeners: list[Callable[[VersionedTuple], None]] = []
        self._register_handlers()
        node.services["storage"] = self

    # ------------------------------------------------------------------ setup

    def _register_handlers(self) -> None:
        self.rpc.register("store.put_coordinator", self._on_put_coordinator)
        self.rpc.register("store.get_coordinator", self._on_get_coordinator)
        self.rpc.register("store.put_catalog", self._on_put_catalog)
        self.rpc.register("store.get_catalog", self._on_get_catalog)
        self.rpc.register("store.put_page", self._on_put_page)
        self.rpc.register("store.get_page", self._on_get_page)
        self.rpc.register("store.scan_page", self._on_scan_page)
        self.rpc.register("store.put_tuples", self._on_put_tuples)
        self.rpc.register("store.get_tuples", self._on_get_tuples)
        self.rpc.register("store.put_inverse", self._on_put_inverse)
        self.rpc.register("store.get_inverse", self._on_get_inverse)

    def add_write_listener(self, listener: Callable[[VersionedTuple], None]) -> None:
        self._write_listeners.append(listener)

    # -------------------------------------------------------------- integrity

    def _record_checksum(self, tree: str, key, value) -> None:
        """Record the content checksum beside a fresh write (no-op when off)."""
        if self.integrity is not None:
            self.integrity.record(self.store, tree, key, value)

    def _verified(self, tree: str, key, value, site: str):
        """Return ``value`` if it passes verification, else None.

        A failed copy is quarantined and deleted by the guard, so to every
        caller the entry simply looks *missing* — which routes the read into
        the existing replica-failover paths, and the back-fill they perform
        becomes the read-repair.
        """
        if value is None or self.integrity is None:
            return value
        if self.integrity.verify(self.store, tree, key, value, site, node=self.node):
            return value
        return None

    # ------------------------------------------------------- coordinator role

    def _on_put_coordinator(self, _src: str, payload: Mapping[str, object], respond) -> None:
        record: CoordinatorRecord = payload["record"]
        self.store.put(
            _COORD_TREE,
            (record.relation, record.epoch),
            record,
            size=record.estimated_size(),
        )
        self._record_checksum(_COORD_TREE, (record.relation, record.epoch), record)
        respond({"ok": True}, size=8)

    def _on_get_coordinator(self, _src: str, payload: Mapping[str, object], respond) -> None:
        record = self.local_coordinator(payload["relation"], payload["epoch"])
        if record is None:
            respond({"missing": True}, size=8)
        else:
            respond({"record": record}, size=record.estimated_size())

    def _on_put_catalog(self, _src: str, payload: Mapping[str, object], respond) -> None:
        relation = payload["relation"]
        epochs: set[int] = set(self.store.get(_CATALOG_TREE, relation, default=()))
        epochs.update(payload["epochs"])
        self.store.put(_CATALOG_TREE, relation, tuple(sorted(epochs)), size=8 * len(epochs))
        respond({"ok": True}, size=8)

    def _on_get_catalog(self, _src: str, payload: Mapping[str, object], respond) -> None:
        epochs = self.store.get(_CATALOG_TREE, payload["relation"])
        if epochs is None:
            respond({"missing": True}, size=8)
        else:
            respond({"epochs": tuple(epochs)}, size=8 + 8 * len(epochs))

    # -------------------------------------------------------- index node role

    def _on_put_page(self, _src: str, payload: Mapping[str, object], respond) -> None:
        page: IndexPage = payload["page"]
        self.store.put(_PAGE_TREE, page.page_id, page, size=page.estimated_size())
        self._record_checksum(_PAGE_TREE, page.page_id, page)
        respond({"ok": True}, size=8)

    def _on_get_page(self, _src: str, payload: Mapping[str, object], respond) -> None:
        page = self.local_page(payload["page_id"])
        if page is None and self.cache is not None:
            # Serve a remote reader from the cache, but bypass the hit
            # counters: the page still crosses the network in the reply, so
            # counting its size as "bytes saved" would overstate the savings
            # (what is actually avoided is only the requester's failover
            # retry against the next replica).
            page = self.cache.peek_page(payload["page_id"])
        if page is None:
            respond({"missing": True}, size=8)
        else:
            respond({"page": page}, size=page.estimated_size())

    def _on_scan_page(self, _src: str, payload: Mapping[str, object], respond) -> None:
        """Filter a page's tuple IDs with an optional sargable predicate.

        The predicate is a callable over the tuple's *key values* (sargable in
        the paper's sense: evaluable from the index entry alone).
        """
        page = self.local_page(payload["page_id"], site="scan")
        if page is None:
            respond({"missing": True}, size=8)
            return
        predicate = payload.get("key_predicate")
        if predicate is not None and hasattr(predicate, "compile"):
            # Serializable ScanPredicate descriptor: compile it against its
            # attribute signature (duck-typed to keep the storage layer free
            # of query-package imports).
            predicate = predicate.compile()
        self.node.charge_cpu(INDEX_SCAN_COST_PER_ID * len(page.tuple_ids))
        if predicate is None:
            matching = list(page.tuple_ids)
        else:
            matching = [tid for tid in page.tuple_ids if predicate(tid.key_values)]
        respond({"tuple_ids": matching}, size=8 + 24 * len(matching))

    # ------------------------------------------------------ data storage role

    def _on_put_tuples(self, _src: str, payload: Mapping[str, object], respond) -> None:
        tuples: Iterable[VersionedTuple] = payload["tuples"]
        total = 0
        count = 0
        for tup in tuples:
            self.store.put(
                _TUPLE_TREE,
                (tup.relation, tup.hash_key, tup.tuple_id),
                tup,
                size=tup.estimated_size(),
            )
            self._record_checksum(_TUPLE_TREE, (tup.relation, tup.hash_key, tup.tuple_id), tup)
            total += tup.estimated_size()
            count += 1
            for listener in self._write_listeners:
                listener(tup)
        self.node.charge_cpu(INSERT_COST_PER_TUPLE * count)
        self.node.charge_disk_read(0)  # writes are asynchronous in the prototype
        respond({"ok": True, "count": count}, size=16)

    def _on_get_tuples(self, _src: str, payload: Mapping[str, object], respond) -> None:
        relation = payload["relation"]
        requested: Iterable[TupleId] = payload["tuple_ids"]
        found, missing = self.lookup_tuples(relation, requested)
        size = sum(t.estimated_size() for t in found) + 24 * len(missing)
        respond({"tuples": found, "missing": missing}, size=size)

    # ----------------------------------------------------------- inverse role

    def _on_put_inverse(self, _src: str, payload: Mapping[str, object], respond) -> None:
        relation = payload["relation"]
        for key_values, page_ref, epoch in payload["entries"]:
            self.store.put(
                _INVERSE_TREE,
                (relation, key_values),
                (page_ref, epoch),
                size=48,
            )
        respond({"ok": True}, size=8)

    def _on_get_inverse(self, _src: str, payload: Mapping[str, object], respond) -> None:
        entry = self.store.get(_INVERSE_TREE, (payload["relation"], payload["key_values"]))
        if entry is None:
            respond({"missing": True}, size=8)
        else:
            page_ref, epoch = entry
            respond({"page_ref": page_ref, "epoch": epoch}, size=56)

    # ------------------------------------------------------- local (in-process)

    def local_coordinator(self, relation: str, epoch: int) -> CoordinatorRecord | None:
        record = self.store.get(_COORD_TREE, (relation, epoch))
        return self._verified(_COORD_TREE, (relation, epoch), record, "coordinator")

    def local_catalog(self, relation: str) -> tuple[int, ...] | None:
        return self.store.get(_CATALOG_TREE, relation)

    def local_page(self, page_id: PageId, site: str = "page") -> IndexPage | None:
        page = self.store.get(_PAGE_TREE, page_id)
        return self._verified(_PAGE_TREE, page_id, page, site)

    def local_or_cached_page(self, page_id: PageId) -> IndexPage | None:
        """Page from the local store, falling back to the node cache.

        The one lookup policy every *local consumer* of a page shares (index
        scans, Algorithm-1 page handling): page versions are immutable, so a
        copy cached while this node acted as a client is as good as an owned
        one and saves the replica round-trip.  Peers asking over RPC are
        served through :meth:`_on_get_page`, which deliberately bypasses the
        hit counters (the bytes still ship).
        """
        page = self.local_page(page_id)
        if page is None and self.cache is not None:
            page = self.cache.get_page(page_id)
        return page

    def local_pages_for_relation(self, relation: str) -> list[IndexPage]:
        return [page for _key, page in self.store.items(_PAGE_TREE) if page.page_id.relation == relation]

    def lookup_tuples(
        self, relation: str, tuple_ids: Iterable[TupleId]
    ) -> tuple[list[VersionedTuple], list[TupleId]]:
        """Local point lookups; returns (found tuples, missing IDs).

        One batched store lookup for the whole request: the IDs of a page
        arrive in hash order, which is the tuple tree's key order, so the
        tree resolves neighbours in the leaf it is already on.  Both result
        lists keep request order.
        """
        tuple_ids = list(tuple_ids)
        keys = [(relation, tid.hash_key, tid) for tid in tuple_ids]
        values = self.store.get_many(_TUPLE_TREE, keys)
        if self.integrity is not None:
            for index, value in enumerate(values):
                if value is None:
                    continue
                key = keys[index]
                if self._verified(_TUPLE_TREE, key, value, "tuple") is None:
                    # Quarantined and deleted: a repeat of the same ID later
                    # in this request must see the entry gone, not the copy
                    # fetched above.
                    for later in range(index, len(keys)):
                        if keys[later] == key:
                            values[later] = None
        found = [tup for tup in values if tup is not None]
        if len(found) == len(values):
            missing: list[TupleId] = []
        else:
            missing = [tid for tid, tup in zip(tuple_ids, values) if tup is None]
        self.node.charge_cpu(DATA_SCAN_COST_PER_TUPLE * len(tuple_ids))
        self.node.charge_disk_read(sum([tup.estimated_size() for tup in found]))
        return found, missing

    def store_tuple(self, tup: VersionedTuple) -> None:
        """Directly store a tuple locally (used by background replication)."""
        self.store.put(
            _TUPLE_TREE,
            (tup.relation, tup.hash_key, tup.tuple_id),
            tup,
            size=tup.estimated_size(),
        )
        self._record_checksum(_TUPLE_TREE, (tup.relation, tup.hash_key, tup.tuple_id), tup)

    def store_page(self, page: IndexPage) -> None:
        self.store.put(_PAGE_TREE, page.page_id, page, size=page.estimated_size())
        self._record_checksum(_PAGE_TREE, page.page_id, page)

    def store_coordinator(self, record: CoordinatorRecord) -> None:
        self.store.put(_COORD_TREE, (record.relation, record.epoch), record,
                       size=record.estimated_size())
        self._record_checksum(_COORD_TREE, (record.relation, record.epoch), record)

    def local_tuples_in_range(self, relation: str, hash_range) -> list[VersionedTuple]:
        """All locally stored tuple versions of ``relation`` within ``hash_range``."""
        result = []
        for (rel, hash_key, _tid), tup in self.store.items(_TUPLE_TREE):
            if rel == relation and hash_range.contains(hash_key):
                result.append(tup)
        return result

    def all_local_tuples(self, relation: str | None = None) -> list[VersionedTuple]:
        return [
            tup
            for (rel, _hash, _tid), tup in self.store.items(_TUPLE_TREE)
            if relation is None or rel == relation
        ]

    def tuple_count(self) -> int:
        return self.store.count(_TUPLE_TREE)

    # ------------------------------------------------------------ scrub surface

    #: Trees covered by the integrity scrubber's digest exchange.
    SCRUB_TREES = (_TUPLE_TREE, _PAGE_TREE, _COORD_TREE)

    def scrub_digests(self, tree: str, key_range) -> dict:
        """Digest lines for everything held in ``tree`` within ``key_range``.

        Checksums are *recomputed* from the bytes held now, paired with the
        checksum recorded at write time, so the scrubber can tell a locally
        rotted copy (fresh != stored) from a divergent-but-self-consistent
        one (both replicas verify, checksums differ across the group).
        """
        from ..integrity.checksum import checksum_of
        from ..integrity.scrubber import DigestEntry
        from .pages import coordinator_key

        entries: dict = {}
        for key, value in self.store.items(tree):
            if tree == _TUPLE_TREE:
                _rel, hash_key, tid = key
                placement, version = hash_key, tid.epoch
            elif tree == _PAGE_TREE:
                placement, version = value.ref.storage_key, key.epoch
            elif tree == _COORD_TREE:
                relation, epoch = key
                placement, version = coordinator_key(relation, epoch), epoch
            else:
                continue
            if not key_range.contains(placement):
                continue
            entries[key] = DigestEntry(
                version=version,
                checksum=checksum_of(value),
                stored=self.store.get_checksum(tree, key),
                size=value.estimated_size(),
            )
        return entries

    def scrub_fetch(self, tree: str, key):
        """Raw read for the scrubber's repair copy (no verification here:
        the digest exchange already established this copy self-verifies)."""
        return self.store.get(tree, key)

    def scrub_store(self, tree: str, key, value) -> int:
        """Back-fill one repaired entry; returns its size for accounting."""
        if tree == _TUPLE_TREE:
            self.store_tuple(value)
        elif tree == _PAGE_TREE:
            self.store_page(value)
        elif tree == _COORD_TREE:
            self.store_coordinator(value)
        else:
            raise ValueError(f"unscrubable tree {tree!r}")
        return value.estimated_size()

    def scrub_quarantine(self, tree: str, key) -> None:
        """Fail a corrupt/divergent copy loudly and remove it pending repair."""
        value = self.store.get(tree, key)
        if value is None:
            return
        if self.integrity is not None:
            self.integrity.stats.note_detected("scrub")
            self.integrity.stats.quarantined += 1
            self.integrity.quarantined.add((tree, key))
            self.integrity.detection_times.setdefault((tree, key), self.node.now)
            self.integrity._trace(self.node, "scrub", tree, key)
        self.store.delete(tree, key)


def storage_of(node: SimNode) -> StorageService:
    """Return the node's storage service (must exist)."""
    service = node.services.get("storage")
    if not isinstance(service, StorageService):
        raise LookupError(f"node {node.address!r} has no storage service")
    return service
