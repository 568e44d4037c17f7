"""Per-node ordered storage: a B+-tree keyed store (BerkeleyDB JE substitute).

The paper's prototype uses BerkeleyDB Java Edition for persistent local
storage; each data storage node keeps a B+-tree mapping *tuple ID hash →
page ID* and a map *tuple ID → value* so that "the tuples from each index page
are stored nearby on disk, and are retrieved in a single pass through the hash
ID range for that page" (Table I, distributed scan).

:class:`BPlusTree` is a textbook in-memory B+-tree supporting point lookups,
ordered iteration and range scans over arbitrary orderable keys.
:class:`LocalStore` wraps one tree per named index and adds the small
convenience API (named trees, counters, size accounting) the storage service
needs.  Durability is irrelevant to the reproduced experiments, so nothing is
written to disk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Any, Callable, Iterable, Iterator

_DEFAULT_ORDER = 64


class _LeafNode:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.values: list[Any] = []
        self.next: "_LeafNode | None" = None


class _InnerNode:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[Any] = []
        self.children: list[Any] = []


class BPlusTree:
    """An in-memory B+-tree with ordered range scans.

    ``order`` is the maximum number of children of an inner node (and the
    maximum number of entries in a leaf).  Keys must be mutually orderable.
    """

    def __init__(self, order: int = _DEFAULT_ORDER) -> None:
        if order < 4:
            raise ValueError("B+-tree order must be at least 4")
        self.order = order
        self._root: _LeafNode | _InnerNode = _LeafNode()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    # -- point operations ------------------------------------------------------

    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        keys = leaf.keys
        index = self._position(keys, key)
        if index < len(keys) and keys[index] == key:
            return leaf.values[index]
        return default

    def get_many(self, keys: Iterable[Any], default: Any = None) -> list[Any]:
        """Point lookups for a batch of keys: one value per key, in request
        order, ``default`` where a key is absent.

        Equivalent to ``[self.get(key, default) for key in keys]``, but the
        root-to-leaf descent is paid once per *leaf visited* rather than once
        per key: a key that falls strictly inside the span of the leaf the
        previous key landed on is resolved there.  The distributed scan asks
        for a page's tuples in hash order, which is the tree's key order, so
        nearly every key takes that path; unsorted, duplicate and absent keys
        are all fine — at worst they descend again.
        """
        results: list[Any] = []
        append = results.append
        position = self._position
        leaf: _LeafNode | None = None
        leaf_keys: list[Any] = []
        for key in keys:
            index = position(leaf_keys, key)
            if not 0 < index < len(leaf_keys):
                # Not provably inside the current leaf's span (at or before
                # its first key, past its last, or no leaf yet): descend.
                leaf = self._find_leaf(key)
                leaf_keys = leaf.keys
                index = position(leaf_keys, key)
            if index < len(leaf_keys) and leaf_keys[index] == key:
                append(leaf.values[index])
            else:
                append(default)
        return results

    def put(self, key: Any, value: Any) -> None:
        """Insert or replace the value stored under ``key``."""
        path = self._path_to_leaf(key)
        leaf = path[-1]
        index = self._position(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value
            return
        leaf.keys.insert(index, key)
        leaf.values.insert(index, value)
        self._size += 1
        if len(leaf.keys) >= self.order:
            self._split(path)

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns whether it was present.

        Underflow is tolerated (nodes are not merged); the tree stays correct
        and the simplification is harmless for this workload, where deletes
        are rare compared to inserts.
        """
        leaf = self._find_leaf(key)
        index = self._position(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.keys.pop(index)
            leaf.values.pop(index)
            self._size -= 1
            return True
        return False

    # -- scans ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All entries in key order."""
        leaf = self._leftmost_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_high: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Entries with ``low <= key < high`` (or ``<= high`` if inclusive).

        ``None`` bounds mean unbounded on that side.
        """
        leaf = self._leftmost_leaf() if low is None else self._find_leaf(low)
        start = 0 if low is None else self._position(leaf.keys, low)
        while leaf is not None:
            for index in range(start, len(leaf.keys)):
                key = leaf.keys[index]
                if high is not None:
                    if include_high:
                        if key > high:
                            return
                    elif key >= high:
                        return
                yield key, leaf.values[index]
            leaf = leaf.next
            start = 0

    def first(self) -> tuple[Any, Any] | None:
        leaf = self._leftmost_leaf()
        while leaf is not None and not leaf.keys:
            leaf = leaf.next
        if leaf is None:
            return None
        return leaf.keys[0], leaf.values[0]

    # -- internals ----------------------------------------------------------------

    #: Leftmost insertion point for ``key`` — the C-level bisect is
    #: identical to the textbook binary search it replaces.
    _position = staticmethod(bisect_left)

    def _find_leaf(self, key: Any) -> _LeafNode:
        """Descend to the leaf that would hold ``key`` without recording the
        path — only :meth:`put` needs the ancestors, for splits."""
        node = self._root
        while isinstance(node, _InnerNode):
            node = node.children[bisect_right(node.keys, key)]
        return node

    def _path_to_leaf(self, key: Any) -> list[Any]:
        node = self._root
        path = [node]
        while isinstance(node, _InnerNode):
            # A separator equal to ``key`` sends the search right of it.
            node = node.children[bisect_right(node.keys, key)]
            path.append(node)
        return path

    def _leftmost_leaf(self) -> _LeafNode:
        node = self._root
        while isinstance(node, _InnerNode):
            node = node.children[0]
        return node

    def _split(self, path: list[Any]) -> None:
        node = path[-1]
        parents = path[:-1]
        while True:
            if isinstance(node, _LeafNode):
                sibling = _LeafNode()
                mid = len(node.keys) // 2
                sibling.keys = node.keys[mid:]
                sibling.values = node.values[mid:]
                node.keys = node.keys[:mid]
                node.values = node.values[:mid]
                sibling.next = node.next
                node.next = sibling
                push_key = sibling.keys[0]
            else:
                sibling = _InnerNode()
                mid = len(node.keys) // 2
                push_key = node.keys[mid]
                sibling.keys = node.keys[mid + 1 :]
                sibling.children = node.children[mid + 1 :]
                node.keys = node.keys[:mid]
                node.children = node.children[: mid + 1]

            if not parents:
                new_root = _InnerNode()
                new_root.keys = [push_key]
                new_root.children = [node, sibling]
                self._root = new_root
                return
            parent = parents.pop()
            index = self._position(parent.keys, push_key)
            parent.keys.insert(index, push_key)
            parent.children.insert(index + 1, sibling)
            if len(parent.keys) < self.order:
                return
            node = parent


class LocalStore:
    """A named collection of B+-trees modelling one node's local database.

    The storage service keeps several logical "databases" per node (relation
    coordinator records, index pages, tuple data, inverse entries); each is a
    separately named tree so scans never cross record types, mirroring how the
    prototype keeps separate BerkeleyDB databases.
    """

    def __init__(self, order: int = _DEFAULT_ORDER) -> None:
        self._order = order
        self._trees: dict[str, BPlusTree] = {}
        self.bytes_stored = 0
        #: Per-entry byte footprint, so replacing or deleting an entry
        #: adjusts ``bytes_stored`` instead of drifting it upward forever.
        self._entry_sizes: dict[tuple[str, Any], int] = {}
        #: Content checksums recorded beside entries when the integrity layer
        #: is on (CRC over the canonical serialized form, written at
        #: publish/replication time and compared on every read).
        self._checksums: dict[tuple[str, Any], int] = {}

    def tree(self, name: str) -> BPlusTree:
        if name not in self._trees:
            self._trees[name] = BPlusTree(self._order)
        return self._trees[name]

    def put(self, tree: str, key: Any, value: Any, size: int = 0) -> None:
        self.tree(tree).put(key, value)
        previous = self._entry_sizes.pop((tree, key), 0)
        self.bytes_stored += size - previous
        if size:
            self._entry_sizes[(tree, key)] = size

    def get(self, tree: str, key: Any, default: Any = None) -> Any:
        found = self._trees.get(tree)
        if found is None:
            found = self.tree(tree)
        return found.get(key, default)

    def get_many(self, tree: str, keys: Iterable[Any], default: Any = None) -> list[Any]:
        """Batched :meth:`get`: one value per key, in request order."""
        return self.tree(tree).get_many(keys, default)

    def delete(self, tree: str, key: Any) -> bool:
        removed = self.tree(tree).delete(key)
        if removed:
            self.bytes_stored -= self._entry_sizes.pop((tree, key), 0)
            self._checksums.pop((tree, key), None)
        return removed

    # -- content checksums -------------------------------------------------------

    def set_checksum(self, tree: str, key: Any, checksum: int) -> None:
        """Record the content checksum stored beside ``(tree, key)``."""
        self._checksums[(tree, key)] = checksum

    def get_checksum(self, tree: str, key: Any) -> int | None:
        """The recorded checksum for ``(tree, key)``, or None if unchecked."""
        return self._checksums.get((tree, key))

    def set_checksums(self, tree: str, keys: Iterable[Any], checksums: Iterable[int]) -> None:
        """Batched :meth:`set_checksum`, in key order."""
        self._checksums.update(zip(zip(repeat(tree), keys), checksums))

    def get_checksums(self, tree: str, keys: Iterable[Any]) -> list[int | None]:
        """Batched :meth:`get_checksum`: one entry per key, in request order."""
        return list(map(self._checksums.get, zip(repeat(tree), keys)))

    def contains(self, tree: str, key: Any) -> bool:
        return key in self.tree(tree)

    def range_scan(
        self, tree: str, low: Any = None, high: Any = None, include_high: bool = False
    ) -> Iterator[tuple[Any, Any]]:
        return self.tree(tree).range_scan(low, high, include_high)

    def items(self, tree: str) -> Iterable[tuple[Any, Any]]:
        return self.tree(tree).items()

    def count(self, tree: str) -> int:
        return len(self.tree(tree))

    def filter_items(self, tree: str, predicate: Callable[[Any, Any], bool]) -> list[tuple[Any, Any]]:
        return [(k, v) for k, v in self.tree(tree).items() if predicate(k, v)]
