"""A classic red-black tree keyed by byte strings.

The paper states that each MemTable "is implemented as a red-black tree
indexed by key ... insert, lookup, and delete operations take O(log n)
time".  We implement the standard CLRS red-black tree with a sentinel NIL
node so MemTables here have the same asymptotics and iteration order
(sorted by key) as the original.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

RED = 0
BLACK = 1


class _Node:
    __slots__ = ("key", "value", "color", "left", "right", "parent")

    def __init__(self, key: Any, value: Any, color: int, nil: "_Node | None"):
        self.key = key
        self.value = value
        self.color = color
        self.left = nil
        self.right = nil
        self.parent = nil

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        c = "R" if self.color == RED else "B"
        return f"<Node {self.key!r} {c}>"


class RedBlackTree:
    """Mutable sorted map with O(log n) insert/lookup/delete.

    Keys may be any totally ordered type (PapyrusKV uses ``bytes``).
    Inserting an existing key replaces its value, mirroring the paper's
    "deletes the old one before it inserts the new one" semantics.
    """

    __slots__ = ("_nil", "_root", "_size")

    def __init__(self) -> None:
        nil = _Node(None, None, BLACK, None)
        nil.left = nil.right = nil.parent = nil
        self._nil = nil
        self._root = nil
        self._size = 0

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Any) -> bool:
        return self._find(key) is not None

    def _find(self, key: Any) -> Optional[_Node]:
        node = self._root
        nil = self._nil
        while node is not nil:
            if key == node.key:
                return node
            node = node.left if key < node.key else node.right
        return None

    def get(self, key: Any, default: Any = None) -> Any:
        """Value for ``key``, or ``default`` when absent."""
        node = self._find(key)
        return default if node is None else node.value

    def __getitem__(self, key: Any) -> Any:
        node = self._find(key)
        if node is None:
            raise KeyError(key)
        return node.value

    # ----------------------------------------------------------------- rotate
    def _rotate_left(self, x: _Node) -> None:
        nil = self._nil
        y = x.right
        x.right = y.left
        if y.left is not nil:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is nil:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y

    def _rotate_right(self, x: _Node) -> None:
        nil = self._nil
        y = x.left
        x.left = y.right
        if y.right is not nil:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is nil:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y

    # ----------------------------------------------------------------- insert
    def insert(self, key: Any, value: Any) -> bool:
        """Insert ``key``→``value``. Returns True if the key was new."""
        nil = self._nil
        parent = nil
        node = self._root
        while node is not nil:
            parent = node
            if key == node.key:
                node.value = value
                return False
            node = node.left if key < node.key else node.right
        fresh = _Node(key, value, RED, nil)
        fresh.parent = parent
        if parent is nil:
            self._root = fresh
        elif key < parent.key:
            parent.left = fresh
        else:
            parent.right = fresh
        self._size += 1
        self._insert_fixup(fresh)
        return True

    __setitem__ = insert

    def _insert_fixup(self, z: _Node) -> None:
        while z.parent.color == RED:
            gp = z.parent.parent
            if z.parent is gp.left:
                uncle = gp.right
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.right:
                        z = z.parent
                        self._rotate_left(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_right(z.parent.parent)
            else:
                uncle = gp.left
                if uncle.color == RED:
                    z.parent.color = BLACK
                    uncle.color = BLACK
                    gp.color = RED
                    z = gp
                else:
                    if z is z.parent.left:
                        z = z.parent
                        self._rotate_right(z)
                    z.parent.color = BLACK
                    z.parent.parent.color = RED
                    self._rotate_left(z.parent.parent)
        self._root.color = BLACK

    # ----------------------------------------------------------------- delete
    def delete(self, key: Any) -> Any:
        """Remove ``key`` and return its value. Raises KeyError if absent."""
        node = self._find(key)
        if node is None:
            raise KeyError(key)
        value = node.value
        self._delete_node(node)
        self._size -= 1
        return value

    def pop(self, key: Any, default: Any = ...) -> Any:
        """Remove and return; ``default`` (if given) when absent."""
        try:
            return self.delete(key)
        except KeyError:
            if default is ...:
                raise
            return default

    __delitem__ = delete

    def _transplant(self, u: _Node, v: _Node) -> None:
        if u.parent is self._nil:
            self._root = v
        elif u is u.parent.left:
            u.parent.left = v
        else:
            u.parent.right = v
        v.parent = u.parent

    def _minimum(self, node: _Node) -> _Node:
        nil = self._nil
        while node.left is not nil:
            node = node.left
        return node

    def _delete_node(self, z: _Node) -> None:
        nil = self._nil
        y = z
        y_color = y.color
        if z.left is nil:
            x = z.right
            self._transplant(z, z.right)
        elif z.right is nil:
            x = z.left
            self._transplant(z, z.left)
        else:
            y = self._minimum(z.right)
            y_color = y.color
            x = y.right
            if y.parent is z:
                x.parent = y
            else:
                self._transplant(y, y.right)
                y.right = z.right
                y.right.parent = y
            self._transplant(z, y)
            y.left = z.left
            y.left.parent = y
            y.color = z.color
        if y_color == BLACK:
            self._delete_fixup(x)

    def _delete_fixup(self, x: _Node) -> None:
        while x is not self._root and x.color == BLACK:
            if x is x.parent.left:
                w = x.parent.right
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_left(x.parent)
                    w = x.parent.right
                if w.left.color == BLACK and w.right.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.right.color == BLACK:
                        w.left.color = BLACK
                        w.color = RED
                        self._rotate_right(w)
                        w = x.parent.right
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.right.color = BLACK
                    self._rotate_left(x.parent)
                    x = self._root
            else:
                w = x.parent.left
                if w.color == RED:
                    w.color = BLACK
                    x.parent.color = RED
                    self._rotate_right(x.parent)
                    w = x.parent.left
                if w.right.color == BLACK and w.left.color == BLACK:
                    w.color = RED
                    x = x.parent
                else:
                    if w.left.color == BLACK:
                        w.right.color = BLACK
                        w.color = RED
                        self._rotate_left(w)
                        w = x.parent.left
                    w.color = x.parent.color
                    x.parent.color = BLACK
                    w.left.color = BLACK
                    self._rotate_right(x.parent)
                    x = self._root
        x.color = BLACK

    # -------------------------------------------------------------- iteration
    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) pairs in ascending key order."""
        nil = self._nil
        stack: list[_Node] = []
        node = self._root
        while stack or node is not nil:
            while node is not nil:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield node.key, node.value
            node = node.right

    def keys(self) -> Iterator[Any]:
        """Keys in ascending order."""
        for k, _ in self.items():
            yield k

    def values(self) -> Iterator[Any]:
        """Values in ascending key order."""
        for _, v in self.items():
            yield v

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    def min_key(self) -> Any:
        """Smallest key (KeyError when empty)."""
        if self._root is self._nil:
            raise KeyError("empty tree")
        return self._minimum(self._root).key

    def max_key(self) -> Any:
        """Largest key (KeyError when empty)."""
        if self._root is self._nil:
            raise KeyError("empty tree")
        node = self._root
        while node.right is not self._nil:
            node = node.right
        return node.key

    def clear(self) -> None:
        """Drop every entry.

        Parent links put every node on a reference cycle, so nodes that
        are merely dropped wait for a full cyclic collection, whose
        pause (milliseconds per retired MemTable generation) lands on
        whichever thread allocates next.  Cutting the links frees them
        by reference counting, here and now.
        """
        nil = self._nil
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is not nil:
                node.parent = None
                stack.append(node.left)
                stack.append(node.right)
        nil.parent = nil  # a delete fix-up may have left it on a node
        self._root = nil
        self._size = 0

    def __del__(self) -> None:
        # a dropped tree (every retired MemTable) frees its nodes like
        # a cleared one; the sentinel's self-links are the last cycle
        self.clear()
        nil = self._nil
        nil.left = nil.right = nil.parent = None

    # ------------------------------------------------------------- invariants
    def check_invariants(self) -> int:
        """Verify red-black invariants; return the tree's black height.

        Used by the property-based test suite.  Raises AssertionError on
        violation.
        """
        nil = self._nil
        assert self._root.color == BLACK, "root must be black"

        def walk(node: _Node, lo: Any, hi: Any) -> int:
            if node is nil:
                return 1
            if lo is not None:
                assert node.key > lo, "BST order violated (left)"
            if hi is not None:
                assert node.key < hi, "BST order violated (right)"
            if node.color == RED:
                assert node.left.color == BLACK and node.right.color == BLACK, (
                    "red node with red child"
                )
            lh = walk(node.left, lo, node.key)
            rh = walk(node.right, node.key, hi)
            assert lh == rh, "black height mismatch"
            return lh + (1 if node.color == BLACK else 0)

        return walk(self._root, None, None)
