"""Red-black tree unit and property tests."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.util.rbtree import RedBlackTree

#: the directory ``repro`` was imported from, for the child interpreter
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_NO_CYCLES_BODY = """
import gc, sys
from repro.util.rbtree import RedBlackTree

gc.collect()
gc.disable()
t = RedBlackTree()
for i in range(500):
    t.insert(i, i)
for i in range(0, 500, 3):
    t.delete(i)  # fix-ups may park nil.parent on a node
if sys.argv[1] == "drop":
    del t
else:
    t.clear()
assert gc.collect() == 0
"""


class TestBasics:
    def test_empty(self):
        t = RedBlackTree()
        assert len(t) == 0
        assert not t
        assert b"x" not in t
        assert t.get(b"x") is None
        assert t.get(b"x", 42) == 42

    def test_insert_and_get(self):
        t = RedBlackTree()
        assert t.insert(b"a", 1) is True
        assert t[b"a"] == 1
        assert b"a" in t
        assert len(t) == 1

    def test_insert_replaces(self):
        t = RedBlackTree()
        t.insert(b"a", 1)
        assert t.insert(b"a", 2) is False
        assert t[b"a"] == 2
        assert len(t) == 1

    def test_getitem_missing_raises(self):
        t = RedBlackTree()
        with pytest.raises(KeyError):
            t[b"nope"]

    def test_setitem_alias(self):
        t = RedBlackTree()
        t[b"k"] = "v"
        assert t[b"k"] == "v"

    def test_delete(self):
        t = RedBlackTree()
        t.insert(b"a", 1)
        t.insert(b"b", 2)
        assert t.delete(b"a") == 1
        assert b"a" not in t
        assert len(t) == 1

    def test_delete_missing_raises(self):
        t = RedBlackTree()
        with pytest.raises(KeyError):
            t.delete(b"missing")

    def test_pop_default(self):
        t = RedBlackTree()
        assert t.pop(b"missing", None) is None
        with pytest.raises(KeyError):
            t.pop(b"missing")

    def test_clear(self):
        t = RedBlackTree()
        for i in range(10):
            t.insert(str(i).encode(), i)
        t.clear()
        assert len(t) == 0
        assert list(t.items()) == []
        # a cleared tree is an empty tree, not a dead one
        for i in range(10):
            t.insert(i, i)
        t.delete(3)
        t.check_invariants()
        assert list(t.keys()) == [0, 1, 2, 4, 5, 6, 7, 8, 9]

    @pytest.mark.parametrize("how", ["drop", "clear"])
    def test_retired_nodes_need_no_cyclic_collection(self, how):
        """Parent links make nodes cyclic; a retired MemTable's tree
        must still be freed by reference counting, not left for a
        full collection to find in somebody's timed phase.

        ``gc.collect()`` counts the whole process, so the body runs in
        an interpreter of its own: in this one, a thread an earlier test
        left unwinding can drop a cycle into the count."""
        proc = subprocess.run(
            [sys.executable, "-c", _NO_CYCLES_BODY, how],
            env={**os.environ, "PYTHONPATH": _SRC},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_sorted_iteration(self):
        t = RedBlackTree()
        keys = [b"m", b"c", b"z", b"a", b"q"]
        for i, k in enumerate(keys):
            t.insert(k, i)
        assert [k for k, _ in t.items()] == sorted(keys)
        assert list(t.keys()) == sorted(keys)
        assert list(iter(t)) == sorted(keys)

    def test_min_max(self):
        t = RedBlackTree()
        for k in [b"m", b"c", b"z"]:
            t.insert(k, None)
        assert t.min_key() == b"c"
        assert t.max_key() == b"z"

    def test_min_max_empty_raises(self):
        t = RedBlackTree()
        with pytest.raises(KeyError):
            t.min_key()
        with pytest.raises(KeyError):
            t.max_key()

    def test_values_follow_key_order(self):
        t = RedBlackTree()
        for k, v in [(b"b", 2), (b"a", 1), (b"c", 3)]:
            t.insert(k, v)
        assert list(t.values()) == [1, 2, 3]

    def test_large_sequential_insert(self):
        t = RedBlackTree()
        for i in range(1000):
            t.insert(i, i * 2)
        assert len(t) == 1000
        t.check_invariants()
        assert t[500] == 1000

    def test_large_reverse_insert(self):
        t = RedBlackTree()
        for i in reversed(range(1000)):
            t.insert(i, i)
        t.check_invariants()
        assert list(t.keys()) == list(range(1000))

    def test_interleaved_insert_delete(self):
        t = RedBlackTree()
        for i in range(200):
            t.insert(i, i)
        for i in range(0, 200, 2):
            t.delete(i)
        t.check_invariants()
        assert list(t.keys()) == list(range(1, 200, 2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ID"), st.binary(min_size=1, max_size=6))))
def test_rbtree_matches_dict_model(ops):
    """Random insert/delete sequences behave exactly like a dict."""
    t = RedBlackTree()
    model: dict = {}
    for op, key in ops:
        if op == "I":
            t.insert(key, key)
            model[key] = key
        else:
            if key in model:
                assert t.delete(key) == model.pop(key)
            else:
                with pytest.raises(KeyError):
                    t.delete(key)
    assert len(t) == len(model)
    assert list(t.items()) == sorted(model.items())
    t.check_invariants()


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=10_000), max_size=300))
def test_rbtree_invariants_hold(keys):
    t = RedBlackTree()
    for k in keys:
        t.insert(k, None)
    t.check_invariants()
    # delete half and re-check
    for k in sorted(keys)[::2]:
        t.delete(k)
    t.check_invariants()
