"""Hashing and owner-rank mapping tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.hashing import builtin_key_hash, fnv1a_64, owner_rank


class TestFnv:
    def test_known_vector(self):
        # standard FNV-1a 64 test vector
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_deterministic(self):
        assert fnv1a_64(b"hello") == fnv1a_64(b"hello")

    def test_different_inputs_differ(self):
        assert fnv1a_64(b"hello") != fnv1a_64(b"world")

    def test_64bit_range(self):
        for s in (b"", b"x", b"longer input value"):
            assert 0 <= fnv1a_64(s) < (1 << 64)


class TestOwnerRank:
    def test_in_range(self):
        for n in (1, 2, 7, 64):
            assert 0 <= owner_rank(b"key", n) < n

    def test_single_rank_owns_all(self):
        assert owner_rank(b"anything", 1) == 0

    def test_invalid_nranks(self):
        with pytest.raises(ValueError):
            owner_rank(b"k", 0)

    def test_custom_hash_honoured(self):
        assert owner_rank(b"k", 8, lambda _: 5) == 5
        assert owner_rank(b"k", 4, lambda _: 5) == 1

    def test_builtin_is_fnv(self):
        assert builtin_key_hash(b"k") == fnv1a_64(b"k")

    def test_builtin_hash_is_paid_once_per_key(self):
        """The builtin hash is memoised (a bytearray key shares the
        bytes key's entry); a custom hash runs on every call."""
        builtin_key_hash.cache_clear()
        owner_rank(b"once", 4)
        assert owner_rank(bytearray(b"once"), 4) == fnv1a_64(b"once") % 4
        assert builtin_key_hash.cache_info()[:2] == (1, 1)  # hits, misses
        calls = []
        for _ in range(2):
            owner_rank(b"once", 4, lambda k: calls.append(k) or 3)
        assert calls == [b"once", b"once"]

    def test_distribution_roughly_uniform(self):
        n = 8
        counts = [0] * n
        for i in range(4000):
            counts[owner_rank(f"key-{i}".encode(), n)] += 1
        for c in counts:
            assert 300 < c < 700  # expectation 500


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=128))
def test_owner_rank_always_valid(key, nranks):
    assert 0 <= owner_rank(key, nranks) < nranks
