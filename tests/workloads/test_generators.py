"""Workload generator tests."""

from __future__ import annotations

import string

import pytest

from repro.workloads.generators import KeyGenerator, rank_seed, value_of_size

_ALPHANUM = set((string.ascii_letters + string.digits).encode())


class TestKeyGenerator:
    def test_key_length(self):
        gen = KeyGenerator(16, seed=1)
        assert all(len(k) == 16 for k in gen.keys(50))

    def test_alphabet(self):
        gen = KeyGenerator(16, seed=2)
        for k in gen.keys(100):
            assert set(k) <= _ALPHANUM

    def test_deterministic(self):
        assert KeyGenerator(8, 3).keys(20) == KeyGenerator(8, 3).keys(20)

    def test_seed_changes_stream(self):
        assert KeyGenerator(8, 1).keys(20) != KeyGenerator(8, 2).keys(20)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            KeyGenerator(0, 1)

    def test_mostly_unique(self):
        keys = KeyGenerator(16, 7).keys(5000)
        assert len(set(keys)) == 5000


class TestValues:
    def test_exact_size(self):
        for n in (0, 1, 100, 65536):
            assert len(value_of_size(n)) == n

    def test_fill_byte(self):
        assert value_of_size(4, fill=0x41) == b"AAAA"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            value_of_size(-1)


class TestRankSeed:
    def test_disjoint_per_rank(self):
        seeds = {rank_seed(1, r) for r in range(100)}
        assert len(seeds) == 100

    def test_deterministic(self):
        assert rank_seed(5, 3) == rank_seed(5, 3)

    def test_positive(self):
        assert all(rank_seed(9, r) >= 0 for r in range(50))
