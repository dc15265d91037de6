"""Bloom filter tests: no false negatives, serialization, sizing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bloom import BloomFilter


class TestConstruction:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 1)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)

    def test_for_capacity_sizing(self):
        bf = BloomFilter.for_capacity(1000, 0.01)
        # ~9.6 bits/key at 1% FP
        assert 8000 <= bf.nbits <= 12000
        assert 5 <= bf.nhashes <= 10

    def test_for_capacity_invalid_fp(self):
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, 0.0)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, 1.0)

    def test_zero_capacity_clamped(self):
        bf = BloomFilter.for_capacity(0)
        assert bf.nbits >= 8


class TestMembership:
    def test_added_keys_found(self):
        bf = BloomFilter.for_capacity(100)
        keys = [f"key{i}".encode() for i in range(100)]
        for k in keys:
            bf.add(k)
        for k in keys:
            assert k in bf
            assert bf.may_contain(k)
        assert len(bf) == 100

    def test_empty_filter_rejects(self):
        bf = BloomFilter.for_capacity(100)
        assert b"anything" not in bf

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter.for_capacity(1000, 0.01)
        for i in range(1000):
            bf.add(f"in-{i}".encode())
        fps = sum(
            1 for i in range(10_000) if f"out-{i}".encode() in bf
        )
        assert fps / 10_000 < 0.05  # generous bound on the 1% target

    def test_measured_fp_rate_of_ten_thousand_keys(self):
        """Both hashes come from one BLAKE2b digest: independent enough
        that the measured rate stays within 2x of the one asked for
        (structured keys, the kind the workloads write)."""
        bf = BloomFilter.for_capacity(10_000, 0.01)
        bf.update([f"user{i:012d}".encode() for i in range(10_000)])
        assert all(f"user{i:012d}".encode() in bf for i in range(10_000))
        fps = sum(f"user{i:012d}".encode() in bf
                  for i in range(10_000, 20_000))
        assert fps / 10_000 <= 0.02

    def test_fill_ratio(self):
        bf = BloomFilter.for_capacity(100, 0.01)
        assert bf.fill_ratio() == 0.0
        for i in range(100):
            bf.add(str(i).encode())
        assert 0.2 < bf.fill_ratio() < 0.8


class TestSerialization:
    def test_round_trip(self):
        bf = BloomFilter.for_capacity(50)
        for i in range(50):
            bf.add(f"k{i}".encode())
        bf2 = BloomFilter.from_bytes(bf.to_bytes())
        assert bf2.nbits == bf.nbits
        assert bf2.nhashes == bf.nhashes
        assert bf2.count == 50
        for i in range(50):
            assert f"k{i}".encode() in bf2

    def test_truncated_blob_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"short")

    def test_corrupt_length_rejected(self):
        bf = BloomFilter.for_capacity(10)
        blob = bf.to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(blob[:-1])


@settings(max_examples=150, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=32), max_size=200))
def test_no_false_negatives(keys):
    """The defining invariant: every added key tests positive."""
    bf = BloomFilter.for_capacity(max(1, len(keys)))
    for k in keys:
        bf.add(k)
    for k in keys:
        assert k in bf


@settings(max_examples=50, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=16), min_size=1, max_size=64))
def test_serialization_preserves_membership(keys):
    bf = BloomFilter.for_capacity(len(keys))
    for k in keys:
        bf.add(k)
    bf2 = BloomFilter.from_bytes(bf.to_bytes())
    for k in keys:
        assert k in bf2
