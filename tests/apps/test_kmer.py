"""K-mer utility tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.meraculous.kmer import (
    decode_kmer,
    encode_kmer,
    is_valid_base,
    kmer_hash,
    kmers_of,
)

_dna = st.binary(min_size=1, max_size=40).map(
    lambda b: bytes(b"ACGT"[x % 4] for x in b)
)


class TestKmers:
    def test_kmers_of(self):
        assert list(kmers_of(b"ACGTA", 3)) == [b"ACG", b"CGT", b"GTA"]

    def test_kmers_of_full_length(self):
        assert list(kmers_of(b"ACGT", 4)) == [b"ACGT"]

    def test_kmers_of_too_short(self):
        assert list(kmers_of(b"AC", 3)) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            list(kmers_of(b"ACGT", 0))


class TestEncoding:
    def test_round_trip(self):
        for km in (b"A", b"ACGT", b"TTTTGGGGCCCCAAAA"):
            assert decode_kmer(encode_kmer(km), len(km)) == km

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            encode_kmer(b"ACGN")

    def test_is_valid_base(self):
        assert all(is_valid_base(b) for b in b"ACGT")
        assert not is_valid_base(ord("N"))


class TestHash:
    def test_deterministic(self):
        assert kmer_hash(b"ACGTACGT") == kmer_hash(b"ACGTACGT")

    def test_spread(self):
        from repro.apps.meraculous.genome import synthesize_genome

        g = synthesize_genome(2000, seed=99, repeat_fraction=0.0)
        owners = [kmer_hash(km) % 8 for km in kmers_of(g, 11)]
        assert len(set(owners)) == 8

    def test_64bit(self):
        assert 0 <= kmer_hash(b"AAAA") < (1 << 64)


@settings(max_examples=100, deadline=None)
@given(_dna)
def test_encode_decode_property(seq):
    assert decode_kmer(encode_kmer(seq), len(seq)) == seq
