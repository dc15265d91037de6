"""K-mer utility tests."""

from __future__ import annotations

import pytest

from repro.apps.meraculous.kmer import kmer_hash, kmers_of


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
