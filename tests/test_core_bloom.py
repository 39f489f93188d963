"""Tests for the Bloom filter of the dense-vertices mapping table."""

import numpy as np
import pytest

from repro.common import ReproError
from repro.core import BloomFilter


class TestMembership:
    def test_no_false_negatives(self, rng):
        bf = BloomFilter.for_capacity(1000)
        keys = rng.choice(10**9, size=1000, replace=False)
        bf.add(keys)
        assert np.all(bf.contains(keys))

    def test_scalar_interface(self):
        bf = BloomFilter.for_capacity(10)
        bf.add(42)
        assert bf.contains(42) is True
        assert isinstance(bf.contains(41), bool)

    def test_empty_filter_rejects_everything(self, rng):
        bf = BloomFilter.for_capacity(100)
        keys = rng.integers(0, 10**9, size=1000)
        assert not np.any(bf.contains(keys))

    def test_false_positive_rate_near_design_point(self, rng):
        bf = BloomFilter.for_capacity(2000, bits_per_item=10)
        members = rng.choice(10**9, size=2000, replace=False)
        bf.add(members)
        probes = rng.integers(10**9, 2 * 10**9, size=20000)
        fpr = np.mean(bf.contains(probes))
        # 10 bits/item -> ~1% analytic; allow generous slack.
        assert fpr < 0.05
        assert bf.false_positive_rate() < 0.05

    def test_analytic_fpr_increases_with_load(self):
        bf = BloomFilter(1024, 4)
        bf.add(np.arange(10))
        low = bf.false_positive_rate()
        bf.add(np.arange(10, 300))
        assert bf.false_positive_rate() > low

    def test_empty_fpr_zero(self):
        assert BloomFilter(256).false_positive_rate() == 0.0


class TestValidation:
    def test_rejects_tiny_filter(self):
        with pytest.raises(ReproError):
            BloomFilter(4)

    def test_rejects_bad_hash_count(self):
        with pytest.raises(ReproError):
            BloomFilter(256, 0)
        with pytest.raises(ReproError):
            BloomFilter(256, 17)

    def test_rejects_negative_keys(self):
        bf = BloomFilter(256)
        with pytest.raises(ReproError):
            bf.add(np.array([-1]))

    def test_rejects_negative_capacity(self):
        with pytest.raises(ReproError):
            BloomFilter.for_capacity(-1)

    def test_empty_add_and_query(self):
        bf = BloomFilter(256)
        bf.add(np.array([], dtype=np.int64))
        assert bf.contains(np.array([], dtype=np.int64)).size == 0


class TestDeterminism:
    def test_same_keys_same_bits(self):
        a = BloomFilter(1024, 4)
        b = BloomFilter(1024, 4)
        keys = np.arange(100)
        a.add(keys)
        b.add(keys)
        np.testing.assert_array_equal(a._bits, b._bits)

    def test_for_capacity_sizing(self):
        bf = BloomFilter.for_capacity(100, bits_per_item=10)
        assert bf.n_bits == 1000
        assert 1 <= bf.n_hashes <= 16
