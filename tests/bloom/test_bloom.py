"""Tests for the plain Bloom filter."""

import math

import pytest

from repro.bloom.bloom import BloomFilter
from tests.conftest import make_keys


class TestBasics:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            BloomFilter(0)

    def test_empty_contains_nothing(self):
        bf = BloomFilter(1024)
        assert "anything" not in bf
        assert not bf.contains("anything")

    def test_no_false_negatives(self):
        bf = BloomFilter(8192, num_hashes=4)
        keys = make_keys(500)
        bf.update(keys)
        assert all(k in bf for k in keys)

    def test_count_tracks_inserts(self):
        bf = BloomFilter(1024)
        bf.update(make_keys(10))
        assert bf.count == 10

    def test_single_hash_function_works(self):
        bf = BloomFilter(4096, num_hashes=1)
        bf.add("solo")
        assert "solo" in bf


class TestFalsePositives:
    def test_measured_rate_close_to_eq4(self):
        # kappa=500, h=4, l=8192  ->  Gp ~ (1 - e^{-0.244})^4 ~ 2.2e-3
        bf = BloomFilter(8192, num_hashes=4)
        bf.update(make_keys(500, prefix="in"))
        probes = make_keys(20000, prefix="out", seed=9)
        measured = sum(1 for k in probes if k in bf) / len(probes)
        predicted = (1 - math.exp(-500 * 4 / 8192)) ** 4  # Eq. 4
        assert measured == pytest.approx(predicted, rel=0.5, abs=2e-3)

    def test_rate_increases_with_load(self):
        small = BloomFilter(2048, num_hashes=4)
        small.update(make_keys(2000, prefix="x"))
        probes = make_keys(3000, prefix="probe", seed=3)
        heavy_rate = sum(1 for k in probes if k in small) / len(probes)
        light = BloomFilter(2048, num_hashes=4)
        light.update(make_keys(100, prefix="x"))
        light_rate = sum(1 for k in probes if k in light) / len(probes)
        assert heavy_rate > light_rate


class TestFillRatioAndSize:
    def test_size_bytes(self):
        assert BloomFilter(1024).size_bytes() == 128
        assert BloomFilter(1025).size_bytes() == 129


class TestSerialization:
    def test_roundtrip_preserves_membership(self):
        bf = BloomFilter(4096, num_hashes=4)
        keys = make_keys(200)
        bf.update(keys)
        clone = BloomFilter.from_bytes(bf.to_bytes(), 4096, 4)
        assert all(k in clone for k in keys)

    def test_roundtrip_rejects_wrong_size(self):
        bf = BloomFilter(4096)
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(bf.to_bytes(), 8192)

    def test_wire_size_matches_size_bytes(self):
        bf = BloomFilter(999)
        assert len(bf.to_bytes()) == bf.size_bytes()
