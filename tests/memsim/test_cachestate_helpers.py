"""Unit tests for the cachestate helpers."""

import numpy as np

from repro.memsim.cachestate import iter_set_bits


class TestIterSetBits:
    def test_empty_mask(self):
        assert list(iter_set_bits(0)) == []

    def test_single_bit_masks(self):
        for pos in (0, 1, 7, 15, 31, 63):
            assert list(iter_set_bits(1 << pos)) == [pos]

    def test_full_mask(self):
        assert list(iter_set_bits((1 << 16) - 1)) == list(range(16))

    def test_sparse_mask_lsb_first(self):
        mask = (1 << 2) | (1 << 5) | (1 << 11)
        assert list(iter_set_bits(mask)) == [2, 5, 11]

    def test_matches_bin_representation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mask = int(rng.integers(0, 1 << 20))
            expect = [i for i in range(20) if mask >> i & 1]
            assert list(iter_set_bits(mask)) == expect
