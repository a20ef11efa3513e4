"""Tests for N:M patterns and views (repro.core.patterns)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.patterns import (
    NMPattern,
    block_view,
    is_pattern_legal,
    pattern_mask,
    pattern_view,
    unblock_view,
)


class TestNMPattern:
    def test_density_and_sparsity(self):
        p = NMPattern(2, 4)
        assert p.density == 0.5
        assert p.approximated_sparsity == 0.5

    def test_dense_pattern(self):
        assert NMPattern(8, 8).is_dense
        assert not NMPattern(4, 8).is_dense

    def test_invalid_n_greater_than_m(self):
        with pytest.raises(ValueError):
            NMPattern(5, 4)

    def test_invalid_negative(self):
        with pytest.raises(ValueError):
            NMPattern(-1, 4)
        with pytest.raises(ValueError):
            NMPattern(1, 0)

    def test_parse_roundtrip(self):
        p = NMPattern.parse("2:4")
        assert p == NMPattern(2, 4)
        assert str(p) == "2:4"

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            NMPattern.parse("not-a-pattern")

    def test_metadata_bits(self):
        assert NMPattern(2, 4).metadata_bits_per_value == 2.0
        assert NMPattern(4, 8).metadata_bits_per_value == 3.0
        assert NMPattern(4, 4).metadata_bits_per_value == 0.0
        assert NMPattern(0, 4).metadata_bits_per_value == 0.0

    def test_storage_fraction_2_4(self):
        # 2 values x (16 + 2 bits) over 4 x 16 bits = 0.5625 (NVIDIA's layout)
        assert NMPattern(2, 4).storage_fraction(16) == pytest.approx(0.5625)

    def test_storage_fraction_dense_is_one(self):
        assert NMPattern(8, 8).storage_fraction(16) == pytest.approx(1.0)

    def test_ordering_is_total(self):
        pats = sorted([NMPattern(2, 4), NMPattern(1, 4), NMPattern(4, 8)])
        assert pats[0] == NMPattern(1, 4)


class TestBlockView:
    def test_roundtrip_last_axis(self, rng):
        x = rng.normal(size=(3, 16))
        assert np.array_equal(unblock_view(block_view(x, 4), axis=-1), x)

    def test_roundtrip_other_axis(self, rng):
        x = rng.normal(size=(8, 5))
        blocks = block_view(x, 4, axis=0)
        assert blocks.shape == (5, 2, 4)
        assert np.array_equal(unblock_view(blocks, axis=0), x)

    def test_indivisible_raises(self, rng):
        with pytest.raises(ValueError, match="not divisible"):
            block_view(rng.normal(size=(2, 7)), 4)

    def test_3d_tensor(self, rng):
        x = rng.normal(size=(2, 3, 8))
        assert block_view(x, 4, axis=-1).shape == (2, 3, 2, 4)


class TestPatternView:
    def test_keeps_largest_magnitudes(self):
        x = np.array([[1.0, -5.0, 3.0, 0.5]])
        out = pattern_view(x, NMPattern(2, 4))
        assert np.array_equal(out, [[0.0, -5.0, 3.0, 0.0]])

    def test_view_is_legal(self, rng):
        x = rng.normal(size=(6, 24))
        for p in (NMPattern(1, 4), NMPattern(2, 4), NMPattern(3, 8), NMPattern(2, 8)):
            assert is_pattern_legal(pattern_view(x, p), p)

    def test_dense_view_identity(self, rng):
        x = rng.normal(size=(4, 8))
        assert np.array_equal(pattern_view(x, NMPattern(8, 8)), x)

    def test_zero_pattern_empties(self, rng):
        x = rng.normal(size=(4, 8))
        assert not np.any(pattern_view(x, NMPattern(0, 4)))

    def test_never_keeps_zeros(self):
        x = np.array([[0.0, 0.0, 1.0, 0.0]])
        mask = pattern_mask(x, NMPattern(2, 4))
        assert mask.sum() == 1  # only the single non-zero is kept

    def test_tie_break_lowest_index(self):
        x = np.array([[2.0, 2.0, 2.0, 2.0]])
        out = pattern_view(x, NMPattern(2, 4))
        assert np.array_equal(out, [[2.0, 2.0, 0.0, 0.0]])

    def test_deterministic(self, rng):
        x = rng.normal(size=(10, 32))
        a = pattern_view(x, NMPattern(2, 8))
        b = pattern_view(x.copy(), NMPattern(2, 8))
        assert np.array_equal(a, b)

    def test_view_on_legal_tensor_is_lossless(self, rng):
        from repro.tensor.random import random_nm_legal

        x = random_nm_legal(8, 32, 2, 4, seed=rng)
        assert np.array_equal(pattern_view(x, NMPattern(2, 4)), x)

    def test_axis_zero(self, rng):
        x = rng.normal(size=(8, 3))
        out = pattern_view(x, NMPattern(1, 4), axis=0)
        assert is_pattern_legal(out, NMPattern(1, 4), axis=0)

    @pytest.mark.parametrize("shape, axis", [((0, 8), -1), ((0, 8, 2, 2), 1), ((3, 0), -1)])
    def test_empty_tensor(self, shape, axis):
        mask = pattern_mask(np.zeros(shape), NMPattern(2, 4), axis=axis)
        assert mask.shape == shape and not mask.any()


class TestIsPatternLegal:
    def test_legal(self):
        x = np.array([[1.0, 0.0, 2.0, 0.0]])
        assert is_pattern_legal(x, NMPattern(2, 4))

    def test_illegal(self):
        x = np.array([[1.0, 1.0, 2.0, 0.0]])
        assert not is_pattern_legal(x, NMPattern(2, 4))

    def test_all_zero_always_legal(self):
        x = np.zeros((3, 8))
        assert is_pattern_legal(x, NMPattern(1, 8))


# ---------------------------------------------------------------------- #
# Property-based tests
# ---------------------------------------------------------------------- #
@st.composite
def pattern_and_matrix(draw):
    m = draw(st.sampled_from([2, 4, 8, 16]))
    n = draw(st.integers(min_value=0, max_value=m))
    rows = draw(st.integers(min_value=1, max_value=6))
    blocks = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    x = np.random.default_rng(seed).normal(size=(rows, blocks * m))
    return NMPattern(n, m), x


@given(pattern_and_matrix())
def test_view_always_legal(pm):
    pattern, x = pm
    assert is_pattern_legal(pattern_view(x, pattern), pattern)


@given(pattern_and_matrix())
def test_view_is_subset(pm):
    """A view never invents values: every kept entry equals the original."""
    pattern, x = pm
    view = pattern_view(x, pattern)
    kept = view != 0
    assert np.array_equal(view[kept], x[kept])


@given(pattern_and_matrix())
def test_view_magnitude_optimal_per_block(pm):
    """The view keeps at least as much magnitude as any legal view could."""
    pattern, x = pm
    view = pattern_view(x, pattern)
    blocks = block_view(np.abs(x), pattern.m)
    top_n_sum = np.sort(blocks, axis=-1)[..., -pattern.n :].sum() if pattern.n else 0.0
    assert np.abs(view).sum() == pytest.approx(top_n_sum, rel=1e-12)


@given(pattern_and_matrix())
def test_view_idempotent(pm):
    pattern, x = pm
    once = pattern_view(x, pattern)
    twice = pattern_view(once, pattern)
    assert np.array_equal(once, twice)
