"""Tests for compressed N:M storage and structured GEMM (repro.core.sparse_ops)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.patterns import NMPattern, pattern_view
from repro.core.series import DENSE_CONFIG, TASDConfig
from repro.core.sparse_ops import (
    GATHER_TILE_ELEMENTS,
    nm_compress,
    nm_decompress,
    nm_matmul,
    nm_matmul_from_tables,
    tasd_matmul,
)
from repro.tensor.random import random_nm_legal, sparse_normal


class TestCompressRoundtrip:
    @pytest.mark.parametrize("nm", [(1, 4), (2, 4), (2, 8), (4, 8)])
    def test_roundtrip_exact(self, nm, rng):
        n, m = nm
        x = random_nm_legal(6, 8 * m, n, m, seed=rng)
        c = nm_compress(x, NMPattern(n, m))
        assert np.array_equal(nm_decompress(c), x)

    def test_rejects_illegal(self, rng):
        x = rng.normal(size=(4, 16))  # dense: not 2:4 legal w.h.p.
        with pytest.raises(ValueError, match="not .* legal"):
            nm_compress(x, NMPattern(2, 4))

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            nm_compress(rng.normal(size=(2, 2, 8)), NMPattern(2, 4))

    def test_compression_ratio(self, rng):
        x = random_nm_legal(4, 32, 2, 4, seed=rng)
        c = nm_compress(x, NMPattern(2, 4))
        assert c.values.shape == (4, 8, 2)
        # 2 of 4 values kept, 2-bit metadata each: 0.5625 of dense bits
        assert c.compressed_bits == pytest.approx(4 * 32 * 16 * 0.5625)

    def test_underfull_blocks_pad_neutrally(self):
        x = np.array([[5.0, 0.0, 0.0, 0.0]])  # one nnz in a 2:4 block
        c = nm_compress(x, NMPattern(2, 4))
        assert np.array_equal(nm_decompress(c), x)


class TestNmMatmul:
    @pytest.mark.parametrize("nm", [(1, 4), (2, 4), (2, 8), (4, 8)])
    def test_matches_dense_matmul(self, nm, rng):
        n, m = nm
        a = random_nm_legal(5, 4 * m, n, m, seed=rng)
        b = rng.normal(size=(4 * m, 7))
        c = nm_compress(a, NMPattern(n, m))
        assert np.allclose(nm_matmul(c, b), a @ b)

    def test_dimension_mismatch(self, rng):
        a = random_nm_legal(2, 8, 2, 4, seed=rng)
        c = nm_compress(a, NMPattern(2, 4))
        with pytest.raises(ValueError, match="mismatch"):
            nm_matmul(c, rng.normal(size=(16, 3)))


def plain_gather_matmul(flat_vals, flat_rows, b):
    """The kernel as one einsum over the whole ``(rows, slots, N)`` gather."""
    return np.einsum("rk,rkn->rn", flat_vals, b[flat_rows])


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def assert_same_bits_but_nan_sign(actual, expected):
    """Same bits wherever ``expected`` is a number; NaN wherever it is NaN.

    A NaN's sign and payload follow the order an addition's operands
    happen to take, which IEEE 754 leaves open and a compiler may commute.
    """
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    assert_same_bits(actual[~nan], expected[~nan])


def plain_terms_matmul(flat_values, flat_rows, b):
    """The einsum spelling of a whole operand: every term's plain einsum, from zeros."""
    out = np.zeros((flat_rows[0].shape[0], b.shape[1]), dtype=np.result_type(*flat_values, b))
    for vals, rows in zip(flat_values, flat_rows):
        out += plain_gather_matmul(vals, rows, b)
    return out


def native_kernel() -> native.GatherMAC:
    kernel = native.gather_mac()
    if kernel is None:
        pytest.skip(f"native gather-MAC unavailable: {native.fallback_reason()}")
    return kernel


def native_matmul(flat_values, flat_rows, b):
    bound = native_kernel().bind(flat_values, flat_rows, b.shape[0])
    assert bound is not None
    return bound(b)


SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308, 5e-324])


def term_tables(rng, n_rows, slots, k, special=0.0):
    """Gather tables of one term per slot count: normal values at mixed
    scales, a tenth ``-0.0``, and a ``special`` share of SPECIAL_VALUES."""
    flat_values, flat_rows = [], []
    for s in slots:
        vals = rng.normal(size=(n_rows, s)) * np.exp2(rng.integers(-30, 30, size=(n_rows, s)))
        vals[rng.random(vals.shape) < 0.1] = -0.0
        picked = rng.random(vals.shape) < special
        vals[picked] = rng.choice(SPECIAL_VALUES, size=int(picked.sum()))
        flat_values.append(vals)
        flat_rows.append(rng.integers(0, max(k, 1), size=(n_rows, s)))
    return tuple(flat_values), tuple(flat_rows)


# The plain spelling materialises rows * slots * N elements; keep that small.
PLAIN_GATHER_CAP = 1 << 22


class TestGatherKernelProperty:
    """The take-based, row-tiled kernel, and the native gather-MAC that
    replaces a whole operand's term loop, against the single-einsum spelling."""

    @settings(max_examples=80)
    @given(
        n_out=st.sampled_from([1, 2, 3, 4, 16, 64, 4096]),
        slots=st.integers(1, 600),
        rows_wanted=st.integers(1, 200),
        k=st.integers(1, 300),
        vals_dtype=st.sampled_from([np.float32, np.float64]),
        b_dtype=st.sampled_from([np.float32, np.float64]),
        fortran=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_plain_einsum_bit_for_bit(
        self, n_out, slots, rows_wanted, k, vals_dtype, b_dtype, fortran, seed
    ):
        rows = max(1, min(rows_wanted, PLAIN_GATHER_CAP // (slots * n_out)))
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(rows, slots)).astype(vals_dtype)
        # Padding slots (value 0 at a real row) and signed zeros in both
        # operands, so a changed sign of zero would show.
        vals[rng.random(vals.shape) < 0.2] = 0.0
        vals[rng.random(vals.shape) < 0.1] = -0.0
        flat_rows = rng.integers(0, k, size=(rows, slots))
        b = rng.normal(size=(k, n_out)).astype(b_dtype)
        b[rng.random(b.shape) < 0.1] = -0.0
        if fortran:
            b = np.asfortranarray(b)
        assert_same_bits(
            nm_matmul_from_tables(vals, flat_rows, b), plain_gather_matmul(vals, flat_rows, b)
        )

    def test_crosses_row_tiles(self, rng):
        """Several tiles (and a ragged last one) give the one-tile bits."""
        vals = rng.normal(size=(37, 600))
        flat_rows = rng.integers(0, 96, size=vals.shape)
        b = rng.normal(size=(96, 64))
        assert 37 * 600 * 64 > 2 * GATHER_TILE_ELEMENTS
        assert_same_bits(
            nm_matmul_from_tables(vals, flat_rows, b), plain_gather_matmul(vals, flat_rows, b)
        )

    def test_gather_temporary_stays_near_the_tile_budget(self, rng):
        """At 16 rows, 72 slots, N 4096 the whole gather would be 38 MB."""
        vals = rng.normal(size=(16, 72))
        flat_rows = rng.integers(0, 144, size=vals.shape)
        b = rng.normal(size=(144, 4096))
        whole_gather = vals.size * b.shape[1] * b.itemsize
        tracemalloc.start()
        try:
            out = nm_matmul_from_tables(vals, flat_rows, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        budget = GATHER_TILE_ELEMENTS * b.itemsize
        assert whole_gather > 8 * budget
        assert peak <= budget + out.nbytes + (1 << 20), peak
        assert_same_bits(out, plain_gather_matmul(vals, flat_rows, b))

    @settings(max_examples=60)
    @given(
        n_out=st.sampled_from([1, 1, 2, 3, 4, 8, 16, 17, 40, 128]),
        slots=st.lists(st.integers(0, 400), min_size=1, max_size=3),
        n_rows=st.integers(0, 13),
        k=st.integers(1, 200),
        special=st.sampled_from([0.0, 0.05, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_native_matches_plain_einsum_bit_for_bit(
        self, n_out, slots, n_rows, k, special, seed
    ):
        """Any width (the kernel's register-blocked ones and others), one
        to three terms, row counts off the interleave, and NaN, ±inf, ±0
        and subnormals in both operands."""
        rng = np.random.default_rng(seed)
        flat_values, flat_rows = term_tables(rng, n_rows, slots, k, special)
        b = rng.normal(size=(k, n_out))
        picked = rng.random(b.shape) < special
        b[picked] = rng.choice(SPECIAL_VALUES, size=int(picked.sum()))
        b[rng.random(b.shape) < 0.1] = -0.0
        with np.errstate(all="ignore"):
            assert_same_bits_but_nan_sign(
                native_matmul(flat_values, flat_rows, b),
                plain_terms_matmul(flat_values, flat_rows, b),
            )

    @pytest.mark.parametrize("n_rows", [1, 4, 7])
    def test_native_n1_every_slot_remainder(self, n_rows, rng):
        """At N == 1 einsum's two-lane dot goes 8 slots a chunk, then 2 at
        a time; every ``slots % 8``, with and without a whole chunk."""
        b = rng.normal(size=(50, 1))
        for s in range(0, 33):
            flat_values, flat_rows = term_tables(rng, n_rows, (s, 2 * s + 1), 50)
            assert_same_bits(
                native_matmul(flat_values, flat_rows, b),
                plain_terms_matmul(flat_values, flat_rows, b),
            )

    @pytest.mark.parametrize(
        "n_rows, slots, n_out, k",
        [(0, 5, 3, 10), (4, 0, 3, 10), (4, 5, 0, 10), (4, 0, 1, 0), (0, 0, 0, 0), (3, 0, 2, 7)],
    )
    def test_native_zero_sizes(self, n_rows, slots, n_out, k, rng):
        flat_values, flat_rows = term_tables(rng, n_rows, (slots,), k)
        b = rng.normal(size=(k, n_out))
        assert_same_bits(
            native_matmul(flat_values, flat_rows, b),
            plain_terms_matmul(flat_values, flat_rows, b),
        )

    @pytest.mark.parametrize("n_out", [1, 2, 4, 5, 16])
    def test_native_special_values(self, n_out, rng):
        """Products of ±0, ±inf and NaN, sums that overflow, and subnormals."""
        b = rng.choice(SPECIAL_VALUES, size=(12, n_out))
        for s in (1, 3, 8, 11, 19):
            flat_values, flat_rows = term_tables(rng, 5, (s, s + 2), 12, special=0.5)
            with np.errstate(all="ignore"):
                assert_same_bits_but_nan_sign(
                    native_matmul(flat_values, flat_rows, b),
                    plain_terms_matmul(flat_values, flat_rows, b),
                )


class TestTasdMatmul:
    def test_dense_config_exact(self, rng):
        a = rng.normal(size=(6, 16))
        b = rng.normal(size=(16, 5))
        assert np.allclose(tasd_matmul(a, b, DENSE_CONFIG), a @ b)

    def test_lossless_series_exact(self, fig4_matrix, rng):
        b = rng.normal(size=(8, 3))
        cfg = TASDConfig.parse("2:4+2:8")
        assert np.allclose(tasd_matmul(fig4_matrix, b, cfg), fig4_matrix @ b)

    def test_matches_view_matmul(self, rng):
        """Distributive execution == (view of A) @ B, up to float assoc."""
        a = sparse_normal((8, 32), density=0.5, seed=rng)
        b = rng.normal(size=(32, 6))
        cfg = TASDConfig.parse("2:8+1:8")
        approx_a = cfg.view(a, axis=-1)
        assert np.allclose(tasd_matmul(a, b, cfg), approx_a @ b)

    def test_error_shrinks_with_more_terms(self, rng):
        a = sparse_normal((16, 64), density=0.6, seed=rng)
        b = rng.normal(size=(64, 8))
        exact = a @ b
        errs = []
        for text in ("2:8", "2:8+2:8", "2:8+2:8+2:8"):
            approx = tasd_matmul(a, b, TASDConfig.parse(text))
            errs.append(np.linalg.norm(exact - approx))
        assert errs[0] >= errs[1] >= errs[2]

    def test_return_decomposition(self, rng):
        a = sparse_normal((4, 16), density=0.5, seed=rng)
        b = rng.normal(size=(16, 2))
        out, dec = tasd_matmul(a, b, TASDConfig.parse("2:4"), return_decomposition=True)
        assert dec.order == 1
        assert out.shape == (4, 2)


@given(
    st.sampled_from(["1:4", "2:4", "2:8", "4:8", "2:8+1:8", "4:8+2:8"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_tasd_matmul_equals_view_matmul(config_text, seed):
    g = np.random.default_rng(seed)
    a = g.normal(size=(4, 16)) * (g.random((4, 16)) < 0.6)
    b = g.normal(size=(16, 3))
    cfg = TASDConfig.parse(config_text)
    assert np.allclose(tasd_matmul(a, b, cfg), cfg.view(a) @ b, atol=1e-10)


class TestStableTopNSelection:
    """The argpartition-based top-n must be bit-identical to a stable argsort.

    ``nm_compress`` selects the top-``n`` magnitudes per block with
    ``np.argpartition`` plus an in-partition stable ordering; the reference
    semantics are ``np.argsort(-|block|, kind="stable")[..., :n]``.  Ties —
    equal magnitudes of opposite sign, duplicated weights, quantized
    values — are where partition-based selection can silently diverge, so
    they get hammered here.
    """

    @staticmethod
    def reference_compress(a, pattern):
        from repro.core.patterns import block_view

        blocks = block_view(np.asarray(a), pattern.m, axis=-1)
        mag = np.abs(blocks)
        order = np.argsort(-mag, axis=-1, kind="stable")
        top = order[..., : pattern.n]
        values = np.take_along_axis(blocks, top, axis=-1)
        indices = top.astype(np.uint8)
        indices = np.where(values != 0, indices, np.uint8(0))
        return values, indices

    @pytest.mark.parametrize("nm", [(1, 4), (2, 4), (3, 4), (2, 8), (4, 8), (7, 8), (8, 8)])
    def test_matches_stable_argsort_on_random_data(self, nm, rng):
        n, m = nm
        pattern = NMPattern(n, m)
        x = pattern_view(rng.normal(size=(16, 8 * m)), pattern)
        c = nm_compress(x, pattern)
        ref_values, ref_indices = self.reference_compress(x, pattern)
        np.testing.assert_array_equal(c.values, ref_values)
        np.testing.assert_array_equal(c.indices, ref_indices)

    @pytest.mark.parametrize("nm", [(1, 4), (2, 4), (2, 8), (4, 8), (6, 8)])
    def test_matches_stable_argsort_on_tie_heavy_data(self, nm, rng):
        """Quantized integer weights produce magnitude ties in every block."""
        n, m = nm
        pattern = NMPattern(n, m)
        for seed in range(8):
            g = np.random.default_rng(seed)
            x = g.integers(-2, 3, size=(12, 8 * m)).astype(float)
            x = pattern_view(x, pattern)
            c = nm_compress(x, pattern)
            ref_values, ref_indices = self.reference_compress(x, pattern)
            np.testing.assert_array_equal(c.values, ref_values, err_msg=f"seed={seed}")
            np.testing.assert_array_equal(c.indices, ref_indices, err_msg=f"seed={seed}")

    def test_opposite_sign_tie_keeps_lowest_index(self):
        """|+2| == |-2| inside a kept pair: stable order lists index 1 first."""
        pattern = NMPattern(2, 4)
        x = np.array([[0.0, 2.0, -2.0, 0.0]])
        c = nm_compress(x, pattern)
        np.testing.assert_array_equal(c.values, [[[2.0, -2.0]]])
        np.testing.assert_array_equal(c.indices, [[[1, 2]]])

    def test_zero_boundary_keeps_padding_normalised(self):
        """Underfull block: the zero slots tie, but padding is index-0 either way."""
        pattern = NMPattern(2, 4)
        x = np.array([[0.0, -5.0, 0.0, 0.0]])
        c = nm_compress(x, pattern)
        np.testing.assert_array_equal(c.values, [[[-5.0, 0.0]]])
        np.testing.assert_array_equal(c.indices, [[[1, 0]]])

    def test_all_tied_block(self):
        pattern = NMPattern(2, 4)
        x = np.array([[1.0, -1.0, 1.0, -1.0]])
        # pattern_view keeps the first two (stable); the block is then not
        # 2:4 legal as-is, so take the view first like production code does.
        legal = pattern_view(x, pattern)
        c = nm_compress(legal, pattern)
        ref_values, ref_indices = self.reference_compress(legal, pattern)
        np.testing.assert_array_equal(c.values, ref_values)
        np.testing.assert_array_equal(c.indices, ref_indices)

    def test_roundtrip_still_exact_under_ties(self, rng):
        pattern = NMPattern(2, 4)
        x = pattern_view(rng.integers(-2, 3, size=(8, 32)).astype(float), pattern)
        assert np.array_equal(nm_decompress(nm_compress(x, pattern)), x)
