"""Structured sparse storage and compute kernels.

Implements the compressed N:M format used by structured sparse tensor cores
(values + per-value block indices, the layout behind NVIDIA's 2:4 STC) and
GEMM kernels that operate on it, including the distributive TASD execution of
Section 3.2: ``A @ B ≈ Σ (Ai @ B)`` with every ``Ai`` run as a structured
sparse GEMM.

These are functional models: they compute the exact arithmetic the hardware
would, vectorised with NumPy, and are verified against dense matmul in the
test suite.  Latency/energy are the job of ``repro.hw`` / ``repro.gpu``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import Decomposition
from .patterns import NMPattern, block_view, is_pattern_legal, pattern_view
from .series import TASDConfig

__all__ = [
    "GATHER_TILE_ELEMENTS",
    "CompressedNM",
    "nm_compress",
    "nm_decompress",
    "nm_gather_tables",
    "nm_matmul",
    "nm_matmul_from_tables",
    "tasd_matmul",
]

#: Element budget of one row tile's gathered ``(tile_rows, slots, N)``
#: temporary in :func:`nm_matmul_from_tables` (4 MiB of float64).
GATHER_TILE_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class CompressedNM:
    """A 2-D matrix stored in compressed N:M format along its rows.

    ``values[r, b, j]`` is the ``j``-th kept value of block ``b`` in row
    ``r`` and ``indices[r, b, j]`` its offset inside the block (0..m-1).
    Blocks with fewer than ``n`` non-zeros pad with value 0 at index 0, which
    is arithmetically neutral for matmul.
    """

    pattern: NMPattern
    values: np.ndarray  # (rows, n_blocks, n)
    indices: np.ndarray  # (rows, n_blocks, n), uint8
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.values))

    @property
    def compressed_bits(self) -> float:
        """Storage cost in bits assuming 16-bit values (metadata included)."""
        value_bits = 16
        return self.values.size * (value_bits + self.pattern.metadata_bits_per_value)


def _stable_top_n(mag: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` largest entries per block, stably ordered.

    Semantics are exactly ``np.argsort(-mag, kind="stable")[..., :n]`` —
    descending magnitude, ties broken by ascending in-block index — but
    computed with :func:`np.argpartition` so only the kept ``n`` slots are
    ever fully ordered, not the whole ``m``-wide block.
    """
    m = mag.shape[-1]
    if n <= 0:
        return np.empty(mag.shape[:-1] + (0,), dtype=np.intp)
    if n >= m:
        return np.argsort(-mag, axis=-1, kind="stable")
    # Select *a* top-n set (correct magnitudes, arbitrary tie membership) ...
    cand = np.argpartition(-mag, n - 1, axis=-1)[..., :n]
    # ... then order it stably: sorting candidate indices first makes the
    # stable sort's tie order equal ascending original index.
    cand.sort(axis=-1)
    cand_mag = np.take_along_axis(mag, cand, axis=-1)
    top = np.take_along_axis(cand, np.argsort(-cand_mag, axis=-1, kind="stable"), axis=-1)
    # Boundary ties: if the weakest kept magnitude also occurs *outside*
    # the kept set, argpartition may have kept the wrong (non-lowest-index)
    # members.  Zero-magnitude boundaries are exempt — zero slots are
    # value-0/index-0 padding after normalisation, identical either way.
    thresh = np.take_along_axis(mag, top[..., -1:], axis=-1)
    at_thresh_total = (mag == thresh).sum(axis=-1)
    at_thresh_kept = (cand_mag == thresh).sum(axis=-1)
    ambiguous = (thresh[..., 0] > 0) & (at_thresh_total > at_thresh_kept)
    if np.any(ambiguous):
        top[ambiguous] = np.argsort(-mag[ambiguous], axis=-1, kind="stable")[..., :n]
    return top


def nm_compress(a: np.ndarray, pattern: NMPattern) -> CompressedNM:
    """Compress a pattern-legal 2-D matrix into N:M format.

    Raises if ``a`` violates the pattern — compression is lossless by
    definition (Section 2.1: accelerators natively support only legal views).
    Apply :func:`repro.core.patterns.pattern_view` first for lossy use.
    """
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"nm_compress expects a 2-D matrix, got shape {a.shape}")
    if not is_pattern_legal(a, pattern, axis=-1):
        raise ValueError(f"matrix is not {pattern} legal; take a pattern_view first")
    blocks = block_view(a, pattern.m, axis=-1)  # (rows, n_blocks, m)
    mag = np.abs(blocks)
    # Stable order: non-zeros first (largest magnitude first), ties by index.
    top = _stable_top_n(mag, pattern.n)  # (rows, n_blocks, n)
    values = np.take_along_axis(blocks, top, axis=-1)
    indices = top.astype(np.uint8)
    # Neutralise padding slots (zero values): point them at offset 0.
    indices = np.where(values != 0, indices, np.uint8(0))
    return CompressedNM(pattern=pattern, values=values, indices=indices, shape=a.shape)


def nm_decompress(c: CompressedNM) -> np.ndarray:
    """Expand compressed N:M storage back to a dense 2-D matrix.

    Single vectorised scatter-*add* pass.  Additive semantics make the
    padding alias order-independent: real slots occupy distinct in-block
    offsets by construction, so the only index collisions are padding slots
    (value 0 at offset 0), whose contribution is 0 — no reliance on
    duplicate-index write ordering, which NumPy leaves unspecified.
    """
    rows, cols = c.shape
    n_blocks = cols // c.pattern.m
    base = (np.arange(rows * n_blocks, dtype=np.intp) * c.pattern.m).reshape(rows, n_blocks, 1)
    flat_idx = (base + c.indices.astype(np.intp)).ravel()
    out = np.bincount(
        flat_idx, weights=c.values.ravel().astype(np.float64, copy=False), minlength=rows * cols
    )
    return out.reshape(rows, cols).astype(c.values.dtype, copy=False)


def nm_gather_tables(c: CompressedNM) -> tuple[np.ndarray, np.ndarray]:
    """Flattened gather tables for the structured GEMM.

    Returns ``(flat_vals, flat_rows)``, both ``(rows, n_blocks * n)``:
    every compressed slot's value and the row of the right-hand operand it
    multiplies (``block_base + in-block offset``).  The tables depend only
    on the compressed operand, so runtime plans precompute them once.
    """
    rows, _ = c.shape
    n_blocks = c.values.shape[1]
    base = (np.arange(n_blocks) * c.pattern.m)[None, :, None]
    b_rows = base + c.indices.astype(np.intp)  # (rows, n_blocks, n)
    return c.values.reshape(rows, -1), b_rows.reshape(rows, -1)


def nm_matmul_from_tables(
    flat_vals: np.ndarray, flat_rows: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """The structured GEMM contraction over precomputed gather tables.

    Single source of the kernel arithmetic: direct :func:`nm_matmul` runs
    this contraction, and compiled runtime plans either run it per term
    (:func:`repro.core.native.einsum_gather`) or, for float64 operands,
    the native gather-MAC of :mod:`repro.core.native`, which repeats its
    additions in the same order and is probed against it before it
    serves.  That is what keeps their results bit-identical.

    Output row ``r`` is ``Σ_k flat_vals[r, k] * b[flat_rows[r, k]]``,
    computed by ``np.einsum("rk,rkn->rn", ...)`` over the gathered rows of
    ``b``.  The gather is ``np.take`` along axis 0 (a 2-D index array with
    a trailing slice, ``b[flat_rows]``, takes NumPy's much slower general
    fancy-indexing path), and it runs one tile of output rows at a time so
    each tile's ``(tile_rows, slots, N)`` temporary stays under
    :data:`GATHER_TILE_ELEMENTS` elements (or one row, if a row alone is
    larger).  Tiling over rows leaves each output element's reduction
    untouched, so the bits do not depend on the tile size.  einsum sums
    over ``k`` in slot order when ``N >= 2`` but takes a two-lane SIMD
    reduction when ``N == 1`` (``gather_mac.c`` spells out both orders);
    any other order, or a fused multiply-add, changes the ``N == 1`` bits.
    """
    # np.take copies a non-C-contiguous source whole on every call; copy once.
    b = np.ascontiguousarray(b)
    rows, slots = flat_rows.shape
    n_out = b.shape[1]
    out = np.empty((rows, n_out), dtype=np.result_type(flat_vals, b))
    step = max(1, GATHER_TILE_ELEMENTS // max(1, slots * n_out))
    for r0 in range(0, rows, step):
        tile = slice(r0, r0 + step)
        gathered = np.take(b, flat_rows[tile], axis=0)
        np.einsum("rk,rkn->rn", flat_vals[tile], gathered, out=out[tile])
    return out


def nm_matmul(c: CompressedNM, b: np.ndarray) -> np.ndarray:
    """Structured sparse GEMM: ``decompress(c) @ b`` without decompressing.

    Models what an N:M tensor core does: for each block, gather the ``n``
    rows of ``b`` named by the metadata and multiply-accumulate only those —
    ``n/m`` of the dense MACs.
    """
    b = np.asarray(b)
    rows, k = c.shape
    if b.shape[0] != k:
        raise ValueError(f"inner dimensions mismatch: {c.shape} @ {b.shape}")
    flat_vals, flat_rows = nm_gather_tables(c)
    return nm_matmul_from_tables(flat_vals, flat_rows, b)


def tasd_matmul(
    a: np.ndarray,
    b: np.ndarray,
    config: TASDConfig,
    return_decomposition: bool = False,
) -> np.ndarray | tuple[np.ndarray, Decomposition]:
    """Approximate ``a @ b`` by the distributive TASD execution (Section 3.2).

    Decomposes ``a`` with ``config``, runs each term as a structured sparse
    GEMM through :func:`nm_matmul`, and accumulates partial sums — exactly
    the datapath of the TTC mapping in Fig. 11.  The dense configuration
    falls back to a dense matmul.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if config.is_dense:
        out = a @ b
        return (out, Decomposition(original=a)) if return_decomposition else out
    dec = config.apply(a, axis=-1)
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for term in dec.terms:
        # Terms are legal views of the residual by construction.
        out += nm_matmul(nm_compress(term.tensor, term.pattern), b)
    return (out, dec) if return_decomposition else out
