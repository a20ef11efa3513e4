"""N:M structured sparsity patterns and pattern views.

An ``N:M`` pattern constrains every block of ``M`` consecutive elements
(along one axis of a tensor) to hold at most ``N`` non-zeros.  The *view* of a
tensor under a pattern keeps, per block, the ``N`` largest-magnitude elements
and zeroes the rest (ties broken toward the lowest index, deterministically).

This module is the foundation of TASD (Section 3 of the paper): terms of a
TASD series are views of the running residual under successive patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NMPattern",
    "block_view",
    "unblock_view",
    "pattern_view",
    "pattern_mask",
    "is_pattern_legal",
    "DENSE_LIKE_EPS",
]

# Magnitudes at or below this threshold are treated as zero when checking
# pattern legality; keeps float round-trip noise from flipping legality.
DENSE_LIKE_EPS = 0.0


@dataclass(frozen=True, order=True)
class NMPattern:
    """A fine-grained ``N:M`` structured sparsity pattern.

    Parameters
    ----------
    n : int
        Maximum number of non-zeros kept per block.
    m : int
        Block size (number of consecutive elements along the sparsity axis).
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError(f"block size m must be positive, got {self.m}")
        if not 0 <= self.n <= self.m:
            raise ValueError(f"need 0 <= n <= m, got {self.n}:{self.m}")

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def density(self) -> float:
        """Fraction of elements a view may keep (``n / m``)."""
        return self.n / self.m

    @property
    def approximated_sparsity(self) -> float:
        """Sparsity degree of the pattern (``1 - n/m``), as used in Fig. 14/18."""
        return 1.0 - self.density

    @property
    def is_dense(self) -> bool:
        """True when the pattern keeps every element (``n == m``)."""
        return self.n == self.m

    @property
    def metadata_bits_per_value(self) -> float:
        """Index metadata cost per *kept* value.

        A kept value needs ``ceil(log2(m))`` bits to name its position inside
        the block (the encoding used by NVIDIA STC for 2:4 uses 2 bits per
        value; this generalises that).  Dense patterns need no metadata.
        """
        if self.is_dense or self.n == 0:
            return 0.0
        return float(math.ceil(math.log2(self.m)))

    def storage_fraction(self, value_bits: int = 16) -> float:
        """Compressed footprint of a view relative to the dense tensor.

        Counts kept values plus per-value index metadata, e.g. 2:4 at 16-bit
        values costs ``(2*16 + 2*2) / (4*16) = 0.5625`` of dense.
        """
        if value_bits <= 0:
            raise ValueError("value_bits must be positive")
        bits = self.n * (value_bits + self.metadata_bits_per_value)
        return bits / (self.m * value_bits)

    # ------------------------------------------------------------------ #
    # Naming
    # ------------------------------------------------------------------ #
    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.n}:{self.m}"

    @classmethod
    def parse(cls, text: str) -> "NMPattern":
        """Parse ``"N:M"`` notation, e.g. ``NMPattern.parse("2:4")``."""
        try:
            n_str, m_str = text.strip().split(":")
            return cls(int(n_str), int(m_str))
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"cannot parse N:M pattern from {text!r}") from exc


# ---------------------------------------------------------------------- #
# Blocking helpers
# ---------------------------------------------------------------------- #
def block_view(x: np.ndarray, m: int, axis: int = -1) -> np.ndarray:
    """Reshape ``x`` so blocks of ``m`` along ``axis`` become the last axis.

    Returns an array of shape ``(..., n_blocks, m)`` where the original
    ``axis`` has been moved to the end and split.  The length of ``axis``
    must be divisible by ``m``.
    """
    x = np.asarray(x)
    moved = np.moveaxis(x, axis, -1)
    length = moved.shape[-1]
    if length % m != 0:
        raise ValueError(
            f"axis length {length} is not divisible by block size {m}; "
            "pad the tensor first (see repro.tensor.blocks.pad_to_multiple)"
        )
    return moved.reshape(*moved.shape[:-1], length // m, m)


def unblock_view(blocks: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`block_view`: merge the trailing block axes back."""
    blocks = np.asarray(blocks)
    merged = blocks.reshape(*blocks.shape[:-2], blocks.shape[-2] * blocks.shape[-1])
    return np.moveaxis(merged, -1, axis)


# ---------------------------------------------------------------------- #
# Views
# ---------------------------------------------------------------------- #
def pattern_mask(x: np.ndarray, pattern: NMPattern, axis: int = -1) -> np.ndarray:
    """Boolean mask of the elements a pattern view keeps.

    Per ``m``-block, marks the ``n`` largest-magnitude elements.  Elements
    that are exactly zero (or NaN) are never marked (keeping them is
    pointless), so the mask of an already-legal tensor marks exactly its
    non-zeros.  Ties break toward the lowest index within the block,
    deterministically.

    One top-n pass: ``axis`` is split in place into ``(length / m, m)``,
    a reshape that is a view of a contiguous ``x`` (for NCHW blocks along
    channels, ``(b, c/m, m, h*w)``), so no ``moveaxis`` copy is made.  A
    stable ``argsort`` of ``-|x|`` along the block axis ranks each block;
    its first ``n`` entries, ANDed with ``|x| > 0``, are the mask.  A
    series whose terms share one block size keeps exactly this mask for
    its :attr:`~repro.core.series.TASDConfig.effective_pattern`, so
    :meth:`~repro.core.series.TASDConfig.view` is one such pass.
    """
    x = np.asarray(x)
    if pattern.n == 0:
        return np.zeros_like(x, dtype=bool)
    axis = axis % x.ndim
    length = x.shape[axis]
    m = pattern.m
    if length % m != 0:
        raise ValueError(
            f"axis length {length} is not divisible by block size {m}; "
            "pad the tensor first (see repro.tensor.blocks.pad_to_multiple)"
        )
    # (outer, blocks, m, inner): a view of a contiguous x, blocks on axis 2.
    outer = math.prod(x.shape[:axis])
    inner = math.prod(x.shape[axis + 1:])
    n_blocks = length // m
    mag = np.abs(x.reshape(outer, n_blocks, m, inner))
    keep = mag > DENSE_LIKE_EPS
    if not pattern.is_dense:
        # Stable sort on negated magnitude: among equal magnitudes the lower
        # index wins, which makes extraction deterministic across runs.
        kept = np.argsort(-mag, axis=2, kind="stable")[:, :, : pattern.n]
        # Flat position of each kept slot in the (outer, blocks, m, inner) array.
        base = np.arange(outer * n_blocks).reshape(outer, n_blocks, 1, 1) * (m * inner)
        top = np.zeros(keep.size, dtype=bool)
        top[base + kept * inner + np.arange(inner)] = True
        keep &= top.reshape(keep.shape)
    return keep.reshape(x.shape)


def pattern_view(x: np.ndarray, pattern: NMPattern, axis: int = -1) -> np.ndarray:
    """The (possibly lossy) view of ``x`` under ``pattern`` (Section 2.1).

    Keeps the ``n`` largest-magnitude elements per ``m``-block and zeroes the
    rest.  The result always satisfies :func:`is_pattern_legal`.
    """
    x = np.asarray(x)
    mask = pattern_mask(x, pattern, axis=axis)
    return np.where(mask, x, np.zeros((), dtype=x.dtype))


def is_pattern_legal(x: np.ndarray, pattern: NMPattern, axis: int = -1) -> bool:
    """True when every ``m``-block of ``x`` has at most ``n`` non-zeros."""
    blocks = block_view(np.asarray(x), pattern.m, axis=axis)
    nnz_per_block = np.count_nonzero(blocks, axis=-1)
    return bool(np.all(nnz_per_block <= pattern.n))
