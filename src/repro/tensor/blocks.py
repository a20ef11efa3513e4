"""Block-shape utilities shared by decomposition and hardware models."""

from __future__ import annotations

import numpy as np

__all__ = ["pad_to_multiple", "crop_to_shape", "blocks_along_axis"]


def pad_to_multiple(x: np.ndarray, multiple: int, axis: int = -1) -> np.ndarray:
    """Zero-pad ``axis`` of ``x`` up to the next multiple of ``multiple``.

    Padding with zeros never changes a pattern view (zeros are never kept),
    so this is the safe way to decompose tensors whose reduction dimension
    is not block-aligned.
    """
    x = np.asarray(x)
    if multiple <= 0:
        raise ValueError("multiple must be positive")
    axis = axis % x.ndim
    length = x.shape[axis]
    pad = (-length) % multiple
    if pad == 0:
        return x
    shape = list(x.shape)
    shape[axis] = length + pad
    out = np.zeros_like(x, shape=shape)
    out[(slice(None),) * axis + (slice(0, length),)] = x
    return out


def crop_to_shape(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Crop ``x`` down to ``shape`` (inverse of trailing zero padding)."""
    x = np.asarray(x)
    if len(shape) != x.ndim:
        raise ValueError(f"rank mismatch: {x.shape} vs {shape}")
    slices = tuple(slice(0, s) for s in shape)
    return x[slices]


def blocks_along_axis(length: int, m: int) -> int:
    """Number of ``m``-blocks covering ``length`` elements (ceil division)."""
    if m <= 0:
        raise ValueError("block size must be positive")
    return -(-length // m)
