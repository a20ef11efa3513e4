"""im2col / col2im: convolution as GEMM.

The paper applies TASD only to CONV and FC layers because both lower to
matrix multiplication (Section 4.1, "using algorithms such as im2col").
This module performs that lowering, and also *derives* the GEMM dimensions
analytically — which is how the workload suite obtains full-size layer
shapes (Table 4) without running full-size forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["conv_out_size", "GemmShape", "conv_gemm_shape", "im2col", "col2im"]


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


@dataclass(frozen=True)
class GemmShape:
    """Dimensions of the GEMM a layer lowers to: C[M,N] = A[M,K] @ B[K,N].

    Follows the paper's Table 4 convention: M = output spatial positions x
    batch (or tokens), K = reduction (in_ch * kh * kw, or input features),
    N = output channels / features.
    """

    m: int
    k: int
    n: int

    @property
    def macs(self) -> int:
        """Dense multiply-accumulate count."""
        return self.m * self.k * self.n

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"M{self.m}-N{self.n}-K{self.k}"


def conv_gemm_shape(
    batch: int,
    in_ch: int,
    height: int,
    width: int,
    out_ch: int,
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> GemmShape:
    """GEMM dimensions of a conv layer after im2col lowering."""
    oh = conv_out_size(height, kernel, stride, padding)
    ow = conv_out_size(width, kernel, stride, padding)
    return GemmShape(m=batch * oh * ow, k=in_ch * kernel * kernel, n=out_ch)


def im2col(
    x: np.ndarray, kernel: int, stride: int = 1, padding: int = 0
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower NCHW input patches to a column matrix.

    Returns ``(cols, (oh, ow))`` where ``cols`` has shape
    ``(batch * oh * ow, in_ch * kernel * kernel)`` — one row per output
    position, matching :class:`GemmShape`'s M x K operand.

    ``cols`` is the transpose of a C-contiguous ``(K, M)`` buffer, written
    in ``(c, kh, kw, b, oh, ow)`` order by one copy.  The plan's GEMM
    contracts ``cols.T`` against the compressed weights, and every kernel
    backend reads that C-contiguous ``(K, cols)`` right-hand side as is, so
    the served operand needs no further copy.  Padding goes through a zero buffer in ``x``'s own memory order
    (a channel-major conv output stays channel-major), so the windows are
    read along contiguous rows.
    """
    b, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, padding)
    ow = conv_out_size(w, kernel, stride, padding)
    if padding > 0:
        xp = np.zeros_like(x, shape=(b, c, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding : padding + h, padding : padding + w] = x
        x = xp
    # Strided window view: (c, kh, kw, b, oh, ow), zero-copy.
    sb, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kernel, kernel, b, oh, ow),
        strides=(sc, sh, sw, sb, sh * stride, sw * stride),
        writeable=False,
    )
    # -> C-contiguous (c*k*k, b*oh*ow); its transpose is the M x K operand.
    cols_t = np.ascontiguousarray(windows).reshape(c * kernel * kernel, b * oh * ow)
    return cols_t.T, (oh, ow)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Scatter-add column gradients back to input layout (im2col adjoint)."""
    b, c, h, w = input_shape
    oh = conv_out_size(h, kernel, stride, padding)
    ow = conv_out_size(w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    grad_padded = np.zeros((b, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(b, oh, ow, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    # Accumulate each kernel offset in one vectorised slice-add.
    for ki in range(kernel):
        for kj in range(kernel):
            grad_padded[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += cols6[
                :, :, :, :, ki, kj
            ]
    if padding > 0:
        return grad_padded[:, :, padding : padding + h, padding : padding + w]
    return grad_padded
