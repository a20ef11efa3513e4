"""Kernel backends for the structured-GEMM hot path.

Every compiled forward funnels its GEMMs through one seam —
``CompiledOperand.matmul`` — and this module supplies the kernels behind
it: three fixed :class:`GemmBackend` implementations of the
``CompressedNM``-operand matmul, each trading memory traffic against
vectorisation differently (SparseRT's lesson: the win is in specialising
the kernel to the operand ahead of time).

- ``einsum-gather`` is the reference: the per-term einsum of
  :func:`repro.core.sparse_ops.nm_matmul_from_tables` accumulated in term
  order.
- ``blocked-gather`` is **bit-identical** to the reference.  It only
  restructures *memory* movement, never the per-element floating-point
  evaluation order, and wins on wide GEMMs whose gather tensor spills
  past cache.
- ``dense-emulation`` reassociates the reduction through BLAS and agrees
  with the reference to rounding error (``allclose``).  It wins on the
  narrow GEMMs of small-batch serving.

Bit-exactness note (verified empirically against this NumPy build, and
fenced by ``tests/runtime/test_runtime_backends.py``): tiling the
contraction over output *rows* preserves bits (each output element's
reduction is untouched); tiling over output *columns* does not — NumPy's
einsum picks a different inner accumulation strategy for narrow
contiguous trailing dimensions.  ``blocked-gather`` therefore tiles rows,
which bounds the gather tensor exactly as well (``tile_rows * slots * N``
elements resident instead of ``rows * slots * N``).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.sparse_ops import nm_decompress, nm_matmul_from_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache imports us)
    from .cache import CompiledOperand

__all__ = [
    "DEFAULT_BACKEND",
    "GemmBackend",
    "EinsumGatherBackend",
    "BlockedGatherBackend",
    "DenseEmulationBackend",
    "get_backend",
    "backend_names",
    "exact_backend_names",
]

DEFAULT_BACKEND = "einsum-gather"


class GemmBackend:
    """One strategy for ``decompress(operand) @ b`` over compressed terms.

    ``prepare`` derives whatever per-operand state the kernel needs (for
    ``dense-emulation``, the decompressed matrix) exactly once; the
    operand memoises it, so every forward shares prepared state the same
    way it shares the compressed terms.  ``matmul`` must treat both
    the operand and the prepared state as immutable — backends are shared
    across threads.
    """

    #: lookup key, e.g. ``"einsum-gather"``
    name: str = ""
    #: True when outputs are bit-identical to the reference kernel
    exact: bool = False

    def prepare(self, operand: "CompiledOperand") -> Any:
        """One-time per-operand compilation; return value is memoised."""
        return None

    def matmul(self, operand: "CompiledOperand", state: Any, b: np.ndarray) -> np.ndarray:
        """Contract ``operand @ b`` with ``b`` spanning the padded reduction.

        Returns a new array: the caller may overwrite it in place.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    @staticmethod
    def _out_dtype(operand: "CompiledOperand", b: np.ndarray) -> np.dtype:
        """Accumulator dtype across *all* terms' values and ``b``."""
        return np.result_type(*(t.values for t in operand.terms), b)


class EinsumGatherBackend(GemmBackend):
    """Reference kernel: per-term gather + einsum, accumulated in term order.

    This is the arithmetic every exact backend must reproduce bit-for-bit
    and the per-call ``tasd_matmul`` path is verified against.  It
    materialises a ``(rows, slots, N)`` gather tensor per term per call —
    the memory-traffic-bound worst case the other backends attack.
    """

    name = DEFAULT_BACKEND
    exact = True

    def matmul(self, operand: "CompiledOperand", state: Any, b: np.ndarray) -> np.ndarray:
        rows = operand.padded_shape[0]
        out = np.zeros((rows, b.shape[1]), dtype=self._out_dtype(operand, b))
        for vals, rows_idx in zip(operand.flat_values, operand.flat_rows):
            out += nm_matmul_from_tables(vals, rows_idx, b)
        return out


class BlockedGatherBackend(GemmBackend):
    """Row-tiled gather: bounds the gather tensor to cache-resident size.

    The reference kernel's ``(rows, slots, N)`` intermediate can spill far
    past cache for wide layers; this backend runs the identical per-term
    einsum over row tiles sized so the gather stays within ``budget_bytes``
    (``tile_rows * slots * N`` resident elements).  Rows are the tiling
    axis because each output element's reduction is then untouched — see
    the module docstring for why column tiles would break bit-exactness.
    """

    name = "blocked-gather"
    exact = True

    def __init__(self, block_rows: int | None = None, budget_bytes: int = 1 << 22) -> None:
        if block_rows is not None and block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {block_rows}")
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        self.block_rows = block_rows
        self.budget_bytes = budget_bytes

    def _tile(self, operand: "CompiledOperand", n_cols: int, itemsize: int) -> int:
        if self.block_rows is not None:
            return self.block_rows
        max_slots = max(v.shape[1] for v in operand.flat_values)
        per_row = max(1, max_slots * max(1, n_cols) * itemsize)
        return max(1, self.budget_bytes // per_row)

    def matmul(self, operand: "CompiledOperand", state: Any, b: np.ndarray) -> np.ndarray:
        rows = operand.padded_shape[0]
        dtype = self._out_dtype(operand, b)
        tile = min(rows, self._tile(operand, b.shape[1], dtype.itemsize))
        if tile >= rows:  # fits in budget: exactly the reference call
            return _REFERENCE.matmul(operand, None, b)
        out = np.empty((rows, b.shape[1]), dtype=dtype)
        for r0 in range(0, rows, tile):
            r1 = min(rows, r0 + tile)
            acc = np.zeros((r1 - r0, b.shape[1]), dtype=dtype)
            for vals, rows_idx in zip(operand.flat_values, operand.flat_rows):
                acc += nm_matmul_from_tables(vals[r0:r1], rows_idx[r0:r1], b)
            out[r0:r1] = acc
        return out


class DenseEmulationBackend(GemmBackend):
    """One-time decompress + BLAS ``@`` — the roofline ceiling.

    Reconstructs the series view ``Σ decompress(term)`` once at prepare
    time and serves every call as a dense matmul.  Same memory cost as the
    dense weight, zero structured-sparsity savings in the arithmetic —
    but BLAS throughput, which is the bar any structured kernel on this
    functional model has to be judged against.
    """

    name = "dense-emulation"
    exact = False

    def prepare(self, operand: "CompiledOperand") -> np.ndarray:
        dense = nm_decompress(operand.terms[0]).astype(
            np.result_type(*(t.values for t in operand.terms)), copy=False
        )
        for term in operand.terms[1:]:
            dense = dense + nm_decompress(term)
        return dense

    def matmul(self, operand: "CompiledOperand", state: np.ndarray, b: np.ndarray) -> np.ndarray:
        return state @ b


_REFERENCE = EinsumGatherBackend()

# Fixed at import: the reference first, then the other exact kernel, then
# the inexact one.  Autotune breaks timing ties toward this order.
_BACKENDS: MappingProxyType[str, GemmBackend] = MappingProxyType(
    {be.name: be for be in (_REFERENCE, BlockedGatherBackend(), DenseEmulationBackend())}
)


def get_backend(name: str) -> GemmBackend:
    """Look up a backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(f"unknown GEMM backend {name!r}; known: {backend_names()}") from None


def backend_names() -> tuple[str, ...]:
    """All backend names, reference first."""
    return tuple(_BACKENDS)


def exact_backend_names() -> tuple[str, ...]:
    """Backends guaranteed bit-identical to the reference kernel."""
    return tuple(name for name, be in _BACKENDS.items() if be.exact)
