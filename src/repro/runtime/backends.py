"""Kernel backends for the structured-GEMM hot path.

Every compiled forward funnels its GEMMs through one seam —
``CompiledOperand.matmul`` — and this module supplies the kernels behind
it: two fixed :class:`GemmBackend` implementations of the
``CompressedNM``-operand matmul.  ``compile_plan`` picks one per plan by
rule, not by measurement: exact plans run the reference, allclose plans
run ``dense-emulation``.

- ``einsum-gather`` is the reference: the per-term einsum of
  :func:`repro.core.sparse_ops.nm_matmul_from_tables` accumulated in term
  order, bit-identical to the per-call ``tasd_matmul`` path.
- ``dense-emulation`` reassociates the reduction through BLAS and agrees
  with the reference to rounding error (``allclose``).  It is the faster
  backend at every width this repo's workloads serve.

Bit-exactness note (verified empirically against this NumPy build): a
faster exact kernel may tile the contraction over output *rows*, which
preserves bits (each output element's reduction is untouched), but not
over output *columns* — NumPy's einsum picks a different inner
accumulation strategy for narrow contiguous trailing dimensions.
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
    "DenseEmulationBackend",
    "get_backend",
    "backend_names",
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
    materialises a ``(rows, slots, N)`` gather tensor per term per call.
    """

    name = DEFAULT_BACKEND
    exact = True

    def matmul(self, operand: "CompiledOperand", state: Any, b: np.ndarray) -> np.ndarray:
        rows = operand.padded_shape[0]
        out = np.zeros((rows, b.shape[1]), dtype=self._out_dtype(operand, b))
        for vals, rows_idx in zip(operand.flat_values, operand.flat_rows):
            out += nm_matmul_from_tables(vals, rows_idx, b)
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


# Fixed at import, the reference first.
_BACKENDS: MappingProxyType[str, GemmBackend] = MappingProxyType(
    {be.name: be for be in (EinsumGatherBackend(), DenseEmulationBackend())}
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

