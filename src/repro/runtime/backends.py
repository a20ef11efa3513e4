"""Kernel backends for the structured-GEMM hot path.

Every compiled forward funnels its GEMMs through one seam —
``CompiledOperand.matmul`` — and this module supplies the kernels behind
it: two fixed :class:`GemmBackend` implementations of the
``CompressedNM``-operand matmul.  ``compile_plan`` picks one per plan by
rule, not by measurement: exact plans run the reference, allclose plans
run ``dense-emulation``.

- ``einsum-gather`` is the reference: each term's gather + einsum
  (:func:`repro.core.native.einsum_gather`) accumulated in term order,
  bit-identical to the per-call ``tasd_matmul`` path.  Float64 operands
  run it as one native gather-MAC call per GEMM (:mod:`repro.core.native`)
  with the same bits.
- ``dense-emulation`` reassociates the reduction through BLAS and agrees
  with the reference to rounding error (``allclose``).  It is the faster
  backend at every width this repo's workloads serve.

Bit-exactness note (verified against this NumPy build): einsum sums a
term's slots in slot order when ``N >= 2`` and through a two-lane SIMD
reduction when ``N == 1`` (a narrow contiguous trailing dimension), and
the native kernel repeats both orders addition for addition; any other
reordered or fused contraction changes the ``N == 1`` layers' bits.  The
kernel is compiled once per host, into a cache outside the checkout, the
first time a plan is built or loaded (``prepare``), and probed against
the einsum spelling before it serves; forked pool workers inherit it.
Without a compiler, or if the build or the probe fails, a warning names
the reason and every GEMM runs the einsum loop, whose ``np.take`` gathers
one tile of output rows at a time (at most
:data:`repro.core.sparse_ops.GATHER_TILE_ELEMENTS` elements).  Operands
that are not float64 always run the loop.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core import native
from repro.core.sparse_ops import nm_decompress

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


class EinsumGatherBackend(GemmBackend):
    """Reference kernel: per-term gather + einsum, accumulated in term order.

    This is the arithmetic every exact backend must reproduce bit-for-bit
    and the per-call ``tasd_matmul`` path is verified against.  ``prepare``
    binds the operand's gather tables to the native gather-MAC when it is
    loaded and they are float64; ``matmul`` runs that binding for a float64
    ``b`` and :func:`~repro.core.native.einsum_gather` for anything else.
    """

    name = DEFAULT_BACKEND
    exact = True

    def prepare(self, operand: "CompiledOperand") -> native.BoundGatherMAC | None:
        kernel = native.gather_mac()
        if kernel is None:
            return None
        return kernel.bind(operand.flat_values, operand.flat_rows, operand.padded_shape[1])

    def matmul(self, operand: "CompiledOperand", state: Any, b: np.ndarray) -> np.ndarray:
        b = np.ascontiguousarray(b)  # once for all terms, not once per term
        if state is not None and b.dtype == np.float64:
            return state(b)
        return native.einsum_gather(operand.flat_values, operand.flat_rows, b)


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

