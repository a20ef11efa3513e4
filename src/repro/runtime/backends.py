"""Pluggable kernel backends for the structured-GEMM hot path.

Every compiled forward funnels its GEMMs through one seam —
``CompiledOperand.matmul`` — and this module makes that seam pluggable: a
registry of interchangeable :class:`GemmBackend` implementations of the
``CompressedNM``-operand matmul, each trading memory traffic against
vectorisation differently (SparseRT's lesson: the win is in specialising
the kernel to the operand ahead of time).

Backends come in two numerical tiers:

- ``exact`` backends are **bit-identical** to the reference kernel (the
  per-term einsum of :func:`repro.core.sparse_ops.nm_matmul_from_tables`
  accumulated in term order).  They only restructure *memory* movement,
  never the per-element floating-point evaluation order.
- inexact backends (``scatter-csr``, ``dense-emulation``) reassociate the
  reduction and agree with the reference to rounding error (``allclose``).

The registry is the single extension point for future native kernels: a
``repro.gpu`` 2:4 backend registers here and every compiled plan can
dispatch to it per layer.

Bit-exactness notes (verified empirically against this NumPy build, and
fenced by ``tests/runtime/test_runtime_backends.py``):

- Zero-padding a term's gather tables (value 0 at row 0) does not change
  the einsum's per-element accumulation, so ``fused-gather`` can stack
  ragged per-term tables into one rectangular tensor and contract the
  whole series in a single einsum while keeping reference bits.
- Tiling the contraction over output *rows* preserves bits (each output
  element's reduction is untouched); tiling over output *columns* does
  not — NumPy's einsum picks a different inner accumulation strategy for
  narrow contiguous trailing dimensions.  ``blocked-gather`` therefore
  tiles rows, which bounds the gather tensor exactly as well
  (``tile_rows * slots * N`` elements resident instead of
  ``rows * slots * N``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.sparse_ops import nm_decompress, nm_matmul_from_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache imports us)
    from .cache import CompiledOperand

__all__ = [
    "DEFAULT_BACKEND",
    "GemmBackend",
    "EinsumGatherBackend",
    "FusedGatherBackend",
    "BlockedGatherBackend",
    "ScatterCSRBackend",
    "DenseEmulationBackend",
    "register_backend",
    "get_backend",
    "backend_names",
    "exact_backend_names",
]

DEFAULT_BACKEND = "einsum-gather"


class GemmBackend:
    """One strategy for ``decompress(operand) @ b`` over compressed terms.

    ``prepare`` derives whatever per-operand state the kernel needs
    (fused tables, CSR arrays, a decompressed matrix, ...) exactly once;
    the operand memoises it, so every forward shares prepared state the
    same way it shares the compressed terms.  ``matmul`` must treat both
    the operand and the prepared state as immutable — backends are shared
    across threads.
    """

    #: registry key, e.g. ``"einsum-gather"``
    name: str = ""
    #: True when outputs are bit-identical to the reference kernel
    exact: bool = False

    def prepare(self, operand: "CompiledOperand") -> Any:
        """One-time per-operand compilation; return value is memoised."""
        return None

    def matmul(self, operand: "CompiledOperand", state: Any, b: np.ndarray) -> np.ndarray:
        """Contract ``operand @ b`` with ``b`` spanning the padded reduction."""
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


@dataclass(frozen=True)
class _FusedTables:
    """All terms' gather tables stacked into one rectangular pair."""

    values: np.ndarray  # (rows, terms, max_slots)
    rows: np.ndarray  # (rows, terms, max_slots), intp


class FusedGatherBackend(GemmBackend):
    """Whole-series contraction: one gather, one einsum, no per-term loop.

    At prepare time every term's ``(rows, slots_t)`` tables are zero-padded
    to the widest term and stacked into ``(rows, terms, max_slots)``
    tensors (padding slots hold value 0 pointing at row 0 — arithmetically
    and *bitwise* neutral).  ``matmul`` then runs the entire TASD series as
    a single ``rts,rtsn->trn`` einsum; the only remaining Python work is
    accumulating the per-term partials in term order, which is exactly what
    keeps the result bit-identical to the reference (rounding must happen
    at term boundaries, like the reference's ``out += term`` loop).

    Single-column right-hand sides fall back to the reference loop: with
    ``N == 1`` the contraction collapses to a dot product, for which
    NumPy's einsum switches to a reduction whose rounding depends on the
    slot count — so the zero-padded tables would no longer be bitwise
    neutral (and fusion buys nothing on a GEMV anyway).
    """

    name = "fused-gather"
    exact = True

    def prepare(self, operand: "CompiledOperand") -> _FusedTables:
        rows = operand.padded_shape[0]
        n_terms = len(operand.terms)
        max_slots = max(v.shape[1] for v in operand.flat_values)
        dtype = np.result_type(*(t.values for t in operand.terms))
        values = np.zeros((rows, n_terms, max_slots), dtype=dtype)
        rows_idx = np.zeros((rows, n_terms, max_slots), dtype=np.intp)
        for t, (vals, ridx) in enumerate(zip(operand.flat_values, operand.flat_rows)):
            values[:, t, : vals.shape[1]] = vals
            rows_idx[:, t, : ridx.shape[1]] = ridx
        return _FusedTables(values=values, rows=rows_idx)

    def matmul(self, operand: "CompiledOperand", state: _FusedTables, b: np.ndarray) -> np.ndarray:
        if b.shape[1] == 1:  # dot-product regime: see class docstring
            return _REFERENCE.matmul(operand, None, b)
        partials = np.einsum("rts,rtsn->trn", state.values, b[state.rows])
        out = np.zeros(partials.shape[1:], dtype=self._out_dtype(operand, b))
        for term_partial in partials:
            out += term_partial
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


@dataclass(frozen=True)
class _TermCSR:
    """One term's compressed slots as flat CSR-style arrays (padding dropped)."""

    data: np.ndarray  # (nnz,) non-zero slot values, row-major, k-ascending
    cols: np.ndarray  # (nnz,) row of b each value multiplies
    nonempty: np.ndarray  # (n_nonempty,) output rows with any entries
    starts: np.ndarray  # (n_nonempty,) segment starts into data/cols


class ScatterCSRBackend(GemmBackend):
    """Row-segment reduction over flat CSR arrays — no 3-D intermediate.

    Prepare converts each compressed term into flat ``(data, cols)`` arrays
    with the zero padding slots dropped, so the contraction touches only
    true non-zeros: a ``(nnz, N)`` product followed by one
    ``np.add.reduceat`` segment sum per term.  The segmented reduction
    reassociates the per-row sums, so this backend is *allclose* to the
    reference, not bit-identical (it is not gather-based).
    """

    name = "scatter-csr"
    exact = False

    def prepare(self, operand: "CompiledOperand") -> tuple[_TermCSR, ...]:
        terms = []
        for vals, rows_idx in zip(operand.flat_values, operand.flat_rows):
            mask = vals != 0
            counts = mask.sum(axis=1)
            nonempty = np.flatnonzero(counts)
            indptr = np.concatenate(([0], np.cumsum(counts)))
            terms.append(
                _TermCSR(
                    data=vals[mask],
                    cols=rows_idx[mask],
                    nonempty=nonempty,
                    starts=indptr[nonempty],
                )
            )
        return tuple(terms)

    def matmul(
        self, operand: "CompiledOperand", state: tuple[_TermCSR, ...], b: np.ndarray
    ) -> np.ndarray:
        rows = operand.padded_shape[0]
        out = np.zeros((rows, b.shape[1]), dtype=self._out_dtype(operand, b))
        for term in state:
            if term.data.size == 0:
                continue
            prod = term.data[:, None] * b[term.cols]
            out[term.nonempty] += np.add.reduceat(prod, term.starts, axis=0)
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


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_REGISTRY: dict[str, GemmBackend] = {}


def register_backend(backend: GemmBackend, overwrite: bool = False) -> GemmBackend:
    """Add a backend instance to the registry under ``backend.name``."""
    if not backend.name:
        raise ValueError("backend must define a non-empty name")
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> GemmBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown GEMM backend {name!r}; registered: {backend_names()}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """All registered backend names, reference first (registration order)."""
    return tuple(_REGISTRY)


def exact_backend_names() -> tuple[str, ...]:
    """Backends guaranteed bit-identical to the reference kernel."""
    return tuple(name for name, be in _REGISTRY.items() if be.exact)


_REFERENCE = EinsumGatherBackend()

register_backend(_REFERENCE)
register_backend(FusedGatherBackend())
register_backend(BlockedGatherBackend())
register_backend(ScatterCSRBackend())
register_backend(DenseEmulationBackend())
