"""Compiled (decomposed + compressed) weights.

The TASD decomposition of a weight matrix is a pure function of (tensor
bytes, series configuration).  :func:`compile_operand` computes it once,
at plan-build time, into a :class:`CompiledOperand`: the compressed term
storage plus the gather tables the structured kernels replay.
:func:`tensor_digest` names the source weight by content, which is how a
persisted plan recognises the model it was compiled from.

Process-pool workers are forked from the process that compiled the plan,
so they read these arrays from pages shared copy-on-write with it — the
process-pool analogue of S2TA keeping compressed operands resident
across PEs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.series import TASDConfig
from repro.core.sparse_ops import (
    CompressedNM,
    nm_compress,
    nm_gather_tables,
)
from repro.tensor.blocks import pad_to_multiple

from .backends import DEFAULT_BACKEND, GemmBackend, get_backend

__all__ = [
    "tensor_digest",
    "CompiledOperand",
    "compile_operand",
]


def tensor_digest(a: np.ndarray) -> str:
    """Content digest of an array: dtype + shape + raw bytes (BLAKE2b).

    BLAKE2b is measurably faster than SHA-1/SHA-2 over large buffers, and
    this runs over the *full* weight bytes once per layer at compile time
    and again when a saved plan is verified.  ``digest_size=20``
    keeps the hex length of persisted keys identical to the old SHA-1
    digests while changing the key space, so an artifact keyed by the old
    digests is refused rather than matched.
    """
    a = np.ascontiguousarray(a)
    h = hashlib.blake2b(digest_size=20)
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class CompiledOperand:
    """A matrix pre-decomposed and pre-compressed for structured execution.

    Holds the :class:`CompressedNM` term storage (what the accelerator's
    scratchpads would keep resident, per S2TA) plus flattened gather tables
    so :meth:`matmul` replays exactly the arithmetic of
    :func:`repro.core.sparse_ops.nm_matmul` without re-deriving indices.
    """

    config: TASDConfig
    original_shape: tuple[int, int]
    padded_shape: tuple[int, int]
    terms: tuple[CompressedNM, ...]
    # Per-term flattened kernels: values (rows, n_blocks*n) and the matching
    # row indices into the right-hand operand.
    flat_values: tuple[np.ndarray, ...] = field(repr=False)
    flat_rows: tuple[np.ndarray, ...] = field(repr=False)
    # Memoised per-backend prepared state (dense-emulation's matrix).
    # Mutated under the GIL only; a racing first call at worst prepares
    # twice and keeps one result — never corrupts.
    backend_states: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.terms)

    @property
    def total_nnz(self) -> int:
        """Non-zeros held across all compressed terms."""
        return sum(t.nnz for t in self.terms)

    @cached_property
    def slots(self) -> int:
        """Compressed value slots (the MACs hardware runs per output column).

        Read on every GEMM; the terms never change, so it is summed once.
        """
        return sum(t.values.size for t in self.terms)

    @property
    def compressed_bits(self) -> float:
        return sum(t.compressed_bits for t in self.terms)

    def backend_state(self, backend: GemmBackend):
        """Memoised :meth:`GemmBackend.prepare` result for this operand."""
        state = self.backend_states.get(backend.name)
        if state is None and backend.name not in self.backend_states:
            state = backend.prepare(self)
            self.backend_states[backend.name] = state
        return state

    def matmul(self, b: np.ndarray, backend: str = DEFAULT_BACKEND) -> np.ndarray:
        """``decompress(self) @ b`` through the named kernel backend.

        ``b`` must already span the padded reduction dimension.  The default
        (reference) backend accumulates terms exactly like
        :func:`repro.core.sparse_ops.tasd_matmul`, so its results are
        bit-identical to the per-call path — as are all backends whose
        ``exact`` flag is set.  The accumulator dtype follows
        ``np.result_type`` across *all* terms' values and ``b``, so a
        mixed-dtype series never accumulates in a too-narrow dtype.
        """
        b = np.asarray(b)
        rows, k = self.padded_shape
        if b.shape[0] != k:
            raise ValueError(f"inner dimensions mismatch: {self.padded_shape} @ {b.shape}")
        be = get_backend(backend)
        return be.matmul(self, self.backend_state(be), b)


def compile_operand(matrix: np.ndarray, config: TASDConfig) -> CompiledOperand:
    """Decompose and compress a 2-D weight matrix into a :class:`CompiledOperand`.

    The reduction (last) axis is zero-padded to the series' block LCM, so
    a ragged width compiles; dense configurations have no compressed form
    and are rejected.  ``compile_plan`` calls this once per targeted layer.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"compiled operands are 2-D matrices, got shape {matrix.shape}")
    if config.is_dense:
        raise ValueError("dense configurations have no compressed form")
    padded = pad_to_multiple(matrix, config.block_lcm, axis=-1)
    dec = config.apply(padded, axis=-1)
    terms = tuple(nm_compress(t.tensor, t.pattern) for t in dec.terms)
    tables = [nm_gather_tables(c) for c in terms]
    flat_values = [vals for vals, _ in tables]
    flat_rows = [rows for _, rows in tables]
    return CompiledOperand(
        config=config,
        original_shape=tuple(matrix.shape),
        padded_shape=tuple(padded.shape),
        terms=terms,
        flat_values=tuple(flat_values),
        flat_rows=tuple(flat_rows),
    )
