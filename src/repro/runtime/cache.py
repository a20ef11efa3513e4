"""Content-addressed cache of compiled (decomposed + compressed) weights.

The TASD decomposition of a weight matrix is a pure function of (tensor
bytes, series configuration) — so its compiled form can be cached by
content digest.  Plans compiled against one cache share the operand of
every weight they have in common, and plan persistence re-registers
loaded operands so a later compile of the same weight hits.

Entries are LRU-evicted under a capacity bound and hits return the *same*
object that was stored, so compiled plans can share operands by identity.

For *cross-process* sharing, :class:`SharedOperandStore` packs the arrays
behind a set of compiled operands (``CompressedNM`` term ``values`` /
``indices``, gather tables, dense weights) into one
``multiprocessing.shared_memory`` segment: worker processes attach by
segment name and rebuild zero-copy views, so N workers hold one copy of
the compiled plan's operand storage — the process-pool analogue of S2TA
keeping compressed operands resident across PEs.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.analysis.annotations import cross_process
from repro.core.series import TASDConfig
from repro.core.sparse_ops import (
    CompressedNM,
    nm_compress,
    nm_gather_tables,
)
from repro.tensor.blocks import pad_to_multiple

from .backends import DEFAULT_BACKEND, GemmBackend, get_backend
from .counters import CacheCounters

__all__ = [
    "tensor_digest",
    "CompiledOperand",
    "OperandCache",
    "SharedArrayRef",
    "SharedOperandStore",
]


def tensor_digest(a: np.ndarray) -> str:
    """Content digest of an array: dtype + shape + raw bytes (BLAKE2b).

    BLAKE2b is measurably faster than SHA-1/SHA-2 over large buffers, and
    this runs over the *full* weight bytes once per layer at compile time
    and again when a saved plan is verified.  ``digest_size=20``
    keeps the hex length (and any persisted keys) identical to the old
    SHA-1 digests while changing the key space, so stale cross-version
    cache hits are impossible.
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

    @property
    def slots(self) -> int:
        """Compressed value slots (the MACs hardware runs per output column)."""
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


def _compile_operand(matrix: np.ndarray, config: TASDConfig) -> CompiledOperand:
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


class OperandCache:
    """Thread-safe LRU cache of compiled operands.

    Keys are (content digest, configuration) — content-addressed, so
    identical weights share one entry regardless of where they came from.
    ``capacity`` bounds the number of resident entries; the least recently
    used entry is evicted first.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.counters = CacheCounters()
        self._store: OrderedDict[tuple, object] = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def info(self) -> dict:
        """Occupancy + counter snapshot (the telemetry exporter's view)."""
        with self._lock:
            resident = len(self._store)
        return {
            "capacity": self.capacity,
            "resident": resident,
            "hits": self.counters.hits,
            "misses": self.counters.misses,
            "evictions": self.counters.evictions,
            "hit_rate": self.counters.hit_rate,
        }

    # lint: disable=guarded-field — _lock is held by every caller
    # (_get_or_build and adopt take it around the insert)
    def _insert(self, key: tuple, value: object) -> None:
        """Store ``key`` and evict LRU entries past capacity.  Lock held by caller."""
        self._store[key] = value
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.counters.evictions += 1

    def _get_or_build(self, key: tuple, build) -> object:
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.counters.hits += 1
                return self._store[key]
        # Build outside the lock: decomposition is the expensive part and
        # concurrent builders at worst duplicate work, never corrupt state.
        value = build()
        with self._lock:
            if key in self._store:  # racing builder won; keep its object
                self._store.move_to_end(key)
                self.counters.misses += 1
                return self._store[key]
            self.counters.misses += 1
            self._insert(key, value)
        return value

    # ------------------------------------------------------------------ #
    def compress(
        self, matrix: np.ndarray, config: TASDConfig, digest: str | None = None
    ) -> CompiledOperand:
        """Compiled (decomposed + compressed) form of a 2-D matrix.

        ``digest`` lets a caller that already hashed ``matrix`` (the plan
        compiler records it per layer) skip the second full-tensor pass; it
        must be ``tensor_digest(matrix)`` or the content addressing breaks.
        """
        key = (digest if digest is not None else tensor_digest(matrix), str(config))
        return self._get_or_build(key, lambda: _compile_operand(matrix, config))

    def adopt(self, digest: str, config: TASDConfig, operand: CompiledOperand) -> CompiledOperand:
        """Register a precompiled operand under its source weight's digest.

        The plan-persistence path (:mod:`repro.runtime.planio`) rebuilds
        operands from disk and re-registers them here, so later
        ``compress`` calls on the same weight hit instead of re-deriving.
        Counted as neither hit nor miss — nothing was looked up or built.
        If the key is already resident, the incumbent wins (plans sharing
        this cache keep sharing one object by identity).
        """
        key = (digest, str(config))
        with self._lock:
            incumbent = self._store.get(key)
            if incumbent is not None:
                self._store.move_to_end(key)
                return incumbent
            self._insert(key, operand)
        return operand

    def digest_of(self, operand: CompiledOperand) -> str | None:
        """Reverse lookup: the source-weight digest a resident operand is keyed by.

        Identity-based — returns ``None`` when the operand was never stored
        here or has been evicted.  This is how plan persistence recovers a
        compiled layer's original weight digest without keeping the dense
        weight around.
        """
        with self._lock:
            for key, value in self._store.items():
                if value is operand:
                    return key[0]
        return None


# ---------------------------------------------------------------------- #
# Cross-process operand sharing
# ---------------------------------------------------------------------- #
_SHM_ALIGN = 64  # cache-line alignment for every array placed in a segment


@cross_process
@dataclass(frozen=True)
class SharedArrayRef:
    """Where one array lives inside a shared segment — picklable, tiny."""

    offset: int
    dtype: str  # numpy dtype string, e.g. "<f8"
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        n = np.dtype(self.dtype).itemsize
        for dim in self.shape:
            n *= dim
        return n


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    ``SharedMemory(name=...)`` registers the segment with the attaching
    process's resource tracker, which *unlinks it* when that process exits
    — destroying the creator's segment under every other worker.  Python
    3.13 grew ``track=False`` for exactly this; on 3.11 the supported
    escape hatch is to unregister after attach, leaving cleanup to the
    creating process (which owns the only ``unlink``).
    """
    shm = shared_memory.SharedMemory(name=name)
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    # lint: disable=broad-except — tracker internals differ across
    # platforms/Python versions; a failed unregister only risks an early
    # unlink warning, never correctness
    except Exception:  # pragma: no cover - tracker variants across platforms
        pass
    return shm


class SharedOperandStore:
    """A bundle of numpy arrays in one shared-memory segment.

    The parent serializes the arrays once (:meth:`create` returns the
    store plus a picklable ``{key: SharedArrayRef}`` map); each worker
    process attaches by segment ``name`` and resolves refs to zero-copy
    read-only views (:meth:`get`).  Views borrow the segment's buffer, so
    the store must stay open for as long as any view is live — workers
    hold it for their lifetime, and only the creating process calls
    :meth:`unlink`.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls, arrays: dict[str, np.ndarray]
    ) -> tuple["SharedOperandStore", dict[str, SharedArrayRef]]:
        """Pack ``arrays`` into a fresh segment; returns (store, refs).

        Raises ``OSError`` where POSIX shared memory is unavailable —
        callers that can degrade (``share_plan``) fall back to carrying
        the arrays inline.
        """
        refs: dict[str, SharedArrayRef] = {}
        offset = 0
        for key, a in arrays.items():
            a = np.asarray(a)
            refs[key] = SharedArrayRef(offset=offset, dtype=a.dtype.str, shape=tuple(a.shape))
            offset += -(-a.nbytes // _SHM_ALIGN) * _SHM_ALIGN
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        store = cls(shm, owner=True)
        for key, a in arrays.items():
            ref = refs[key]
            view = np.ndarray(
                ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.offset
            )
            # ndarray assignment handles non-contiguous sources, so the one
            # copy into the segment is the only copy made.
            view[...] = a
        return store, refs

    @classmethod
    def attach(cls, name: str) -> "SharedOperandStore":
        """Open an existing segment by name (worker side, never unlinks)."""
        return cls(_attach_segment(name), owner=False)

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self._shm.name

    def get(self, ref: SharedArrayRef) -> np.ndarray:
        """Zero-copy read-only view of one array inside the segment."""
        if self._closed:
            raise ValueError("shared operand store is closed")
        view = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=self._shm.buf, offset=ref.offset
        )
        # Operands are immutable by contract; a writable cross-process view
        # would let one worker silently corrupt every other worker's GEMMs.
        view.flags.writeable = False
        return view

    def close(self) -> None:
        """Detach this process's mapping (views die with it)."""
        if not self._closed:
            self._closed = True
            self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        self.close()
        if self._owner:
            self._owner = False
            # ``SharedMemory.unlink`` unregisters from the resource tracker;
            # under ``fork`` the children *shared* the parent's tracker, so
            # their attach-time unregistration already removed the entry and
            # the tracker would log a KeyError.  Re-registering first keeps
            # the tracker's books balanced on every start method.
            try:
                resource_tracker.register(self._shm._name, "shared_memory")
            # lint: disable=broad-except — best-effort book-balancing for
            # the resource tracker; the unlink below still runs either way
            except Exception:  # pragma: no cover - tracker variants
                pass
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedOperandStore":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink() if self._owner else self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.unlink() if self._owner else self.close()
        # lint: disable=broad-except — __del__ runs during interpreter
        # teardown where raising is forbidden and modules may be half-gone
        except Exception:
            pass
