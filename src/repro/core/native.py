"""The exact path's native gather-MAC, built once per host and probed.

The structured GEMM of a compressed TASD series gathers, for every slot,
the right-hand row its block offset names and multiply-accumulates it
(IndexMAC's gather-MAC).  :func:`einsum_gather` is that GEMM spelled in
NumPy: one tiled ``np.einsum`` per term, summed in term order.
``gather_mac.c`` is the same GEMM in one C call per operand, with the
same roundings in the same order (see its header), so its float64 results
are bit-identical to the einsum spelling's.

:func:`gather_mac` compiles the C source with the system compiler the
first time a process asks, into ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``; a private directory under the temp dir when that is
not writable), keyed by a digest of the source, the compiler and the
flags, so later processes on the host only load the file.  Before
anything uses the loaded kernel, :func:`probe` checks it against the
einsum spelling.  Without a compiler, after a failed build, or on any
probe mismatch, it warns once, records why (:func:`fallback_reason`),
and the callers keep :func:`einsum_gather`.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from . import sparse_ops

__all__ = [
    "COMPILER",
    "CFLAGS",
    "CompileError",
    "GatherMAC",
    "BoundGatherMAC",
    "einsum_gather",
    "probe",
    "build",
    "load",
    "gather_mac",
    "fallback_reason",
    "kernel_status",
]

SOURCE = Path(__file__).with_name("gather_mac.c")
COMPILER = "cc"
# No -march=native or fast-math: both would let the compiler fuse or
# reorder the roundings the kernel has to repeat.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")


class CompileError(RuntimeError):
    """The kernel could not be compiled."""


def einsum_gather(
    flat_values: Sequence[np.ndarray], flat_rows: Sequence[np.ndarray], b: np.ndarray
) -> np.ndarray:
    """``Σ_t nm_matmul_from_tables(flat_values[t], flat_rows[t], b)``, from zeros.

    The einsum spelling of a whole operand's GEMM: the fallback when the
    native kernel is unavailable, and the oracle it is probed against.
    """
    dtype = np.result_type(*flat_values, b)
    out = np.zeros((flat_rows[0].shape[0], b.shape[1]), dtype=dtype)
    for vals, rows in zip(flat_values, flat_rows):
        out += sparse_ops.nm_matmul_from_tables(vals, rows, b)
    return out


class BoundGatherMAC:
    """The kernel bound to one operand's gather tables.

    The tables' pointers are taken once, here; a call only hands over
    ``b``'s and the fresh output's.  A copy (``copy.deepcopy``, pickling)
    rebinds to the copied tables rather than keep pointers into the
    source's.
    """

    __slots__ = ("_fn", "_tables", "_k", "_n_rows", "_n_terms", "_vals", "_rows", "_slots")

    def __init__(self, fn, flat_values: tuple, flat_rows: tuple, k: int) -> None:
        self._fn = fn
        self._tables = (flat_values, flat_rows)  # keeps the pointed-to arrays alive
        self._k = k
        self._n_rows = flat_rows[0].shape[0]
        self._n_terms = len(flat_values)
        pointers = ctypes.c_void_p * self._n_terms
        self._vals = pointers(*(v.ctypes.data for v in flat_values))
        self._rows = pointers(*(r.ctypes.data for r in flat_rows))
        self._slots = (ctypes.c_int64 * self._n_terms)(*(r.shape[1] for r in flat_rows))

    def __reduce__(self):
        return _rebind, (*self._tables, self._k)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """:func:`einsum_gather` of the bound tables and a float64 ``b``."""
        if b.dtype != np.float64 or b.ndim != 2 or b.shape[0] != self._k:
            raise ValueError(f"gather-MAC takes a float64 ({self._k}, N) operand, got "
                             f"{b.dtype} {b.shape}")
        out = np.empty((self._n_rows, b.shape[1]))
        if out.size == 0 or b.size == 0:
            out[...] = 0.0  # no slots can index an empty b
            return out
        if not (b.flags.c_contiguous and b.flags.writeable):
            b = np.array(b, order="C")  # from_buffer takes a writable C buffer
        # from_buffer hands ctypes the data pointers about 2x faster than
        # .ctypes or __array_interface__ do.
        self._fn(self._n_terms, self._vals, self._rows, self._slots, self._n_rows,
                 ctypes.c_double.from_buffer(b), b.shape[1], ctypes.c_double.from_buffer(out))
        return out


def _rebind(flat_values: tuple, flat_rows: tuple, k: int) -> BoundGatherMAC | None:
    kernel = gather_mac()
    return None if kernel is None else kernel.bind(flat_values, flat_rows, k)


class GatherMAC:
    """The loaded native kernel."""

    def __init__(self, path: Path) -> None:
        self.path = path
        fn = ctypes.CDLL(str(path)).gather_mac
        fn.restype = None
        double_p = ctypes.POINTER(ctypes.c_double)
        fn.argtypes = (ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
                       ctypes.c_int64, double_p, ctypes.c_int64, double_p)
        self._fn = fn

    def bind(
        self, flat_values: Sequence[np.ndarray], flat_rows: Sequence[np.ndarray], k: int
    ) -> BoundGatherMAC | None:
        """Bind one operand's tables over a ``k``-row ``b``; None if they don't fit.

        The kernel takes C-contiguous float64 values and int64 row indices
        in ``[0, k)``, every term with the same number of output rows; the
        bounds are checked here, once, because the C loop checks none.
        """
        flat_values, flat_rows = tuple(flat_values), tuple(flat_rows)
        if not flat_values or len(flat_values) != len(flat_rows):
            return None
        n_rows = flat_rows[0].shape[0]
        for vals, rows in zip(flat_values, flat_rows):
            if not (
                vals.dtype == np.float64 and rows.dtype == np.int64
                and vals.ndim == rows.ndim == 2 and vals.shape == rows.shape
                and vals.shape[0] == n_rows
                and vals.flags.c_contiguous and rows.flags.c_contiguous
            ):
                return None
            if rows.size and (rows.min() < 0 or rows.max() >= k):
                return None
        return BoundGatherMAC(self._fn, flat_values, flat_rows, k)


def _same_bits(actual: np.ndarray, expected: np.ndarray) -> bool:
    """Equal bits, signs of zero included; NaN only has to be NaN."""
    nan = np.isnan(expected)
    return (
        actual.shape == expected.shape
        and np.array_equal(np.isnan(actual), nan)
        and np.array_equal(actual[~nan], expected[~nan])
        and np.array_equal(np.signbit(actual[~nan]), np.signbit(expected[~nan]))
    )


# Widths with a register-blocked branch in the kernel, plus generic ones.
_PROBE_WIDTHS = (1, 2, 3, 4, 8, 16, 17)


def probe(bind: Callable[..., Callable[[np.ndarray], np.ndarray] | None]) -> str | None:
    """Check a kernel's ``bind`` against :func:`einsum_gather`; the first mismatch.

    Two terms of 6 rows over a 40-row ``b``, at every width the kernel
    special-cases and two it does not.  At ``N == 1`` the slot counts run
    0-17, so every ``slots % 8`` and its two-lane tail is seen; at
    ``N >= 2`` they are 0, 1, 7 and 13.  Values span 2**±20; a tenth are
    ``-0.0``, a tenth ``0.0`` and one in 200 ``inf``.  Returns None when
    every case matches bit for bit (a NaN only has to be NaN).
    """
    rng = np.random.default_rng(20250)
    k, n_rows = 40, 6
    for n_out in _PROBE_WIDTHS:
        for slots in range(18) if n_out == 1 else (0, 1, 7, 13):
            terms = (slots, (slots * 5) // 3)
            flat_values = tuple(_probe_values(rng, (n_rows, s)) for s in terms)
            flat_rows = tuple(rng.integers(0, k, size=(n_rows, s)) for s in terms)
            b = _probe_values(rng, (k, n_out))
            bound = bind(flat_values, flat_rows, k)
            if bound is None:
                return f"N={n_out} slots={terms}: the kernel refused float64 tables"
            with np.errstate(all="ignore"):
                expected = einsum_gather(flat_values, flat_rows, b)
                actual = bound(b)
            if not _same_bits(actual, expected):
                return f"N={n_out} slots={terms}: differs from the einsum spelling"
    return None


def _probe_values(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    x = rng.normal(size=shape) * np.exp2(rng.integers(-20, 20, size=shape))
    u = rng.random(shape)
    x[u < 0.1] = -0.0
    x[(u >= 0.1) & (u < 0.2)] = 0.0
    x[u > 0.995] = np.inf
    return x


# ---------------------------------------------------------------------- #
def _cache_dirs():
    """Where the built kernel may live, in order of preference."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    with contextlib.suppress(RuntimeError):  # no home directory
        yield Path(xdg) / "repro" if xdg else Path.home() / ".cache" / "repro"
    yield Path(tempfile.gettempdir()) / f"repro-{os.getuid()}"


def build(compiler: str) -> Path:
    """Compile the kernel with ``compiler`` into the cache; return its path.

    A file already built from the same source, compiler and flags is
    reused.  A new one is compiled to a temporary name and renamed into
    place, so a concurrent process sees either nothing or the whole file.
    """
    source = SOURCE.read_bytes()
    key = hashlib.blake2b(repr((compiler, CFLAGS)).encode() + source, digest_size=10)
    name = f"gather_mac-{key.hexdigest()}.so"
    for directory in _cache_dirs():
        target = directory / name
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            if directory.stat().st_uid != os.getuid():
                continue  # someone else's directory: never load code from it
            if target.is_file():
                return target
            fd, tmp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=directory)
        except OSError:
            continue
        os.close(fd)
        try:
            proc = subprocess.run(
                [compiler, *CFLAGS, "-x", "c", "-", "-o", tmp],
                input=source, capture_output=True, timeout=120,
            )
            if proc.returncode:
                err = proc.stderr.decode(errors="replace").strip()
                raise CompileError(f"{compiler} exited {proc.returncode}: {err[:300]}")
            os.replace(tmp, target)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        return target
    raise CompileError("no writable cache directory")


def load() -> tuple[GatherMAC | None, str | None]:
    """Build (or find), load and probe the kernel: ``(kernel, None)`` or ``(None, why)``."""
    if shutil.which(COMPILER) is None:
        return None, f"no C compiler {COMPILER!r} on PATH"
    try:
        kernel = GatherMAC(build(COMPILER))
    except (OSError, subprocess.SubprocessError, CompileError) as exc:
        return None, f"build failed: {exc}"
    mismatch = probe(kernel.bind)
    if mismatch is not None:
        return None, f"probe refused the kernel: {mismatch}"
    return kernel, None


_lock = threading.Lock()
# (kernel, fallback reason) once this process has loaded; forked children
# inherit it, so they never build or load.
_state: tuple[GatherMAC | None, str | None] | None = None


def gather_mac() -> GatherMAC | None:
    """This process's probed native kernel, or None when the einsum loop serves."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                kernel, reason = load()
                if reason is not None:
                    warnings.warn(
                        f"native gather-MAC unavailable ({reason}); the exact "
                        "path runs the einsum loop",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                _state = (kernel, reason)
    return _state[0]


def fallback_reason() -> str | None:
    """Why the einsum loop serves instead of the native kernel (None if it doesn't)."""
    gather_mac()
    return _state[1]


def kernel_status() -> str:
    """One line naming the kernel that serves float64 exact GEMMs."""
    kernel = gather_mac()
    if kernel is not None:
        return f"native gather-MAC ({kernel.path})"
    return f"einsum loop ({fallback_reason()})"
