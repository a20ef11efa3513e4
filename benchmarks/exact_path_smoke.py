"""Smoke: the exact path's kernels give the same bits as their plain spellings.

perfbench's exact workload checks its outputs against a reference computed
by the same gather kernel and the same TASD-A mask, so a change in their
arithmetic would pass it unseen.  This smoke compiles and runs perfbench's
exact plan (ResNet-18, weights ``2:4+2:8``, TASD-A ``4:8``) twice: once with
the library's kernels, and once with the plain spellings they replace
patched in:

- the gather GEMM as one ``np.einsum("rk,rkn->rn", vals, b[rows])`` per
  term, in place of the native gather-MAC;
- ``TASDConfig.view`` as the greedy ``apply(x).reconstruct()``;
- ``pattern_mask`` as a full rank of each block moved to the last axis.

Outputs at 1x3x8x8 and 4x3x32x32 must be equal bit for bit, signs of zero
included.  The smoke prints which gather kernel served the library run.  It
fails if a C compiler (``cc``) is on PATH and the native gather-MAC still did
not load, or did not serve every float64 GEMM: a silent fallback to the
einsum loop would otherwise pass.  Run by CI on every push::

    PYTHONPATH=src python benchmarks/exact_path_smoke.py
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import repro.core.native as native
import repro.core.patterns as patterns
import repro.core.sparse_ops as sparse_ops
from repro.core.series import TASDConfig
from repro.runtime import PlanExecutor, compile_plan

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from bench_workloads import build_model, build_transform  # noqa: E402

SHAPES = ((1, 3, 8, 8), (4, 3, 32, 32))

calls: Counter = Counter()


def plain_gather(flat_vals, flat_rows, b):
    calls["gather"] += 1
    return np.einsum("rk,rkn->rn", flat_vals, b[flat_rows])


def greedy_view(self, x, axis=-1):
    calls["view"] += 1
    if self.is_dense:
        return np.asarray(x)
    return self.apply(x, axis=axis).reconstruct()


def ranked_mask(x, pattern, axis=-1):
    calls["mask"] += 1
    x = np.asarray(x)
    if pattern.n == 0:
        return np.zeros_like(x, dtype=bool)
    blocks = patterns.block_view(x, pattern.m, axis=axis)
    mag = np.abs(blocks)
    if pattern.is_dense:
        return patterns.unblock_view(mag > 0, axis=axis)
    order = np.argsort(-mag, axis=-1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(pattern.m), axis=-1)
    return patterns.unblock_view((ranks < pattern.n) & (mag > 0), axis=axis)


@contextlib.contextmanager
def plain_spellings():
    """Swap the plain spellings in wherever the plan path looks them up."""
    swaps = [
        (native, "gather_mac", lambda: None),
        (sparse_ops, "nm_matmul_from_tables", plain_gather),
        (TASDConfig, "view", greedy_view),
        (patterns, "pattern_mask", ranked_mask),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in swaps]
    for owner, name, fn in swaps:
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


@contextlib.contextmanager
def counted_einsum_loop():
    """Count the library run's calls of the einsum loop's per-term kernel."""
    kernel = sparse_ops.nm_matmul_from_tables

    def counted(*args):
        calls["library einsum loop"] += 1
        return kernel(*args)

    sparse_ops.nm_matmul_from_tables = counted
    try:
        yield
    finally:
        sparse_ops.nm_matmul_from_tables = kernel


def run_plan(model, transform, inputs) -> tuple[list[np.ndarray], float]:
    plan = compile_plan(model, transform, autotune=True, autotune_exact_only=True)
    with PlanExecutor(model, plan) as executor:
        t0 = time.perf_counter()
        outputs = [executor.run(x) for x in inputs]
        return outputs, time.perf_counter() - t0


def main() -> int:
    model = build_model()
    transform = build_transform(model, exact=True)
    rng = np.random.default_rng(0)
    inputs = [rng.normal(size=shape) for shape in SHAPES]

    print(f"gather kernel: {native.kernel_status()}")
    if native.gather_mac() is None and shutil.which(native.COMPILER):
        print(f"FAIL: {native.COMPILER} is on PATH but the native gather-MAC did not load")
        return 1
    with counted_einsum_loop():
        new, new_s = run_plan(model, transform, inputs)
    if native.gather_mac() is not None and calls["library einsum loop"]:
        print(f"FAIL: the einsum loop served {calls['library einsum loop']} GEMM terms "
              "of the library run; the native gather-MAC should serve them all")
        return 1
    with plain_spellings():
        plain, plain_s = run_plan(model, transform, inputs)
    missing = {"gather", "view", "mask"} - set(calls)
    if missing:
        print(f"FAIL: the plain spellings of {sorted(missing)} never ran; the patch missed")
        return 1
    print(f"forwards: {new_s * 1e3:.1f} ms with the library kernels, "
          f"{plain_s * 1e3:.1f} ms with the plain spellings ({dict(calls)} calls)")

    for shape, y, ref in zip(SHAPES, new, plain):
        same = np.array_equal(y, ref, equal_nan=True) and np.array_equal(
            np.signbit(y), np.signbit(ref)
        )
        if not same:
            print(f"FAIL: {shape} outputs differ from the plain spellings' "
                  f"(max |diff| {np.nanmax(np.abs(y - ref)):.3g})")
            return 1
        print(f"{shape}: bit-identical")
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
