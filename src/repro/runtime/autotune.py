"""Compile-time backend autotuner: micro-benchmark kernels per operand.

Which GEMM backend wins depends on the layer's shape, series order, and
how much of the gather tensor fits in cache — not something a static
heuristic gets right across layers.  So the plan compiler measures: for
each compiled layer it times every candidate backend on the operand
itself against a representative right-hand side, and records the winner
in the :class:`~repro.runtime.plan.LayerPlan`.  The cost is a handful of
small GEMMs per layer, paid once at compile time (exactly where SparseRT
pays its specialisation cost).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .backends import DEFAULT_BACKEND, backend_names, exact_backend_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import CompiledOperand
    from .plan import ExecutionPlan

__all__ = ["DEFAULT_SAMPLE_COLS", "AutotuneResult", "autotune_operand", "retune_plan"]

#: GEMM column width a layer is timed at when no served width is known
#: (``compile_plan(autotune=True)``, and layers a profile never touched).
DEFAULT_SAMPLE_COLS = 32


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of one operand's backend sweep."""

    backend: str  # winner
    timings: dict[str, float] = field(default_factory=dict)  # median seconds per call
    sample_cols: int = 0

    @property
    def speedup_vs_reference(self) -> float:
        """Winner's speedup over the reference backend (1.0 if unmeasured).

        "Unmeasured" means a timing is *absent* from the sweep — a
        legitimately measured 0.0 s median (timer resolution on tiny
        layers) is a real measurement, not a missing one, so it must not
        collapse the ratio to 1.0.  A zero-time winner against a non-zero
        reference is unboundedly fast (``inf``); two zero medians are
        indistinguishable (1.0).
        """
        ref = self.timings.get(DEFAULT_BACKEND)
        won = self.timings.get(self.backend)
        if ref is None or won is None:
            return 1.0  # reference or winner never timed in this sweep
        if won == 0.0:
            return 1.0 if ref == 0.0 else float("inf")
        return ref / won

    def __str__(self) -> str:
        ranked = sorted(self.timings.items(), key=lambda kv: kv[1])
        body = ", ".join(f"{name} {t * 1e6:.0f}us" for name, t in ranked)
        return f"autotune[{self.sample_cols} cols]: {body}"


def autotune_operand(
    operand: "CompiledOperand",
    sample_cols: int = DEFAULT_SAMPLE_COLS,
    repeats: int = 3,
    exact_only: bool = False,
    seed: int = 0,
) -> AutotuneResult:
    """Pick the fastest backend for ``operand`` on a representative shape.

    ``sample_cols`` stands in for the batch dimension the layer will see
    at serving time (output columns of the transposed GEMM); the winner is
    shape-sensitive, so callers serving very large batches should raise
    it.  ``exact_only`` restricts the sweep to bit-identical backends for
    deployments that must preserve the reference arithmetic.  Each
    candidate is warmed up once (building its prepared state, which is
    memoised on the operand and therefore *not* billed to steady-state
    serving) and timed over ``repeats`` calls; the median decides.  Ties
    resolve toward :func:`backend_names` order, i.e. toward the reference.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if sample_cols <= 0:
        raise ValueError(f"sample_cols must be positive, got {sample_cols}")
    candidates = exact_backend_names() if exact_only else backend_names()
    rng = np.random.default_rng(seed)
    # Sample in the dtype the operand will actually serve: a float32 model
    # timed against a float64 right-hand side would measure upcast
    # arithmetic the serving path never runs.
    dtype = np.result_type(*(t.values for t in operand.terms))
    b = rng.normal(size=(operand.padded_shape[1], sample_cols)).astype(dtype, copy=False)
    timings: dict[str, float] = {}
    for name in candidates:
        operand.matmul(b, backend=name)  # warm-up; builds memoised state
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            operand.matmul(b, backend=name)
            samples.append(time.perf_counter() - t0)
        timings[name] = sorted(samples)[len(samples) // 2]
    best = min(candidates, key=lambda name: timings[name])
    # Keep only the winner's prepared state resident: losing candidates'
    # state (dense-emulation's decompressed matrix) can dwarf the
    # compressed operand itself, and it rebuilds lazily if a plan ever
    # dispatches to that backend anyway.
    for name in list(operand.backend_states):
        if name != best:
            operand.backend_states.pop(name, None)
    return AutotuneResult(backend=best, timings=timings, sample_cols=sample_cols)


def retune_plan(
    plan: "ExecutionPlan",
    observed_cols: dict[str, int],
    repeats: int = 3,
    exact_only: bool = False,
) -> dict[str, str]:
    """Re-tune a compiled plan on the GEMM shapes a serving run observed.

    ``observed_cols`` is the per-layer dominant column width a profiling
    run recorded (:meth:`ExecutorStats.observed_cols`); each compiled
    layer is re-swept on its own observed width (falling back to
    :data:`DEFAULT_SAMPLE_COLS` for layers the profile never touched) and
    the plan's backend choice and autotune record are updated in place.
    Returns the resulting ``backend_choices()`` — re-tuning an
    already-installed plan takes effect on the next forward, since
    ``LayerPlan.gemm`` reads the backend per call.
    """
    for name, layer_plan in plan.layers.items():
        if layer_plan.mode != "compiled":
            continue
        sweep = autotune_operand(
            layer_plan.operand,
            sample_cols=observed_cols.get(name, DEFAULT_SAMPLE_COLS),
            repeats=repeats,
            exact_only=exact_only,
        )
        layer_plan.backend = sweep.backend
        layer_plan.autotune = sweep
    return plan.backend_choices()
