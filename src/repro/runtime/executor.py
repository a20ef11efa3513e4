"""Batched plan executor: runs compiled plans over input batches.

The executor owns the model ↔ plan binding: entering it installs the plan
on the model's GEMM layers (their eval-mode forward then consumes the
:class:`LayerPlan` instead of re-decomposing), running it times whole
forwards and accumulates per-layer perf counters, and closing it restores
the uncompiled model.  One lock serialises execution, so the serving
engine's worker threads can share an executor safely — at the cost of
serialising their forwards.

This is the degenerate, single-worker case of the
:class:`repro.runtime.pool.WorkerPool` seam (it honours the same
``install`` / ``run`` / ``stats`` contract and registers as a virtual
subclass).  When worker throughput should scale instead, use
:class:`~repro.runtime.pool.ProcessWorkerPool`: it runs worker processes
over shared-memory operands, past the GIL.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.nn.module import Module

from .counters import ExecutorStats, WorkerStat
from .plan import ExecutionPlan

__all__ = ["PlanExecutor"]


class PlanExecutor:
    """Execute batches against a compiled plan, collecting perf counters.

    Usage::

        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            y = ex.run(batch)
            print(ex.stats().table())
    """

    def __init__(self, model: Module, plan: ExecutionPlan) -> None:
        self.model = model
        self.plan = plan
        self._lock = threading.Lock()
        self._installed = False
        self._batches = 0
        self._samples = 0
        self._wall_time = 0.0

    # ------------------------------------------------------------------ #
    def install(self) -> "PlanExecutor":
        with self._lock:
            if not self._installed:
                self.plan.install(self.model)
                self.model.eval()
                self._installed = True
        return self

    def close(self) -> None:
        with self._lock:
            if self._installed:
                self.plan.uninstall(self.model)
                self._installed = False

    def __enter__(self) -> "PlanExecutor":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def run(self, x: np.ndarray) -> np.ndarray:
        """One timed forward of the plan-installed model over a batch."""
        x = np.asarray(x)
        with self._lock:
            if not self._installed:
                self.plan.install(self.model)
                self.model.eval()
                self._installed = True
            t0 = time.perf_counter()
            y = self.model(x)
            self._wall_time += time.perf_counter() - t0
            self._batches += 1
            self._samples += int(x.shape[0])
        return y

    def run_many(self, batches) -> list[np.ndarray]:
        """Run a sequence of batches, returning their outputs in order."""
        return [self.run(x) for x in batches]

    # ------------------------------------------------------------------ #
    def swap_plan(self, new_plan: ExecutionPlan, canary=None) -> int:
        """Hot-swap the compiled plan on this single-worker executor.

        The degenerate pool has no spare worker to validate on, so the
        new plan is installed first and ``canary(run_fn)`` — when given —
        validates it *after* the cutover; the canary raising anything
        reinstalls the old plan and re-raises.  (Live traffic can hit the
        unvalidated plan during that brief window; real pools canary on
        an isolated worker instead.)  Returns 1, the worker count.
        """
        old_plan = self.plan
        with self._lock:
            new_plan.install(self.model)
            self.model.eval()
            self.plan = new_plan
            self._installed = True
        if canary is not None:
            try:
                canary(self.run)
            except BaseException:
                with self._lock:
                    old_plan.install(self.model)
                    self.model.eval()
                    self.plan = old_plan
                raise
        return 1

    # ------------------------------------------------------------------ #
    def stats(self) -> ExecutorStats:
        """Snapshot of per-layer counters plus whole-forward timing.

        Counters are copied under the execution lock, so the snapshot is
        internally consistent (no mid-forward tearing) and stays valid
        across later forwards and :meth:`reset_stats` calls.
        """
        with self._lock:
            return ExecutorStats(
                batches=self._batches,
                samples=self._samples,
                wall_time=self._wall_time,
                layers={
                    name: plan.counters.snapshot()
                    for name, plan in self.plan.layers.items()
                },
            )

    def worker_stats(self) -> list[WorkerStat]:
        """The degenerate pool's one worker: alive while installed."""
        with self._lock:
            return [WorkerStat(uid=0, alive=self._installed, requests=self._batches)]

    def reset_stats(self) -> None:
        with self._lock:
            self._batches = self._samples = 0
            self._wall_time = 0.0
            self.plan.reset_counters()
