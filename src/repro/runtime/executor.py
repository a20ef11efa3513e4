"""Batched plan executor: runs compiled plans over input batches.

The executor owns the model ↔ plan binding: entering it installs the plan
on the model's GEMM layers (their eval-mode forward then consumes the
:class:`LayerPlan` instead of re-decomposing), running it times whole
forwards and accumulates per-layer perf counters, and closing it restores
the uncompiled model.  One lock serialises execution, so the serving
engine's worker threads can share an executor safely — at the cost of
serialising their forwards.

This is the degenerate, single-worker case of the
:class:`repro.runtime.pool.WorkerPool` seam.  When worker throughput
should scale instead, use
:class:`~repro.runtime.pool.ProcessWorkerPool`: its workers are forked
processes that inherit the model and plan, past the GIL.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.nn.module import Module

from .counters import ExecutorStats, LayerCounters, WorkerStat
from .plan import ExecutionPlan
from .pool import PlanSwapError, WorkerPool

__all__ = ["PlanExecutor"]


class PlanExecutor(WorkerPool):
    """Execute batches against a compiled plan, collecting perf counters.

    Usage::

        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            y = ex.run(batch)
            print(ex.stats().table())
    """

    # A serial in-process executor has no pool to lose: it never degrades,
    # and no worker of its own to retire or respawn.
    degraded = False
    respawns = deaths = 0

    def __init__(self, model: Module, plan: ExecutionPlan) -> None:
        self.model = model
        self.plan = plan
        # Counts of the plans swapped away from (see _cut_over).
        self._layer_base: dict[str, LayerCounters] = {}
        self._lock = threading.Lock()
        self._installed = False
        self._counting = False  # the plan's counters are this executor's
        self._batches = 0
        self._samples = 0
        self._wall_time = 0.0

    # ------------------------------------------------------------------ #
    def install(self) -> "PlanExecutor":
        with self._lock:
            self._install()
        return self

    def _install(self) -> None:
        """Install the plan on the model (caller holds the lock).

        The first install zeroes the plan's counters, as a pool worker
        does at start: counts the plan recorded under another executor
        are not this one's.  A re-install after :meth:`close` keeps
        counting.
        """
        if self._installed:
            return
        self.plan.install(self.model)
        self.model.eval()
        if not self._counting:
            self.plan.reset_counters()
            self._counting = True
        self._installed = True

    def close(self) -> None:
        with self._lock:
            if self._installed:
                self.plan.uninstall(self.model)
                self._installed = False

    # ------------------------------------------------------------------ #
    def run(self, x: np.ndarray) -> np.ndarray:
        """One timed forward of the plan-installed model over a batch."""
        x = np.asarray(x)
        with self._lock:
            self._install()
            t0 = time.perf_counter()
            y = self.model(x)
            self._wall_time += time.perf_counter() - t0
            self._batches += 1
            self._samples += int(x.shape[0])
        return y

    # ------------------------------------------------------------------ #
    def swap_plan(self, new_plan: ExecutionPlan, canary=None) -> int:
        """Hot-swap the compiled plan on this single-worker executor.

        The degenerate pool has no spare worker to validate on, so the
        new plan is installed first and ``canary(run_fn)`` — when given —
        validates it *after* the cutover; the canary raising anything
        reinstalls the old plan and re-raises.  (Live traffic can hit the
        unvalidated plan during that brief window; real pools canary on
        an isolated worker instead.)  A plan :meth:`ExecutionPlan.install`
        refuses raises :class:`~repro.runtime.pool.PlanSwapError` with the
        old plan still installed.  Returns 1, the worker count.
        """
        old_plan = self.plan
        with self._lock:
            try:
                new_plan.install(self.model)
            except KeyError as exc:
                raise PlanSwapError(f"cannot install the new plan: {exc.args[0]}") from exc
            self._cut_over(new_plan)
        if canary is not None:
            try:
                canary(self.run)
            except BaseException:
                with self._lock:
                    old_plan.install(self.model)
                    self._cut_over(old_plan)
                raise
        return 1

    def _cut_over(self, plan: ExecutionPlan) -> None:
        """Serve the just-installed ``plan`` from now on (caller holds the lock).

        The executor, not the plan, owns what :meth:`stats` reports: the
        outgoing plan's counts fold into a base, and the incoming plan
        counts from zero, so a swap loses no count and picks up none the
        plan recorded under another executor.
        """
        for name, lp in self.plan.layers.items():
            self._layer_base[name] = self._layer_base.get(
                name, LayerCounters()
            ).merged_with(lp.counters)
        plan.reset_counters()
        self.model.eval()
        self.plan = plan
        self._installed = self._counting = True

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
                    name: self._layer_base.get(name, LayerCounters()).merged_with(lp.counters)
                    for name, lp in self.plan.layers.items()
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
            self._layer_base.clear()
            self.plan.reset_counters()
