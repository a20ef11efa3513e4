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

import copy
import threading
import time

import numpy as np

from repro.nn.module import Module
from repro.pruning.targets import gemm_layers

from .counters import ExecutorStats, WorkerStat, reset, snapshot
from .plan import ExecutionPlan
from .pool import _WORKER_UIDS, WorkerPool

__all__ = ["PlanExecutor"]


def _clone_model(model: Module) -> Module:
    """A copy of ``model`` sharing its weight and buffer arrays, with no
    plan or epilogue installed: every module object is new, every array
    is the same."""
    memo: dict = {id(p): p for p in model.parameters()}
    memo.update((id(b), b) for _, b in model.named_buffers())
    for _, layer in gemm_layers(model, include_head=True):
        memo[id(layer.compiled_plan)] = None
    for module in model.modules():
        if "epilogue" in vars(module):
            memo[id(module.epilogue)] = None
    return copy.deepcopy(model, memo)


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
        self._uid = next(_WORKER_UIDS)
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
            reset(self.plan.counters())
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
    def with_plan(self, plan: ExecutionPlan) -> "PlanExecutor":
        """A new, uninstalled executor serving ``plan`` on a clone of the model.

        The clone shares this model's weight and buffer arrays but none of
        its layer objects, so installing ``plan`` on it leaves this
        executor's model, and the forwards it serves, untouched.  It is
        taken under the execution lock, between forwards.
        """
        with self._lock:
            model = _clone_model(self.model)
        return PlanExecutor(model, plan)

    # ------------------------------------------------------------------ #
    def stats(self) -> ExecutorStats:
        """Snapshot of per-layer counters plus whole-forward timing.

        Counters are copied under the execution lock, so the snapshot is
        internally consistent (no mid-forward tearing) and stays valid
        across later forwards and :meth:`reset_stats` calls.
        """
        with self._lock:
            return snapshot(self.plan.counters(), self._batches, self._samples, self._wall_time)

    def worker_stats(self) -> list[WorkerStat]:
        """The degenerate pool's one worker: alive while installed."""
        with self._lock:
            return [WorkerStat(uid=self._uid, alive=self._installed, requests=self._batches)]

    def reset_stats(self) -> None:
        with self._lock:
            self._batches = self._samples = 0
            self._wall_time = 0.0
            reset(self.plan.counters())
