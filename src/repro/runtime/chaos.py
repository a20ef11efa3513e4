"""Fault injection for the serving runtime: break workers on purpose.

A serving system's recovery paths are exactly the ones normal traffic
never exercises, so this module makes faults *reproducible*: the same
injectors drive the chaos test suites (``tests/runtime/test_runtime_chaos``),
the CI chaos-smoke job (``benchmarks/chaos_smoke.py``), and any manual
"kill a worker and watch ``/metrics``" session.

Two complementary mechanisms:

- :class:`ChaosSpec` — a picklable fault program *installed inside* pool
  worker processes (``ProcessWorkerPool(chaos=...)``).  Workers then
  crash on their Nth request, hang, run slow, refuse to start, or die on
  a marked poison input — deterministic faults at exact points in the
  request lifecycle.
- :class:`ChaosMonkey` — an *external* killer for a running
  :class:`~repro.runtime.pool.ProcessWorkerPool`: ``kill -9`` a live
  worker (mid-request or idle), once or on a timer.  This is the
  "machine reality" fault — the OOM killer, a segfault, an operator
  fat-finger — that the supervisor's respawn path must absorb.

Neither mechanism touches the non-chaos hot path: a pool without a
``chaos=`` spec runs the exact same worker loop, and the monkey only
sends signals the kernel could send anyway.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.analysis.annotations import cross_process

__all__ = [
    "CHAOS_EXIT_CODE",
    "ChaosSpec",
    "ChaosMonkey",
    "poison_batch",
    "is_poisoned",
    "skewed_plan",
]

# Workers killed by a ChaosSpec exit with this code, so a post-mortem can
# tell an injected crash from a genuine one.
CHAOS_EXIT_CODE = 137


@cross_process
@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic fault program for one pool worker process.

    Every field defaults to "no fault"; combine them freely.  The spec is
    applied independently inside each worker (each counts its *own*
    requests), so ``crash_on_nth=3`` with two workers kills whichever
    worker happens to serve its third request first.

    - ``die_on_start`` — exit before the ready handshake (broken install).
    - ``hang_on_start`` — sleep this many seconds before the handshake
      (exercises ``start_timeout`` expiry and its child cleanup).
    - ``crash_on_nth`` — ``os._exit`` *mid-request* on this worker's Nth
      ``run`` (1-based): the parent sees the pipe die with the request
      in flight, exactly like a segfault.
    - ``hang_on_nth`` / ``hang_seconds`` — the Nth request blocks for
      ``hang_seconds`` before running (a wedged worker; pair with the
      pool's ``request_timeout`` to detect it).
    - ``slow_seconds`` — every request sleeps this long first (a
      degraded-but-alive worker).
    - ``poison_value`` — any request whose first element equals this
      value kills the worker mid-request: a *poison input* that sinks
      every worker it touches, which is what the engine's batch
      splitting must isolate.  Use :func:`poison_batch` to mark inputs.
    - ``die_on_swap`` — ``os._exit`` the moment a hot plan-swap command
      arrives (before touching the new segment): a worker SIGKILLed
      mid-rollout, which the swap must absorb — completing or rolling
      back cleanly without stranding a request or leaking a segment.
      ``die_on_nth_swap`` limits it to that swap ordinal (1-based,
      per worker), so later swaps (and respawned workers re-attaching)
      proceed normally.
    """

    die_on_start: bool = False
    hang_on_start: float = 0.0
    crash_on_nth: int | None = None
    hang_on_nth: int | None = None
    hang_seconds: float = 30.0
    slow_seconds: float = 0.0
    poison_value: float = float("-1.7976931348623157e308")  # sentinel marker
    die_on_swap: bool = False
    die_on_nth_swap: int | None = None

    # ------------------------------------------------------------------ #
    # Worker-side hooks (called from _pool_worker_main; must never raise
    # except by design).
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        if self.hang_on_start > 0.0:
            time.sleep(self.hang_on_start)
        if self.die_on_start:
            os._exit(CHAOS_EXIT_CODE)

    def on_request(self, nth: int, x) -> None:
        """Apply per-request faults; ``nth`` is 1-based within this worker."""
        if is_poisoned(x, self.poison_value):
            os._exit(CHAOS_EXIT_CODE)
        if self.crash_on_nth is not None and nth >= self.crash_on_nth:
            os._exit(CHAOS_EXIT_CODE)
        if self.hang_on_nth is not None and nth == self.hang_on_nth:
            time.sleep(self.hang_seconds)
        if self.slow_seconds > 0.0:
            time.sleep(self.slow_seconds)

    def on_swap(self, nth: int) -> None:
        """Apply swap-time faults; ``nth`` is 1-based within this worker."""
        if self.die_on_swap and (self.die_on_nth_swap is None or nth == self.die_on_nth_swap):
            os._exit(CHAOS_EXIT_CODE)


def skewed_plan(plan, scale: float = 2.0):
    """A deep-copied *corrupt* plan: same weights on paper, wrong arithmetic.

    The copy carries the source plan's weight digests (so it passes a
    swap's identity gate, exactly like a subtly-corrupted artifact would)
    but its first compiled layer's term values are scaled by ``scale`` —
    every forward through it diverges from the source plan far beyond any
    allclose tolerance.  This is the poisoned artifact a swap **canary**
    exists to reject; pair it with ``ServingEngine.swap_plan`` and expect
    ``SwapRejected``.

    The source plan is never touched: the deepcopy duplicates term storage
    before skewing it.
    """
    import copy

    if scale == 1.0:
        raise ValueError("scale=1.0 would leave the plan correct; pick any other factor")
    bad = copy.deepcopy(plan)
    for layer_plan in bad.layers.values():
        if layer_plan.mode == "compiled" and layer_plan.operand is not None:
            op = layer_plan.operand
            values = op.terms[0].values
            values *= scale
            flat = op.flat_values[0]
            # deepcopy may have broken the reshape aliasing between term
            # values and the flattened kernel table; skew whichever copies
            # exist, exactly once each.
            if not np.shares_memory(flat, values):
                flat *= scale
            # Prepared backend state (dense-emulation's matrix) was
            # derived from the un-skewed values: drop it so every backend
            # recomputes from the corrupt storage.
            op.backend_states.clear()
            return bad
        if layer_plan.dense_weight is not None:
            layer_plan.dense_weight *= scale
            return bad
    raise ValueError("plan has no layer whose arithmetic can be skewed")


def poison_batch(x, value: float = ChaosSpec.poison_value):
    """Mark ``x`` (copied) so chaos-enabled workers crash on serving it."""
    out = np.asarray(x).copy()
    out.flat[0] = value
    return out


def is_poisoned(x, value: float = ChaosSpec.poison_value) -> bool:
    """True if any sample of ``x`` carries the poison marker.

    Checked per sample (each row's leading element), not just ``flat[0]``:
    the serving engine concatenates requests into micro-batches, and a
    poison request must stay lethal wherever it lands in the batch.
    """
    arr = np.asarray(x)
    if arr.size == 0:
        return False
    lead = arr.reshape(arr.shape[0], -1)[:, 0] if arr.ndim > 1 else arr
    return bool(np.any(lead == value))


class ChaosMonkey:
    """Kill live workers of a :class:`ProcessWorkerPool` from the outside.

    ``kill_one()`` SIGKILLs one live worker — idle or mid-request, the
    monkey doesn't care, which is the point.  ``start(interval)`` runs a
    killer thread doing that on a timer (the chaos-smoke load test);
    ``stop()`` halts it.  All state the monkey reads comes from the
    pool's public ``worker_pids()``, so it stays honest about what an
    external fault can see.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
        self.kills = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    def kill_one(self, sig: int = signal.SIGKILL) -> int | None:
        """SIGKILL one live worker; returns its pid (None if none alive)."""
        pids = self.pool.worker_pids()
        if not pids:
            return None
        victim = pids[self.kills % len(pids)]
        try:
            os.kill(victim, sig)
        except ProcessLookupError:  # raced its own death
            return None
        with self._lock:
            self.kills += 1
        return victim

    # ------------------------------------------------------------------ #
    def start(self, interval: float = 1.0) -> "ChaosMonkey":
        """Kill one worker every ``interval`` seconds until :meth:`stop`."""
        if self._thread is not None:
            # lint: disable=typed-raise — programmer-error guard (double
            # start), not a serving-path failure; no typed class fits
            raise RuntimeError("chaos monkey already running")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                self.kill_one()

        self._thread = threading.Thread(target=loop, name="chaos-monkey", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ChaosMonkey":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
