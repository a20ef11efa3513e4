"""Worker pools: the pluggable execution substrate behind the serving engine.

:class:`WorkerPool` is the install/run/stats contract the serving engine
actually drives.  Two substrates honour it:

- :class:`~repro.runtime.executor.PlanExecutor` — the serial in-process
  executor (a single lock-serialised worker), registered as a virtual
  subclass so everything the engine accepts is a :class:`WorkerPool`.
- :class:`ProcessWorkerPool` — one worker *process* per worker.  The
  parent exports the compiled plan once through
  :func:`~repro.runtime.planio.share_plan` (operand arrays in a
  shared-memory segment); each child attaches zero-copy, installs the
  plan on its own unpickled model, and serves forwards with no GIL in
  common.  Decomposition and compression cost is paid once (SparseRT's
  AOT specialisation), the compressed operands are held once (S2TA keeps
  them resident across PEs), and N cores run N forwards.

The CLI serves through the executor at ``serve --workers 1`` and through
the process pool at ``--workers N``.  Both produce **bit-identical**
outputs: process workers run the same kernels over byte-equal shared
operands.

Every parent-to-worker exchange after the ready handshake — a forward, a
canary probe, a plan swap, a health-check ping, a counter reset, a stop —
is one command and one reply through a single method, and worker failure
has one behaviour there: a broken pipe, an EOF or a missed reply deadline
retires the worker and raises the *retryable* :class:`WorkerCrashError`,
while an error the worker reports is re-raised with its
:class:`RemoteTraceback` and leaves the worker serving.  No reply is ever
left unread on a live worker's pipe.

The process pool is *supervised*: a background supervisor thread health-
checks idle workers and respawns the retired ones from the already-shared
plan segment, with capped exponential backoff and a crash-loop circuit
breaker (too many respawns inside a sliding window stops respawning and
marks the pool :attr:`~ProcessWorkerPool.degraded`).  The serving engine
re-dispatches a batch whose worker crashed on a surviving or respawned
worker, and a pool that can no longer serve raises
:class:`PoolDegradedError`, the engine's signal to fall back to
in-process execution.
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import itertools
import multiprocessing
import pickle
import queue
import threading
import time
import traceback

import numpy as np

from repro.analysis.annotations import hot_path
from repro.nn.module import Module

from .counters import ExecutorStats, LayerCounters, WorkerStat
from .executor import PlanExecutor
from .plan import ExecutionPlan

__all__ = [
    "RemoteTraceback",
    "WorkerCrashError",
    "PoolDegradedError",
    "PlanSwapError",
    "WorkerPool",
    "ProcessWorkerPool",
]


class RemoteTraceback(Exception):
    """Carrier for a worker-side traceback, chained as ``__cause__``.

    A child process's stack does not survive pickling an exception across
    the pipe; the worker formats it and the parent chains it under the
    re-raised exception, so serving failures keep the frame that actually
    raised (the same trick ``multiprocessing.pool`` uses).
    """

    def __init__(self, tb: str) -> None:
        super().__init__(tb)
        self.tb = tb

    def __str__(self) -> str:
        return "\n" + self.tb


class WorkerCrashError(RuntimeError):
    """A pool worker died (or wedged) with a request in flight.

    Retryable: the input never produced an output, so re-dispatching the
    same batch on another worker yields the result the dead worker owed —
    bit-identical, since every worker serves byte-equal operands.
    """


class PoolDegradedError(RuntimeError):
    """The pool cannot serve: every worker is gone and respawn is off or
    the crash-loop circuit breaker is open.  The serving engine treats
    this as the signal to degrade to in-process execution."""


class PlanSwapError(RuntimeError):
    """A hot plan-swap could not commit and was rolled back.

    Raised by the pool-level :meth:`WorkerPool.swap_plan` when a worker
    rejects the new plan spec (attach/install failure) or the canary
    worker dies before delivering a verdict.  The pool is left serving
    the *old* plan; the new segment is unlinked.  The serving engine
    wraps this (and canary verdicts) in the user-facing
    :class:`~repro.runtime.serve.SwapRejected`.
    """


class WorkerPool(abc.ABC):
    """The execution seam between the serving engine and the substrate.

    The contract the engine drives (and every pool honours):

    - :meth:`install` / :meth:`close` — bring workers up / tear them down;
      both idempotent, ``close`` waits for in-flight forwards and keeps
      accumulated counters readable;
    - :meth:`run` — one forward on whichever worker frees first, safe to
      call from many threads concurrently (lazily installs, including
      after a ``close``);
    - :meth:`stats` / :meth:`reset_stats` — per-layer counters merged
      across workers, plus whole-forward batch/sample/wall totals.

    Implementations must keep :meth:`run` lock-free across the forward
    itself so up to ``workers`` forwards proceed concurrently.
    """

    model: Module
    plan: ExecutionPlan
    workers: int

    @abc.abstractmethod
    def install(self) -> "WorkerPool":
        """Bring the worker pool up (idempotent)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Tear the pool down, waiting for in-flight forwards (idempotent)."""

    @abc.abstractmethod
    def run(self, x: np.ndarray) -> np.ndarray:
        """One timed forward on whichever worker is free first."""

    def run_many(self, batches) -> list[np.ndarray]:
        """Run a sequence of batches, returning their outputs in order."""
        return [self.run(x) for x in batches]

    @abc.abstractmethod
    def stats(self) -> ExecutorStats:
        """Counters merged across all workers plus whole-forward timing."""

    @abc.abstractmethod
    def reset_stats(self) -> None:
        """Zero every counter this pool reports."""

    def worker_stats(self) -> list[WorkerStat]:
        """Per-worker liveness + served-forward counts (telemetry gauges).

        Retired workers (previous generations, mid-request deaths) stay
        listed with ``alive=False`` so a scrape can alert on them; the
        default is an empty list for substrates with no worker identity.
        """
        return []

    def swap_plan(self, new_plan: ExecutionPlan, canary=None) -> int:
        """Roll every worker onto ``new_plan``; returns workers swapped.

        ``canary``, when given, is called as ``canary(run_fn)`` after the
        first worker holds the new plan and before any other worker is
        touched; ``run_fn(x)`` executes a batch on that worker.  The
        canary raising *anything* rejects the swap: the pool rolls back
        to the old plan and the exception propagates to the caller.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot hot-swap plans")

    def __enter__(self) -> "WorkerPool":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()


# A PlanExecutor is the degenerate one-worker pool (its internal lock
# serialises forwards); registering it keeps `isinstance(x, WorkerPool)`
# true for everything the serving engine accepts.
WorkerPool.register(PlanExecutor)


# ---------------------------------------------------------------------- #
# Process pool: one worker process per worker, shared-memory operands
# ---------------------------------------------------------------------- #
@hot_path
def _pool_worker_main(conn, model_payload: bytes, spec: dict, chaos=None) -> None:
    """Entry point of one pool worker process.

    Rebuilds the model from its pickle, attaches the shared plan spec
    (zero-copy operand views into the parent's segment), installs the
    plan, and serves ``("run", batch)`` requests over the pipe until told
    to stop.  Every command gets exactly one reply: ``("ok", result)`` or,
    when it raised, ``("err", (exc, formatted_traceback))``.  Every
    ``run`` result carries the worker's cumulative per-layer counters so
    the parent can merge :meth:`stats` without an extra round-trip.
    ``ping`` is the supervisor's idle health check and ``reset`` zeroes
    the counters.  ``("swap", spec)`` hot-swaps the worker onto a *new*
    shared plan spec (attach second segment, install, detach old
    segment), and ``("probe", batch)`` runs one untracked canary forward —
    the two halves of the zero-downtime plan rollout.

    ``chaos`` (a :class:`~repro.runtime.chaos.ChaosSpec`) injects
    deterministic faults — crash/hang/slow at exact request counts — for
    the fault-tolerance tests and the chaos-smoke job; without it this
    loop is fault-free.
    """
    from .planio import attach_plan

    if chaos is not None:
        chaos.on_start()
    store = None
    try:
        model = pickle.loads(model_payload)
        plan, store = attach_plan(spec)
        plan.install(model)
        model.eval()
    # lint: disable=broad-except — any install failure is shipped to the
    # parent as a ("fail", reason) message; the worker must not die silently
    except Exception as exc:
        try:
            conn.send(("fail", f"{type(exc).__name__}: {exc}"))
        finally:
            if store is not None:
                store.close()
            conn.close()
        return
    served = 0
    swaps = 0
    try:
        conn.send(("ready", None))
        while True:
            try:
                cmd, payload = conn.recv()
            except EOFError:  # parent vanished: exit quietly
                break
            if cmd == "stop":
                conn.send(("ok", None))
                break
            reply = None
            try:
                if cmd == "run":
                    served += 1
                    if chaos is not None:
                        chaos.on_request(served, payload)
                    t0 = time.perf_counter()
                    y = model(payload)
                    elapsed = time.perf_counter() - t0
                    counters = {
                        name: lp.counters.snapshot() for name, lp in plan.layers.items()
                    }
                    reply = (y, elapsed, counters)
                elif cmd == "probe":
                    # Canary forward: same kernels as "run", but no chaos
                    # injection, no served-count bump, no counter shipping —
                    # a swap's validation traffic must not perturb
                    # fault-injection schedules or serving telemetry.
                    reply = model(payload)
                elif cmd == "swap":
                    # Hot plan-swap: attach the new spec (second segment),
                    # install it over the old plan, then detach the old
                    # segment.  On any failure the old plan is reinstalled
                    # and keeps serving — the parent decides whether to
                    # roll back the fleet.
                    swaps += 1
                    if chaos is not None:
                        chaos.on_swap(swaps)
                    try:
                        new_plan, new_store = attach_plan(payload)
                        new_plan.install(model)
                    except Exception:
                        plan.install(model)  # a partial install must not serve
                        raise
                    old_plan, old_store = plan, store
                    plan, store = new_plan, new_store
                    # Drop the old plan's operand views *before* detaching
                    # the old segment (same discipline as shutdown below).
                    del new_plan, old_plan
                    if old_store is not None:
                        old_store.close()
                elif cmd == "reset":
                    plan.reset_counters()
                # "ping" needs no work: the reply itself is the health check.
            # lint: disable=broad-except — every command failure is shipped
            # to the parent as ("err", (exc, tb)); the serving loop must
            # survive any single bad request
            except Exception as exc:
                tb = traceback.format_exc()
                try:
                    conn.send(("err", (exc, tb)))
                # lint: disable=broad-except — unpicklable exception
                # object: degrade to a string-carrying RuntimeError
                except Exception:
                    conn.send(("err", (RuntimeError(f"{type(exc).__name__}: {exc}"), tb)))
            else:
                conn.send(("ok", reply))
    finally:
        # The plan's arrays are views into the segment: drop them before
        # detaching, or the munmap would pull the buffer out from under
        # live ndarray objects.
        plan.uninstall(model)
        del plan
        if store is not None:
            store.close()
        conn.close()


# Reply deadline for the commands sent to idle workers (ping, reset,
# stop): an idle worker answers them in microseconds.
_IDLE_REPLY_TIMEOUT = 2.0


@dataclasses.dataclass
class _ProcWorker:
    uid: int  # unique across pool generations (stats keys)
    process: object  # multiprocessing.Process (context-specific class)
    conn: object  # parent end of the pipe


class ProcessWorkerPool(WorkerPool):
    """Execute batches across N worker *processes* sharing one compiled plan.

    The parent pays plan compilation once, exports it once
    (:func:`~repro.runtime.planio.share_plan` packs every operand array
    into one shared-memory segment), and pickles the model once.  Each
    worker process attaches the segment zero-copy — N workers hold one
    copy of the compressed operands — and runs forwards with no GIL in
    common, so throughput scales with cores even for the Python-level
    parts of a forward.

    Outputs are bit-identical to :class:`PlanExecutor`: workers run the same kernels over byte-equal
    operand storage, and request arrays round-trip the pipe losslessly.

    ``mp_context`` picks the start method: the default prefers ``fork``
    (fast start, shares the parent's page cache) where available and falls
    back to ``spawn``.  Choose ``spawn`` explicitly when forking a
    multi-threaded parent is a concern — workers rebuild everything from
    the pickled model + shared spec either way, so behaviour is identical.

    **Supervision.**  With ``respawn=True`` (the default) a supervisor
    thread watches the pool: a worker that dies — detected by a pipe
    error on a request, by missing a reply within ``request_timeout``,
    or by failing the periodic idle health-check ping — is retired and a
    replacement is respawned from the *already-shared* plan segment and
    pickled model (no recompression, no re-export).  Respawns back off
    exponentially (``respawn_backoff`` doubling up to ``backoff_cap``)
    while deaths keep coming, and a crash-loop circuit breaker stops
    respawning entirely after ``max_respawns`` respawns inside a sliding
    ``respawn_window`` seconds — the pool is then :attr:`degraded` and
    :meth:`run` raises :class:`PoolDegradedError` instead of hammering
    a poisoned configuration.  A request in flight on a dying worker
    raises :class:`WorkerCrashError` (retryable; the serving engine
    re-dispatches).  With ``respawn=False`` a dead worker is retired
    permanently — the pre-supervision behaviour — and a fully-dead pool
    raises :class:`PoolDegradedError`.
    """

    def __init__(
        self,
        model: Module,
        plan: ExecutionPlan,
        workers: int = 2,
        mp_context: str | None = None,
        start_timeout: float = 120.0,
        respawn: bool = True,
        max_respawns: int = 6,
        respawn_window: float = 30.0,
        respawn_backoff: float = 0.05,
        backoff_cap: float = 5.0,
        health_interval: float = 0.5,
        request_timeout: float | None = None,
        chaos=None,
    ) -> None:
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_respawns <= 0:
            raise ValueError(f"max_respawns must be positive, got {max_respawns}")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive, got {request_timeout}")
        methods = multiprocessing.get_all_start_methods()
        if mp_context is None:
            mp_context = "fork" if "fork" in methods else "spawn"
        if mp_context not in methods:
            raise ValueError(
                f"start method {mp_context!r} unavailable on this platform; "
                f"options: {methods}"
            )
        self.model = model
        self.plan = plan
        self.workers = workers
        self.mp_context = mp_context
        self.respawn = respawn
        self.max_respawns = max_respawns
        self.respawn_window = respawn_window
        self.respawn_backoff = respawn_backoff
        self.backoff_cap = backoff_cap
        self.health_interval = health_interval
        self.request_timeout = request_timeout
        self.chaos = chaos
        self._ctx = multiprocessing.get_context(mp_context)
        self._start_timeout = start_timeout
        self._free: "queue.Queue[_ProcWorker]" = queue.Queue()
        self._store = None
        self._spec: dict | None = None  # shared-plan spec, reused by respawns
        self._payload: bytes | None = None  # pickled model, reused by respawns
        self._installed = False  # guarded-by: _state_lock
        self._state_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # Zero-downtime operations: one swap at a time, and the
        # supervisor stands down while one owns the worker fleet (a
        # respawn mid-roll would come up on an ambiguous plan spec).
        self._ops_lock = threading.Lock()
        self._ops_pause = threading.Event()
        # Workers that will eventually return to the free queue.
        self._live = 0  # guarded-by: _stats_lock
        self._uids = itertools.count()
        self._batches = 0  # guarded-by: _stats_lock
        self._samples = 0  # guarded-by: _stats_lock
        self._wall_time = 0.0  # guarded-by: _stats_lock
        # Latest cumulative per-layer counters per worker uid.  Kept across
        # close() so stats survive it (old generations merge with new ones).
        self._counter_snapshots: dict[int, dict[str, LayerCounters]] = {}  # guarded-by: _stats_lock
        # Telemetry: liveness + served-forward count per worker uid.  Kept
        # across close() too, so a scrape can still see retired workers.
        self._worker_alive: dict[int, bool] = {}  # guarded-by: _stats_lock
        self._worker_requests: dict[int, int] = {}  # guarded-by: _stats_lock
        # Live workers of the current generation, uid -> handle (busy ones
        # included — they are checked out of the free queue but not gone).
        self._procs: dict[int, _ProcWorker] = {}  # guarded-by: _stats_lock
        # Supervision state.  respawns/deaths are cumulative (telemetry
        # counters); _respawn_times, _backoff, and _next_respawn_at are
        # touched only by the supervisor thread (single-writer, no lock) —
        # install() resets them strictly before the supervisor starts.
        self._supervisor: threading.Thread | None = None
        self._closing = threading.Event()  # also stops the supervisor
        self._wake = threading.Event()  # a death wants prompt supervision
        self._respawn_times: collections.deque[float] = collections.deque()
        self._breaker_open = False  # guarded-by: _stats_lock
        self._backoff = respawn_backoff
        self._next_respawn_at = 0.0  # monotonic time the backoff gate opens
        self.respawns = 0
        self.deaths = 0

    # ------------------------------------------------------------------ #
    def _start_worker(self) -> _ProcWorker:
        """Fork/spawn one worker and complete its ready handshake.

        Reuses the already-shared plan segment (``self._spec``) and the
        already-pickled model, so a respawn costs one process start — not
        a re-export of the compiled plan.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self._payload, self._spec, self.chaos),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # child's end lives in the child only
        worker = _ProcWorker(next(self._uids), proc, parent_conn)
        try:
            if not worker.conn.poll(self._start_timeout):
                raise RuntimeError(
                    f"pool worker pid {proc.pid} did not report "
                    f"ready within {self._start_timeout}s"
                )
            try:
                tag, detail = worker.conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"pool worker pid {proc.pid} died during startup"
                ) from None
            if tag != "ready":
                raise RuntimeError(f"pool worker failed to start: {detail}")
        except Exception:
            # Never leak the child: a failed start reaps it before raising.
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
            worker.conn.close()
            raise
        return worker

    def _enroll(self, worker: _ProcWorker) -> None:
        """Register a started worker: stats, liveness, the free queue."""
        with self._stats_lock:
            self._live += 1
            self._worker_alive[worker.uid] = True
            self._worker_requests.setdefault(worker.uid, 0)
            self._procs[worker.uid] = worker
        self._free.put(worker)

    # ------------------------------------------------------------------ #
    # The one parent-side exchange, and checking workers out for it
    # ------------------------------------------------------------------ #
    def _call(self, worker: _ProcWorker, cmd: str, payload=None, timeout: float | None = None):
        """Send ``(cmd, payload)`` to a checked-out worker and return its reply.

        Waits at most ``timeout`` seconds for the reply (forever when
        ``None``).  A broken pipe, an EOF or a missed deadline retires the
        worker — a late reply could never again be paired with the right
        command — and raises :class:`WorkerCrashError`.  An error the
        worker reports is re-raised here with its :class:`RemoteTraceback`
        chained, and the worker stays live: its pipe holds no unread reply.
        """
        failure, cause = None, None
        try:
            worker.conn.send((cmd, payload))
            if timeout is not None and not worker.conn.poll(timeout):
                failure = f"missed its {timeout}s reply deadline"
            else:
                tag, reply = worker.conn.recv()
        except (EOFError, OSError) as exc:
            failure, cause = "died", exc
        if failure is not None:
            self._retire(worker)
            what = {"run": "request", "probe": "canary"}.get(cmd, cmd)
            raise WorkerCrashError(
                f"process-pool worker pid {worker.process.pid} {failure} mid-{what}"
            ) from cause
        if tag == "err":
            exc, tb = reply
            exc.__cause__ = RemoteTraceback(tb)
            raise exc
        return reply

    def _checkout_all(self) -> list[_ProcWorker]:
        """Check every live worker out of the free queue.

        Waits for in-flight forwards to bring their workers home.  Callers
        hold ``_state_lock``: two drains running at once would each hold
        workers the other waits for, forever.
        """
        collected: list[_ProcWorker] = []
        while True:
            with self._stats_lock:
                live = self._live
            if len(collected) >= live:
                return collected
            try:
                collected.append(self._free.get(timeout=0.05))
            except queue.Empty:
                continue  # an in-flight run() will return its worker

    def _checkout_where(self, wanted) -> _ProcWorker | None:
        """Check out one live worker whose uid satisfies ``wanted(uid)``.

        Returns ``None`` once no live worker is wanted — workers retired
        meanwhile drop out of ``_procs`` and stop counting — or when the
        pool is closing.  Unwanted workers drawn by accident go straight
        back to the free queue.
        """
        while not self._closing.is_set():
            with self._stats_lock:
                if not any(wanted(uid) for uid in self._procs):
                    return None
            try:
                worker = self._free.get(timeout=0.5)
            except queue.Empty:
                continue  # wanted workers are busy serving; wait them out
            with self._stats_lock:
                alive = self._worker_alive.get(worker.uid, False)
            if alive and wanted(worker.uid):
                return worker
            self._free.put(worker)
            # Cap the put/get spin while only unwanted workers are idle and
            # a wanted one is mid-request.
            time.sleep(0.005)
        return None

    def install(self) -> "ProcessWorkerPool":
        with self._state_lock:
            if self._installed:
                return self
            from .planio import share_plan

            store, spec = share_plan(self.plan)
            self._store = store
            self._spec = spec
            if self._payload is None:
                self._payload = pickle.dumps(self.model, protocol=pickle.HIGHEST_PROTOCOL)
            started: list[_ProcWorker] = []
            try:
                for _ in range(self.workers):
                    started.append(self._start_worker())
            except Exception:
                for worker in started:
                    if worker.process.is_alive():
                        worker.process.terminate()
                    worker.process.join(timeout=5.0)
                    worker.conn.close()
                if store is not None:
                    store.unlink()
                self._store = None
                raise
            for worker in started:
                self._enroll(worker)
            # Fresh generation, fresh breaker: the crash history of a closed
            # generation should not pre-trip the new one.
            self._respawn_times.clear()
            with self._stats_lock:
                self._breaker_open = False
            self._backoff = self.respawn_backoff
            self._next_respawn_at = 0.0
            self._installed = True
            self._closing.clear()
            self._wake.clear()
            if self.respawn or self.health_interval > 0:
                self._supervisor = threading.Thread(
                    target=self._supervise, name="pool-supervisor", daemon=True
                )
                self._supervisor.start()
        return self

    # ------------------------------------------------------------------ #
    # Supervision: death bookkeeping, health checks, respawn
    # ------------------------------------------------------------------ #
    def _retire(self, worker: _ProcWorker) -> None:
        """Take a dead/wedged worker out of service and reap its process.

        Idempotent per worker (guarded by the liveness map): the request
        path and the supervisor can both conclude a worker is gone.
        """
        with self._stats_lock:
            if not self._worker_alive.get(worker.uid, False):
                return  # already retired by the other detector
            self._worker_alive[worker.uid] = False
            self._live -= 1
            self.deaths += 1
            self._procs.pop(worker.uid, None)
        worker.conn.close()
        if worker.process.is_alive():
            worker.process.terminate()
        # Reap it: a retired worker never reaches close()'s join, and a
        # long-lived server accumulating zombies exhausts the process table.
        worker.process.join(timeout=5.0)
        self._wake.set()  # the supervisor should notice the deficit now

    @property
    def degraded(self) -> bool:
        """True when the pool cannot return to service on its own: the
        crash-loop breaker is open, or every worker is dead with respawn
        disabled.  The serving engine's cue to fall back in-process."""
        with self._stats_lock:
            if self._breaker_open:
                return True
            # lint: disable=guarded-field — racy read of _installed is
            # benign here: close() flips it only after the fleet stops
            return self._live == 0 and self._installed and not self.respawn

    def worker_pids(self) -> list[int]:
        """PIDs of currently-live workers, idle *and* busy (chaos fodder)."""
        with self._stats_lock:
            return [w.process.pid for w in self._procs.values()]

    def _breaker_check(self, now: float) -> bool:
        """Record one respawn attempt; True if the breaker just tripped."""
        self._respawn_times.append(now)
        while self._respawn_times and now - self._respawn_times[0] > self.respawn_window:
            self._respawn_times.popleft()
        if len(self._respawn_times) > self.max_respawns:
            with self._stats_lock:
                self._breaker_open = True
            return True
        return False

    def _health_check(self) -> None:
        """Ping idle workers; retire any that died quietly or wedged.

        Only workers sitting in the free queue are pinged — a busy worker
        is being watched by the run() that checked it out.  An idle worker
        answers a ping in microseconds, so a short deadline is fair.
        """
        idle: list[_ProcWorker] = []
        while True:
            try:
                idle.append(self._free.get_nowait())
            except queue.Empty:
                break
        for worker in idle:
            try:
                self._call(worker, "ping", timeout=_IDLE_REPLY_TIMEOUT)
            except WorkerCrashError:
                continue  # retired
            self._free.put(worker)

    def _respawn_deficit(self) -> None:
        """Bring the pool back toward its configured size, gated by the
        exponential backoff and the crash-loop circuit breaker."""
        now = time.monotonic()
        with self._stats_lock:
            breaker_open = self._breaker_open
        if breaker_open or now < self._next_respawn_at:
            return
        with self._stats_lock:
            deficit = self.workers - self._live
        if deficit <= 0:
            # Full strength: relax the backoff so the next incident starts
            # from the fast end again.
            self._backoff = self.respawn_backoff
            return
        for _ in range(deficit):
            now = time.monotonic()
            if self._breaker_check(now):
                return
            try:
                worker = self._start_worker()
            # lint: disable=broad-except — a failed respawn (whatever the
            # cause) is a crash-loop signal: back off harder and try again
            # at the next supervision tick
            except Exception:
                self._backoff = min(self._backoff * 2.0, self.backoff_cap)
                self._next_respawn_at = time.monotonic() + self._backoff
                return
            self._enroll(worker)
            with self._stats_lock:
                self.respawns += 1
            self._backoff = min(self._backoff * 2.0, self.backoff_cap)
            self._next_respawn_at = time.monotonic() + self._backoff

    def _supervise(self) -> None:
        """Supervisor thread: health-check idle workers, respawn the dead.

        Runs until close() signals ``_closing``; a death in the request
        path sets ``_wake`` so the deficit is noticed without waiting out
        the full interval.
        """
        interval = self.health_interval if self.health_interval > 0 else 0.5
        while not self._closing.is_set():
            woken = self._wake.wait(interval)
            if self._closing.is_set():
                return
            if woken:
                self._wake.clear()
            if self._ops_pause.is_set():
                continue  # a swap owns the fleet right now
            if self.health_interval > 0 and not woken:
                self._health_check()
            if self.respawn:
                self._respawn_deficit()

    def close(self) -> None:
        """Stop every worker process and destroy the shared segment.

        Waits for in-flight forwards (workers come home before stopping),
        keeps accumulated counters readable afterwards, and a later
        :meth:`run`/:meth:`install` brings up a fresh worker generation
        whose counters merge on top.
        """
        # Stop the supervisor before taking the state lock: it must not
        # respawn (or hold workers out for pings) while teardown collects
        # the live set, and joining it under the lock could deadlock.
        self._closing.set()
        self._wake.set()
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(timeout=10.0)
            self._supervisor = None
        with self._state_lock:
            if not self._installed:
                return
            collected = self._checkout_all()
            stopped: list[_ProcWorker] = []
            for worker in collected:
                try:
                    self._call(worker, "stop", timeout=_IDLE_REPLY_TIMEOUT)
                except WorkerCrashError:
                    continue  # already dead: retired and reaped
                worker.conn.close()
                stopped.append(worker)
            for worker in stopped:
                worker.process.join(timeout=10.0)
                if worker.process.is_alive():  # pragma: no cover - stuck worker
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
            if self._store is not None:
                self._store.unlink()
                self._store = None
            with self._stats_lock:
                self._live = 0
                for worker in collected:
                    self._worker_alive[worker.uid] = False
                self._procs.clear()
            self._installed = False

    # ------------------------------------------------------------------ #
    @hot_path
    def run(self, x: np.ndarray) -> np.ndarray:
        """One timed forward on whichever worker process frees first.

        Raises :class:`WorkerCrashError` (retryable) when the worker dies
        or misses ``request_timeout`` with this request in flight, and
        :class:`PoolDegradedError` when the pool as a whole cannot serve
        (breaker open, or all workers dead with respawn off).
        """
        x = np.asarray(x)
        while True:
            self.install()
            if self.degraded:
                # The supervisor has given up (or was never allowed to
                # start): waiting on the free queue would hang forever.
                raise PoolDegradedError(
                    "all process-pool workers have died and the pool cannot "
                    "respawn (respawn disabled or circuit breaker open); "
                    "close() and re-run, or serve through a fallback executor"
                )
            try:
                # One blocking wait per liveness check — a dead pool wakes
                # this up via the timeout, a respawn wakes it via put().
                worker = self._free.get(timeout=0.5)
                break
            except queue.Empty:
                continue  # re-check degraded/installed only on wakeup
        try:
            y, elapsed, counters = self._call(worker, "run", x, self.request_timeout)
        except WorkerCrashError:
            raise  # the worker is retired
        except Exception:
            self._free.put(worker)  # the request failed; the worker serves on
            raise
        self._free.put(worker)
        with self._stats_lock:
            self._batches += 1
            self._samples += int(x.shape[0])
            self._wall_time += elapsed
            self._counter_snapshots[worker.uid] = counters
            self._worker_requests[worker.uid] = self._worker_requests.get(worker.uid, 0) + 1
        return y

    # ------------------------------------------------------------------ #
    # Zero-downtime operation: hot plan-swap
    # ------------------------------------------------------------------ #
    def _probe(self, worker: _ProcWorker, x: np.ndarray) -> np.ndarray:
        """One forward on a specific held-out worker (canary traffic).

        Bypasses the free queue and the stats counters; a worker death
        here raises :class:`WorkerCrashError` after retiring it.
        """
        timeout = self.request_timeout if self.request_timeout else self._start_timeout
        return self._call(worker, "probe", np.asarray(x), timeout)

    def _swap_one(self, worker: _ProcWorker, spec: dict) -> None:
        """Swap one held-out worker onto ``spec``.

        Returns on an acknowledged swap.  Raises
        :class:`WorkerCrashError` (worker retired) when the worker died
        mid-swap, or :class:`PlanSwapError` (worker healthy, still on its
        previous plan — the caller owns returning it to the free queue)
        when the worker rejected the spec.
        """
        try:
            self._call(worker, "swap", spec, self._start_timeout)
        except WorkerCrashError:
            raise
        except Exception as exc:
            raise PlanSwapError(
                f"process-pool worker pid {worker.process.pid} failed to attach "
                f"the new plan: {type(exc).__name__}: {exc}"
            ) from exc

    def swap_plan(self, new_plan: ExecutionPlan, canary=None) -> int:
        """Roll every worker onto ``new_plan`` with zero downtime.

        The new plan is exported into a *second* shared segment; workers
        move over one at a time (the rest keep serving the old plan), so
        admission never pauses.  After the first worker holds the new
        plan, ``canary(run_fn)`` — when given — validates it with real
        forwards on that worker; the canary raising anything rolls every
        swapped worker back to the old plan, unlinks the new segment, and
        re-raises.  A worker *dying* mid-swap is a worker failure, not a
        plan failure: it is retired, the roll continues, and the
        supervisor respawns the replacement from whichever spec commits.
        The old segment is unlinked only after the last worker has
        detached from it.  Returns the number of workers swapped.
        """
        from .planio import share_plan

        self.install()
        with self._ops_lock:
            new_store, new_spec = share_plan(new_plan)
            old_spec, old_store = self._spec, self._store
            self._ops_pause.set()
            swapped: set[int] = set()
            try:
                canaried = canary is None
                while True:
                    worker = self._checkout_where(lambda uid: uid not in swapped)
                    if worker is None:
                        if self._closing.is_set():
                            raise PlanSwapError("pool is closing; plan swap abandoned")
                        break
                    try:
                        self._swap_one(worker, new_spec)
                    except WorkerCrashError:
                        if not canaried and not swapped:
                            # The would-be canary worker died before the
                            # plan was ever judged: reject rather than
                            # roll out an unvalidated plan.
                            raise PlanSwapError(
                                "worker died before the canary could "
                                "validate the new plan"
                            ) from None
                        continue
                    except PlanSwapError:
                        self._free.put(worker)  # still serving the old plan
                        raise
                    swapped.add(worker.uid)
                    if not canaried:
                        try:
                            canary(lambda x: self._probe(worker, x))
                        except WorkerCrashError:
                            swapped.discard(worker.uid)
                            raise PlanSwapError(
                                "canary worker died before validating "
                                "the new plan"
                            ) from None
                        except BaseException:
                            self._free.put(worker)
                            raise
                        canaried = True
                    self._free.put(worker)
            except BaseException:
                self._rollback_swapped(swapped, old_spec)
                if new_store is not None:
                    new_store.unlink()
                raise
            else:
                with self._state_lock:
                    self.plan = new_plan
                    self._spec = new_spec
                    self._store = new_store
                if old_store is not None:
                    # Every worker detached inside its swap command; the
                    # old segment has no readers left.
                    old_store.unlink()
                return len(swapped)
            finally:
                self._ops_pause.clear()
                self._wake.set()  # let the supervisor top up any deficit

    def _rollback_swapped(self, swapped: set[int], old_spec: dict | None) -> None:
        """Best-effort return of already-swapped workers to the old plan.

        A worker that dies (or errors) rolling back is retired; the
        supervisor respawns it from the still-committed old spec.
        """
        remaining = set(swapped)
        while True:
            worker = self._checkout_where(remaining.__contains__)
            if worker is None:
                return
            remaining.discard(worker.uid)
            try:
                self._swap_one(worker, old_spec)
            except WorkerCrashError:
                continue
            except PlanSwapError:
                # Could not restore the old plan either: retire it; a
                # respawn from the old spec replaces it.
                self._retire(worker)
                continue
            self._free.put(worker)

    # ------------------------------------------------------------------ #
    def stats(self) -> ExecutorStats:
        """Counters merged across all worker processes plus forward timing.

        Each worker ships its cumulative per-layer counters with every
        ``run`` reply, so merging here needs no cross-process round-trip.
        ``wall_time`` sums per-forward time across workers (compute volume,
        not elapsed wall-clock).
        """
        with self._stats_lock:
            batches, samples, wall = self._batches, self._samples, self._wall_time
            snapshots = list(self._counter_snapshots.values())
        layers: dict[str, LayerCounters] = {}
        for name in self.plan.layers:
            merged = LayerCounters()
            for snap in snapshots:
                if name in snap:
                    merged = merged.merged_with(snap[name])
            layers[name] = merged
        return ExecutorStats(
            batches=batches,
            samples=samples,
            wall_time=wall,
            layers=layers,
        )

    def worker_stats(self) -> list[WorkerStat]:
        """Liveness + served counts per worker process, retired ones included.

        A worker that died mid-request (or was closed with its generation)
        stays listed with ``alive=False`` — the signal the ``/healthz``
        endpoint and the per-worker gauges alert on.
        """
        with self._stats_lock:
            return [
                WorkerStat(
                    uid=uid,
                    alive=self._worker_alive.get(uid, False),
                    requests=self._worker_requests.get(uid, 0),
                )
                for uid in sorted(self._worker_alive)
            ]

    def reset_stats(self) -> None:
        """Zero parent-side totals and every live worker's counters."""
        # Under the state lock: a reset draining the free queue concurrently
        # with a close() (which also collects every live worker) would leave
        # each holding workers the other waits for, forever.
        with self._state_lock:
            # Check every live worker out so no forward is mid-flight while
            # its counters reset (the same quiesce close() performs).
            for worker in self._checkout_all() if self._installed else []:
                try:
                    self._call(worker, "reset", timeout=_IDLE_REPLY_TIMEOUT)
                except WorkerCrashError:
                    continue  # retired; a respawn starts from zero
                self._free.put(worker)
        with self._stats_lock:
            self._batches = self._samples = 0
            self._wall_time = 0.0
            self._counter_snapshots.clear()
            self._worker_requests = {uid: 0 for uid in self._worker_requests}

