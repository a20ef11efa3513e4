"""Worker pools: the pluggable execution substrate behind the serving engine.

:class:`WorkerPool` is the install/run/stats contract the serving engine
actually drives.  Two substrates honour it:

- :class:`~repro.runtime.executor.PlanExecutor` — the serial in-process
  executor, a :class:`WorkerPool` with a single lock-serialised worker.
- :class:`ProcessWorkerPool` — one worker *process* per worker.  Every
  worker is forked from the parent and inherits its model and compiled
  plan copy-on-write: nothing is pickled or copied at start, the child
  installs the inherited plan and serves forwards with no GIL in common.
  Decomposition and compression cost is paid once (SparseRT's AOT
  specialisation), the compressed operands stay in pages the workers
  share with the parent (S2TA keeps them resident across PEs), and N
  cores run N forwards.

The CLI serves through the executor at ``serve --workers 1`` and through
the process pool at ``--workers N``.  Both produce **bit-identical**
outputs: process workers run the same kernels over the same operands.

Every parent-to-worker exchange after the ready handshake — a forward, a
health-check ping, a counter reset, a stop — is one command and one reply
through a single method (a ``run`` reply is ``(y, elapsed, counts,
widths)``: the worker's layer counters as :mod:`repro.runtime.counters`
lays them out).  Worker failure has one behaviour there: a broken pipe,
an EOF or a missed reply deadline retires the worker and raises the
*retryable* :class:`WorkerCrashError`, while an error the worker reports
is re-raised with its :class:`RemoteTraceback` and leaves the worker
serving.  No reply is ever left unread on a live worker's pipe.

A pool serves exactly one plan for its whole life.  Changing plans means
building another pool (:meth:`WorkerPool.with_plan`) and switching to it;
the serving engine canaries that candidate before it takes any traffic.

The process pool is always *supervised*: a background supervisor thread
health-checks idle workers and respawns the retired ones, forked again
from the parent with the pool's plan, with capped exponential
backoff and a crash-loop circuit breaker (too many respawns inside a
sliding window stops respawning and marks the pool
:attr:`~ProcessWorkerPool.degraded`).  The serving engine re-dispatches a
batch whose worker crashed on a surviving or respawned worker, and a pool
whose breaker is open raises :class:`PoolDegradedError`, the engine's
signal to fall back to in-process execution.
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import itertools
import multiprocessing
import queue
import threading
import time
import traceback

import numpy as np

from repro.analysis.annotations import hot_path
from repro.nn.module import Module

from .counters import ExecutorStats, WorkerStat, reset, snapshot
from .plan import ExecutionPlan

__all__ = [
    "RemoteTraceback",
    "WorkerCrashError",
    "PoolDegradedError",
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
    """The pool cannot serve: the crash-loop circuit breaker is open, so
    no dead worker will be respawned.  The serving engine treats this as
    the signal to degrade to in-process execution."""


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
      across workers, plus whole-forward batch/sample/wall totals;
    - :meth:`worker_stats` — per-worker liveness and served counts;
    - :meth:`with_plan` — a new, not yet installed pool of the same
      configuration serving another plan (a pool never changes plans);
    - :attr:`degraded` — true once the pool cannot return to service on
      its own, the engine's cue to serve in-process instead;
    - :attr:`respawns` / :attr:`deaths` — cumulative workers respawned
      and retired.

    Implementations must keep :meth:`run` lock-free across the forward
    itself so up to ``workers`` forwards proceed concurrently.
    """

    model: Module
    plan: ExecutionPlan
    degraded: bool
    respawns: int
    deaths: int

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

    @abc.abstractmethod
    def worker_stats(self) -> list[WorkerStat]:
        """Per-worker liveness + served-forward counts (telemetry gauges).

        Retired workers (previous generations, mid-request deaths) stay
        listed with ``alive=False`` so a scrape can alert on them.
        """

    @abc.abstractmethod
    def with_plan(self, plan: ExecutionPlan) -> "WorkerPool":
        """A new pool with this one's configuration, serving ``plan``.

        The new pool is not installed, and nothing it does touches this
        pool's model, plan or workers, so it can be validated while this
        one serves.
        """

    def __enter__(self) -> "WorkerPool":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Process pool: one forked worker process per worker
# ---------------------------------------------------------------------- #
@hot_path
def _pool_worker_main(conn, model: Module, plan: ExecutionPlan, chaos=None) -> None:
    """Entry point of one forked pool worker.

    ``model`` and ``plan`` are the parent's objects, inherited through the
    fork (copy-on-write pages, nothing pickled).  The worker installs the
    plan on its copy of the model, zeroes the plan's counters — the
    parent's plan object may already carry counts — and serves
    ``("run", batch)`` requests over the pipe until told to stop.  Every
    command gets exactly one reply: ``("ok", result)`` or, when it raised,
    ``("err", (exc, formatted_traceback))``.  A ``run`` result is ``(y,
    elapsed, counts, widths)``: the worker's cumulative counter array and
    width dicts, so the parent sums :meth:`stats` with no extra round-trip.
    ``ping`` is the supervisor's idle health check and ``reset`` zeroes the
    counters.

    ``chaos`` (a :class:`~repro.runtime.chaos.ChaosSpec`) injects
    deterministic faults — crash/hang/slow at exact request counts — for
    the fault-tolerance tests and the chaos-smoke job; without it this
    loop is fault-free.
    """
    if chaos is not None:
        chaos.on_start()
    counters = plan.counters()
    try:
        plan.install(model)
        model.eval()
        reset(counters)
    # lint: disable=broad-except — any install failure is shipped to the
    # parent as a ("fail", reason) message; the worker must not die silently
    except Exception as exc:
        try:
            conn.send(("fail", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    served = 0
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
                    snap = snapshot(counters)
                    reply = (y, elapsed, snap.counts, snap.widths)
                elif cmd == "reset":
                    reset(counters)
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
        conn.close()


# Reply deadline for the commands sent to idle workers (ping, reset,
# stop): an idle worker answers them in microseconds.
_IDLE_REPLY_TIMEOUT = 2.0

# Worker uids are unique across every pool in the process, so the
# per-worker series a scrape exports never restart when the serving
# engine replaces its pool.
_WORKER_UIDS = itertools.count()


@dataclasses.dataclass
class _ProcWorker:
    uid: int  # unique across pools and generations (stats keys)
    process: object  # multiprocessing.Process (context-specific class)
    conn: object  # parent end of the pipe


class ProcessWorkerPool(WorkerPool):
    """Execute batches across N worker *processes* sharing one compiled plan.

    The parent pays plan compilation once.  Each worker is **forked** from
    the parent — the pool's only start method, recorded as
    :attr:`mp_context` — and inherits the model and the pool's
    :class:`ExecutionPlan` copy-on-write, so N workers share one copy of
    the compressed operands with the parent and nothing is pickled at
    start.  Workers run forwards with no GIL in common, so throughput
    scales with cores even for the Python-level parts of a forward.  A
    platform without ``fork`` is refused at construction.

    The parent that forks may be running serving-engine, supervisor and
    OpenBLAS threads.  Only the forking thread survives in the child, and
    the child does nothing but install the inherited plan and serve its
    pipe, so it never waits on a lock another parent thread held.
    CPython 3.12+ warns about forking a multi-threaded process; this
    codebase targets 3.11.

    Outputs are bit-identical to :class:`PlanExecutor`: workers run the
    same kernels over the same operands, and request arrays round-trip the
    pipe losslessly.

    **Supervision.**  A supervisor thread always watches the pool: a
    worker that dies — detected by a pipe error on a request, by missing
    a reply within ``request_timeout``, or by failing the periodic idle
    health-check ping — is retired and a replacement is forked from the
    parent, inheriting the pool's :attr:`plan` (no recompression, no
    copy).  Respawns back off exponentially
    (``respawn_backoff`` doubling up to ``backoff_cap``)
    while deaths keep coming, and a crash-loop circuit breaker stops
    respawning entirely after ``max_respawns`` respawns inside a sliding
    ``respawn_window`` seconds — the pool is then :attr:`degraded` and
    :meth:`run` raises :class:`PoolDegradedError` instead of hammering
    a poisoned configuration.  A request in flight on a dying worker
    raises :class:`WorkerCrashError` (retryable; the serving engine
    re-dispatches).  Idle workers are pinged every ``health_interval``
    seconds, which must be positive.
    """

    def __init__(
        self,
        model: Module,
        plan: ExecutionPlan,
        workers: int = 2,
        start_timeout: float = 120.0,
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
        if health_interval <= 0:
            raise ValueError(f"health_interval must be positive, got {health_interval}")
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive, got {request_timeout}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "ProcessWorkerPool forks its workers, and this platform cannot fork"
            )
        self.model = model
        self.plan = plan
        self.workers = workers
        self.mp_context = "fork"
        self.max_respawns = max_respawns
        self.respawn_window = respawn_window
        self.respawn_backoff = respawn_backoff
        self.backoff_cap = backoff_cap
        self.health_interval = health_interval
        self.request_timeout = request_timeout
        self.chaos = chaos
        self._ctx = multiprocessing.get_context("fork")
        self._start_timeout = start_timeout
        self._free: "queue.Queue[_ProcWorker]" = queue.Queue()
        self._installed = False  # guarded-by: _state_lock
        self._state_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # Workers that will eventually return to the free queue.
        self._live = 0  # guarded-by: _stats_lock
        self._batches = 0  # guarded-by: _stats_lock
        self._samples = 0  # guarded-by: _stats_lock
        self._wall_time = 0.0  # guarded-by: _stats_lock
        # Latest cumulative (counts, widths) per worker uid.  Kept across close()
        # and worker deaths: old generations and dead workers sum with new ones.
        self._counter_snapshots: dict[int, tuple] = {}  # guarded-by: _stats_lock
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

    def with_plan(self, plan: ExecutionPlan) -> "ProcessWorkerPool":
        """A new, uninstalled pool with every setting of this one, serving
        ``plan``.  Its workers fork with ``plan``; this pool's workers never
        see it."""
        return ProcessWorkerPool(
            self.model,
            plan,
            workers=self.workers,
            start_timeout=self._start_timeout,
            max_respawns=self.max_respawns,
            respawn_window=self.respawn_window,
            respawn_backoff=self.respawn_backoff,
            backoff_cap=self.backoff_cap,
            health_interval=self.health_interval,
            request_timeout=self.request_timeout,
            chaos=self.chaos,
        )

    # ------------------------------------------------------------------ #
    def _start_worker(self) -> _ProcWorker:
        """Fork one worker and complete its ready handshake.

        The child inherits :attr:`model` and :attr:`plan`, so a respawn
        costs one fork — not a recompile or a copy of the plan.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_pool_worker_main,
            args=(child_conn, self.model, self.plan, self.chaos),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # child's end lives in the child only
        worker = _ProcWorker(next(_WORKER_UIDS), proc, parent_conn)
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
            what = "request" if cmd == "run" else cmd
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

    def install(self) -> "ProcessWorkerPool":
        with self._state_lock:
            if self._installed:
                return self
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
        crash-loop breaker is open.  The serving engine's cue to fall back
        in-process."""
        with self._stats_lock:
            return self._breaker_open

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
        while not self._closing.is_set():
            woken = self._wake.wait(self.health_interval)
            if self._closing.is_set():
                return
            if woken:
                self._wake.clear()
            if not woken:
                self._health_check()
            self._respawn_deficit()

    def close(self) -> None:
        """Stop every worker process.

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
        :class:`PoolDegradedError` when the crash-loop breaker is open.
        """
        x = np.asarray(x)
        while True:
            self.install()
            if self.degraded:
                # The supervisor has given up: waiting on the free queue
                # could hang forever.
                raise PoolDegradedError(
                    "the process pool's crash-loop circuit breaker is open "
                    "and it will not respawn workers; close() and re-run, "
                    "or serve through a fallback executor"
                )
            try:
                # One blocking wait per liveness check — a dead pool wakes
                # this up via the timeout, a respawn wakes it via put().
                worker = self._free.get(timeout=0.5)
                break
            except queue.Empty:
                continue  # re-check degraded/installed only on wakeup
        try:
            y, elapsed, counts, widths = self._call(worker, "run", x, self.request_timeout)
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
            self._counter_snapshots[worker.uid] = (counts, widths)
            self._worker_requests[worker.uid] = self._worker_requests.get(worker.uid, 0) + 1
        return y

    # ------------------------------------------------------------------ #
    def stats(self) -> ExecutorStats:
        """Counters summed across all worker processes plus forward timing.

        Each worker ships its cumulative counter array with every ``run``
        reply, so summing here needs no cross-process round-trip; a dead
        worker's last counts stay in the sum.
        ``wall_time`` sums per-forward time across workers (compute volume,
        not elapsed wall-clock).
        """
        with self._stats_lock:
            stats = ExecutorStats(
                self._batches, self._samples, self._wall_time, names=tuple(self.plan.layers)
            )
            snapshots = list(self._counter_snapshots.values())
        for counts, widths in snapshots:
            stats = stats.merged_with(ExecutorStats(names=stats.names, counts=counts, widths=widths))
        return stats

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

