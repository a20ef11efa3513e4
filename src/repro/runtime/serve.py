"""Serving engine: request queue, micro-batching, worker loop, telemetry.

Requests are single inputs (or small batches) submitted from any thread.
Batching is *work-conserving*: a worker blocks only for its first request,
then takes whatever is already queued, up to ``max_batch``, and dispatches
at once; it never waits on a timer for company.  Under load batches still
fill, because requests queue while every pool worker is busy.
The micro-batch runs through the shared executor, its outputs are split
back per request, and each request's future resolves with its result and
latency stats.

The engine talks only to the :class:`~repro.runtime.pool.WorkerPool` seam
(``install`` / ``run`` / ``stats``) and never cares what substrate sits
behind it: a :class:`PlanExecutor` serialises worker forwards on its
lock, and a :class:`~repro.runtime.pool.ProcessWorkerPool` runs up to
``workers`` forwards concurrently in forked worker processes — no GIL in
common.

Micro-batching preserves results exactly: the model is batch-linear (every
layer treats the leading axis as independent samples), so serving a request
inside a micro-batch returns the same values as serving it alone.

The engine is *fault-tolerant*: a micro-batch whose pool worker dies
mid-request is transparently retried (bounded attempts, then split in
half to isolate a poison request from its batchmates), per-request
deadlines drop expired work before dispatch (:class:`DeadlineExceeded`),
``max_queue`` sheds load at the door (:class:`QueueFull`), and a process
pool that collapses past its crash-loop circuit breaker degrades the
engine onto an in-process :class:`PlanExecutor` fallback — slower, never
down — with ``/healthz`` reporting ``degraded`` (200); only a stopped
engine reports ``dead`` (503).

The engine is *observable while running* (the telemetry spine):

- every request, served or not, leaves one
  :class:`~repro.runtime.counters.RequestStats` record (:meth:`records`)
  whose stamps give its ``enqueue → batch_form → execute → reply`` spans,
  and a served one feeds latency / queue-wait / batch-size /
  batch-occupancy histograms in the engine's
  :class:`~repro.runtime.metrics.MetricsRegistry`;
- :meth:`metrics_snapshot` assembles one scrape from the engine's own
  registry plus scrape-time views of the pool (per-layer GEMM histograms
  merged across every worker, per-worker liveness);
- :meth:`serve_metrics` exposes it all over HTTP — ``/metrics``
  (Prometheus text), ``/metrics.json``, ``/healthz``, ``/statusz`` — from
  a background thread, stdlib only.
"""

from __future__ import annotations

import collections
import itertools
import os
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout  # builtin alias on 3.11+
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.annotations import hot_path

from .counters import ExecutorStats, RequestStats, ServeReport, WorkerStat
from .executor import PlanExecutor
from .metrics import (
    BATCH_SIZE_BUCKETS,
    OCCUPANCY_BUCKETS,
    MetricsRegistry,
    MetricsServer,
    export_executor_stats,
    merge_snapshots,
)
from .pool import PoolDegradedError, WorkerCrashError, WorkerPool

__all__ = ["DeadlineExceeded", "EngineStopped", "QueueFull", "SwapRejected", "ServingEngine"]

_STATUSZ_ROWS = 25  # records /statusz shows


class EngineStopped(RuntimeError):
    """The engine is not running: :meth:`ServingEngine.submit` was called
    before :meth:`ServingEngine.start` or after :meth:`ServingEngine.stop`.
    Subclasses :class:`RuntimeError` so pre-existing ``except RuntimeError``
    callers keep working."""


class QueueFull(RuntimeError):
    """Admission control rejected a submit: the request queue is at its
    ``max_queue`` bound (or the engine is draining).  Shedding load at the
    door beats queueing work the server cannot finish inside any useful
    latency budget."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline expired before it was dispatched; it was
    dropped without being computed."""


class SwapRejected(RuntimeError):
    """A hot plan-swap was rejected before the candidate took any traffic.

    ``reason`` carries the verdict: a wrong-weights artifact, a candidate
    executor that failed to start on the new plan, or a canary whose
    outputs diverge from the live plan, that raised, or that ran too
    slowly.  The engine keeps serving the *old* executor in every case.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class _Request:
    request_id: int
    x: np.ndarray
    future: Future
    submitted_at: float
    collected_at: float = field(default=0.0)  # when a worker pulled it off the queue
    deadline_at: float = field(default=0.0)  # perf_counter bound; 0.0 = none
    attempts: int = field(default=0)  # dispatch attempts (retries show > 1)


class ServingEngine:
    """Micro-batching inference server over a compiled execution plan.

    Parameters
    ----------
    executor : WorkerPool
        Shared execution substrate (anything honouring the
        :class:`~repro.runtime.pool.WorkerPool` contract).  A
        :class:`PlanExecutor`'s internal lock serialises model forwards
        (workers overlap only queueing and splitting); a
        :class:`~repro.runtime.pool.ProcessWorkerPool` runs workers'
        forwards concurrently.
    max_batch : int
        Maximum requests coalesced into one micro-batch: a worker takes
        up to this many of the requests already queued, and never waits
        on a timer for more.
    workers : int
        Worker threads draining the queue.  Pair ``workers=N`` with a
        pool of ``N`` workers (``ProcessWorkerPool(..., workers=N)``) to
        scale throughput.
    max_queue : int | None
        Admission bound: :meth:`submit` raises :class:`QueueFull` once
        this many requests are waiting (``None`` = unbounded, the old
        behaviour).  Shedding at the door keeps queue wait bounded.
    max_retries : int
        Retries per micro-batch when the pool loses the worker serving
        it (:class:`~repro.runtime.pool.WorkerCrashError`).  After the
        budget is spent a multi-request batch is split in half — each
        half with a fresh budget — so one poison input cannot sink its
        batchmates; a single request that still crashes workers fails
        with the crash error (it is *not* run in-process, where it could
        take the server down with it).

    :attr:`executor` is the executor serving right now: a committed
    :meth:`swap_plan` replaces it with a new one the engine built, and
    the engine closes the executors it built when it stops.  The one a
    caller passes in stays the caller's to close.

    The engine records into its own
    :class:`~repro.runtime.metrics.MetricsRegistry` (:attr:`metrics`).
    The first time the pool collapses past its circuit breaker
    (:class:`~repro.runtime.pool.PoolDegradedError`) the engine builds an
    in-process :class:`~repro.runtime.executor.PlanExecutor` over the
    pool's model and plan and serves through it from then on — slower,
    never down.
    """

    def __init__(
        self,
        executor: WorkerPool,
        max_batch: int = 8,
        workers: int = 1,
        max_queue: int | None = None,
        max_retries: int = 2,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_queue is not None and max_queue <= 0:
            raise ValueError(f"max_queue must be positive or None, got {max_queue}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.executor = executor
        self.max_batch = max_batch
        self.workers = workers
        self.max_queue = max_queue
        self.max_retries = max_retries
        # Degradation state: once the pool collapses past its breaker the
        # engine pins itself to the in-process fallback (the pool cannot
        # self-heal past an open breaker, so probing it again is pointless).
        # _degraded is a monotonic latch (False -> True, never back): any
        # worker thread may flip it in _note_degraded and everyone else
        # reads it unlocked, which is benign for a single GIL-atomic bool.
        self._degraded = False
        self._fallback_pool: "WorkerPool | None" = None  # guarded-by: _fallback_lock
        self._fallback_lock = threading.Lock()
        self._queue: "queue.Queue[_Request | None]" = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._ids = itertools.count()
        self._running = False  # guarded-by: _state_lock
        # Makes {check _running, enqueue} atomic against stop()'s flip, so a
        # submit racing a concurrent stop() either lands before the shutdown
        # sentinels (and is served) or raises — never a stranded future.
        self._state_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        # Queue depth, counted exactly: Queue.qsize() is read outside the
        # workers' dequeue path, so an admission bound checked against it
        # can overshoot under contention.  This counter moves under its own
        # lock at every enqueue/dequeue, so the max_queue bound and the
        # tasd_serve_queue_depth gauge both see the same exact value.
        self._depth = 0  # guarded-by: _depth_lock
        self._depth_lock = threading.Lock()
        # Drain machinery: _pending counts admitted-but-unresolved requests;
        # its condition wakes drain() when the last one resolves.  While
        # _draining is set, submit() sheds at the door and /healthz reports
        # "draining".
        self._pending = 0  # guarded-by: _pending_cond
        self._pending_cond = threading.Condition()
        self._draining = False  # guarded-by: _state_lock
        # Hot-swap machinery: one swap at a time, and the most recent
        # request input is retained as the default canary batch.
        self._swap_lock = threading.Lock()
        self._last_input: "np.ndarray | None" = None  # guarded-by: _state_lock
        # A swap switches `executor` under this condition's lock, where
        # _dispatch also picks the executor up and counts its call in
        # flight, so the swap can wait out the retiring executor's calls.
        self._exec_cond = threading.Condition()
        self._inflight: collections.Counter = collections.Counter()  # guarded-by: _exec_cond
        self._owns_executor = False  # guarded-by: _exec_cond
        # Executors a swap retired: their totals, folded once each
        # (stats, worker stats, respawns, deaths), and the one a swap is
        # retiring right now, which still counts until it is folded.
        self._retired: tuple = (ExecutorStats(), [], 0, 0)  # guarded-by: _exec_cond
        self._retiring: "WorkerPool | None" = None  # guarded-by: _exec_cond
        # One record per admitted request, appended when it resolves.
        self._records: list[RequestStats] = []  # guarded-by: _stats_lock
        self._started_at = 0.0  # guarded-by: _state_lock
        self._stopped_at = 0.0  # guarded-by: _state_lock
        metrics = self.metrics = MetricsRegistry()
        # Children resolved once here, so the hot path never pays the
        # registry's name lookup.
        self._m_requests = metrics.counter(
            "tasd_serve_requests_total", "Requests served to completion"
        ).labels()
        self._m_samples = metrics.counter(
            "tasd_serve_samples_total", "Samples served across all requests"
        ).labels()
        self._m_batches = metrics.counter(
            "tasd_serve_batches_total", "Micro-batches dispatched"
        ).labels()
        self._m_errors = metrics.counter(
            "tasd_serve_errors_total", "Requests failed with an exception"
        ).labels()
        self._m_latency = metrics.histogram(
            "tasd_serve_request_latency_seconds", "End-to-end request latency"
        ).labels()
        self._m_queue_wait = metrics.histogram(
            "tasd_serve_queue_wait_seconds", "Submit-to-dispatch queue wait"
        ).labels()
        self._m_batch_size = metrics.histogram(
            "tasd_serve_batch_size",
            "Requests coalesced per micro-batch",
            buckets=BATCH_SIZE_BUCKETS,
        ).labels()
        self._m_occupancy = metrics.histogram(
            "tasd_serve_batch_occupancy",
            "Micro-batch fill fraction of max_batch",
            buckets=OCCUPANCY_BUCKETS,
        ).labels()
        self._m_retried = metrics.counter(
            "tasd_serve_requests_retried_total",
            "Request dispatch attempts repeated after a worker crash",
        ).labels()
        self._m_deadline = metrics.counter(
            "tasd_serve_deadline_exceeded_total",
            "Requests dropped because their deadline expired before dispatch",
        ).labels()
        self._m_rejected = metrics.counter(
            "tasd_serve_queue_rejected_total",
            "Submits rejected by the max_queue admission bound",
        ).labels()
        self._m_fallback = metrics.counter(
            "tasd_serve_fallback_batches_total",
            "Micro-batches served by the in-process fallback executor",
        ).labels()
        self._m_swaps = metrics.counter(
            "tasd_plan_swaps_total", "Hot plan-swaps committed"
        ).labels()
        self._m_rollbacks = metrics.counter(
            "tasd_swap_rollbacks_total",
            "Hot plan-swaps rejected before the switch",
        ).labels()
        self._m_drain = metrics.histogram(
            "tasd_serve_drain_seconds", "Graceful-drain duration"
        ).labels()

    # ------------------------------------------------------------------ #
    def start(self) -> "ServingEngine":
        with self._state_lock:
            if self._running:
                return self
            self.executor.install()
            # Fresh run, fresh telemetry: a restart must not mix the previous
            # run's requests or wall-time window into the next report().  The
            # previous report stays readable between stop() and the restart,
            # and the reset happens under the state lock so a report() racing
            # the restart sees either the old window or the new one — never a
            # half-reset mix.
            with self._stats_lock:
                self._records.clear()
            self._stopped_at = 0.0
            self._started_at = time.perf_counter()
            self._draining = False
            self._running = True
        for i in range(self.workers):
            t = threading.Thread(target=self._worker_loop, name=f"serve-worker-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        return self

    def stop(self) -> None:
        with self._state_lock:
            if not self._running:
                return
            self._running = False
        for _ in self._threads:
            self._queue.put(None)  # one sentinel per worker
        for t in self._threads:
            t.join()
        self._threads.clear()
        # submit() enqueues only while running, so every admitted request
        # sat ahead of the sentinels and a worker served it.  A worker that
        # saw the engine stopped exits without taking its sentinel: drop
        # the surplus, so a restarted engine's workers never read one.
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        # Under the swap lock: a swap under way commits (or closes its
        # candidate) first, and none starts on a stopped engine.
        with self._swap_lock:
            with self._exec_cond:
                built = [self.executor] if self._owns_executor else []
            with self._fallback_lock:
                if self._fallback_pool is not None:
                    built.append(self._fallback_pool)
            for executor in built:
                executor.close()
        with self._state_lock:
            self._stopped_at = time.perf_counter()

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    def submit(self, x: np.ndarray, deadline: float | None = None) -> Future:
        """Enqueue one request; the future resolves to its output batch.

        ``deadline`` is a per-request latency budget in seconds: a request
        still waiting when it expires is dropped *before* dispatch and its
        future raises :class:`DeadlineExceeded` — no compute is spent on an
        answer the client has stopped waiting for.  Raises
        :class:`QueueFull` when the ``max_queue`` admission bound is hit.
        """
        x = np.asarray(x)
        if x.ndim < 1 or x.shape[0] < 1:
            raise ValueError(f"request input needs a leading batch axis, got shape {x.shape}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive seconds, got {deadline}")
        now = time.perf_counter()
        deadline_at = now + deadline if deadline is not None else 0.0
        request = _Request(next(self._ids), x, Future(), now, deadline_at=deadline_at)
        with self._state_lock:
            # A drained engine stays typed: drain() promises QueueFull to
            # late submitters, even after the wind-down finished and the
            # engine stopped.
            if self._draining:
                self._m_rejected.inc()
                raise QueueFull(
                    "engine is draining: admitted work is being finished, "
                    "new requests are rejected"
                )
            if not self._running:
                raise EngineStopped("serving engine is not running; call start() first")
            with self._depth_lock:
                if self.max_queue is not None and self._depth >= self.max_queue:
                    self._m_rejected.inc()
                    raise QueueFull(
                        f"request queue is at its max_queue bound ({self.max_queue}); "
                        "shed load, retry later, or raise max_queue"
                    )
                self._depth += 1
            with self._pending_cond:
                self._pending += 1
            self._last_input = x  # default canary batch for swap_plan()
            self._queue.put(request)
        return request.future

    def infer(
        self, x: np.ndarray, timeout: float | None = None, deadline: float | None = None
    ) -> np.ndarray:
        """Synchronous convenience wrapper around :meth:`submit`.

        A wait that times out *cancels* the request: if it has not been
        dispatched yet it is skipped at collection time instead of being
        computed into the void (give up on the answer, give up the work).
        """
        future = self.submit(x, deadline=deadline)
        try:
            return future.result(timeout=timeout)
        except (TimeoutError, _FutureTimeout):
            future.cancel()
            raise

    # ------------------------------------------------------------------ #
    # Zero-downtime operations: drain and hot plan-swap
    # ------------------------------------------------------------------ #
    def drain(self, timeout: float | None = None) -> bool:
        """Gracefully wind the engine down: finish everything admitted,
        admit nothing new, then stop.

        The moment drain begins, :meth:`submit` raises :class:`QueueFull`
        and ``/healthz`` reports ``"draining"`` (still HTTP 200 — the
        server is healthy, just leaving).  Every request admitted before
        that point resolves: queued work is dispatched, in-flight work
        completes.  ``timeout`` bounds the wait in seconds (``None`` =
        wait forever); on expiry the engine stops anyway and the
        still-unresolved requests are settled by :meth:`stop`'s leftover
        drain.  Returns ``True`` when every admitted request resolved
        within the budget.
        """
        with self._state_lock:
            if not self._running:
                return True
            self._draining = True
        t0 = time.perf_counter()
        deadline = t0 + timeout if timeout is not None else None
        with self._pending_cond:
            while self._pending > 0:
                remaining = None if deadline is None else deadline - time.perf_counter()
                if remaining is not None and remaining <= 0:
                    break
                self._pending_cond.wait(min(remaining, 0.5) if remaining is not None else 0.5)
            drained = self._pending <= 0
        self.stop()
        self._m_drain.observe(time.perf_counter() - t0)
        return drained

    def swap_plan(
        self,
        plan_or_path,
        canary: "np.ndarray | None" = None,
        *,
        rtol: float = 1e-6,
        atol: float = 1e-8,
        max_latency_factor: float | None = None,
    ) -> dict:
        """Hot-swap the serving plan: canary a candidate executor, then switch.

        ``plan_or_path`` is a compiled
        :class:`~repro.runtime.plan.ExecutionPlan` or the path of a saved
        artifact (loaded through :func:`~repro.runtime.planio.load_plan`,
        digests verified).  The live executor serves throughout:

        1. **gate** — the candidate's per-layer weight fingerprint must
           match the live plan's (same weights, different layout or backends);
           a wrong-weights artifact is rejected before anything starts;
        2. **candidate** — :meth:`WorkerPool.with_plan` builds a new
           executor of the live one's configuration on the new plan and
           installs it (a process pool forks its workers with the plan;
           the in-process executor clones the model);
        3. **canary** — the canary batch (``canary=``, or the most
           recently submitted input) runs on the live executor and on the
           candidate; the candidate's outputs must ``allclose`` the live
           plan's, its forward must not raise, and — when
           ``max_latency_factor`` is set — must not be slower than that
           factor times the live forward;
        4. **switch** — the engine serves through the candidate from the
           next dispatch on, waits for the calls still in flight on the
           old executor, closes it, and folds its counts into
           :meth:`stats`.

        No executor ever holds two plans, so a rejection has nothing to
        roll back: it closes the candidate, raises :class:`SwapRejected`
        (``.reason`` says why) and increments
        ``tasd_swap_rollbacks_total``.  Success increments
        ``tasd_plan_swaps_total`` and returns a report dict whose
        ``swapped_workers`` is the new executor's worker count.
        """
        from .planio import PlanDigestError, PlanFormatError, load_plan, plan_fingerprint

        def reject(reason: str, cause: "Exception | None" = None):
            self._m_rollbacks.inc()
            raise SwapRejected(reason) from cause

        with self._swap_lock:
            if not self.running:
                reject("engine is not running; start() it before swapping plans")
            if self._degraded:
                reject(
                    "engine is degraded (serving through the in-process "
                    "fallback); recover the pool before swapping plans"
                )
            live = self.executor
            if isinstance(plan_or_path, (str, Path)):
                try:
                    new_plan = load_plan(plan_or_path, live.model)
                except (OSError, PlanFormatError, PlanDigestError) as exc:
                    reject(f"artifact rejected: {exc}", exc)
            else:
                new_plan = plan_or_path
            if new_plan is live.plan:
                # An in-process executor counts on its plan object: two
                # executors on one plan would count into the same place.
                reject("candidate is the plan object the live executor already serves")
            try:
                if plan_fingerprint(new_plan) != plan_fingerprint(live.plan):
                    reject(
                        "candidate plan was compiled from different weights "
                        "than the live plan (fingerprint mismatch); this is "
                        "the wrong artifact for this model"
                    )
            except PlanFormatError as exc:
                reject(f"candidate plan's weight identity is unrecoverable: {exc}", exc)
            if canary is not None:
                canary_x = canary
            else:
                with self._state_lock:
                    canary_x = self._last_input
            if canary_x is None:
                reject(
                    "no canary batch available: pass canary= or serve at "
                    "least one request before swapping"
                )
            canary_x = np.asarray(canary_x)
            try:
                t0 = time.perf_counter()
                reference = live.run(canary_x)
                ref_elapsed = time.perf_counter() - t0
            # lint: disable=broad-except — reject() raises typed SwapRejected
            except Exception as exc:
                reject(f"live plan failed the canary batch; swap aborted: {exc}", exc)

            candidate = live.with_plan(new_plan)
            try:
                try:
                    candidate.install()
                # lint: disable=broad-except — reject() raises typed SwapRejected
                except Exception as exc:
                    reject(f"candidate executor failed to start on the new plan: {exc}", exc)
                try:
                    t1 = time.perf_counter()
                    y = candidate.run(canary_x)
                    elapsed = time.perf_counter() - t1
                # lint: disable=broad-except — reject() raises typed SwapRejected
                except Exception as exc:
                    reject(f"canary execution failed: {exc}", exc)
                if np.shape(y) != np.shape(reference) or not np.allclose(
                    y, reference, rtol=rtol, atol=atol
                ):
                    reject(
                        "canary outputs diverge from the live plan beyond "
                        f"rtol={rtol}/atol={atol}; the artifact does not "
                        "compute the same function"
                    )
                if (
                    max_latency_factor is not None
                    and ref_elapsed > 0
                    and elapsed > max_latency_factor * ref_elapsed
                ):
                    reject(
                        f"canary latency {elapsed * 1e3:.1f} ms exceeds "
                        f"{max_latency_factor}x the live plan's "
                        f"{ref_elapsed * 1e3:.1f} ms"
                    )
                candidate.reset_stats()
            except BaseException:
                candidate.close()
                raise
            with self._exec_cond:
                self.executor, self._retiring = candidate, live
                self._owns_executor = True
                self._exec_cond.wait_for(lambda: not self._inflight[live])
                self._inflight.pop(live, None)
            live.close()
            with self._exec_cond:
                self._retired = self._tally(self._retired, [live])
                self._retiring = None
            self._m_swaps.inc()
            return {
                "swapped_workers": len(candidate.worker_stats()),
                "canary_samples": int(canary_x.shape[0]),
                "reference_latency": ref_elapsed,
            }

    # ------------------------------------------------------------------ #
    def _dec_depth(self) -> None:
        """One request left the queue (worker pickup or shutdown drain)."""
        with self._depth_lock:
            self._depth -= 1

    @property
    def running(self) -> bool:
        """True while the engine accepts and dispatches work."""
        with self._state_lock:
            return self._running

    @property
    def queue_depth(self) -> int:
        """Exact number of requests waiting in the queue right now.

        This is the value behind the ``tasd_serve_queue_depth`` gauge and
        the ``max_queue`` admission bound — both read the same counter.
        """
        with self._depth_lock:
            return self._depth

    def _request_resolved(self) -> None:
        """One admitted request reached a terminal state (result set,
        failed, deadline-dropped, or cancelled-and-skipped); wakes
        :meth:`drain` when the last one lands."""
        with self._pending_cond:
            self._pending -= 1
            if self._pending <= 0:
                self._pending_cond.notify_all()

    def _gather_batch(self, first: _Request) -> tuple[list[_Request], "_Request | None"]:
        """Add to ``first`` the compatible requests queued right now, up
        to ``max_batch``, without waiting for time to pass.

        A batch the queue leaves short yields the processor once and then
        takes what that added: threads already runnable — typically the
        clients whose replies this worker just resolved, about to submit
        again — enqueue first.  With nobody runnable the yield returns at
        once, so a lone request is dispatched alone.

        Returns the batch plus an optional *carry*: a request whose sample
        shape or dtype did not match the batch.  The carry stays with this
        worker (it opens the next batch) rather than being requeued —
        requeueing could land it behind a shutdown sentinel and strand its
        future forever.
        """
        batch = [first]
        carry: _Request | None = None
        yielded = False
        while len(batch) < self.max_batch:
            try:
                req = self._queue.get_nowait()
            except queue.Empty:
                if yielded:
                    break
                os.sched_yield()  # releases the GIL to runnable submitters
                yielded = True
                continue
            if req is None:  # shutdown sentinel: hand it to another worker
                self._queue.put(None)
                break
            self._dec_depth()
            req.collected_at = time.perf_counter()
            if req.x.shape[1:] != first.x.shape[1:] or req.x.dtype != first.x.dtype:
                # Mismatched sample shape or dtype: concatenating would
                # reshape/upcast and change the request's exact result.
                carry = req
                break
            batch.append(req)
        return batch, carry

    def _worker_loop(self) -> None:
        carry: _Request | None = None
        while True:
            if carry is not None:
                first, carry = carry, None
            else:
                try:
                    first = self._queue.get(timeout=0.05)
                except queue.Empty:
                    if not self.running:
                        return
                    continue
                if first is None:
                    return
                self._dec_depth()
                first.collected_at = time.perf_counter()
            batch, carry = self._gather_batch(first)
            self._execute_batch(batch)

    def _execute_batch(self, batch: list[_Request]) -> None:
        """Skip the requests nobody waits for any more, then dispatch the rest."""
        live: list[_Request] = []
        cancelled: list[_Request] = []
        for req in batch:
            # infer(timeout=) may have given up on a request: skip it here
            # instead of computing an answer nobody will collect.
            (live if req.future.set_running_or_notify_cancel() else cancelled).append(req)
        if cancelled:
            now = time.perf_counter()
            self._settle(cancelled, len(batch), now, now, None)
        if live:
            self._run_batch(live, self.max_retries)

    def _run_batch(self, batch: list[_Request], retries_left: int) -> None:
        """Dispatch one micro-batch with crash recovery.

        A request whose deadline has expired is dropped before each
        attempt: a retry after a crash must not dispatch requests whose
        budget the crash already spent.

        A :class:`~repro.runtime.pool.WorkerCrashError` (the worker died or
        missed its reply deadline with this batch in flight) is retried up
        to ``max_retries`` times on whatever worker the pool hands over
        next — by then the supervisor has usually respawned the dead one.
        When the budget is spent on a multi-request batch, the batch is
        split in half with a fresh budget per half, isolating a poison
        request from its batchmates; a lone request that keeps killing
        workers fails with the crash error rather than being run
        in-process, where it could take the whole server down.  A pool
        collapsed past its circuit breaker (:class:`PoolDegradedError`)
        switches the engine to the in-process fallback permanently.
        """
        if any(req.deadline_at for req in batch):
            now = time.perf_counter()
            live = []
            for req in batch:
                if req.deadline_at and now > req.deadline_at:
                    expired = DeadlineExceeded(
                        f"request {req.request_id} missed its deadline by "
                        f"{now - req.deadline_at:.3f}s before dispatch"
                    )
                    self._settle([req], len(batch), now, now, expired)
                else:
                    live.append(req)
            batch = live
            if not batch:
                return
        dispatched_at = time.perf_counter()
        for req in batch:
            req.attempts += 1
        inputs = np.concatenate([req.x for req in batch], axis=0) if len(batch) > 1 else batch[0].x
        try:
            outcome = self._dispatch(inputs)
        except WorkerCrashError as exc:
            if self._note_degraded():
                self._run_batch(batch, retries_left)  # pool collapsed: fallback serves it
                return
            if retries_left > 0:
                self._m_retried.inc(len(batch))
                self._run_batch(batch, retries_left - 1)
                return
            if len(batch) > 1:
                mid = len(batch) // 2
                self._run_batch(batch[:mid], self.max_retries)
                self._run_batch(batch[mid:], self.max_retries)
                return
            outcome = exc
        except PoolDegradedError as exc:
            if self._note_degraded():
                self._run_batch(batch, retries_left)
                return
            outcome = exc
        # lint: disable=broad-except — settled into every batch future;
        # retrying a deterministic error would fail identically
        except Exception as exc:
            outcome = exc
        self._settle(batch, len(batch), dispatched_at, time.perf_counter(), outcome)

    @hot_path
    def _settle(
        self,
        batch: list[_Request],
        batch_size: int,
        dispatched_at: float,
        done_at: float,
        outcome,
    ) -> None:
        """The one terminal path: record, count and resolve ``batch``.

        ``outcome`` is the micro-batch's output array (served, split back
        per request), the exception every future raises (failed, or
        expired when it is a :class:`DeadlineExceeded`), or ``None``
        (cancelled: the future already is).  The batch's records land in
        one extend before any future resolves, so a report() taken right
        after ``result()`` counts the request and a racing one never sees
        a torn micro-batch.  Runs on the serving path, so it is fenced
        ``@hot_path``: no wall clock, no I/O, no lock construction.
        """
        failed = isinstance(outcome, BaseException)
        served = not failed and outcome is not None
        if served:
            error = None
        elif failed:
            error = f"{type(outcome).__name__}: {outcome}"
        else:
            error = "cancelled"
        records = [
            RequestStats(
                request_id=req.request_id,
                batch_size=batch_size,
                samples=req.x.shape[0],
                submitted_at=req.submitted_at,
                collected_at=req.collected_at,
                dispatched_at=dispatched_at,
                done_at=done_at,
                resolved_at=done_at,
                attempts=req.attempts,
                error=error,
            )
            for req in batch
        ]
        with self._stats_lock:
            self._records.extend(records)
        if served:
            self._m_batches.inc()
            self._m_batch_size.observe(batch_size)
            self._m_occupancy.observe(batch_size / self.max_batch)
            for record in records:
                self._m_requests.inc()
                self._m_samples.inc(record.samples)
                self._m_latency.observe(record.latency)
                self._m_queue_wait.observe(record.queue_time)
        elif isinstance(outcome, DeadlineExceeded):
            self._m_deadline.inc(len(batch))
        elif failed:
            self._m_errors.inc(len(batch))
        lo = 0
        for req, record in zip(batch, records):
            if served:
                req.future.set_result(outcome[lo : lo + record.samples])
                lo += record.samples
            elif failed:
                req.future.set_exception(outcome)
            record.resolved_at = time.perf_counter()
            self._request_resolved()

    # ------------------------------------------------------------------ #
    # Recovery plumbing.
    # ------------------------------------------------------------------ #
    def _dispatch(self, inputs: np.ndarray) -> np.ndarray:
        # lint: disable=guarded-field — set-once pointer published before
        # _degraded flips; never rebound, so the unlocked read is stable
        fallback = self._fallback_pool
        if self._degraded and fallback is not None:
            self._m_fallback.inc()
            return fallback.run(inputs)
        with self._exec_cond:
            executor = self.executor
            self._inflight[executor] += 1
        try:
            return executor.run(inputs)
        finally:
            with self._exec_cond:
                self._inflight[executor] -= 1
                self._exec_cond.notify_all()

    def _note_degraded(self) -> bool:
        """Pin the engine to its in-process fallback once the pool collapses.

        Returns ``True`` when degraded serving is active, building and
        installing the fallback :class:`PlanExecutor` on first use.  An
        open circuit breaker never closes on its own, so once collapsed
        the pool is not probed again — every later batch goes straight to
        the fallback.
        """
        if not self._degraded and not self.executor.degraded:
            return False
        with self._fallback_lock:
            if self._fallback_pool is None:
                self._fallback_pool = PlanExecutor(
                    self.executor.model, self.executor.plan
                ).install()
        self._degraded = True
        return True

    # ------------------------------------------------------------------ #
    def report(self) -> ServeReport:
        """Latency/throughput report over every request served so far.

        Holds the served records only (failed, expired and cancelled ones
        are in :meth:`records`).  The record list is snapshotted under the
        stats lock (batches land atomically, so a mid-batch report never
        sees a torn micro-batch), and the report carries the engine's live
        latency histogram, so ``p50``/``p95``/``p99`` are bucket-exact with
        what ``/metrics`` exports.
        """
        with self._state_lock:
            started, stopped = self._started_at, self._stopped_at
        end = stopped if stopped > started else time.perf_counter()
        with self._stats_lock:
            records = list(self._records)
        wall = max(0.0, end - started) if started else 0.0
        return ServeReport(
            requests=[r for r in records if r.error is None],
            wall_time=wall,
            histogram=self._m_latency.snapshot(),
        )

    @staticmethod
    def _tally(base: tuple, executors) -> tuple:
        """``base`` (stats, worker stats, respawns, deaths) plus ``executors``'."""
        stats, workers, respawns, deaths = base
        for executor in executors:
            stats = stats.merged_with(executor.stats())
            workers = workers + executor.worker_stats()
            respawns += executor.respawns
            deaths += executor.deaths
        return stats, workers, respawns, deaths

    def _fleet(self) -> tuple[ExecutorStats, list[WorkerStat], int, int]:
        """Totals over every executor this engine has served through: the
        retired ones' folded counts plus the executors still counting."""
        with self._exec_cond:
            base = self._retired
            counting = [e for e in (self._retiring, self.executor) if e is not None]
        return self._tally(base, counting)

    def stats(self) -> ExecutorStats:
        """Per-layer counters and forward totals across plan swaps: what
        every executor this engine served through has counted, the
        current one included.  A swap's reference forward counts on the
        live executor that ran it; the candidate's canary counts nowhere."""
        return self._fleet()[0]

    def records(self) -> list[RequestStats]:
        """One record per request admitted since :meth:`start` and resolved
        so far — served, failed, expired and cancelled — oldest first."""
        with self._stats_lock:
            return list(self._records)

    def healthz(self) -> tuple[bool, dict]:
        """Liveness with degradation: ``ok`` / ``draining`` / ``degraded``
        / ``dead``.

        A running engine reports ``ok``, ``draining`` or ``degraded``, all
        of which scrape as HTTP 200 — a draining server is finishing
        admitted work before a planned stop, and a degraded one is still
        answering, just without its pool (in-process fallback, or
        mid-respawn with no worker up right now).  ``dead`` means the
        engine is stopped and scrapes as 503.
        """
        workers = self.executor.worker_stats()
        alive = sum(1 for w in workers if w.alive)
        with self._state_lock:
            running, draining = self._running, self._draining
        if not running:
            status = "dead"
        elif draining:
            # Still healthy — finishing admitted work, refusing new work.
            # Load balancers read this as "stop routing here" while the
            # scrape stays 200 (the server is leaving, not failing).
            status = "draining"
        elif self._degraded or self.executor.degraded or alive == 0:
            # Serving through the in-process fallback, or no worker up
            # *right now* while the supervisor respawns one.
            status = "degraded"
        else:
            status = "ok"
        return status != "dead", {
            "status": status,
            "running": running,
            "workers_alive": alive,
            "workers_total": len(workers),
            "queue_depth": self.queue_depth,
            # lint: disable=guarded-field — set-once pointer, snapshot read
            "fallback_active": self._fallback_pool is not None and self._degraded,
        }

    def metrics_snapshot(self) -> dict:
        """One coherent scrape: engine registry + pool views, merged.

        The engine's own histograms/counters are recorded live on the hot
        path; everything pool-side (per-layer GEMM histograms merged across
        all workers — processes included, via the counters they ship with
        replies — per-worker liveness) is assembled at
        scrape time from :meth:`stats` and the executors' worker stats, so
        scraping costs the scraper, not the serving path.  Executors a swap
        retired stay in every series, so no exported total goes backwards.
        """
        snaps = [self.metrics.snapshot()]
        registry = MetricsRegistry()
        stats, workers, respawns, deaths = self._fleet()
        backends = {
            name: (lp.backend if lp.mode == "compiled" else lp.mode)
            for name, lp in self.executor.plan.layers.items()
        }
        export_executor_stats(registry, stats, backends)
        alive_g = registry.gauge(
            "tasd_worker_alive", "1 while the pool worker is serving", labels=("worker",)
        )
        served_c = registry.counter(
            "tasd_worker_requests_total", "Forwards served per pool worker", labels=("worker",)
        )
        for w in workers:
            alive_g.labels(worker=str(w.uid)).set(1.0 if w.alive else 0.0)
            served_c.labels(worker=str(w.uid)).inc(w.requests)
        registry.gauge("tasd_serve_queue_depth", "Requests waiting in the queue").set(
            self.queue_depth
        )
        registry.gauge("tasd_serve_running", "1 while the engine accepts requests").set(
            1.0 if self.running else 0.0
        )
        # Recovery telemetry: pools count deaths/respawns on their own
        # attributes (no registry on the hot path); exported here at scrape
        # time alongside the engine's degradation state.
        registry.counter(
            "tasd_worker_respawns_total", "Workers respawned by the pool supervisor"
        ).inc(respawns)
        registry.counter(
            "tasd_worker_deaths_total", "Pool workers retired after dying"
        ).inc(deaths)
        degraded = self._degraded or self.executor.degraded
        registry.gauge(
            "tasd_serve_degraded",
            "1 while the pool has collapsed and the engine serves degraded",
        ).set(1.0 if degraded else 0.0)
        snaps.append(registry.snapshot())
        return merge_snapshots(*snaps)

    def statusz(self) -> str:
        """The report summary plus the newest records, newest first,
        whatever their outcome — the ``/statusz`` body."""
        with self._stats_lock:
            recent = self._records[-_STATUSZ_ROWS:][::-1]
            total = len(self._records)
        header = (
            f"{'request':>8s} {'batch':>5s} {'samples':>7s} "
            f"{'enqueue_ms':>10s} {'form_ms':>8s} {'execute_ms':>10s} "
            f"{'reply_ms':>8s} {'total_ms':>9s}  status"
        )
        lines = [
            self.report().summary(),
            "",
            f"recent requests: showing {len(recent)} of {total} recorded",
            header,
            "-" * len(header),
        ]
        for r in recent:
            ms = {name: seconds * 1e3 for name, seconds in r.spans().items()}
            status = r.error or "ok"
            if r.attempts > 1:  # crash-recovery retries are worth seeing
                status = f"{status} (x{r.attempts})"
            lines.append(
                f"{r.request_id:>8d} {r.batch_size:>5d} {r.samples:>7d} "
                f"{ms['enqueue']:>10.2f} {ms['batch_form']:>8.2f} "
                f"{ms['execute']:>10.2f} {ms['reply']:>8.2f} "
                f"{sum(ms.values()):>9.2f}  {status}"
            )
        return "\n".join(lines) + "\n"

    def serve_metrics(self, port: int = 0, host: str = "127.0.0.1") -> MetricsServer:
        """Expose this engine's telemetry over HTTP (``/metrics``,
        ``/metrics.json``, ``/healthz``, ``/statusz``).

        ``port=0`` binds an ephemeral port (read ``server.port``).  The
        server runs on a daemon thread and outlives ``stop()`` — a stopped
        engine scrapes as unhealthy rather than connection-refused — so
        callers own its lifetime (``server.close()`` or use it as a
        context manager).
        """
        return MetricsServer(
            snapshot_fn=self.metrics_snapshot,
            health_fn=self.healthz,
            status_fn=self.statusz,
            host=host,
            port=port,
        )
