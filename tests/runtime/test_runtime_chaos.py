"""Fault-injection tests: the recovery paths normal traffic never runs.

Every test here breaks the serving system on purpose — with the
:mod:`repro.runtime.chaos` injectors — and asserts the documented
recovery contract: dead workers respawn (bounded by the circuit
breaker), in-flight batches retry without the client noticing, poison
inputs are isolated from their batchmates by splitting, deadlines and
admission control shed work typed-ly, and a collapsed pool degrades the
engine onto the in-process fallback instead of going down.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core import TASDConfig
from repro.nn import Linear, Sequential
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    ChaosMonkey,
    ChaosSpec,
    DeadlineExceeded,
    PlanExecutor,
    ProcessWorkerPool,
    QueueFull,
    ServingEngine,
    SwapRejected,
    WorkerCrashError,
    compile_plan,
    is_poisoned,
    poison_batch,
    skewed_plan,
)
from repro.tasder.transform import TASDTransform

CFG = TASDConfig.parse("2:4")

# Fast supervision knobs for tests: detect and respawn within tens of ms.
FAST = dict(respawn_backoff=0.01, backoff_cap=0.1, health_interval=0.05)


def _small_model():
    model = Sequential(Linear(32, 48), Linear(48, 16))
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    return model, transform


@pytest.fixture(scope="module")
def compiled():
    model, transform = _small_model()
    plan = compile_plan(model, transform)
    return model, plan


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(7).normal(size=(2, 32))


@pytest.fixture(scope="module")
def reference(compiled, batch):
    model, plan = compiled
    return PlanExecutor(model, plan).install().run(batch)


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# --------------------------------------------------------------------- #
# Worker-side injectors (ChaosSpec)
# --------------------------------------------------------------------- #
class TestChaosSpec:
    def test_crash_on_nth_raises_typed_crash_error(self, compiled, batch):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model, plan, workers=1, chaos=ChaosSpec(crash_on_nth=2)
        )
        with pool:
            pool.install()
            pool.run(batch)  # first request survives
            with pytest.raises(WorkerCrashError, match="died mid-request"):
                pool.run(batch)
            assert pool.deaths == 1

    def test_respawned_worker_serves_bit_identical(self, compiled, batch, reference):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model, plan, workers=1, chaos=ChaosSpec(crash_on_nth=3), **FAST
        )
        with pool:
            pool.install()
            assert np.array_equal(pool.run(batch), reference)
            assert np.array_equal(pool.run(batch), reference)
            with pytest.raises(WorkerCrashError):
                pool.run(batch)  # this worker's third request kills it
            assert _wait_until(lambda: pool.respawns >= 1 and len(pool.worker_pids()) == 1)
            # The respawned worker counts its own requests from 1 again.
            assert np.array_equal(pool.run(batch), reference)

    def test_hang_detected_by_request_timeout(self, compiled, batch, reference):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model,
            plan,
            workers=1,
            chaos=ChaosSpec(hang_on_nth=3, hang_seconds=30.0),
            request_timeout=0.3,
            **FAST,
        )
        with pool:
            pool.install()
            pool.run(batch)
            pool.run(batch)
            with pytest.raises(WorkerCrashError, match="missed its 0.3s reply deadline"):
                pool.run(batch)
            # The wedged worker was retired and replaced; its successor's
            # request counter starts fresh, so serving resumes.
            assert _wait_until(lambda: pool.respawns >= 1 and len(pool.worker_pids()) == 1)
            assert np.array_equal(pool.run(batch), reference)

    def test_slow_worker_still_correct(self, compiled, batch, reference):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model, plan, workers=1, chaos=ChaosSpec(slow_seconds=0.05)
        )
        with pool:
            pool.install()
            assert np.array_equal(pool.run(batch), reference)
            assert pool.deaths == 0

    def test_die_on_start_fails_install_without_leaking_children(self, compiled):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model, plan, workers=2, chaos=ChaosSpec(die_on_start=True)
        )
        with pytest.raises(RuntimeError, match="died during startup"):
            pool.install()
        assert multiprocessing.active_children() == []

    def test_hang_on_start_trips_start_timeout_and_cleans_up(self, compiled):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model,
            plan,
            workers=2,
            chaos=ChaosSpec(hang_on_start=30.0),
            start_timeout=0.3,
        )
        with pytest.raises(RuntimeError, match="did not report ready within"):
            pool.install()
        assert multiprocessing.active_children() == []

    def test_poison_marker_roundtrip(self, batch):
        marked = poison_batch(batch)
        assert is_poisoned(marked)
        assert not is_poisoned(batch)
        assert marked is not batch  # original request left untouched


# --------------------------------------------------------------------- #
# Engine-level recovery: retries, splitting, fallback
# --------------------------------------------------------------------- #
class TestEngineRecovery:
    def test_worker_crash_is_invisible_to_clients(self, compiled, batch, reference):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model, plan, workers=2, chaos=ChaosSpec(crash_on_nth=3), **FAST
        )
        with pool:
            with ServingEngine(pool, workers=2, max_batch=2, max_retries=3) as engine:
                outputs = [engine.infer(batch, timeout=60.0) for _ in range(12)]
                assert all(np.array_equal(y, reference) for y in outputs)
                report = engine.report()
                assert len(report.requests) == 12
                retried = [s for s in report.requests if s.attempts > 1]
                assert retried, "crashes happened but no request recorded a retry"
            assert pool.deaths >= 1
            assert pool.respawns >= 1

    def test_poison_request_isolated_from_batchmates(
        self, compiled, batch, reference, gated, batches
    ):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model,
            plan,
            workers=2,
            chaos=ChaosSpec(),  # poison marker active, no other faults
            max_respawns=20,
            **FAST,
        )
        with pool:
            gate = gated(pool)
            engine = ServingEngine(gate, workers=1, max_batch=4, max_retries=1)
            with engine:
                # Queue all four behind a plug, so they form one batch.
                gate.hold()
                plug = engine.submit(batch)
                assert gate.entered.wait(30.0)
                good = [engine.submit(batch) for _ in range(2)]
                bad = engine.submit(poison_batch(batch))
                more = engine.submit(batch)
                gate.release()
                for f in [plug] + good + [more]:
                    assert np.array_equal(f.result(timeout=60.0), reference)
                with pytest.raises(WorkerCrashError):
                    bad.result(timeout=60.0)
                records = {r.request_id: r for r in engine.records()}
        # The batch [1, 2, bad, 4] crashed twice (one retry), then split:
        # [1, 2] was served on its first try; [bad, 4] crashed twice and
        # split again, and 4 was served alone.  The poison request failed
        # alone after its own two attempts.
        assert {i: r.attempts for i, r in records.items()} == {0: 1, 1: 3, 2: 3, 3: 6, 4: 5}
        assert batches([r for r in records.values() if r.error is None]) == [[0], [1, 2], [4]]
        assert "WorkerCrashError" in records[3].error
        assert pool.deaths >= 6

    def test_breaker_collapse_degrades_to_in_process_fallback(
        self, compiled, batch, reference
    ):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model,
            plan,
            workers=1,
            chaos=ChaosSpec(crash_on_nth=1),  # every request kills its worker
            max_respawns=2,
            respawn_window=60.0,
            **FAST,
        )
        with pool:
            with ServingEngine(pool, workers=1, max_batch=2, max_retries=8) as engine:
                y = engine.infer(batch, timeout=60.0)  # survives via the fallback
                assert np.array_equal(y, reference)
                assert _wait_until(lambda: pool.degraded)
                ok, detail = engine.healthz()
                assert ok  # degraded still scrapes 200
                assert detail["status"] == "degraded"
                assert detail["fallback_active"]
                # Later traffic goes straight to the fallback executor.
                assert np.array_equal(engine.infer(batch, timeout=60.0), reference)
                snap = engine.metrics_snapshot()
                assert snap["tasd_serve_degraded"]["series"][0]["value"] == 1.0
                assert (
                    snap["tasd_serve_fallback_batches_total"]["series"][0]["value"] >= 1
                )
        # The engine built the fallback, so stopping closed it: the plan
        # it installed on the shared model is gone again.
        assert all(
            layer.compiled_plan is None for _, layer in gemm_layers(model, include_head=True)
        )

    def test_every_worker_killed_at_once_serves_on(
        self, compiled, batch, reference, monkeypatch
    ):
        """SIGKILL the whole fleet behind a running engine while the
        supervisor's respawns are held: the request's retries retire both
        workers and it waits for a free one, /healthz scrapes HTTP 200
        ``degraded`` with no worker alive, and once respawns resume the
        request equals PlanExecutor bit for bit."""
        model, plan = compiled
        pool = ProcessWorkerPool(model, plan, workers=2, **FAST)
        held = threading.Event()
        respawn_deficit = pool._respawn_deficit
        monkeypatch.setattr(
            pool, "_respawn_deficit", lambda: None if held.is_set() else respawn_deficit()
        )
        with pool:
            with ServingEngine(pool, workers=1, max_batch=2, max_retries=2) as engine:
                with engine.serve_metrics(port=0) as server:
                    assert np.array_equal(engine.infer(batch, timeout=60.0), reference)
                    # Hold the respawns, and let a pass already under way
                    # finish before the kills.
                    held.set()
                    try:
                        time.sleep(20 * FAST["health_interval"])
                        workers = list(pool._procs.values())
                        assert len(workers) == 2
                        for worker in workers:
                            os.kill(worker.process.pid, signal.SIGKILL)
                        assert _wait_until(
                            lambda: not any(w.process.is_alive() for w in workers)
                        )
                        future = engine.submit(batch)
                        assert _wait_until(lambda: pool.deaths == 2)
                        assert not future.done()  # waiting for a free worker
                        with urllib.request.urlopen(
                            server.url + "/healthz", timeout=10.0
                        ) as resp:
                            status, detail = resp.status, json.loads(resp.read())
                        assert status == 200
                        assert detail["status"] == "degraded"
                        assert detail["workers_alive"] == 0
                        assert pool.respawns == 0
                    finally:
                        held.clear()
                        pool._wake.set()
                    assert np.array_equal(future.result(timeout=60.0), reference)
                    assert _wait_until(lambda: len(pool.worker_pids()) == 2)


# --------------------------------------------------------------------- #
# External kills (ChaosMonkey): the acceptance scenario
# --------------------------------------------------------------------- #
class TestChaosMonkey:
    def test_kill_one_targets_live_worker(self, compiled):
        model, plan = compiled
        pool = ProcessWorkerPool(model, plan, workers=2)
        with pool:
            pool.install()
            monkey = ChaosMonkey(pool)
            victim = monkey.kill_one()
            assert victim is not None
            assert monkey.kills == 1
        assert ChaosMonkey(pool).kill_one() is None  # closed pool: nothing to kill

    def test_kills_under_load_are_invisible_and_pool_recovers(
        self, compiled, batch, reference
    ):
        model, plan = compiled
        pool = ProcessWorkerPool(
            model,
            plan,
            workers=2,
            max_respawns=50,
            respawn_window=60.0,
            **FAST,
        )
        with pool:
            with ServingEngine(pool, workers=2, max_batch=2, max_retries=4) as engine:
                monkey = ChaosMonkey(pool)
                outputs = []
                for i in range(30):
                    if i % 5 == 0:
                        monkey.kill_one()  # SIGKILL a live worker mid-stream
                    outputs.append(engine.infer(batch, timeout=60.0))
                assert monkey.kills >= 5
                # Zero client-visible failures, bit-identical outputs.
                assert all(np.array_equal(y, reference) for y in outputs)
            # The supervisor returns the pool to its configured size.
            assert _wait_until(lambda: len(pool.worker_pids()) == 2)
            assert pool.respawns >= monkey.kills - pool.workers  # bounded bookkeeping
            ok, _ = ServingEngine(pool).healthz()  # engine stopped -> dead is fine


# --------------------------------------------------------------------- #
# Deadlines, admission control, cancellation
# --------------------------------------------------------------------- #
class TestDeadlinesAndAdmission:
    def test_expired_deadline_dropped_before_dispatch(self, compiled, batch, gated):
        model, plan = compiled
        gate = gated(PlanExecutor(model, plan))
        with ServingEngine(gate, workers=1) as engine:
            # The worker is busy with a plug while the deadline lapses, so
            # the request is still queued when it expires.
            gate.hold()
            plug = engine.submit(batch)
            assert gate.entered.wait(30.0)
            future = engine.submit(batch, deadline=1e-4)
            time.sleep(0.02)
            gate.release()
            plug.result(timeout=30.0)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30.0)
            record = engine.records()[-1]
            assert record.error is not None and "DeadlineExceeded" in record.error
            snap = engine.metrics_snapshot()
            assert (
                snap["tasd_serve_deadline_exceeded_total"]["series"][0]["value"] >= 1
            )

    def test_deadline_zero_or_negative_rejected(self, compiled, batch):
        model, plan = compiled
        with ServingEngine(PlanExecutor(model, plan), workers=1) as engine:
            with pytest.raises(ValueError, match="deadline must be positive"):
                engine.submit(batch, deadline=0.0)

    def test_unexpired_deadline_serves_normally(self, compiled, batch, reference):
        model, plan = compiled
        with ServingEngine(PlanExecutor(model, plan), workers=1) as engine:
            y = engine.infer(batch, timeout=30.0, deadline=30.0)
            assert np.array_equal(y, reference)

    def test_queue_full_sheds_typed(self, compiled, batch):
        model, plan = compiled

        class SlowPool(PlanExecutor):
            def run(self, x):
                time.sleep(0.1)
                return super().run(x)

        engine = ServingEngine(
            SlowPool(model, plan), workers=1, max_batch=1, max_queue=2
        )
        with engine:
            with pytest.raises(QueueFull, match="max_queue bound"):
                for _ in range(40):  # 1 in flight + 2 queued, the rest must shed
                    engine.submit(batch)
            snap = engine.metrics_snapshot()
            assert snap["tasd_serve_queue_rejected_total"]["series"][0]["value"] >= 1

    def test_timed_out_infer_is_cancelled_not_computed(self, compiled, batch):
        model, plan = compiled
        served = multiprocessing.Value("i", 0)  # process-safe is overkill; fine

        class SlowCountingPool(PlanExecutor):
            def run(self, x):
                time.sleep(0.15)
                with served.get_lock():
                    served.value += x.shape[0] // batch.shape[0]
                return super().run(x)

        engine = ServingEngine(
            SlowCountingPool(model, plan), workers=1, max_batch=1
        )
        with engine:
            engine.submit(batch)  # occupies the worker
            with pytest.raises(TimeoutError):
                engine.infer(batch, timeout=0.01)  # gives up while still queued
            time.sleep(0.5)  # let the loop drain
        # Only the first request was computed; the abandoned one was skipped.
        assert served.value == 1
        cancelled = [r for r in engine.records() if r.error == "cancelled"]
        assert len(cancelled) == 1

    def test_max_queue_validation(self, compiled):
        model, plan = compiled
        with pytest.raises(ValueError, match="max_queue"):
            ServingEngine(PlanExecutor(model, plan), max_queue=0)
        with pytest.raises(ValueError, match="max_retries"):
            ServingEngine(PlanExecutor(model, plan), max_retries=-1)


def _recompiled_plan(model):
    """A fresh compilation over the live model's weights (swap candidate)."""
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    return compile_plan(model, transform)


class TestSwapUnderChaos:
    """A plan swap must absorb worker deaths: a candidate that cannot
    start is rejected with the live pool serving on, and a candidate
    worker that dies after the canary is respawned by the candidate's own
    supervisor once it serves — never a stranded request, never a leaked
    process or shared-memory segment, never a pool holding two plans."""

    def test_candidate_workers_dying_on_start_reject_the_swap(
        self, compiled, batch, reference
    ):
        model, plan = compiled
        candidate = _recompiled_plan(model)
        with ProcessWorkerPool(model, plan, workers=2, **FAST) as pool:
            with ServingEngine(pool, max_batch=2) as engine:
                np.testing.assert_array_equal(engine.infer(batch), reference)
                segments_before = (
                    set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else None
                )
                # The candidate inherits the live pool's chaos spec.
                pool.chaos = ChaosSpec(die_on_start=True)
                try:
                    with pytest.raises(SwapRejected, match="failed to start"):
                        engine.swap_plan(candidate, canary=batch)
                finally:
                    pool.chaos = None
                if segments_before is not None:
                    leaked = set(os.listdir("/dev/shm")) - segments_before
                    assert not leaked, f"swap leaked shm segments: {leaked}"
                assert {p.pid for p in multiprocessing.active_children()} == set(
                    pool.worker_pids()
                ), "the failed candidate's workers were not reaped"
                assert engine.executor is pool and pool.plan is plan
                np.testing.assert_array_equal(engine.infer(batch), reference)
                snap = engine.metrics_snapshot()
                assert snap["tasd_swap_rollbacks_total"]["series"][0]["value"] == 1.0

    def test_candidate_worker_killed_after_canary_is_respawned(
        self, compiled, batch, reference, monkeypatch
    ):
        # The casualty falls after the canary validated the candidate:
        # the swap commits, and the candidate's supervisor respawns the
        # dead worker with the candidate's plan.
        model, plan = compiled
        candidate = _recompiled_plan(model)
        with ProcessWorkerPool(model, plan, workers=3, max_respawns=50, **FAST) as pool:
            real_with_plan = pool.with_plan
            victims = []

            def with_plan(new_plan):
                built = real_with_plan(new_plan)
                real_reset = built.reset_stats

                def reset_after_a_kill():  # the engine's last step before commit
                    victims.append(built.worker_pids()[0])
                    os.kill(victims[0], signal.SIGKILL)
                    real_reset()

                built.reset_stats = reset_after_a_kill
                return built

            monkeypatch.setattr(pool, "with_plan", with_plan)
            with ServingEngine(pool, max_batch=2, max_retries=4) as engine:
                np.testing.assert_array_equal(engine.infer(batch), reference)
                engine.swap_plan(candidate, canary=batch)
                new = engine.executor
                assert new is not pool and new.plan is candidate
                assert pool.worker_pids() == []
                assert _wait_until(
                    lambda: len(new.worker_pids()) == 3 and victims[0] not in new.worker_pids()
                )
                assert new.respawns >= 1
                for _ in range(4):
                    np.testing.assert_array_equal(engine.infer(batch), reference)

    def test_poisoned_artifact_rejected_while_serving(
        self, compiled, batch, reference
    ):
        # A corrupt artifact that passes the weight-identity gate must die
        # at the canary, with requests flowing before, during, and after.
        model, plan = compiled
        bad = skewed_plan(_recompiled_plan(model))
        with ProcessWorkerPool(model, plan, workers=2, **FAST) as pool:
            with ServingEngine(pool, max_batch=2, workers=2) as engine:
                futures = [engine.submit(batch) for _ in range(8)]
                with pytest.raises(SwapRejected) as excinfo:
                    engine.swap_plan(bad)
                assert "diverge" in excinfo.value.reason
                futures += [engine.submit(batch) for _ in range(8)]
                for f in futures:
                    np.testing.assert_allclose(f.result(timeout=120.0), reference)
                assert engine.executor is pool and pool.plan is plan
