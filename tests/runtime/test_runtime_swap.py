"""Zero-downtime operations: hot plan-swap and graceful drain.

The serving engine promises that a plan upgrade is invisible to clients:
a canary batch validates the candidate on one worker before the fleet
rolls, any mismatch (wrong weights, corrupt arithmetic, crash, latency
blow-up) raises a typed :class:`SwapRejected` with the old plan still
serving, and a committed swap changes *nothing* observable — the exact
backends make swapped outputs bit-identical.  Drain is the same promise
at shutdown: everything admitted finishes, everything late is rejected
typed-ly.  These tests pin all of it, plus the exact queue-depth counter
that replaced the approximate ``Queue.qsize()`` read.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import TASDConfig
from repro.nn import Linear, Sequential
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    DeadlineExceeded,
    PlanExecutor,
    PlanSwapError,
    ProcessWorkerPool,
    QueueFull,
    ServingEngine,
    SwapRejected,
    compile_plan,
    load_plan,
    plan_fingerprint,
    save_plan,
    skewed_plan,
)
from repro.tasder.transform import TASDTransform

CFG = TASDConfig.parse("2:4")

# Fast supervision knobs: detect worker faults within tens of ms.
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
def candidate(compiled):
    """A second, independently compiled plan over the *same* weights.

    Exact backends make it compute bit-for-bit the same function as the
    live plan — the stand-in for a re-tuned/re-laid-out artifact rollout.
    """
    model, _ = compiled
    _, transform = _small_model()
    return compile_plan(model, transform)


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(7).normal(size=(4, 32))


@pytest.fixture(scope="module")
def reference(compiled, batch):
    model, plan = compiled
    return PlanExecutor(model, plan).install().run(batch)


def _foreign_plan():
    """A plan compiled from genuinely different weights (fingerprint mismatch)."""
    model, _ = _small_model()
    next(iter(model.parameters())).data += 0.01
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    return compile_plan(model, transform)


# --------------------------------------------------------------------- #
# Executor-level swap: PlanExecutor, ProcessWorkerPool
# --------------------------------------------------------------------- #
class TestExecutorSwap:
    def test_plan_executor_swap_commits(self, compiled, candidate, batch, reference):
        model, plan = compiled
        with PlanExecutor(model, plan) as executor:
            before = executor.run(batch)
            ran = []
            swapped = executor.swap_plan(
                candidate, canary=lambda run: ran.append(run(batch))
            )
            assert swapped == 1 and len(ran) == 1
            assert executor.plan is candidate
            np.testing.assert_array_equal(executor.run(batch), before)

    def test_plan_executor_swap_rolls_back_on_canary_failure(
        self, compiled, candidate, batch, reference
    ):
        model, plan = compiled
        with PlanExecutor(model, plan) as executor:

            def failing_canary(run):
                run(batch)
                raise AssertionError("canary says no")

            with pytest.raises(AssertionError):
                executor.swap_plan(candidate, canary=failing_canary)
            assert executor.plan is plan
            np.testing.assert_allclose(executor.run(batch), reference)

    def test_plan_executor_refuses_a_plan_it_cannot_install(
        self, compiled, batch, reference
    ):
        model, plan = compiled
        _, transform = _small_model()
        uninstallable = compile_plan(model, transform)
        layer = next(lp for lp in uninstallable.layers.values() if lp.mode == "compiled")
        layer.backend = "no-such-backend"
        with PlanExecutor(model, plan) as executor:
            with pytest.raises(PlanSwapError, match="no-such-backend"):
                executor.swap_plan(uninstallable)
            assert executor.plan is plan
            np.testing.assert_array_equal(executor.run(batch), reference)
            with ServingEngine(executor) as engine:
                with pytest.raises(SwapRejected, match="no-such-backend"):
                    engine.swap_plan(uninstallable, canary=batch)
            assert executor.plan is plan
            np.testing.assert_array_equal(executor.run(batch), reference)

    def test_process_pool_swap_rolls_all_workers(
        self, compiled, candidate, batch, reference
    ):
        model, plan = compiled
        with ProcessWorkerPool(model, plan, workers=2, **FAST) as pool:
            before = pool.run(batch)
            swapped = pool.swap_plan(
                candidate,
                canary=lambda run: np.testing.assert_allclose(run(batch), reference),
            )
            assert swapped == 2
            assert pool.plan is candidate
            np.testing.assert_array_equal(pool.run(batch), before)

    def test_respawn_after_committed_swap_serves_the_committed_plan(
        self, compiled, batch, reference
    ):
        model, plan = compiled
        skewed = skewed_plan(plan)
        with PlanExecutor(model, skewed) as executor:
            expected = executor.run(batch)
        assert not np.allclose(expected, reference)
        with ProcessWorkerPool(model, plan, workers=2, **FAST) as pool:
            pool.swap_plan(skewed)
            victims = set(pool.worker_pids())
            for pid in victims:
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while pool.respawns < 2 or victims & set(pool.worker_pids()):
                assert time.monotonic() < deadline, "killed workers were not respawned"
                time.sleep(0.02)
            for _ in range(4):
                np.testing.assert_array_equal(pool.run(batch), expected)

    def test_process_pool_worker_rejecting_the_spec_stays_in_service(
        self, compiled, batch, reference
    ):
        """A worker that cannot install the new plan keeps serving the old
        plan from the free queue, so the pool stays full and close() can
        bring every worker home."""
        model, plan = compiled
        _, transform = _small_model()
        uninstallable = compile_plan(model, transform)
        layer = next(lp for lp in uninstallable.layers.values() if lp.mode == "compiled")
        layer.backend = "no-such-backend"  # refused by the worker's install
        pool = ProcessWorkerPool(model, plan, workers=2, **FAST).install()
        try:
            with pytest.raises(PlanSwapError, match="failed to install"):
                pool.swap_plan(uninstallable)
            assert pool.plan is plan
            assert len(pool.worker_pids()) == 2
            for _ in range(4):
                np.testing.assert_array_equal(pool.run(batch), reference)
        finally:
            closer = threading.Thread(target=pool.close, daemon=True)
            closer.start()
            closer.join(timeout=30.0)
        assert not closer.is_alive(), "close() waited forever for a checked-out worker"

    def test_process_pool_swap_rolls_back_on_canary_rejection(
        self, compiled, batch, reference
    ):
        model, plan = compiled
        with ProcessWorkerPool(model, plan, workers=2, **FAST) as pool:
            pool.run(batch)
            with pytest.raises(AssertionError):
                pool.swap_plan(
                    skewed_plan(plan),
                    canary=lambda run: np.testing.assert_allclose(
                        run(batch), reference
                    ),
                )
            assert pool.plan is plan
            np.testing.assert_allclose(pool.run(batch), reference)

    def test_canary_rejected_worker_never_serves_live_traffic(
        self, compiled, batch, reference, monkeypatch
    ):
        """A run() waiting for a worker while the canary rejects the plan
        gets the worker back on the old plan, however slow the rollback."""
        model, plan = compiled
        with ProcessWorkerPool(model, plan, workers=1, **FAST) as pool:
            pool.run(batch)
            rollback = pool._rollback_swapped

            def slow_rollback(swapped, old_plan):
                time.sleep(0.3)  # every chance for the waiter to go first
                rollback(swapped, old_plan)

            monkeypatch.setattr(pool, "_rollback_swapped", slow_rollback)
            outputs = []
            waiter = threading.Thread(target=lambda: outputs.append(pool.run(batch)))

            def canary(run):
                waiter.start()  # the only worker is held out: it waits
                time.sleep(0.1)
                np.testing.assert_allclose(run(batch), reference)

            with pytest.raises(AssertionError):
                pool.swap_plan(skewed_plan(plan), canary=canary)
            waiter.join(timeout=30.0)
            assert not waiter.is_alive()
            np.testing.assert_array_equal(outputs[0], reference)
            assert pool.plan is plan

    @pytest.mark.parametrize("canary", [False, True], ids=["no-canary", "canary"])
    @pytest.mark.parametrize("substrate", ["executor", "pool"])
    def test_stats_keep_every_count_across_a_swap(self, batch, substrate, canary):
        # The candidate already served under another executor: none of
        # those counts may leak into this substrate's stats, and none of
        # the substrate's own pre-swap counts may be lost.
        model, transform = _small_model()
        plan, candidate = compile_plan(model, transform), compile_plan(model, transform)
        with PlanExecutor(model, candidate) as other:
            for _ in range(3):
                other.run(batch)
        if substrate == "executor":
            substrate_cm = PlanExecutor(model, plan)
        else:
            substrate_cm = ProcessWorkerPool(model, plan, workers=2, **FAST)
        with substrate_cm as pool:
            for _ in range(4):
                pool.run(batch)
            pool.swap_plan(candidate, canary=(lambda run: run(batch)) if canary else None)
            pool.run(batch)
            stats = pool.stats()
        # A PlanExecutor canaries through its own run(), a counted batch; a
        # pool worker's canary probe is counted nowhere.
        expected = 6 if canary and substrate == "executor" else 5
        assert stats.batches == expected
        assert {name: c.calls for name, c in stats.layers.items()} == dict.fromkeys(
            plan.layers, expected
        )


# --------------------------------------------------------------------- #
# Engine-level swap: canary gate, typed rejection, rollback accounting
# --------------------------------------------------------------------- #
class TestEngineSwap:
    def test_swap_under_load_zero_failures_bit_identical(
        self, compiled, candidate, batch
    ):
        """The tentpole scenario: a hot swap mid-stream changes nothing."""
        model, plan = compiled
        rng = np.random.default_rng(21)
        inputs = [rng.normal(size=(2, 32)) for _ in range(40)]
        with PlanExecutor(model, plan) as executor:
            expected = [executor.run(x) for x in inputs]
        # max_batch == the per-request sample count pins batch composition:
        # every request computes exactly the GEMM the reference ran, so
        # bit-identity across the swap is well-defined.
        with ProcessWorkerPool(model, plan, workers=2, **FAST) as pool:
            with ServingEngine(
                pool, max_batch=2, batch_window=0.01, workers=2
            ) as engine:
                futures = [engine.submit(x) for x in inputs[:20]]
                info = engine.swap_plan(candidate, canary=batch)
                futures += [engine.submit(x) for x in inputs[20:]]
                outputs = [f.result(timeout=120.0) for f in futures]
        assert info["swapped_workers"] == 2
        assert info["canary_samples"] == batch.shape[0]
        for i, (got, want) in enumerate(zip(outputs, expected)):
            np.testing.assert_array_equal(
                got, want, err_msg=f"request {i} diverged across the hot swap"
            )

    def test_skewed_plan_is_rejected_and_old_plan_keeps_serving(
        self, compiled, candidate, batch, reference
    ):
        model, plan = compiled
        with ProcessWorkerPool(model, plan, workers=2, **FAST) as pool:
            with ServingEngine(pool, max_batch=4, workers=2) as engine:
                np.testing.assert_allclose(engine.infer(batch), reference)
                bad = skewed_plan(candidate)
                # The corrupt copy carries the same weight fingerprint — it
                # gets past the identity gate and must die at the canary.
                assert plan_fingerprint(bad) == plan_fingerprint(plan)
                with pytest.raises(SwapRejected) as excinfo:
                    engine.swap_plan(bad)
                assert "diverge" in excinfo.value.reason
                assert pool.plan is plan
                np.testing.assert_allclose(engine.infer(batch), reference)
                snap = engine.metrics_snapshot()
                assert (
                    snap["tasd_swap_rollbacks_total"]["series"][0]["value"] >= 1.0
                )
                assert snap["tasd_plan_swaps_total"]["series"][0]["value"] == 0.0

    def test_wrong_weights_artifact_rejected_by_fingerprint_gate(
        self, compiled, batch
    ):
        model, plan = compiled
        with PlanExecutor(model, plan) as executor:
            with ServingEngine(executor, max_batch=4) as engine:
                engine.infer(batch)
                with pytest.raises(SwapRejected) as excinfo:
                    engine.swap_plan(_foreign_plan())
                assert "different weights" in excinfo.value.reason
                assert executor.plan is plan

    def test_swap_from_saved_artifact_path(
        self, compiled, candidate, batch, reference, tmp_path
    ):
        model, plan = compiled
        path = str(tmp_path / "candidate.npz")
        save_plan(candidate, path)
        with PlanExecutor(model, plan) as executor:
            with ServingEngine(executor, max_batch=4) as engine:
                engine.infer(batch)
                info = engine.swap_plan(path)
                assert info["swapped_workers"] == 1
                np.testing.assert_allclose(engine.infer(batch), reference)

    def test_swap_from_missing_or_corrupt_artifact_is_typed(
        self, compiled, batch, tmp_path
    ):
        model, plan = compiled
        with PlanExecutor(model, plan) as executor:
            with ServingEngine(executor, max_batch=4) as engine:
                engine.infer(batch)
                with pytest.raises(SwapRejected):
                    engine.swap_plan(str(tmp_path / "missing.npz"))
                corrupt = tmp_path / "corrupt.npz"
                corrupt.write_bytes(b"not an artifact")
                with pytest.raises(SwapRejected):
                    engine.swap_plan(str(corrupt))
                assert executor.plan is plan

    def test_swap_without_canary_batch_is_rejected(self, compiled, candidate):
        model, plan = compiled
        with PlanExecutor(model, plan) as executor:
            with ServingEngine(executor, max_batch=4) as engine:
                # No request served yet and no canary= passed: nothing to
                # validate the candidate against.
                with pytest.raises(SwapRejected) as excinfo:
                    engine.swap_plan(candidate)
                assert "canary" in excinfo.value.reason

    def test_committed_swap_increments_swap_counter(
        self, compiled, candidate, batch
    ):
        model, plan = compiled
        with PlanExecutor(model, plan) as executor:
            with ServingEngine(executor, max_batch=4) as engine:
                engine.infer(batch)
                engine.swap_plan(candidate)
                snap = engine.metrics_snapshot()
                assert snap["tasd_plan_swaps_total"]["series"][0]["value"] == 1.0

    def test_loaded_artifact_roundtrip_matches_fingerprint(
        self, compiled, candidate, tmp_path
    ):
        model, _ = compiled
        path = str(tmp_path / "fp.npz")
        save_plan(candidate, path)
        loaded = load_plan(path, model)
        assert plan_fingerprint(loaded) == plan_fingerprint(candidate)


# --------------------------------------------------------------------- #
# Graceful drain + the exact queue-depth counter
# --------------------------------------------------------------------- #
class _GatedExecutor(PlanExecutor):
    """A PlanExecutor whose forwards block until the test opens the gate."""

    def __init__(self, model, plan):
        super().__init__(model, plan)
        self.gate = threading.Event()
        self.gate.set()

    def run(self, x):
        self.gate.wait(timeout=30.0)
        return super().run(x)


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestDrainAndDepth:
    def test_drain_finishes_admitted_work_then_rejects_typed(
        self, compiled, batch, reference
    ):
        model, plan = compiled
        executor = _GatedExecutor(model, plan).install()
        engine = ServingEngine(executor, max_batch=1, batch_window=0.0, workers=1)
        engine.start()
        executor.gate.clear()
        futures = [engine.submit(batch) for _ in range(4)]
        _wait_until(lambda: engine.queue_depth >= 3)

        drained: list = []
        drainer = threading.Thread(
            target=lambda: drained.append(engine.drain(timeout=30.0))
        )
        drainer.start()
        assert _wait_until(lambda: engine.healthz()[1]["status"] == "draining")
        # The door is closed the moment drain begins...
        with pytest.raises(QueueFull):
            engine.submit(batch)
        # ...but everything already admitted still finishes.
        executor.gate.set()
        drainer.join(timeout=60.0)
        assert drained == [True]
        for f in futures:
            np.testing.assert_allclose(f.result(timeout=1.0), reference)
        assert engine.queue_depth == 0
        assert not engine.running
        with pytest.raises(QueueFull):
            engine.submit(batch)
        snap = engine.metrics_snapshot()
        assert snap["tasd_serve_drain_seconds"]["series"][0]["count"] == 1

    def test_drain_timeout_reports_false_with_work_pending(self, compiled, batch):
        model, plan = compiled
        executor = _GatedExecutor(model, plan).install()
        engine = ServingEngine(executor, max_batch=1, batch_window=0.0, workers=1)
        engine.start()
        executor.gate.clear()
        future = engine.submit(batch)
        try:
            assert engine.drain(timeout=0.05) is False
        finally:
            executor.gate.set()
            future.result(timeout=30.0)

    def test_queue_depth_counter_is_exact(self, compiled, batch, reference):
        model, plan = compiled
        executor = _GatedExecutor(model, plan).install()
        with ServingEngine(
            executor, max_batch=1, batch_window=0.0, workers=1
        ) as engine:
            assert engine.queue_depth == 0
            executor.gate.clear()
            futures = [engine.submit(batch) for _ in range(5)]
            # One request is held by the (blocked) worker; the other four
            # wait in the queue — the counter must say exactly that.
            assert _wait_until(lambda: engine.queue_depth == 4)
            snap = engine.metrics_snapshot()
            assert snap["tasd_serve_queue_depth"]["series"][0]["value"] == 4.0
            executor.gate.set()
            for f in futures:
                np.testing.assert_allclose(f.result(timeout=60.0), reference)
            assert _wait_until(lambda: engine.queue_depth == 0)

    def test_admission_bound_reads_the_exact_counter(self, compiled, batch):
        model, plan = compiled
        executor = _GatedExecutor(model, plan).install()
        with ServingEngine(
            executor, max_batch=1, batch_window=0.0, workers=1, max_queue=2
        ) as engine:
            executor.gate.clear()
            blocker = engine.submit(batch)
            _wait_until(lambda: engine.queue_depth == 0)
            queued = [engine.submit(batch), engine.submit(batch)]
            with pytest.raises(QueueFull):
                engine.submit(batch)
            executor.gate.set()
            for f in [blocker, *queued]:
                f.result(timeout=60.0)

    def test_stop_skips_cancelled_and_expired_leftovers(
        self, compiled, batch, reference
    ):
        model, plan = compiled
        executor = _GatedExecutor(model, plan).install()
        engine = ServingEngine(executor, max_batch=1, batch_window=0.0, workers=1)
        engine.start()
        executor.gate.clear()
        blocker = engine.submit(batch)
        _wait_until(lambda: engine.queue_depth == 0)
        cancelled = engine.submit(batch)
        expired = engine.submit(batch, deadline=0.01)
        survivor = engine.submit(batch)
        _wait_until(lambda: engine.queue_depth == 3)
        cancelled.cancel()
        time.sleep(0.03)  # let the deadline lapse while still queued

        stopper = threading.Thread(target=engine.stop)
        stopper.start()
        executor.gate.set()
        stopper.join(timeout=60.0)
        assert not stopper.is_alive()

        np.testing.assert_allclose(blocker.result(timeout=1.0), reference)
        assert cancelled.cancelled()
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=1.0)
        # The survivor is real work: stop() computes it instead of
        # throwing it away.
        np.testing.assert_allclose(survivor.result(timeout=1.0), reference)
        assert engine.queue_depth == 0
