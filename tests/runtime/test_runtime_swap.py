"""Zero-downtime operations: blue/green plan swap and graceful drain.

The serving engine promises that a plan upgrade is invisible to clients:
a canary batch validates a whole candidate executor on the new plan
while the live one serves, any mismatch (wrong weights, corrupt
arithmetic, a candidate that cannot start, latency blow-up) raises a
typed :class:`SwapRejected` with the old executor still serving, and a
committed swap changes *nothing* observable — the exact backends make
swapped outputs bit-identical.  Drain is the same promise
at shutdown: everything admitted finishes, everything late is rejected
typed-ly.  These tests pin all of it, plus the exact queue-depth counter
that replaced the approximate ``Queue.qsize()`` read.
"""

from __future__ import annotations

import os
import signal
import sys
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


def _substrate(kind, model, plan, workers=2):
    if kind == "executor":
        return PlanExecutor(model, plan)
    return ProcessWorkerPool(model, plan, workers=workers, **FAST)


def _uninstallable(model):
    """A plan over the live weights that no executor can install."""
    _, transform = _small_model()
    plan = compile_plan(model, transform)
    layer = next(lp for lp in plan.layers.values() if lp.mode == "compiled")
    layer.backend = "no-such-backend"
    return plan


SUBSTRATES = ["executor", "pool"]


# --------------------------------------------------------------------- #
# Blue/green swap on both substrates: commit, rejection, counts
# --------------------------------------------------------------------- #
class TestBlueGreenSwap:
    @pytest.mark.parametrize("kind", SUBSTRATES)
    def test_committed_swap_serves_through_a_new_executor(
        self, compiled, candidate, batch, reference, kind
    ):
        model, plan = compiled
        with _substrate(kind, model, plan) as live:
            with ServingEngine(live, max_batch=4) as engine:
                before = engine.infer(batch)
                info = engine.swap_plan(candidate, canary=batch)
                new = engine.executor
                assert new is not live and new.plan is candidate
                assert live.plan is plan  # the old executor never held the candidate
                assert info["swapped_workers"] == (1 if kind == "executor" else 2)
                np.testing.assert_array_equal(engine.infer(batch), before)
                if kind == "pool":
                    assert live.worker_pids() == []  # retired and closed
            if kind == "pool":
                assert new.worker_pids() == []  # the engine closes what it built
            with pytest.raises(SwapRejected, match="not running"):
                engine.swap_plan(candidate, canary=batch)
        np.testing.assert_array_equal(before, reference)

    @pytest.mark.parametrize("kind", SUBSTRATES)
    def test_canary_rejection_keeps_the_live_executor(
        self, compiled, batch, reference, kind
    ):
        model, plan = compiled
        with _substrate(kind, model, plan) as live:
            with ServingEngine(live, max_batch=4) as engine:
                engine.infer(batch)
                with pytest.raises(SwapRejected, match="already serves"):
                    engine.swap_plan(plan, canary=batch)
                with pytest.raises(SwapRejected, match="diverge"):
                    engine.swap_plan(skewed_plan(plan), canary=batch)
                assert engine.executor is live and live.plan is plan
                np.testing.assert_array_equal(engine.infer(batch), reference)

    @pytest.mark.parametrize("kind", SUBSTRATES)
    def test_uninstallable_plan_is_rejected(self, compiled, batch, reference, kind):
        model, plan = compiled
        with _substrate(kind, model, plan) as live:
            with ServingEngine(live, max_batch=4) as engine:
                with pytest.raises(SwapRejected, match="no-such-backend"):
                    engine.swap_plan(_uninstallable(model), canary=batch)
                assert engine.executor is live and live.plan is plan
                np.testing.assert_array_equal(engine.infer(batch), reference)
                if kind == "pool":
                    assert len(live.worker_pids()) == 2

    def test_respawn_after_committed_swap_serves_the_committed_plan(
        self, compiled, batch, reference
    ):
        # A perturbation far inside the canary's tolerance commits, yet
        # changes the output bits, so the respawned workers' plan shows.
        model, plan = compiled
        nudged = skewed_plan(plan, scale=1.0 + 1e-12)
        with PlanExecutor(model, nudged) as executor:
            expected = executor.run(batch)
        assert not np.array_equal(expected, reference)
        with ProcessWorkerPool(model, plan, workers=2, **FAST) as pool:
            with ServingEngine(pool, max_batch=4) as engine:
                engine.swap_plan(nudged, canary=batch)
                new = engine.executor
                victims = set(new.worker_pids())
                for pid in victims:
                    os.kill(pid, signal.SIGKILL)
                deadline = time.monotonic() + 30.0
                while new.respawns < 2 or victims & set(new.worker_pids()):
                    assert time.monotonic() < deadline, "killed workers were not respawned"
                    time.sleep(0.02)
                for _ in range(4):
                    np.testing.assert_array_equal(engine.infer(batch), expected)

    @pytest.mark.parametrize("kind", SUBSTRATES)
    def test_canary_rejected_worker_never_serves_live_traffic(
        self, compiled, batch, reference, kind
    ):
        """Requests flowing while the engine canaries a corrupt plan are
        all served by the live plan, bit for bit: the candidate runs on
        its own workers (or its own model clone in-process)."""
        model, plan = compiled
        bad = skewed_plan(plan)
        with _substrate(kind, model, plan, workers=1) as live:
            with ServingEngine(live, max_batch=1, workers=2) as engine:
                futures = []
                swapping = threading.Event()
                swapping.set()

                def submit_loop():
                    while swapping.is_set():
                        futures.append(engine.submit(batch))
                        time.sleep(0.0005)

                submitter = threading.Thread(target=submit_loop)
                submitter.start()
                try:
                    # Five swaps at least, and more until traffic has flowed
                    # through them: an in-process candidate can be rejected
                    # five times before the submitter gets the interpreter lock.
                    swaps, deadline = 0, time.monotonic() + 60.0
                    while swaps < 5 or len(futures) <= 5:
                        assert time.monotonic() < deadline, "no traffic during the swaps"
                        with pytest.raises(SwapRejected, match="diverge"):
                            engine.swap_plan(bad, canary=batch)
                        swaps += 1
                finally:
                    swapping.clear()
                    submitter.join(timeout=30.0)
                outputs = [f.result(timeout=60.0) for f in futures]
        assert len(outputs) > 5
        for i, y in enumerate(outputs):
            np.testing.assert_array_equal(
                y, reference, err_msg=f"request {i} was served by the rejected plan"
            )

    @pytest.mark.parametrize("kind", SUBSTRATES)
    def test_swaps_under_concurrent_load_lose_no_call(
        self, compiled, candidate, batch, reference, kind
    ):
        """More serving threads than cores, a short switch interval, and
        repeated committed swaps: every request is served by a live
        executor, every retired executor is closed for good, and the
        engine's stats count each served request and each swap's
        reference forward exactly once."""
        model, plan = compiled
        clients, per_client, swaps = 3, 40, 8
        outputs, retired = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _substrate(kind, model, plan) as live:
                with ServingEngine(live, max_batch=1, workers=4) as engine:

                    def client():
                        for _ in range(per_client):
                            outputs.append(engine.infer(batch, timeout=60.0))

                    threads = [threading.Thread(target=client) for _ in range(clients)]
                    for t in threads:
                        t.start()
                    for i in range(swaps):
                        retired.append(engine.executor)
                        engine.swap_plan(candidate if i % 2 == 0 else plan, canary=batch)
                    for t in threads:
                        t.join(timeout=120.0)
                    assert not any(t.is_alive() for t in threads)
                    stats = engine.stats()
        finally:
            sys.setswitchinterval(interval)
        assert len(outputs) == clients * per_client
        for y in outputs:
            np.testing.assert_array_equal(y, reference)
        assert stats.batches == clients * per_client + swaps
        for old in retired:
            assert not any(w.alive for w in old.worker_stats())

    @pytest.mark.parametrize("canary", [False, True], ids=["last-input", "canary"])
    @pytest.mark.parametrize("kind", SUBSTRATES)
    def test_stats_keep_every_count_across_a_swap(self, batch, kind, canary):
        # The candidate already served under another executor: none of
        # those counts may leak into the engine's stats, none of the
        # retired executor's counts may be lost, and the candidate's
        # canary forward counts nowhere.  Before the swap the live
        # executor runs three requests and the reference forward.
        model, transform = _small_model()
        plan, candidate = compile_plan(model, transform), compile_plan(model, transform)
        with PlanExecutor(model, candidate) as other:
            for _ in range(3):
                other.run(batch)
        with _substrate(kind, model, plan) as live:
            with ServingEngine(live, max_batch=4) as engine:
                for _ in range(3):
                    engine.infer(batch)
                engine.swap_plan(candidate, canary=batch if canary else None)
                engine.infer(batch)
                stats = engine.stats()
        assert stats.batches == 5
        assert {name: c.calls for name, c in stats.layers.items()} == dict.fromkeys(
            plan.layers, 5
        )

    @pytest.mark.parametrize("kind", SUBSTRATES)
    def test_exported_totals_never_go_backwards_across_a_swap(
        self, compiled, candidate, batch, kind
    ):
        model, plan = compiled

        def totals(snap):
            return {
                (name, tuple(sorted(series["labels"].items()))): series["value"]
                for name, family in snap.items()
                if name.endswith("_total")
                for series in family["series"]
            }

        with _substrate(kind, model, plan) as live:
            with ServingEngine(live, max_batch=4) as engine:
                for _ in range(3):
                    engine.infer(batch)
                retired = {str(w.uid) for w in live.worker_stats()}
                before = totals(engine.metrics_snapshot())
                engine.swap_plan(candidate, canary=batch)
                snap = engine.metrics_snapshot()
                after = totals(snap)
        assert any(name == "tasd_worker_requests_total" for name, _ in before)
        for key, value in before.items():
            assert after.get(key, 0.0) >= value, f"{key} went from {value} to {after.get(key)}"
        alive = {
            s["labels"]["worker"]: s["value"] for s in snap["tasd_worker_alive"]["series"]
        }
        assert retired and all(alive[uid] == 0.0 for uid in retired)
        assert sum(alive.values()) == (1 if kind == "executor" else 2)


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
            with ServingEngine(pool, max_batch=2, workers=2) as engine:
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
        engine = ServingEngine(executor, max_batch=1, workers=1)
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
        engine = ServingEngine(executor, max_batch=1, workers=1)
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
        with ServingEngine(executor, max_batch=1, workers=1) as engine:
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
        with ServingEngine(executor, max_batch=1, workers=1, max_queue=2) as engine:
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
        engine = ServingEngine(executor, max_batch=1, workers=1)
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
        # The worker thread reaches every queued request before its
        # shutdown sentinel: it skips the cancelled one, fails the expired
        # one typed, and computes the survivor.
        assert cancelled.cancelled()
        with pytest.raises(DeadlineExceeded):
            expired.result(timeout=1.0)
        np.testing.assert_allclose(survivor.result(timeout=1.0), reference)
        assert engine.queue_depth == 0

    def test_restarted_engine_serves(self, compiled, batch, reference, monkeypatch):
        """A stopped engine leaves no shutdown sentinel behind for the
        worker threads of its next start to read."""
        model, plan = compiled
        with PlanExecutor(model, plan) as executor:
            engine = ServingEngine(executor, max_batch=1, workers=2)
            engine.start()
            put = engine._queue.put

            def late_sentinel(item, *args, **kwargs):
                if item is None:  # let every worker see the engine stopped first
                    time.sleep(0.2)
                put(item, *args, **kwargs)

            monkeypatch.setattr(engine._queue, "put", late_sentinel)
            engine.stop()  # both workers exit without taking a sentinel
            monkeypatch.undo()
            with engine:
                futures = [engine.submit(batch) for _ in range(4)]
                for f in futures:
                    np.testing.assert_array_equal(f.result(timeout=10.0), reference)
            assert engine.report().count == 4
