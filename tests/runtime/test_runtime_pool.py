"""Tests for the worker-pool execution substrate.

The contract: a :class:`ProcessWorkerPool` is observationally identical
to a :class:`PlanExecutor` over the same compiled plan — bit-identical
outputs, merged counters — while its workers are forked child processes
that inherit the model and the plan.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import TASDConfig, native
from repro.nn import Linear, Sequential
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    PlanExecutor,
    ProcessWorkerPool,
    ServingEngine,
    WorkerPool,
    backend_names,
    compile_plan,
    get_backend,
)
from repro.tasder.transform import TASDTransform

CFG = TASDConfig.parse("2:4")


def _sparse_model():
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    return model, transform


@pytest.fixture(scope="module")
def compiled():
    model, transform = _sparse_model()
    plan = compile_plan(model, transform)
    return model, transform, plan


@pytest.fixture()
def batch():
    return np.random.default_rng(33).normal(size=(2, 3, 8, 8))


# ---------------------------------------------------------------------- #
# Process pool
# ---------------------------------------------------------------------- #
class TestProcessWorkerPool:
    def test_outputs_bit_identical_to_plan_executor(self, compiled, batch):
        model, _, plan = compiled
        with PlanExecutor(model, plan) as ex:
            ref = ex.run(batch)
        with ProcessWorkerPool(model, plan, workers=2) as pool:
            outs = pool.run_many([batch] * 4)
        for out in outs:
            np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize(
        "backend", [name for name in backend_names() if get_backend(name).exact]
    )
    def test_exact_backends_bit_identical_to_plan_executor(self, batch, backend):
        model, transform = _sparse_model()
        plan = compile_plan(model, transform, backend=backend)
        with PlanExecutor(model, plan) as ex:
            ref = ex.run_many([batch] * 2)
        with ProcessWorkerPool(model, plan, workers=2) as ppool:
            out = ppool.run_many([batch] * 2)
        for a, b in zip(ref, out):
            np.testing.assert_array_equal(b, a)

    @pytest.mark.parametrize("exact", [False, True], ids=["allclose", "exact"])
    def test_rule_plan_bit_identical_to_plan_executor(self, batch, exact):
        """Workers forked after the rule prepared each operand serve what
        the parent serves, on either rule backend."""
        model, transform = _sparse_model()
        plan = compile_plan(model, transform, autotune=True, autotune_exact_only=exact)
        with PlanExecutor(model, plan) as ex:
            ref = ex.run_many([batch] * 2)
        with ProcessWorkerPool(model, plan, workers=2) as ppool:
            out = ppool.run_many([batch] * 2)
        for a, b in zip(ref, out):
            np.testing.assert_array_equal(b, a)

    def test_exact_plan_workers_inherit_the_native_kernel(
        self, batch, fresh_native, tmp_path, monkeypatch
    ):
        """The plan build compiles the gather-MAC once, in this process;
        forked workers serve with the inherited kernel, invoke no compiler
        and never fall back to the einsum loop, bit for bit with the
        in-process executor."""
        builds = tmp_path / "builds"
        build = native.build

        def logged_build(compiler):
            with open(builds, "a") as log:
                log.write(f"{os.getpid()}\n")
            return build(compiler)

        monkeypatch.setattr(native, "build", logged_build)
        model, transform = _sparse_model()
        plan = compile_plan(model, transform, autotune=True, autotune_exact_only=True)
        if native.gather_mac() is None:
            pytest.skip(f"native gather-MAC unavailable: {native.fallback_reason()}")
        states = [lp.operand.backend_states.get("einsum-gather") for lp in plan.layers.values()
                  if lp.operand is not None]
        assert states and all(isinstance(s, native.BoundGatherMAC) for s in states)

        def no_einsum_loop(*args):
            raise AssertionError("the einsum loop served a float64 GEMM")

        monkeypatch.setattr(native, "einsum_gather", no_einsum_loop)
        with PlanExecutor(model, plan) as ex:
            ref = ex.run_many([batch] * 2)
        with ProcessWorkerPool(model, plan, workers=2) as ppool:
            out = ppool.run_many([batch] * 4)
        for a, b in zip(ref + ref, out):
            np.testing.assert_array_equal(b, a)
            np.testing.assert_array_equal(np.signbit(b), np.signbit(a))
        assert builds.read_text().split() == [str(os.getpid())]

    def test_run_racing_close_never_hangs(self, compiled, batch):
        """run() overlapping close() must resolve (reinstall), not block forever."""
        model, _, plan = compiled
        with PlanExecutor(model, plan) as ex:
            ref = ex.run(batch)
        pool = ProcessWorkerPool(model, plan, workers=2)
        pool.install()
        results = []

        def hammer():
            for _ in range(3):
                results.append(pool.run(batch))

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        try:
            for t in threads:
                t.start()
            pool.close()  # races the hammer threads on purpose
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            pool.close()
        assert len(results) == 9
        for out in results:
            np.testing.assert_array_equal(out, ref)
        assert pool.stats().batches == 9

    def test_more_client_threads_than_workers(self, compiled, batch):
        """Six threads on two workers: exact outputs and exact counters."""
        model, _, plan = compiled
        with PlanExecutor(model, plan) as ex:
            ref = ex.run(batch)
        results = [None] * 6
        with ProcessWorkerPool(model, plan, workers=2) as pool:

            def work(i):
                results[i] = pool.run(batch)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            stats = pool.stats()
        for out in results:
            np.testing.assert_array_equal(out, ref)
        assert stats.batches == 6
        assert all(c.calls == 6 for c in stats.layers.values())

    def test_stats_merge_across_processes(self, compiled, batch):
        model, _, plan = compiled
        with ProcessWorkerPool(model, plan, workers=2) as pool:
            pool.run_many([batch] * 5)
            stats = pool.stats()
        assert stats.batches == 5
        assert stats.samples == 10
        assert all(c.calls == 5 for c in stats.layers.values())
        assert stats.total.structured_macs > 0
        assert stats.wall_time > 0
        # Workers report their served GEMM widths; merged like counters.
        assert all(sum(c.col_widths.values()) == 5 for c in stats.layers.values())
        assert stats.layers["head"].col_widths == {batch.shape[0]: 5}

    def test_reset_stats(self, compiled, batch):
        model, _, plan = compiled
        with ProcessWorkerPool(model, plan, workers=2) as pool:
            pool.run(batch)
            pool.reset_stats()
            stats = pool.stats()
            assert stats.batches == 0 and stats.samples == 0
            assert all(c.calls == 0 for c in stats.layers.values())
            # Counters keep accumulating correctly after the reset.
            pool.run(batch)
            assert pool.stats().batches == 1
            assert all(c.calls == 1 for c in pool.stats().layers.values())

    @pytest.mark.parametrize("victim", [0, 1])
    def test_reset_stats_after_idle_worker_death_keeps_replies_paired(
        self, compiled, victim
    ):
        """A worker that died idle must not desynchronise the live ones.

        The death goes unnoticed by the supervisor (long health interval)
        until ``reset_stats`` reaches it: the reset retires it, and every
        live worker's pipe is left holding no unread reply, so each later
        request reads its own output.
        """
        model, _, plan = compiled
        rng = np.random.default_rng(50)
        inputs = [rng.normal(size=(1, 3, 8, 8)) for _ in range(8)]
        with PlanExecutor(model, plan) as ex:
            expected = [ex.run(x) for x in inputs]
        with ProcessWorkerPool(model, plan, workers=2, health_interval=600.0) as pool:
            dead = pool.worker_pids()[victim]
            os.kill(dead, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while any(p.pid == dead for p in multiprocessing.active_children()):
                assert time.monotonic() < deadline, "killed worker never exited"
                time.sleep(0.01)
            pool.reset_stats()
            assert dead not in pool.worker_pids()
            for x, want in zip(inputs, expected):
                np.testing.assert_array_equal(pool.run(x), want)

    def test_stats_survive_close_and_reinstall_merges(self, compiled, batch):
        model, _, plan = compiled
        pool = ProcessWorkerPool(model, plan, workers=2)
        with pool:
            pool.run_many([batch] * 3)
        stats = pool.stats()
        assert stats.batches == 3
        assert all(c.calls == 3 for c in stats.layers.values())
        pool.run(batch)  # lazy reinstall: a fresh worker generation
        stats = pool.stats()
        assert stats.batches == 4
        assert all(c.calls == 4 for c in stats.layers.values())
        pool.close()
        pool.close()  # idempotent

    def test_worker_error_propagates(self, compiled, batch):
        model, _, plan = compiled
        bad = np.zeros((2, 7, 8, 8))  # wrong channel count: forward must fail
        with ProcessWorkerPool(model, plan, workers=1) as pool:
            with pytest.raises(Exception):
                pool.run(bad)
            # The worker survives a failed request and keeps serving.
            out = pool.run(batch)
            assert out.shape == (2, 10)

    def test_worker_error_carries_remote_traceback(self, compiled):
        from repro.runtime import RemoteTraceback

        model, _, plan = compiled
        bad = np.zeros((2, 7, 8, 8))
        with ProcessWorkerPool(model, plan, workers=1) as pool:
            with pytest.raises(Exception) as excinfo:
                pool.run(bad)
            # The child's formatted stack rides the pipe and is chained into
            # the re-raised exception, so serving failures stay debuggable.
            cause = excinfo.value.__cause__
            assert isinstance(cause, RemoteTraceback)
            assert "Traceback (most recent call last)" in str(cause)

    def test_source_model_untouched(self, compiled, batch):
        model, _, plan = compiled
        with ProcessWorkerPool(model, plan, workers=1) as pool:
            pool.run(batch)
            for _, layer in gemm_layers(model, include_head=True):
                assert layer.compiled_plan is None

    def test_serving_engine_with_process_pool(self, compiled):
        model, _, plan = compiled
        rng = np.random.default_rng(44)
        inputs = [rng.normal(size=(1, 3, 8, 8)) for _ in range(8)]
        with PlanExecutor(model, plan) as ex:
            singles = [ex.run(x) for x in inputs]
        with ProcessWorkerPool(model, plan, workers=2) as pool:
            with ServingEngine(pool, max_batch=3, workers=2) as engine:
                futures = [engine.submit(x) for x in inputs]
                outputs = [f.result(timeout=120.0) for f in futures]
        assert engine.report().count == 8
        # Micro-batching changes the GEMM width, so allclose (same tolerance
        # as the single-executor serving tests).
        for single, served in zip(singles, outputs):
            np.testing.assert_allclose(served, single, atol=1e-12)

    def test_workers_count_from_zero(self, compiled, batch):
        """Workers zero the counts the parent's plan object already carries
        (a plan that was run in-process), and leave the parent's alone."""
        model, transform, _ = compiled
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            ex.run_many([batch] * 3)
        with ProcessWorkerPool(model, plan, workers=2) as pool:
            pool.run(batch)
            assert all(c.calls == 1 for c in pool.stats().layers.values())
        assert all(lp.counters.calls == 3 for lp in plan.layers.values())

    def test_invalid_workers(self, compiled):
        model, _, plan = compiled
        with pytest.raises(ValueError, match="workers"):
            ProcessWorkerPool(model, plan, workers=0)
        with pytest.raises(ValueError, match="health_interval"):
            ProcessWorkerPool(model, plan, health_interval=0)

    def test_platform_without_fork_is_refused(self, compiled, monkeypatch):
        model, _, plan = compiled
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        with pytest.raises(ValueError, match="cannot fork"):
            ProcessWorkerPool(model, plan, workers=1)


# ---------------------------------------------------------------------- #
# Seam
# ---------------------------------------------------------------------- #
class TestWorkerPoolSeam:
    def test_every_executor_is_a_worker_pool(self, compiled):
        model, _, plan = compiled
        executor = PlanExecutor(model, plan)
        assert isinstance(executor, WorkerPool)
        assert isinstance(ProcessWorkerPool(model, plan), WorkerPool)
        assert executor.respawns == executor.deaths == 0

    def test_executor_counts_from_zero_on_first_install(self):
        """A new executor does not report what its plan counted under
        another executor; a re-install after close() keeps counting."""
        model = Sequential(Linear(32, 48), Linear(48, 16))
        global_magnitude_prune(model, 0.6)
        transform = TASDTransform(
            weight_configs={name: CFG for name, _ in gemm_layers(model)}
        )
        plan = compile_plan(model, transform)
        x = np.random.default_rng(5).normal(size=(2, 32))
        with PlanExecutor(model, plan) as first:
            for _ in range(3):
                first.run(x)
        second = PlanExecutor(model, plan)
        with second:
            second.run(x)
        stats = second.stats()
        assert stats.batches == 1
        assert [c.calls for c in stats.layers.values()] == [1, 1]
        second.run(x)  # lazily re-installs after close()
        stats = second.stats()
        assert stats.batches == 2
        assert [c.calls for c in stats.layers.values()] == [2, 2]


# ---------------------------------------------------------------------- #
# Served GEMM widths
# ---------------------------------------------------------------------- #
class TestServedWidths:
    def test_gemm_records_served_widths(self, compiled, batch):
        model, _, plan = compiled
        with PlanExecutor(model, plan) as ex:
            ex.run(batch)
            layers = ex.stats().layers
        # The head sees the flattened batch; conv layers see im2col widths.
        assert layers["head"].col_widths == {batch.shape[0]: 1}
        assert all(sum(c.col_widths.values()) == c.calls for c in layers.values())

    def test_widths_count_every_forward(self, compiled):
        model, _, plan = compiled
        with PlanExecutor(model, plan) as ex:
            for _ in range(2):
                ex.run(np.zeros((1, 3, 8, 8)))
            ex.run(np.zeros((4, 3, 8, 8)))
            assert ex.stats().layers["head"].col_widths == {1: 2, 4: 1}

    def test_pool_merges_worker_widths(self, compiled):
        model, _, plan = compiled
        batches = [np.zeros((n, 3, 8, 8)) for n in (1, 2, 1, 3)]
        with ProcessWorkerPool(model, plan, workers=2) as ppool:
            ppool.run_many(batches)
            assert ppool.stats().layers["head"].col_widths == {1: 2, 2: 1, 3: 1}

    def test_counter_snapshot_is_isolated(self, compiled, batch):
        model, transform = _sparse_model()
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            ex.run(batch)
            snap = ex.stats()
            before = dict(snap.layers["head"].col_widths)
            ex.run(np.zeros((5, 3, 8, 8)))
            assert snap.layers["head"].col_widths == before  # no aliasing


# ---------------------------------------------------------------------- #
# Counter arrays: pool and executor agree, dead workers keep their counts
# ---------------------------------------------------------------------- #
def _integer_counters(stats) -> dict:
    """Everything a substrate counts exactly: calls, both MAC counts, the
    served widths and the per-layer GEMM histogram's count (the bucket
    columns sum to the calls; which bucket a call lands in is timing)."""
    return {
        name: (c.calls, c.structured_macs, c.dense_macs, c.col_widths,
               c.gemm_seconds.count, sum(c.gemm_seconds.counts))
        for name, c in stats.layers.items()
    }


class TestCounterArrays:
    def test_pool_and_executor_report_equal_integer_totals(self, compiled):
        model, _, plan = compiled
        batches = [np.zeros((n, 3, 8, 8)) for n in (1, 2, 1, 3, 2)]
        with PlanExecutor(model, plan) as ex:
            ex.run_many(batches)
            local = ex.stats()
        with ProcessWorkerPool(model, plan, workers=2) as ppool:
            ppool.run_many(batches)
            remote = ppool.stats()
        assert _integer_counters(remote) == _integer_counters(local)
        assert remote.total.calls == local.total.calls == 5 * len(plan.layers)

    def test_killed_worker_keeps_its_counts(self, compiled, batch):
        """Every reply the parent received stays counted after its worker
        is SIGKILLed, and the respawned worker's counts add on top."""
        from repro.runtime import WorkerCrashError

        model, _, plan = compiled

        def serve(pool, n):
            served = 0
            while served < n:
                try:
                    pool.run(batch)
                except WorkerCrashError:
                    continue  # the dead worker was dispatched to: retry
                served += 1

        with ProcessWorkerPool(model, plan, workers=2, health_interval=0.05) as pool:
            serve(pool, 4)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while pool.respawns < 1 or len(pool.worker_pids()) < 2:
                assert time.monotonic() < deadline, "killed worker never respawned"
                time.sleep(0.02)
            stats = pool.stats()
            assert stats.batches == 4
            assert all(c.calls == 4 for c in stats.layers.values())
            serve(pool, 4)
            stats = pool.stats()
            workers = pool.worker_stats()
        assert stats.batches == 8
        assert all(c.calls == 8 for c in stats.layers.values())
        assert stats.layers["head"].col_widths == {batch.shape[0]: 8}
        assert sum(w.requests for w in workers) == 8
        dead = [w for w in workers if not w.alive and w.requests]
        assert dead, "the killed worker's served requests vanished"
        respawned = max(w.uid for w in workers)
        assert any(w.uid == respawned and w.requests for w in workers)
