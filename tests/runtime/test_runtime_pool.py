"""Tests for the worker-pool execution substrate.

The contract: a :class:`ProcessWorkerPool` is observationally identical
to a :class:`PlanExecutor` over the same compiled plan — bit-identical
outputs, merged counters — while its workers are child processes attached
to the plan through shared memory.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    OperandCache,
    PlanExecutor,
    ProcessWorkerPool,
    ServingEngine,
    SharedOperandStore,
    WorkerPool,
    attach_plan,
    compile_plan,
    exact_backend_names,
    retune_plan,
    share_plan,
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
# Shared operand store
# ---------------------------------------------------------------------- #
class TestSharedOperandStore:
    def test_roundtrip_and_readonly(self, rng):
        arrays = {
            "a": rng.normal(size=(7, 5)),
            "b": (rng.random((3, 4, 2)) * 255).astype(np.uint8),
            "c": np.arange(11, dtype=np.int64),
        }
        store, refs = SharedOperandStore.create(arrays)
        try:
            attached = SharedOperandStore.attach(store.name)
            try:
                for key, a in arrays.items():
                    view = attached.get(refs[key])
                    np.testing.assert_array_equal(view, a)
                    assert view.dtype == a.dtype
                    assert not view.flags.writeable
            finally:
                attached.close()
        finally:
            store.unlink()

    def test_get_after_close_refuses(self, rng):
        store, refs = SharedOperandStore.create({"a": rng.normal(size=(2, 2))})
        store.unlink()
        with pytest.raises(ValueError, match="closed"):
            store.get(refs["a"])

    def test_unlink_idempotent(self, rng):
        store, _ = SharedOperandStore.create({"a": rng.normal(size=(2, 2))})
        store.unlink()
        store.unlink()


# ---------------------------------------------------------------------- #
# share_plan / attach_plan
# ---------------------------------------------------------------------- #
class TestShareAttachPlan:
    def test_attached_plan_serves_bit_identically(self, compiled, batch):
        model, _, plan = compiled
        with PlanExecutor(model, plan) as ex:
            ref = ex.run(batch)
        store, spec = share_plan(plan)
        try:
            attached, worker_store = attach_plan(spec)
            assert attached.backend_choices() == plan.backend_choices()
            with PlanExecutor(model, attached) as ex:
                out = ex.run(batch)
            np.testing.assert_array_equal(out, ref)
            if worker_store is not None:
                worker_store.close()
        finally:
            if store is not None:
                store.unlink()

    def test_attached_operands_are_zero_copy_views(self, compiled):
        _, _, plan = compiled
        store, spec = share_plan(plan)
        assert store is not None  # POSIX shm exists on the test platforms
        try:
            attached, worker_store = attach_plan(spec)
            operand = next(
                lp.operand for lp in attached.layers.values() if lp.operand is not None
            )
            # Term values and their flat tables share the segment's buffer
            # (the flat value table is a reshape of the term values).
            for term, flat in zip(operand.terms, operand.flat_values):
                assert flat.base is not None
                assert not term.values.flags.writeable
            worker_store.close()
        finally:
            store.unlink()

    def test_attach_adopts_into_cache(self, compiled):
        _, _, plan = compiled
        store, spec = share_plan(plan)
        try:
            cache = OperandCache()
            attached, worker_store = attach_plan(spec, cache=cache)
            for name, lp in attached.layers.items():
                if lp.operand is not None:
                    assert cache.digest_of(lp.operand) == lp.weight_digest
            if worker_store is not None:
                worker_store.close()
        finally:
            if store is not None:
                store.unlink()

    def test_inline_fallback_when_shm_unavailable(self, compiled, batch, monkeypatch):
        model, _, plan = compiled
        monkeypatch.setattr(
            SharedOperandStore,
            "create",
            classmethod(lambda cls, arrays: (_ for _ in ()).throw(OSError("no shm"))),
        )
        # lint: disable=shm-lifecycle — create() is monkeypatched to raise,
        # so no segment exists; the returned store is asserted None below
        store, spec = share_plan(plan)
        assert store is None
        assert spec["segment"] is None and spec["inline"]
        attached, worker_store = attach_plan(spec)
        assert worker_store is None
        with PlanExecutor(model, plan) as ex:
            ref = ex.run(batch)
        with PlanExecutor(model, attached) as ex:
            out = ex.run(batch)
        np.testing.assert_array_equal(out, ref)


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

    @pytest.mark.parametrize("backend", exact_backend_names())
    def test_exact_backends_bit_identical_to_plan_executor(self, batch, backend):
        model, transform = _sparse_model()
        plan = compile_plan(model, transform, backend=backend)
        with PlanExecutor(model, plan) as ex:
            ref = ex.run_many([batch] * 2)
        with ProcessWorkerPool(model, plan, workers=2) as ppool:
            out = ppool.run_many([batch] * 2)
        for a, b in zip(ref, out):
            np.testing.assert_array_equal(b, a)

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
        # Workers report their observed GEMM widths; merged like counters.
        observed = stats.observed_cols()
        assert observed and all(w > 0 for w in observed.values())

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

    def test_source_model_untouched_and_segment_cleaned(self, compiled, batch):
        model, _, plan = compiled
        pool = ProcessWorkerPool(model, plan, workers=1)
        with pool:
            pool.run(batch)
            segment = pool._store.name if pool._store is not None else None
            for _, layer in gemm_layers(model, include_head=True):
                assert layer.compiled_plan is None
        if segment is not None:
            with pytest.raises(FileNotFoundError):
                SharedOperandStore.attach(segment)

    def test_serving_engine_with_process_pool(self, compiled):
        model, _, plan = compiled
        rng = np.random.default_rng(44)
        inputs = [rng.normal(size=(1, 3, 8, 8)) for _ in range(8)]
        with PlanExecutor(model, plan) as ex:
            singles = [ex.run(x) for x in inputs]
        with ProcessWorkerPool(model, plan, workers=2) as pool:
            with ServingEngine(pool, max_batch=3, batch_window=0.01, workers=2) as engine:
                futures = [engine.submit(x) for x in inputs]
                outputs = [f.result(timeout=120.0) for f in futures]
        assert engine.report().count == 8
        # Micro-batching changes the GEMM width, so allclose (same tolerance
        # as the single-executor serving tests).
        for single, served in zip(singles, outputs):
            np.testing.assert_allclose(served, single, atol=1e-12)

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="spawn start method unavailable",
    )
    def test_spawn_context(self, compiled, batch):
        model, _, plan = compiled
        with PlanExecutor(model, plan) as ex:
            ref = ex.run(batch)
        with ProcessWorkerPool(model, plan, workers=1, mp_context="spawn") as pool:
            np.testing.assert_array_equal(pool.run(batch), ref)

    def test_invalid_workers_and_context(self, compiled):
        model, _, plan = compiled
        with pytest.raises(ValueError, match="workers"):
            ProcessWorkerPool(model, plan, workers=0)
        with pytest.raises(ValueError, match="start method"):
            ProcessWorkerPool(model, plan, workers=1, mp_context="nonsense")


# ---------------------------------------------------------------------- #
# Seam
# ---------------------------------------------------------------------- #
class TestWorkerPoolSeam:
    def test_every_executor_is_a_worker_pool(self, compiled):
        model, _, plan = compiled
        assert isinstance(PlanExecutor(model, plan), WorkerPool)
        assert isinstance(ProcessWorkerPool(model, plan), WorkerPool)


# ---------------------------------------------------------------------- #
# Autotune on observed serving shapes
# ---------------------------------------------------------------------- #
class TestObservedShapeAutotune:
    def test_gemm_records_observed_cols(self, compiled, batch):
        model, transform = _sparse_model()
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            ex.run(batch)
            observed = ex.stats().observed_cols()
        assert observed
        # The head sees the flattened batch; conv layers see im2col widths.
        assert observed["head"] == batch.shape[0]

    def test_observed_cols_most_frequent_wins(self, compiled):
        model, transform = _sparse_model()
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            for _ in range(2):
                ex.run(np.zeros((1, 3, 8, 8)))
            ex.run(np.zeros((4, 3, 8, 8)))
            observed = ex.stats().observed_cols()
        assert observed["head"] == 1  # served twice vs once

    def test_retune_plan_updates_choices_in_place(self, batch):
        model, transform = _sparse_model()
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            ex.run(batch)
            observed = ex.stats().observed_cols()
        choices = retune_plan(plan, observed, repeats=1)
        assert choices == plan.backend_choices()
        for name, lp in plan.layers.items():
            if lp.mode == "compiled":
                assert lp.autotune is not None
                assert lp.autotune.sample_cols == observed.get(name, 32)
                assert lp.backend == lp.autotune.backend

    def test_counter_snapshot_is_isolated(self, compiled, batch):
        model, transform = _sparse_model()
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            ex.run(batch)
            snap = ex.stats()
            before = dict(snap.layers["head"].col_widths)
            ex.run(np.zeros((5, 3, 8, 8)))
            assert snap.layers["head"].col_widths == before  # no aliasing
