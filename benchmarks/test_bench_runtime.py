"""Compiled-plan vs per-call inference throughput (the runtime's raison d'être).

The per-call path re-decomposes and re-compresses every weight on every
forward — what ``tasd_matmul`` does when used directly.  The compiled plan
pays that cost once at build time and serves forwards from pre-compressed
:class:`CompressedNM` operands.  ``test_runtime_compiled_speedup`` fences
the resulting speedup at >= 3x on a sparse ResNet-18 forward, so the bench
trajectory tracks it.

On top of that sit the kernel-backend fences: ``test_runtime_autotune_speedup``
requires the compile-time autotuner to beat the reference ``einsum-gather``
compiled path by >= 1.5x on the same serving workload, and the worker-pool
benches track how serving throughput scales across forked process workers
that inherit the compiled plan (asserted >= 2x for 4 workers where the
machine has cores to scale onto — no GIL in common).

``test_runtime_plan_persistence_warm_restart`` fences the restart story:
loading a persisted plan artifact must be >= 5x faster than compile +
autotune, with identical backend choices and bit-identical served outputs.

The serving engine always records metrics and traces, and the process
pool is always supervised, so their cost sits inside every serving number
here and in ``perfbench/``; there is no uninstrumented configuration to
compare against.  No test here writes a file: the perf trajectory is the
``perfbench/`` records.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    PlanExecutor,
    ProcessWorkerPool,
    ServingEngine,
    backend_names,
    compile_plan,
    load_plan,
)
from repro.tasder.transform import TASDTransform

BATCH = 2


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def serving_setup():
    """A 60 %-sparse ResNet-18 with a uniform 2:4 weight transform."""
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
    )
    x = np.random.default_rng(0).normal(size=(BATCH, 3, 8, 8))
    return model, transform, x


def test_bench_plan_build(benchmark, serving_setup):
    model, transform, _ = serving_setup
    plan = benchmark(compile_plan, model, transform)
    assert plan.total_nnz > 0


def test_bench_plan_load(benchmark, serving_setup, tmp_path):
    """Warm-restart cost: deserializing a persisted plan from disk."""
    model, transform, _ = serving_setup
    path = compile_plan(model, transform).save(tmp_path / "plan.npz")
    plan = benchmark(load_plan, path, model)
    assert plan.total_nnz > 0


def test_bench_compiled_forward(benchmark, serving_setup):
    model, transform, x = serving_setup
    with PlanExecutor(model, compile_plan(model, transform)) as executor:
        out = benchmark(executor.run, x)
    assert out.shape == (BATCH, 10)


def test_bench_per_call_forward(benchmark, serving_setup):
    model, transform, x = serving_setup
    with PlanExecutor(model, compile_plan(model, transform, mode="per_call")) as executor:
        out = benchmark(executor.run, x)
    assert out.shape == (BATCH, 10)


def test_bench_serving_engine(benchmark, serving_setup):
    model, transform, x = serving_setup

    def serve_eight():
        with PlanExecutor(model, compile_plan(model, transform)) as executor:
            with ServingEngine(executor, max_batch=4, batch_window=0.002) as engine:
                futures = [engine.submit(x[:1]) for _ in range(8)]
                for f in futures:
                    f.result(timeout=120.0)
        return engine.report()

    report = benchmark.pedantic(serve_eight, rounds=1, iterations=1)
    assert report.count == 8


@pytest.mark.parametrize("backend", backend_names())
def test_bench_backend_forward(benchmark, serving_setup, backend):
    """Per-backend compiled-forward throughput on the serving model."""
    model, transform, x = serving_setup
    plan = compile_plan(model, transform, backend=backend)
    with PlanExecutor(model, plan) as executor:
        out = benchmark(executor.run, x)
    assert out.shape == (BATCH, 10)


def test_bench_autotuned_forward(benchmark, serving_setup):
    model, transform, x = serving_setup
    plan = compile_plan(model, transform, autotune=True, autotune_repeats=2)
    with PlanExecutor(model, plan) as executor:
        out = benchmark(executor.run, x)
    assert out.shape == (BATCH, 10)


def _serve_throughput(model, plan, x, workers: int, requests: int) -> float:
    """Requests/second over one drain of ``requests`` pre-submitted inputs."""
    with ProcessWorkerPool(model, plan, workers=workers) as executor:
        executor.install()  # workers built outside the measured window
        with ServingEngine(
            executor, max_batch=2, batch_window=0.0, workers=workers
        ) as engine:
            futures = [engine.submit(x[:1]) for _ in range(requests)]
            for f in futures:
                f.result(timeout=120.0)
    return engine.report().throughput


def test_bench_process_pool_serving(benchmark, serving_setup):
    """Serving throughput with 2 process workers draining 16 requests."""
    model, transform, x = serving_setup
    plan = compile_plan(model, transform, autotune=True, autotune_repeats=2)

    def serve_round():
        with ProcessWorkerPool(model, plan, workers=2) as executor:
            with ServingEngine(executor, max_batch=4, batch_window=0.0, workers=2) as engine:
                futures = [engine.submit(x[:1]) for _ in range(16)]
                for f in futures:
                    f.result(timeout=120.0)
        return engine.report()

    report = benchmark.pedantic(serve_round, rounds=1, iterations=1)
    assert report.count == 16


def test_process_pool_scaling_throughput(serving_setup):
    """Acceptance fence: 4 process workers >= 2x single-worker throughput.

    The whole point of the process pool — threads in one interpreter
    serialise every non-BLAS part of a forward on the GIL, worker processes
    don't, so 4 workers must reach >= 2x.  True parallel speedup
    needs cores to scale onto: on a single-core machine the ratio
    assertion is physically unsatisfiable and is skipped (correctness of
    process-pool serving is covered by
    ``tests/runtime/test_runtime_pool.py`` and ``benchmarks/pool_smoke.py``,
    which run everywhere).
    """
    model, transform, x = serving_setup
    plan = compile_plan(model, transform, autotune=True, autotune_repeats=2)
    _serve_throughput(model, plan, x, workers=1, requests=8)  # warm
    single = _serve_throughput(model, plan, x, workers=1, requests=32)
    quad = _serve_throughput(model, plan, x, workers=4, requests=32)
    scaling = quad / single
    print(f"\nserving throughput: 1 process worker {single:.1f} req/s, "
          f"4 process workers {quad:.1f} req/s -> {scaling:.2f}x "
          f"({_usable_cores()} usable cores)")
    assert single > 0 and quad > 0
    if _usable_cores() < 2:
        pytest.skip(
            f"process-pool scaling fence needs >= 2 cores; this machine "
            f"exposes {_usable_cores()} (measured {scaling:.2f}x)"
        )
    assert scaling >= 2.0, f"4 process workers only {scaling:.2f}x single-worker throughput"


def test_runtime_autotune_speedup(serving_setup):
    """Acceptance fence: autotuned plan >= 1.5x the reference compiled path."""
    model, transform, x = serving_setup
    timings = {}
    plans = {
        "reference": compile_plan(model, transform, backend="einsum-gather"),
        "autotuned": compile_plan(model, transform, autotune=True, autotune_repeats=2),
    }
    for name, plan in plans.items():
        with PlanExecutor(model, plan) as executor:
            executor.run(x)  # warm-up outside the clock
            samples = []
            for _ in range(7):
                t0 = time.perf_counter()
                executor.run(x)
                samples.append(time.perf_counter() - t0)
        timings[name] = sorted(samples)[len(samples) // 2]
    speedup = timings["reference"] / timings["autotuned"]
    choices = plans["autotuned"].backend_choices()
    non_reference = sum(1 for b in choices.values() if b != "einsum-gather")
    print(
        f"\nautotuned {timings['autotuned'] * 1e3:.2f} ms vs reference "
        f"{timings['reference'] * 1e3:.2f} ms per forward -> {speedup:.2f}x; "
        f"{non_reference}/{len(choices)} layers left the reference backend"
    )
    # The tuner must actually be *choosing*: at least one layer shape has a
    # non-reference winner (CI smoke asserts the same on a fresh machine).
    assert non_reference >= 1
    assert speedup >= 1.5, f"autotuned plan only {speedup:.2f}x faster than reference"


def test_runtime_plan_persistence_warm_restart(serving_setup, tmp_path):
    """Acceptance fence: plan load >= 5x faster than compile + autotune.

    The whole point of persistence — a restarted server skips
    re-decomposition, re-compression, and re-micro-benchmarking.  The
    loaded plan must also be *the same plan*: identical ``backend_choices``
    and bit-identical served outputs.
    """
    model, transform, x = serving_setup
    t0 = time.perf_counter()
    plan = compile_plan(model, transform, autotune=True, autotune_repeats=2)
    compile_time = time.perf_counter() - t0
    path = plan.save(tmp_path / "plan.npz")
    load_plan(path, model)  # warm the file cache / import paths
    t0 = time.perf_counter()
    loaded = load_plan(path, model)
    load_time = time.perf_counter() - t0
    speedup = compile_time / load_time
    print(
        f"\ncompile+autotune {compile_time * 1e3:.1f} ms vs plan load "
        f"{load_time * 1e3:.1f} ms -> {speedup:.1f}x "
        f"({path.stat().st_size / 1024:.0f} KiB artifact)"
    )
    assert loaded.backend_choices() == plan.backend_choices()
    with PlanExecutor(model, plan) as executor:
        fresh = executor.run(x)
    with PlanExecutor(model, loaded) as executor:
        warm = executor.run(x)
    np.testing.assert_array_equal(warm, fresh)
    assert speedup >= 5.0, f"plan load only {speedup:.1f}x faster than compile+autotune"


def test_runtime_compiled_speedup(serving_setup):
    """Acceptance fence: compiled inference >= 3x the per-call path."""
    model, transform, x = serving_setup
    timings = {}
    for mode in ("compiled", "per_call"):
        plan = compile_plan(model, transform, mode=mode)
        with PlanExecutor(model, plan) as executor:
            executor.run(x)  # warm-up outside the clock
            executor.reset_stats()
            samples = []
            for _ in range(5):
                t0 = time.perf_counter()
                executor.run(x)
                samples.append(time.perf_counter() - t0)
            timings[mode] = sorted(samples)[len(samples) // 2]  # median
    speedup = timings["per_call"] / timings["compiled"]
    print(
        f"\ncompiled {timings['compiled'] * 1e3:.2f} ms vs per-call "
        f"{timings['per_call'] * 1e3:.2f} ms per forward -> {speedup:.2f}x"
    )
    assert speedup >= 3.0, f"compiled plan only {speedup:.2f}x faster than per-call"
