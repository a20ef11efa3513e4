"""Compiled-plan vs per-call inference throughput (the runtime's raison d'être).

The per-call path re-decomposes and re-compresses every weight on every
forward — what ``tasd_matmul`` does when used directly.  The compiled plan
pays that cost once at build time and serves forwards from pre-compressed
:class:`CompressedNM` operands.  ``test_runtime_compiled_speedup`` fences
the resulting speedup at >= 3x on a sparse ResNet-18 forward, so the bench
trajectory tracks it.

On top of that sit the kernel-backend fences: ``test_runtime_autotune_speedup``
requires the default allclose plan (``compile_plan(autotune=True)``, every
compiled layer on ``dense-emulation``) to beat the reference
``einsum-gather`` compiled path by >= 1.5x on the same serving workload,
and the worker-pool benches track how serving throughput scales across
forked process workers that inherit the compiled plan (asserted at a
fixed fraction of ``min(4, usable cores)`` for 4 workers — no GIL in
common).

``test_runtime_plan_persistence_warm_restart`` fences the restart story:
loading a persisted plan artifact must be >= 2x faster than compiling the
same plan (each side the median of a few repeats), with identical backend
choices and bit-identical served outputs;
``tests/runtime/test_runtime_planio.py`` checks deterministically that a
load never decomposes or compresses.

The serving engine always records metrics and traces, and the process
pool is always supervised, so their cost sits inside every serving number
here and in ``perfbench/``; there is no uninstrumented configuration to
compare against.  No test here writes a file: the perf trajectory is the
``perfbench/`` records.
"""

from __future__ import annotations

import collections
import contextlib
import os
import statistics
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
WARM_RESTART_REPEATS = 3


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


def test_bench_process_pool_serving(benchmark, serving_setup):
    """Serving throughput with 2 process workers draining 16 requests."""
    model, transform, x = serving_setup
    plan = compile_plan(model, transform, autotune=True)

    def serve_round():
        with ProcessWorkerPool(model, plan, workers=2) as executor:
            with ServingEngine(executor, max_batch=4, batch_window=0.0, workers=2) as engine:
                futures = [engine.submit(x[:1]) for _ in range(16)]
                for f in futures:
                    f.result(timeout=120.0)
        return engine.report()

    report = benchmark.pedantic(serve_round, rounds=1, iterations=1)
    assert report.count == 16


# The scaling fence's measurement: each side serves a closed loop for a
# fixed wall time per window, and the two sides' windows interleave, so a
# slow spell of the host lands on both.  The fraction of ideal scaling was
# set from recorded runs on a 2-core host (see CHANGES.md): a pool whose
# workers serialise behind one lock measures about 1x there.
SCALING_WORKERS = 4
SCALING_WINDOW_S = 1.0
SCALING_ROUNDS = 3
SCALING_FRACTION = 0.7


def _closed_loop_throughput(engine, x, seconds: float, depth: int) -> float:
    """Requests/second served with ``depth`` requests outstanding for ``seconds``."""
    pending = collections.deque(engine.submit(x) for _ in range(depth))
    served = 0
    t0 = time.perf_counter()
    end = t0 + seconds
    while True:
        pending.popleft().result(timeout=120.0)
        served += 1
        if time.perf_counter() >= end:
            break
        pending.append(engine.submit(x))
    elapsed = time.perf_counter() - t0
    for future in pending:
        future.result(timeout=120.0)
    return served / elapsed


def test_process_pool_scaling_throughput(serving_setup):
    """Acceptance fence: N process workers reach a fixed fraction of
    ``min(N, usable cores)`` times one worker's throughput.

    Threads in one interpreter serialise every non-BLAS part of a forward
    on the GIL; worker processes don't, so throughput scales with the
    cores there are to scale onto — and on a 1-core host the fence asks
    only that four workers keep up with one.
    """
    model, transform, x = serving_setup
    plan = compile_plan(model, transform, autotune=True)
    sides = {}
    with contextlib.ExitStack() as stack:
        for workers in (1, SCALING_WORKERS):
            pool = stack.enter_context(ProcessWorkerPool(model, plan, workers=workers))
            sides[workers] = stack.enter_context(
                ServingEngine(pool, max_batch=1, batch_window=0.0, workers=workers)
            )
        rates: dict[int, list[float]] = {workers: [] for workers in sides}
        for engine in sides.values():  # warm outside the clock
            _closed_loop_throughput(engine, x[:1], 0.2, depth=2)
        for _ in range(SCALING_ROUNDS):
            for workers, engine in sides.items():
                rates[workers].append(
                    _closed_loop_throughput(engine, x[:1], SCALING_WINDOW_S, depth=2 * workers)
                )
    single = float(np.median(rates[1]))
    many = float(np.median(rates[SCALING_WORKERS]))
    scaling = many / single
    cores = _usable_cores()
    bound = SCALING_FRACTION * min(SCALING_WORKERS, cores)
    print(
        f"\nserving throughput: 1 process worker {single:.1f} req/s, "
        f"{SCALING_WORKERS} process workers {many:.1f} req/s -> {scaling:.2f}x "
        f"(bound {bound:.2f}x on {cores} usable cores; windows "
        f"{[round(r) for r in rates[1]]} vs {[round(r) for r in rates[SCALING_WORKERS]]})"
    )
    assert scaling >= bound, (
        f"{SCALING_WORKERS} process workers only {scaling:.2f}x single-worker "
        f"throughput; {SCALING_FRACTION} of min({SCALING_WORKERS}, {cores} cores) "
        f"is {bound:.2f}x"
    )


def test_runtime_autotune_speedup(serving_setup):
    """Acceptance fence: the default allclose plan >= 1.5x the reference path."""
    model, transform, x = serving_setup
    timings = {}
    plans = {
        "reference": compile_plan(model, transform, backend="einsum-gather"),
        "allclose": compile_plan(model, transform, autotune=True),
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
    speedup = timings["reference"] / timings["allclose"]
    print(
        f"\nallclose plan {timings['allclose'] * 1e3:.2f} ms vs reference "
        f"{timings['reference'] * 1e3:.2f} ms per forward -> {speedup:.2f}x"
    )
    choices = plans["allclose"].backend_choices()
    assert choices and set(choices.values()) == {"dense-emulation"}
    assert speedup >= 1.5, f"allclose plan only {speedup:.2f}x faster than reference"


def test_runtime_plan_persistence_warm_restart(serving_setup, tmp_path):
    """Acceptance fence: plan load >= 2x faster than compiling the same plan.

    The whole point of persistence — a restarted server skips
    re-decomposition and re-compression.  A load still pays its integrity
    checks (the model's weight digests, the member reads and the per-array
    digests) and builds dense-emulation's prepared matrices, as the compile
    does; these bound the ratio: about 3x on a 2-core host.  The loaded
    plan must also be *the same plan*: identical ``backend_choices`` and
    bit-identical served outputs.
    """
    model, transform, x = serving_setup
    # Each side is the median of a few repeats: one sample of either is at
    # the mercy of whatever else the host runs in that instant.
    compile_times, load_times = [], []
    for _ in range(WARM_RESTART_REPEATS):
        t0 = time.perf_counter()
        plan = compile_plan(model, transform, autotune=True)
        compile_times.append(time.perf_counter() - t0)
    path = plan.save(tmp_path / "plan.npz")
    load_plan(path, model)  # warm the file cache / import paths
    for _ in range(WARM_RESTART_REPEATS):
        t0 = time.perf_counter()
        loaded = load_plan(path, model)
        load_times.append(time.perf_counter() - t0)
    compile_time = statistics.median(compile_times)
    load_time = statistics.median(load_times)
    speedup = compile_time / load_time
    print(
        f"\ncompile {compile_time * 1e3:.1f} ms vs plan load "
        f"{load_time * 1e3:.1f} ms -> {speedup:.1f}x "
        f"({path.stat().st_size / 1024:.0f} KiB artifact)"
    )
    assert loaded.backend_choices() == plan.backend_choices()
    with PlanExecutor(model, plan) as executor:
        fresh = executor.run(x)
    with PlanExecutor(model, loaded) as executor:
        warm = executor.run(x)
    np.testing.assert_array_equal(warm, fresh)
    assert speedup >= 2.0, f"plan load only {speedup:.1f}x faster than compile"


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
