"""Inference runtime: compiled execution plans, worker pools, serving.

Turns the functional TASD kernels into a serving system: a
:func:`compile_plan` pass decomposes and compresses static weights exactly
once (:func:`compile_operand` per targeted layer), a :class:`PlanExecutor`
runs batches against the plan with perf counters, and a
:class:`ServingEngine` micro-batches concurrent requests on top.

Quickstart::

    from repro.runtime import PlanExecutor, ServingEngine, compile_plan

    plan = compile_plan(model, transform)          # weights compress once
    with PlanExecutor(model, plan) as executor:
        with ServingEngine(executor, max_batch=8) as engine:
            y = engine.infer(x)                    # compile once, serve many

The structured GEMMs behind every compiled forward dispatch to one of
two kernel backends (:mod:`repro.runtime.backends`): the bit-exact
reference ``einsum-gather`` (the default) and the BLAS-backed
``dense-emulation``, which agrees to rounding error and is the faster one
at every width served here.  Installing a plan also folds the
work that follows each conv GEMM into its epilogue: in eval mode a conv
applies the BatchNorm2d and ReLU after it, and a ResNet block's last conv
also its residual add, in place on the GEMM's fresh output buffer, with
the unfused modules' own arithmetic, so the bits do not change
(:class:`repro.nn.layers.ConvEpilogue`).  A plan-installed forward keeps
no backward caches.  For worker-parallel serving,
swap the :class:`PlanExecutor` for a :class:`ProcessWorkerPool`
(:mod:`repro.runtime.pool`): its worker processes are forked from the
parent, inherit the model and compiled plan copy-on-write, and scale past
the GIL::

    plan = compile_plan(model, transform, backend="dense-emulation")
    with ProcessWorkerPool(model, plan, workers=4) as executor:
        with ServingEngine(executor, workers=4) as engine:
            y = engine.infer(x)                    # forwards run concurrently

Compiled plans persist across restarts (:mod:`repro.runtime.planio`):
``plan.save("plan.npz")`` writes a digest-keyed artifact and
``load_plan("plan.npz", model)`` rebuilds the plan — compressed operands,
gather tables, and backend choices included — without re-decomposing,
refusing models whose weights have drifted.

The runtime is observable end to end (:mod:`repro.runtime.metrics`):
per-layer GEMM latency histograms with fixed buckets merge exactly across
process workers, the serving engine records queue-wait / batch-size /
end-to-end latency histograms plus one :class:`RequestStats` record per
request, whose stamps give its span timeline, and
``engine.serve_metrics(port=9100)`` exposes it all over HTTP —
``/metrics`` (Prometheus text), ``/metrics.json``, ``/healthz``, and a
human-readable ``/statusz`` — using only the stdlib HTTP server.

And it is fault-tolerant, with no switch to turn any of it off: a
supervisor inside :class:`ProcessWorkerPool` always health-checks its
workers and respawns dead ones, forked again with the committed plan
(capped backoff, crash-loop circuit breaker), the engine always records
its metrics, retries micro-batches whose worker died — splitting them to
isolate poison inputs — enforces per-request deadlines and a bounded
admission queue, and degrades onto an in-process :class:`PlanExecutor`
when the pool collapses.  :mod:`repro.runtime.chaos` injects all of those faults
on purpose (kill/hang/slow/poison/crash-on-Nth) for tests and drills.

Operations are zero-downtime: ``engine.swap_plan(path_or_plan)`` builds
a candidate executor on a new compiled artifact next to the live one,
canaries it, and switches the engine onto it only if it reproduces the
live plan's outputs (a wrong-weights artifact, a candidate that fails to
start, or a diverging canary closes the candidate and raises
:class:`SwapRejected` — no executor ever holds two plans, and the old
one never stops serving), and ``engine.drain(timeout)`` stops admission,
finishes every accepted request, then shuts down — the CLI maps SIGTERM
to drain and SIGHUP to a plan reload.
"""

from .backends import (
    DEFAULT_BACKEND,
    GemmBackend,
    backend_names,
    get_backend,
)
from .cache import CompiledOperand, compile_operand, tensor_digest
from .counters import (
    ExecutorStats,
    LayerCounters,
    RequestStats,
    ServeReport,
    WorkerStat,
)
from .executor import PlanExecutor
from .metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsServer,
    export_executor_stats,
    merge_snapshots,
    render_prometheus,
)
from .plan import ExecutionPlan, LayerPlan, compile_plan
from .planio import (
    PlanDigestError,
    PlanFormatError,
    load_plan,
    model_fingerprint,
    plan_fingerprint,
    save_plan,
)
from .chaos import ChaosMonkey, ChaosSpec, is_poisoned, poison_batch, skewed_plan
from .pool import (
    PoolDegradedError,
    ProcessWorkerPool,
    RemoteTraceback,
    WorkerCrashError,
    WorkerPool,
)
from .serve import DeadlineExceeded, QueueFull, ServingEngine, SwapRejected

__all__ = [
    "ChaosMonkey",
    "ChaosSpec",
    "CompiledOperand",
    "Counter",
    "DEFAULT_BACKEND",
    "DeadlineExceeded",
    "ExecutionPlan",
    "ExecutorStats",
    "Gauge",
    "GemmBackend",
    "Histogram",
    "LATENCY_BUCKETS",
    "LayerCounters",
    "LayerPlan",
    "MetricsRegistry",
    "MetricsServer",
    "PlanDigestError",
    "PlanExecutor",
    "PlanFormatError",
    "PoolDegradedError",
    "ProcessWorkerPool",
    "QueueFull",
    "RemoteTraceback",
    "RequestStats",
    "ServeReport",
    "ServingEngine",
    "SwapRejected",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerStat",
    "backend_names",
    "compile_operand",
    "compile_plan",
    "export_executor_stats",
    "get_backend",
    "is_poisoned",
    "load_plan",
    "merge_snapshots",
    "model_fingerprint",
    "plan_fingerprint",
    "poison_batch",
    "skewed_plan",
    "render_prometheus",
    "save_plan",
    "tensor_digest",
]
