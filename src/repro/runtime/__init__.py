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
three kernel backends (:mod:`repro.runtime.backends`);
``compile_plan(..., autotune=True)`` micro-benchmarks them per layer and
records each winner in the plan.  For worker-parallel serving,
swap the :class:`PlanExecutor` for a :class:`ProcessWorkerPool`
(:mod:`repro.runtime.pool`): its worker processes attach the compiled plan
through shared memory and scale past the GIL::

    plan = compile_plan(model, transform, autotune=True)
    with ProcessWorkerPool(model, plan, workers=4) as executor:
        with ServingEngine(executor, workers=4) as engine:
            y = engine.infer(x)                    # forwards run concurrently

Compiled plans persist across restarts (:mod:`repro.runtime.planio`):
``plan.save("plan.npz")`` writes a digest-keyed artifact and
``load_plan("plan.npz", model)`` rebuilds the plan — compressed operands,
gather tables, and autotuned backend choices included — without
re-decomposing or re-tuning, refusing models whose weights have drifted;
``share_plan``/``attach_plan`` hand the same artifact contents to worker
processes as zero-copy shared-memory views.

The runtime is observable end to end (:mod:`repro.runtime.metrics`,
:mod:`repro.runtime.tracing`): per-layer GEMM latency histograms with
fixed buckets merge exactly across process workers, the
serving engine records queue-wait / batch-size / end-to-end latency
histograms plus per-request traces in a bounded ring, and
``engine.serve_metrics(port=9100)`` exposes it all over HTTP —
``/metrics`` (Prometheus text), ``/metrics.json``, ``/healthz``, and a
human-readable ``/statusz`` — using only the stdlib HTTP server.

And it is fault-tolerant: a supervisor inside :class:`ProcessWorkerPool`
health-checks its workers and respawns dead ones from the already-shared
plan segment (capped backoff, crash-loop circuit breaker), the engine
retries micro-batches whose worker died — splitting them to isolate
poison inputs — enforces per-request deadlines and a bounded admission
queue, and degrades onto an in-process :class:`PlanExecutor` when the
pool collapses.  :mod:`repro.runtime.chaos` injects all of those faults
on purpose (kill/hang/slow/poison/crash-on-Nth) for tests and drills.

Operations are zero-downtime: ``engine.swap_plan(path_or_plan)`` rolls a
new compiled artifact onto live workers one at a time behind a canary
batch (mismatch, attach failure, or a mid-roll crash rolls everything
back and raises :class:`SwapRejected` — the old plan never stops
serving), and ``engine.drain(timeout)`` stops admission,
finishes every accepted request, then shuts down — the CLI maps SIGTERM
to drain and SIGHUP to a plan reload.
"""

from .autotune import AutotuneResult, autotune_operand, retune_plan
from .backends import (
    DEFAULT_BACKEND,
    GemmBackend,
    backend_names,
    exact_backend_names,
    get_backend,
)
from .cache import (
    CompiledOperand,
    SharedArrayRef,
    SharedOperandStore,
    compile_operand,
    tensor_digest,
)
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
    attach_plan,
    load_plan,
    model_fingerprint,
    plan_fingerprint,
    save_plan,
    share_plan,
)
from .chaos import ChaosMonkey, ChaosSpec, is_poisoned, poison_batch, skewed_plan
from .pool import (
    PlanSwapError,
    PoolDegradedError,
    ProcessWorkerPool,
    RemoteTraceback,
    WorkerCrashError,
    WorkerPool,
)
from .serve import DeadlineExceeded, QueueFull, ServingEngine, SwapRejected
from .tracing import RequestTrace, Span, TraceBuffer

__all__ = [
    "AutotuneResult",
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
    "PlanSwapError",
    "PoolDegradedError",
    "ProcessWorkerPool",
    "QueueFull",
    "RemoteTraceback",
    "RequestStats",
    "RequestTrace",
    "ServeReport",
    "ServingEngine",
    "SharedArrayRef",
    "SharedOperandStore",
    "Span",
    "SwapRejected",
    "TraceBuffer",
    "WorkerCrashError",
    "WorkerPool",
    "WorkerStat",
    "attach_plan",
    "autotune_operand",
    "backend_names",
    "compile_operand",
    "compile_plan",
    "exact_backend_names",
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
    "retune_plan",
    "save_plan",
    "share_plan",
    "tensor_digest",
]
