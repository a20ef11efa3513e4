"""Quick-bench smoke: process-pool serving must equal in-process serving.

Compiles a small sparse model, serves the same request stream through the
in-process :class:`PlanExecutor` and the process worker pool (forked
workers that inherit the compiled plan), and asserts the outputs
are **bit-identical** and that both report the same counters — calls,
structured and dense MACs, served widths and GEMM histogram counts, the
pool summing its per-worker counter arrays into one ``stats()`` view.
Runs everywhere — including single-core CI boxes, where the scaling
*fences* are skipped but correctness must still hold.  Run by CI on
every push::

    PYTHONPATH=src python benchmarks/pool_smoke.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import PlanExecutor, ProcessWorkerPool, ServingEngine, compile_plan
from repro.tasder.transform import TASDTransform

WORKERS = 2
REQUESTS = 12


def _serve(pool, requests) -> tuple[list[np.ndarray], object, object]:
    with pool:
        with ServingEngine(pool, max_batch=1, batch_window=0.0, workers=WORKERS) as engine:
            futures = [engine.submit(x) for x in requests]
            outputs = [f.result(timeout=120.0) for f in futures]
        stats = pool.stats()
    return outputs, engine.report(), stats


def main() -> int:
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
    )
    plan = compile_plan(model, transform)
    rng = np.random.default_rng(0)
    requests = [rng.normal(size=(1, 3, 8, 8)) for _ in range(REQUESTS)]

    t0 = time.perf_counter()
    local_out, local_report, local_stats = _serve(PlanExecutor(model, plan), requests)
    local_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    process_out, process_report, process_stats = _serve(
        ProcessWorkerPool(model, plan, workers=WORKERS), requests
    )
    process_time = time.perf_counter() - t0

    assert local_report.count == process_report.count == REQUESTS
    for i, (a, b) in enumerate(zip(local_out, process_out)):
        np.testing.assert_array_equal(
            b, a, err_msg=f"request {i}: process pool diverged from PlanExecutor"
        )
    print(f"{REQUESTS} requests served bit-identically by both executors "
          f"(in-process {local_time * 1e3:.0f} ms, "
          f"{WORKERS} process workers {process_time * 1e3:.0f} ms)")

    # Counter merging: max_batch=1, so every layer ran once per request in
    # both substrates, regardless of which worker served it.
    for name, stats in (("in-process", local_stats), ("process", process_stats)):
        assert stats.batches == REQUESTS, (name, stats.batches)
        bad = {ln: c.calls for ln, c in stats.layers.items() if c.calls != REQUESTS}
        assert not bad, f"{name} counters out of step: {bad}"
        assert stats.total.structured_macs > 0
    # Everything counted exactly agrees layer by layer: both MAC counts,
    # the served widths and the GEMM histogram's count.  Which latency
    # bucket a call lands in is timing, so only the buckets' sum is compared.
    def exact(stats):
        return {
            ln: (c.calls, c.structured_macs, c.dense_macs, c.col_widths,
                 c.gemm_seconds.count, sum(c.gemm_seconds.counts))
            for ln, c in stats.layers.items()
        }

    local_exact, process_exact = exact(local_stats), exact(process_stats)
    bad = sorted(ln for ln in local_exact if process_exact.get(ln) != local_exact[ln])
    assert not bad and local_exact.keys() == process_exact.keys(), (
        f"pool and in-process counters disagree on {bad}"
    )
    print(f"per-worker counters merge consistently: {len(process_stats.layers)} layers x "
          f"{REQUESTS} calls, MACs, widths and histogram counts equal in both executors")
    print("POOL SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
