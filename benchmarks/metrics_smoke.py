"""Quick-bench smoke: the live /metrics endpoint must agree with the report.

Serves a request stream over a 4-worker process pool with the metrics
exporter running, scrapes its own ``/metrics`` and ``/metrics.json`` over
HTTP mid-flight, and asserts the scrape is *coherent*: the request-latency
histogram's total equals the engine report's served count, every promised
metric family is present (per-layer GEMM histograms merged across worker
processes, cache counters, per-worker liveness gauges), and ``/healthz``
reports all workers alive.  Runs everywhere — no scaling fences, just
telemetry correctness.  Run by CI on every push::

    PYTHONPATH=src python benchmarks/metrics_smoke.py
"""

from __future__ import annotations

import json
import sys
import urllib.request

import numpy as np

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import ProcessWorkerPool, ServingEngine, compile_plan
from repro.tasder.transform import TASDTransform

WORKERS = 4
REQUESTS = 16

REQUIRED_FAMILIES = (
    "tasd_serve_requests_total",
    "tasd_serve_samples_total",
    "tasd_serve_batches_total",
    "tasd_serve_request_latency_seconds",
    "tasd_serve_queue_wait_seconds",
    "tasd_serve_batch_size",
    "tasd_serve_batch_occupancy",
    "tasd_layer_calls_total",
    "tasd_layer_gemm_latency_seconds",
    "tasd_worker_alive",
    "tasd_worker_requests_total",
    "tasd_serve_queue_depth",
)


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        assert resp.status == 200, f"{url} -> HTTP {resp.status}"
        return resp.read()


def main() -> int:
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
    )
    plan = compile_plan(model, transform)
    rng = np.random.default_rng(0)
    requests = [rng.normal(size=(1, 3, 8, 8)) for _ in range(REQUESTS)]

    with ProcessWorkerPool(model, plan, workers=WORKERS) as pool:
        with ServingEngine(pool, max_batch=4, workers=WORKERS) as engine:
            with engine.serve_metrics(port=0) as server:
                futures = [engine.submit(x) for x in requests]
                for f in futures:
                    f.result(timeout=120.0)
                text = _get(server.url + "/metrics").decode()
                snap = json.loads(_get(server.url + "/metrics.json"))
                health = json.loads(_get(server.url + "/healthz"))
                statusz = _get(server.url + "/statusz").decode()
        report = engine.report()

    for family in REQUIRED_FAMILIES:
        assert family in snap, f"family {family} missing from /metrics.json"
        assert family in text, f"family {family} missing from /metrics"

    # The scrape and the report describe the same traffic.
    (latency,) = snap["tasd_serve_request_latency_seconds"]["series"]
    assert latency["count"] == report.count == REQUESTS, (
        f"latency histogram count {latency['count']} != report count {report.count}"
    )
    assert snap["tasd_serve_requests_total"]["series"][0]["value"] == REQUESTS
    assert snap["tasd_serve_samples_total"]["series"][0]["value"] == report.samples
    assert abs(latency["sum"] - sum(r.latency for r in report.requests)) < 1e-6

    # Every worker process is visible, alive, and the per-worker served
    # counts add up to the batches the pool actually ran.
    alive = {
        s["labels"]["worker"]: s["value"] for s in snap["tasd_worker_alive"]["series"]
    }
    assert len(alive) == WORKERS and all(v == 1.0 for v in alive.values()), alive
    served = sum(s["value"] for s in snap["tasd_worker_requests_total"]["series"])
    batches = snap["tasd_serve_batches_total"]["series"][0]["value"]
    assert served == batches, f"worker served counts {served} != batches {batches}"
    assert health["ok"] and health["workers_alive"] == WORKERS, health

    # Per-layer GEMM histograms shipped by the worker processes merged in:
    # each compiled layer's histogram count equals its call counter.
    calls = {
        s["labels"]["layer"]: s["value"]
        for s in snap["tasd_layer_calls_total"]["series"]
    }
    for s in snap["tasd_layer_gemm_latency_seconds"]["series"]:
        layer = s["labels"]["layer"]
        assert s["count"] == calls[layer], (
            f"layer {layer}: histogram count {s['count']} != calls {calls[layer]}"
        )
    compiled = [n for n, lp in plan.layers.items() if lp.mode == "compiled"]
    assert all(calls.get(name, 0) > 0 for name in compiled)

    assert "recent requests" in statusz

    print(
        f"metrics smoke OK: {REQUESTS} requests over {WORKERS} process workers; "
        f"{len(snap)} metric families, {len(text.splitlines())} exposition lines; "
        f"latency histogram count == report count == {report.count}; "
        f"p50 {report.p50 * 1e3:.2f} ms / p99 {report.p99 * 1e3:.2f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
