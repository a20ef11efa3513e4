"""Tests for the micro-batching serving engine."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import serve as serve_module
from repro.runtime import (
    PlanExecutor,
    ProcessWorkerPool,
    ServeReport,
    ServingEngine,
    compile_plan,
)
from repro.tasder.transform import TASDTransform

CFG = TASDConfig.parse("2:4")


@pytest.fixture(scope="module")
def executor():
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    with PlanExecutor(model, compile_plan(model, transform)) as ex:
        yield ex


def _queue_behind_plug(engine, gate, inputs):
    """Park the engine's one worker in ``run`` with a plug request, queue
    ``inputs`` behind it, and release the gate: the batches after the plug
    are formed from a queue that already held every input.  Returns the
    plug's future and the inputs' futures."""
    gate.hold()
    plug = engine.submit(inputs[0])
    assert gate.entered.wait(30.0)
    futures = [engine.submit(x) for x in inputs]
    assert engine.queue_depth == len(inputs)
    gate.release()
    return plug, futures


def test_micro_batched_output_matches_single_request(executor, gated, batches):
    """Requests queued while the worker is busy ride the next batch,
    ``max_batch`` of them, and the rest ride the batches after; each
    one's output is its single-request output."""
    rng = np.random.default_rng(11)
    inputs = [rng.normal(size=(1, 3, 8, 8)) for _ in range(7)]
    singles = [executor.run(x) for x in inputs]
    with ServingEngine(gated(executor), max_batch=3) as engine:
        plug, futures = _queue_behind_plug(engine, engine.executor, inputs)
        outputs = [f.result(timeout=60.0) for f in futures]
        plug.result(timeout=60.0)
    for single, served in zip(singles, outputs):
        np.testing.assert_allclose(served, single, atol=1e-12)
    # The plug is request 0.
    assert batches(engine.records()) == [[0], [1, 2, 3], [4, 5, 6], [7]]


def test_requests_are_coalesced(executor, gated, batches):
    rng = np.random.default_rng(12)
    inputs = [rng.normal(size=(1, 3, 8, 8)) for _ in range(4)]
    with ServingEngine(gated(executor), max_batch=4) as engine:
        plug, futures = _queue_behind_plug(engine, engine.executor, inputs)
        for f in [plug] + futures:
            f.result(timeout=60.0)
    report = engine.report()
    assert report.count == 5
    # All four requests queued while the worker was busy with the plug, so
    # they share the next micro-batch.
    assert batches(engine.records()) == [[0], [1, 2, 3, 4]]
    assert report.mean_batch_size == (1 + 4 * 4) / 5


def test_idle_engine_dispatches_a_lone_request_at_once(executor, gated, batches):
    """Batching never waits for company: with nothing queued behind it, a
    request is dispatched alone, however large max_batch is."""
    rng = np.random.default_rng(17)
    with ServingEngine(gated(executor), max_batch=8) as engine:
        for _ in range(3):
            engine.infer(rng.normal(size=(1, 3, 8, 8)), timeout=60.0)
    assert batches(engine.records()) == [[0], [1], [2]]


def test_short_batch_yields_once_to_runnable_submitters(executor, gated, batches, monkeypatch):
    """A batch the queue leaves short yields the processor once and takes
    what runnable threads enqueued meanwhile; a batch the queue fills is
    dispatched without yielding."""
    x = np.random.default_rng(19).normal(size=(1, 3, 8, 8))
    yields, late = [], []
    with ServingEngine(gated(executor), max_batch=4) as engine:

        def yield_to_a_client():
            yields.append(engine.queue_depth)
            if len(yields) == 1:  # two clients submit during the first yield
                late.extend(engine.submit(x) for _ in range(2))

        monkeypatch.setattr(serve_module.os, "sched_yield", yield_to_a_client)
        engine.infer(x, timeout=60.0)
        for f in late:
            f.result(timeout=60.0)
        plug, futures = _queue_behind_plug(engine, engine.executor, [x] * 4)
        for f in [plug] + futures:
            f.result(timeout=60.0)
    # Request 0 was joined by the two submitted in its yield; the plug's
    # batch was short and yielded too; the four behind it filled theirs.
    assert batches(engine.records()) == [[0, 1, 2], [3], [4, 5, 6, 7]]
    assert yields == [0, 0]


def test_multi_sample_requests_split_correctly(executor):
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2, 3, 8, 8))
    b = rng.normal(size=(3, 3, 8, 8))
    expect_a, expect_b = executor.run(a), executor.run(b)
    with ServingEngine(executor, max_batch=8) as engine:
        fa, fb = engine.submit(a), engine.submit(b)
        out_a, out_b = fa.result(timeout=60.0), fb.result(timeout=60.0)
    assert out_a.shape == (2, 10) and out_b.shape == (3, 10)
    np.testing.assert_allclose(out_a, expect_a, atol=1e-12)
    np.testing.assert_allclose(out_b, expect_b, atol=1e-12)


def test_report_latency_stats_populated(executor):
    rng = np.random.default_rng(14)
    with ServingEngine(executor, max_batch=2) as engine:
        engine.infer(rng.normal(size=(1, 3, 8, 8)), timeout=60.0)
        engine.infer(rng.normal(size=(1, 3, 8, 8)), timeout=60.0)
    report = engine.report()
    assert report.count == 2
    assert all(r.latency >= r.compute_time >= 0.0 for r in report.requests)
    assert report.mean_latency > 0.0
    assert report.p95 >= report.p50 > 0.0
    assert "requests" in report.summary()


def test_submit_requires_running_engine(executor):
    engine = ServingEngine(executor)
    with pytest.raises(RuntimeError, match="not running"):
        engine.submit(np.zeros((1, 3, 8, 8)))


def test_stop_is_idempotent(executor):
    engine = ServingEngine(executor).start()
    engine.stop()
    engine.stop()  # no-op


def test_restart_resets_report_window(executor):
    """stop() → start() must not leak the previous run's telemetry."""
    rng = np.random.default_rng(18)
    x = rng.normal(size=(1, 3, 8, 8))
    engine = ServingEngine(executor, max_batch=2)
    engine.start()
    engine.infer(x, timeout=60.0)
    engine.infer(x, timeout=60.0)
    engine.stop()
    first = engine.report()
    assert first.count == 2
    time.sleep(0.05)  # idle gap that must not count toward the next window
    t0 = time.perf_counter()
    engine.start()
    engine.infer(x, timeout=60.0)
    engine.stop()
    window = time.perf_counter() - t0
    second = engine.report()
    # Only the second run's single request, not 3 accumulated across runs.
    assert second.count == 1
    first_ids = {r.request_id for r in first.requests}
    assert all(r.request_id not in first_ids for r in second.requests)
    # The wall-time window restarted too: it covers the second run only,
    # not start#1 → stop#2 (which would include the first run + idle gap).
    assert second.wall_time <= window + 0.01
    assert second.wall_time > 0.0


def test_invalid_parameters(executor):
    with pytest.raises(ValueError):
        ServingEngine(executor, max_batch=0)
    with pytest.raises(ValueError):
        ServingEngine(executor, workers=0)


def test_mismatched_request_survives_immediate_stop(executor, gated):
    """A shape-incompatible request gathered mid-shutdown must still resolve."""
    rng = np.random.default_rng(15)
    a = rng.normal(size=(1, 3, 8, 8))
    b = rng.normal(size=(1, 3, 16, 16))  # incompatible with a's micro-batch
    engine = ServingEngine(gated(executor), max_batch=4).start()
    gate = engine.executor
    gate.hold()
    plug = engine.submit(a)
    assert gate.entered.wait(30.0)
    fa, fb = engine.submit(a), engine.submit(b)
    # stop() while a and b are still queued: the worker gathers them, and
    # carries b, with the engine already stopped.
    stopper = threading.Thread(target=engine.stop)
    stopper.start()
    deadline = time.perf_counter() + 30.0
    while engine.running and time.perf_counter() < deadline:
        time.sleep(0.001)
    gate.release()
    assert not engine.running
    stopper.join(60.0)
    assert not stopper.is_alive()
    assert plug.result(timeout=30.0).shape == (1, 10)
    assert fa.result(timeout=30.0).shape == (1, 10)
    assert fb.result(timeout=30.0).shape == (1, 10)


def test_mixed_dtype_requests_keep_exact_results(executor, gated, batches):
    """float32 and float64 requests must not be coalesced (concat upcasts),
    nor requests of different sample shapes: the first mismatched request
    is carried to open the next batch, which its compatible followers
    join, and each request is answered exactly."""
    rng = np.random.default_rng(16)
    a32 = rng.normal(size=(1, 3, 8, 8)).astype(np.float32)
    b64 = rng.normal(size=(1, 3, 8, 8))
    c16 = rng.normal(size=(1, 3, 16, 16))
    requests = [a32, a32, b64, b64, c16]
    # Each batch's exact output: a request coalesced with a mismatched one
    # would be computed at another shape or dtype and differ in its bits.
    expected = [
        *executor.run(np.concatenate([a32, a32]))[:, None],
        *executor.run(np.concatenate([b64, b64]))[:, None],
        executor.run(c16),
    ]
    with ServingEngine(gated(executor), max_batch=4) as engine:
        plug, futures = _queue_behind_plug(engine, engine.executor, requests)
        outputs = [f.result(timeout=30.0) for f in futures]
        plug.result(timeout=30.0)
    for out, expect in zip(outputs, expected):
        np.testing.assert_array_equal(out, expect)
    assert batches(engine.records()) == [[0], [1, 2], [3, 4], [5]]


# ---------------------------------------------------------------------- #
# Telemetry: reports, request records, and the live HTTP endpoint
# ---------------------------------------------------------------------- #
def test_empty_report_is_well_defined(executor):
    """A server that starts and stops without traffic must summarise cleanly
    — zero everywhere, never NaN/inf from dividing by the served count."""
    engine = ServingEngine(executor)
    engine.start()
    engine.stop()
    report = engine.report()
    assert report.count == 0 and report.samples == 0
    assert report.mean_latency == 0.0
    assert report.mean_batch_size == 0.0
    assert report.throughput == 0.0
    assert report.p50 == report.p95 == report.p99 == 0.0
    text = report.summary()
    assert "0 requests" in text
    assert "nan" not in text.lower() and "inf" not in text.lower()
    # The bare dataclass (no engine, no histogram) is just as well-defined.
    bare = ServeReport()
    assert bare.p99 == 0.0 and "nan" not in bare.summary().lower()


def test_report_percentiles_come_from_the_live_histogram(executor):
    rng = np.random.default_rng(21)
    with ServingEngine(executor, max_batch=2) as engine:
        for _ in range(6):
            engine.infer(rng.normal(size=(1, 3, 8, 8)), timeout=60.0)
    report = engine.report()
    hist = report.histogram
    assert hist.count == report.count == 6
    assert 0.0 < report.p50 <= report.p95 <= report.p99
    assert "p50" in report.summary() and "p99" in report.summary()


def test_concurrent_report_never_sees_a_torn_batch(executor):
    """Hammer report() while batches land: every micro-batch must appear
    atomically (all of its requests or none), never partially."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(1, 3, 8, 8))
    stop = threading.Event()
    torn: list[str] = []

    def hammer(engine):
        while not stop.is_set():
            report = engine.report()
            groups: dict = {}
            for r in report.requests:
                groups.setdefault((r.batch_size, r.compute_time), []).append(r)
            for (batch_size, _), members in groups.items():
                # Requests of one micro-batch share batch_size and the exact
                # same compute_time float; a torn read shows up as a group
                # smaller than its declared batch size.
                if len(members) != batch_size:
                    torn.append(f"saw {len(members)} of a {batch_size}-request batch")

    with ServingEngine(executor, max_batch=4, workers=2) as engine:
        threads = [threading.Thread(target=hammer, args=(engine,)) for _ in range(3)]
        for t in threads:
            t.start()
        futures = [engine.submit(x) for _ in range(32)]
        for f in futures:
            f.result(timeout=60.0)
        stop.set()
        for t in threads:
            t.join()
    assert not torn, torn[:3]
    assert engine.report().count == 32


def test_records_carry_the_request_timeline(executor):
    rng = np.random.default_rng(24)
    with ServingEngine(executor, max_batch=2) as engine:
        futures = [engine.submit(rng.normal(size=(1, 3, 8, 8))) for _ in range(6)]
        for f in futures:
            f.result(timeout=60.0)
    records = engine.records()
    assert sorted(r.request_id for r in records) == list(range(6))
    for r in records:
        spans = r.spans()
        assert tuple(spans) == ("enqueue", "batch_form", "execute", "reply")
        assert r.error is None and r.latency > 0.0
        assert spans["execute"] > 0.0 and spans["reply"] >= 0.0
    assert "recent requests: showing 6 of 6 recorded" in engine.statusz()


def _scrape(url: str):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return resp.status, resp.read().decode()


def test_live_metrics_endpoint_end_to_end():
    """Serve over a process pool, scrape /metrics mid-flight, and check the
    scrape agrees with the engine's own report."""
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    plan = compile_plan(model, transform)
    rng = np.random.default_rng(25)
    with ProcessWorkerPool(model, plan, workers=2) as pool:
        with ServingEngine(pool, max_batch=4, workers=2) as engine:
            uids = {str(w.uid) for w in pool.worker_stats()}
            with engine.serve_metrics(port=0) as server:
                futures = [engine.submit(rng.normal(size=(2, 3, 8, 8))) for _ in range(8)]
                for f in futures:
                    f.result(timeout=120.0)
                status, text = _scrape(server.url + "/metrics")
                assert status == 200
                status, body = _scrape(server.url + "/metrics.json")
                snap = json.loads(body)
                status, body = _scrape(server.url + "/healthz")
                health = json.loads(body)
            report = engine.report()
    # Prometheus text carries every family the issue promises.
    for family in (
        "tasd_serve_requests_total",
        "tasd_serve_request_latency_seconds_bucket",
        "tasd_serve_queue_wait_seconds_bucket",
        "tasd_serve_batch_size_bucket",
        "tasd_layer_gemm_latency_seconds_bucket",
        "tasd_layer_calls_total",
        "tasd_worker_alive",
        "tasd_worker_requests_total",
    ):
        assert family in text, family
    # The request-latency histogram total equals the report's served count.
    (latency_series,) = snap["tasd_serve_request_latency_seconds"]["series"]
    assert latency_series["count"] == report.count == 8
    assert snap["tasd_serve_requests_total"]["series"][0]["value"] == 8.0
    # Both pool workers are visible and were alive mid-scrape.
    workers = {
        s["labels"]["worker"]: s["value"]
        for s in snap["tasd_worker_alive"]["series"]
    }
    assert set(workers) == uids and len(uids) == 2
    assert all(v == 1.0 for v in workers.values())
    assert health["ok"] is True and health["workers_alive"] == 2
    # Per-layer GEMM histograms merged across workers: calls recorded on
    # every compiled layer, each histogram's count matching its call counter.
    calls = {
        s["labels"]["layer"]: s["value"]
        for s in snap["tasd_layer_calls_total"]["series"]
    }
    gemm_counts: dict = {}
    for s in snap["tasd_layer_gemm_latency_seconds"]["series"]:
        layer = s["labels"]["layer"]
        gemm_counts[layer] = gemm_counts.get(layer, 0) + s["count"]
    for name, plan_layer in plan.layers.items():
        if plan_layer.mode == "compiled":
            assert gemm_counts.get(name) == calls.get(name) != None  # noqa: E711


def test_healthz_status_and_recovery_counters_scrape(executor):
    """A healthy engine scrapes status "ok" and exports the recovery metrics."""
    engine = ServingEngine(executor)
    with engine:
        engine.infer(np.random.default_rng(3).normal(size=(1, 3, 8, 8)), timeout=60.0)
        with engine.serve_metrics(port=0) as server:
            status, body = _scrape(server.url + "/healthz")
            detail = json.loads(body)
            assert status == 200
            assert detail["status"] == "ok"
            assert detail["fallback_active"] is False
            status, text = _scrape(server.url + "/metrics")
            for name in (
                "tasd_serve_requests_retried_total",
                "tasd_serve_deadline_exceeded_total",
                "tasd_serve_queue_rejected_total",
                "tasd_serve_degraded",
            ):
                assert name in text, f"{name} missing from /metrics"
            assert "tasd_serve_degraded 0" in text  # healthy: not degraded


def test_healthz_reports_stopped_engine_unhealthy(executor):
    engine = ServingEngine(executor)
    with engine.serve_metrics(port=0) as server:
        import urllib.error

        with pytest.raises(urllib.error.HTTPError) as exc:
            _scrape(server.url + "/healthz")
        assert exc.value.code == 503
        engine.start()
        status, body = _scrape(server.url + "/healthz")
        assert status == 200 and json.loads(body)["running"] is True
        engine.stop()
        with pytest.raises(urllib.error.HTTPError) as exc:
            _scrape(server.url + "/healthz")
        assert json.loads(exc.value.read().decode())["running"] is False
