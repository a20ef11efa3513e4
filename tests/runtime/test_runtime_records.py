"""Tests for the serving engine's per-request records and request lifecycle.

Every admitted request reaches exactly one terminal state — served,
failed, expired or cancelled — and leaves exactly one
:class:`RequestStats` record.  The unit tests pin the record's stamp
arithmetic and the ``/statusz`` table built from it; the property test
drives generated submit / cancel / deadline sequences through an
in-process engine and checks that the futures, the records and the
metrics counters all agree.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TASDConfig
from repro.nn import Linear, Sequential
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    DeadlineExceeded,
    PlanExecutor,
    RequestStats,
    ServingEngine,
    WorkerCrashError,
    compile_plan,
)
from repro.tasder.transform import TASDTransform

CFG = TASDConfig.parse("2:4")
GOOD = np.random.default_rng(8).normal(size=(1, 32))
BAD = np.zeros((1, 31))  # wrong reduction width: the forward raises


def _record(**kw) -> RequestStats:
    stamps = dict(
        submitted_at=0.0,
        collected_at=0.001,
        dispatched_at=0.003,
        done_at=0.013,
        resolved_at=0.014,
    )
    stamps.update(kw)
    return RequestStats(request_id=7, batch_size=2, samples=1, **stamps)


@pytest.fixture(scope="module")
def compiled():
    model = Sequential(Linear(32, 48), Linear(48, 16))
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    return model, compile_plan(model, transform)


def _count(snapshot: dict, name: str) -> float:
    return sum(series["value"] for series in snapshot[name]["series"])


# --------------------------------------------------------------------- #
# The record
# --------------------------------------------------------------------- #
def test_spans_tile_the_timeline():
    r = _record()
    spans = r.spans()
    assert tuple(spans) == ("enqueue", "batch_form", "execute", "reply")
    assert spans["enqueue"] == pytest.approx(0.001)
    assert spans["batch_form"] == pytest.approx(0.002)
    assert spans["execute"] == pytest.approx(0.010)
    assert spans["reply"] == pytest.approx(0.001)
    assert sum(spans.values()) == pytest.approx(r.resolved_at - r.submitted_at)
    assert r.queue_time == pytest.approx(0.003)
    assert r.compute_time == pytest.approx(0.010)
    assert r.latency == pytest.approx(0.013)  # submit to result, reply excluded
    assert r.error is None


def test_out_of_order_stamps_are_clamped_monotonic():
    """A request that skipped stages (expired or cancelled before
    dispatch, or served synchronously at shutdown) has zero-length spans,
    never negative ones."""
    r = _record(collected_at=0.0, dispatched_at=0.0, done_at=0.005, resolved_at=0.0)
    spans = r.spans()
    assert all(d >= 0.0 for d in spans.values())
    assert spans["enqueue"] == 0.0 and spans["reply"] == 0.0
    assert r.latency == pytest.approx(0.005)
    never_collected = _record(
        submitted_at=1.0, collected_at=0.0, dispatched_at=0.0, done_at=0.0, resolved_at=0.0
    )
    assert never_collected.latency == 0.0
    assert all(d == 0.0 for d in never_collected.spans().values())


def test_expired_request_leaves_a_record_with_no_execute_span(compiled):
    """An expired request is never dispatched: its record names the
    deadline error, has a zero execute span, and stays out of report()."""
    model, plan = compiled
    with ServingEngine(PlanExecutor(model, plan), max_batch=1) as engine:
        future = engine.submit(GOOD, deadline=1e-9)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=30.0)
        engine.infer(GOOD, timeout=30.0)
        expired, served = engine.records()
        body = engine.statusz()
    assert expired.error.startswith("DeadlineExceeded: ")
    assert expired.compute_time == 0.0 and expired.spans()["execute"] == 0.0
    assert served.error is None and served.compute_time > 0.0
    assert engine.report().count == 1
    assert [r.request_id for r in engine.report().requests] == [served.request_id]
    rows = body.splitlines()[-2:]
    assert rows[0].rstrip().endswith("ok")  # newest first
    assert "DeadlineExceeded" in rows[1]


def test_concurrent_submitters_leave_one_record_each(compiled):
    """Every request of several racing submitters is recorded exactly
    once, with no bound on how many are kept."""
    model, plan = compiled
    threads, per_thread = 8, 40
    with ServingEngine(PlanExecutor(model, plan), max_batch=4) as engine:

        def work():
            for _ in range(per_thread):
                engine.infer(GOOD, timeout=30.0)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        records = engine.records()
    total = threads * per_thread
    assert sorted(r.request_id for r in records) == list(range(total))
    assert all(r.error is None and 1 <= r.batch_size <= 4 for r in records)
    assert engine.report().count == total
    assert _count(engine.metrics.snapshot(), "tasd_serve_requests_total") == total


def test_restart_clears_every_record(compiled):
    """Records of every outcome stay readable between stop() and a
    restart, which starts a fresh list."""
    model, plan = compiled
    engine = ServingEngine(PlanExecutor(model, plan), max_batch=1).start()
    try:
        engine.infer(GOOD, timeout=30.0)
        with pytest.raises(ValueError):
            engine.infer(BAD, timeout=30.0)
    finally:
        engine.stop()
    assert [r.error is None for r in engine.records()] == [True, False]
    engine.start()
    try:
        assert engine.records() == []
        assert "recent requests: showing 0 of 0 recorded" in engine.statusz()
        engine.infer(GOOD, timeout=30.0)
        assert len(engine.records()) == 1 and engine.records()[0].error is None
    finally:
        engine.stop()


# --------------------------------------------------------------------- #
# /statusz
# --------------------------------------------------------------------- #
def test_statusz_lists_every_outcome_newest_first(compiled):
    model, plan = compiled

    class CrashOnce(PlanExecutor):
        crashed = False

        def run(self, x):
            if not self.crashed:
                self.crashed = True
                raise WorkerCrashError("injected crash")
            return super().run(x)

    with ServingEngine(CrashOnce(model, plan), max_batch=1) as engine:
        engine.infer(GOOD, timeout=30.0)  # retried once after the crash
        with pytest.raises(ValueError):
            engine.infer(BAD, timeout=30.0)
        body = engine.statusz()
    lines = body.splitlines()
    assert "recent requests: showing 2 of 2 recorded" in lines
    rows = lines[lines.index("recent requests: showing 2 of 2 recorded") + 3 :]
    assert rows[0].split()[0] == "1" and "ValueError" in rows[0]  # newest first
    assert rows[1].split()[0] == "0" and rows[1].rstrip().endswith("ok (x2)")
    assert engine.report().count == 1  # the report holds served records only
    assert len(engine.records()) == 2


def test_statusz_shows_the_newest_25(compiled):
    model, plan = compiled
    with ServingEngine(PlanExecutor(model, plan), max_batch=4) as engine:
        for _ in range(30):
            engine.infer(GOOD, timeout=30.0)
        body = engine.statusz()
    assert "recent requests: showing 25 of 30 recorded" in body
    assert body.startswith("30 requests")  # the report summary comes first


# --------------------------------------------------------------------- #
# The request lifecycle, as a property
# --------------------------------------------------------------------- #
SUBMIT = st.tuples(
    st.just("submit"),
    st.sampled_from(["none", "expired", "ample"]),  # deadline
    st.booleans(),  # a request whose forward raises
)
CANCEL = st.tuples(st.just("cancel"), st.integers(0, 31))
PAUSE = st.tuples(st.just("pause"), st.sampled_from([0.0, 0.001, 0.003]))
DEADLINES = {"none": None, "expired": 1e-9, "ample": 30.0}


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(st.one_of(SUBMIT, CANCEL, PAUSE), max_size=32),
    max_batch=st.integers(1, 4),
    drain=st.booleans(),
)
def test_every_admitted_request_resolves_once_and_is_counted(
    compiled, ops, max_batch, drain
):
    """Under any submit / cancel / deadline sequence, ended by a drain or
    an immediate stop: every admitted future resolves exactly once, each
    leaves one record whose outcome matches its future, and the served,
    expired and failed records equal their metrics counters."""
    model, plan = compiled
    engine = ServingEngine(PlanExecutor(model, plan), max_batch=max_batch).start()
    futures = []
    resolutions: list[int] = []
    lock = threading.Lock()

    def on_done(idx, _future):
        with lock:
            resolutions[idx] += 1

    try:
        for op in ops:
            if op[0] == "submit":
                _, deadline, bad = op
                future = engine.submit(BAD if bad else GOOD, deadline=DEADLINES[deadline])
                with lock:
                    resolutions.append(0)
                future.add_done_callback(lambda f, idx=len(futures): on_done(idx, f))
                futures.append(future)
            elif op[0] == "cancel" and futures:
                futures[op[1] % len(futures)].cancel()
            elif op[0] == "pause":
                time.sleep(op[1])
    finally:
        if drain:
            assert engine.drain(timeout=30.0)
        else:
            engine.stop()

    assert all(f.done() for f in futures)
    with lock:
        assert resolutions == [1] * len(futures)
    records = engine.records()
    assert len(records) == len(futures)
    by_id = {r.request_id: r for r in records}
    assert len(by_id) == len(records)  # one record per request

    outcomes = {"served": 0, "expired": 0, "failed": 0, "cancelled": 0}
    for request_id, future in enumerate(futures):
        record = by_id[request_id]
        if future.cancelled():
            assert record.error == "cancelled"
            outcomes["cancelled"] += 1
            continue
        exc = future.exception()
        if exc is None:
            assert record.error is None
            assert future.result().shape == (1, 16)
            outcomes["served"] += 1
        elif isinstance(exc, DeadlineExceeded):
            assert record.error.startswith("DeadlineExceeded: ")
            outcomes["expired"] += 1
        else:
            assert not isinstance(exc, CancelledError)
            assert record.error == f"{type(exc).__name__}: {exc}"
            outcomes["failed"] += 1
        assert record.submitted_at <= record.dispatched_at <= record.done_at
        assert record.done_at <= record.resolved_at

    snapshot = engine.metrics.snapshot()
    assert outcomes["served"] == _count(snapshot, "tasd_serve_requests_total")
    assert outcomes["served"] == engine.report().count
    assert outcomes["expired"] == _count(snapshot, "tasd_serve_deadline_exceeded_total")
    assert outcomes["failed"] == _count(snapshot, "tasd_serve_errors_total")
