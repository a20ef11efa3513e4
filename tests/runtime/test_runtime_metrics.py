"""Tests for the metrics registry, histogram merge semantics, and exporter."""

from __future__ import annotations

import itertools
import json
import math
import pickle
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.counters import COLUMNS, ExecutorStats, LayerCounters, reset, snapshot
from repro.runtime.metrics import (
    BATCH_SIZE_BUCKETS,
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


# ---------------------------------------------------------------------- #
# Primitives
# ---------------------------------------------------------------------- #
def test_counter_increments_and_rejects_negative():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError, match="only increase"):
        c.inc(-1)
    c.reset()
    assert c.value == 0.0


def test_gauge_moves_both_ways():
    g = Gauge()
    g.set(4)
    g.inc(2)
    g.dec(5)
    assert g.value == 1.0


def test_histogram_buckets_are_fixed_log_spaced():
    assert len(LATENCY_BUCKETS) == 29
    assert LATENCY_BUCKETS[0] == pytest.approx(1e-5)
    assert LATENCY_BUCKETS[-1] == pytest.approx(1e2)
    ratios = [b / a for a, b in zip(LATENCY_BUCKETS, LATENCY_BUCKETS[1:])]
    assert all(r == pytest.approx(10.0 ** 0.25) for r in ratios)


def test_histogram_observe_and_percentiles():
    h = Histogram(buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 0.5, 1.5, 3.0, 100.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(105.5)
    assert h.counts == [2, 1, 1, 1]  # last slot is the +Inf overflow bucket
    # The median (rank 3 of 5) lands in the (1, 2] bucket; interpolation
    # keeps the estimate inside that bucket's bounds.
    assert 1.0 < h.percentile(50) <= 2.0
    # Tail past the last bound saturates at the last bound, never NaN/inf.
    assert h.percentile(99) == 4.0
    assert h.mean == pytest.approx(21.1)


def test_empty_histogram_is_nan_free():
    h = Histogram()
    assert h.percentile(50) == 0.0
    assert h.percentile(99) == 0.0
    assert h.mean == 0.0


def test_histogram_merge_is_exact():
    """Merging equals observing everything in one histogram — exactly."""
    a, b, whole = Histogram(), Histogram(), Histogram()
    obs_a = [1e-5, 3e-4, 0.002, 0.002, 1.0]
    obs_b = [2e-4, 0.5, 7.0, 300.0]
    for v in obs_a:
        a.observe(v)
        whole.observe(v)
    for v in obs_b:
        b.observe(v)
        whole.observe(v)
    a.merge_from(b)
    assert a == whole
    assert a.counts == whole.counts  # integer bucket counts, no rebinning
    assert b.count == len(obs_b)  # the merged-in operand is untouched


_LATENCIES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=LATENCY_BUCKETS[-1], allow_nan=False),
    st.floats(min_value=LATENCY_BUCKETS[-1], max_value=1e6, exclude_min=True),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_LATENCIES, st.integers(0, 2)), max_size=60))
def test_histogram_merge_is_associative_and_commutative(observations):
    """Any merge order and grouping of three histograms equals one histogram
    that observed every value.

    ``counts`` and ``count`` are integer sums and must match exactly.
    ``sum`` is a float sum, and float addition is not associative, so a
    different order may differ in the last bits: it is compared with
    ``math.isclose``.
    """
    parts = [Histogram(), Histogram(), Histogram()]
    whole = Histogram()
    for value, part in observations:
        parts[part].observe(value)
        whole.observe(value)
    for a, b, c in itertools.permutations(parts):
        left = a.snapshot()  # (a + b) + c
        left.merge_from(b)
        left.merge_from(c)
        bc = b.snapshot()  # a + (b + c)
        bc.merge_from(c)
        right = a.snapshot()
        right.merge_from(bc)
        in_place = Histogram()
        for h in (a, b, c):
            in_place.merge_from(h)
        for merged in (left, right, in_place):
            assert merged.counts == whole.counts
            assert merged.count == whole.count == len(observations)
            assert math.isclose(merged.sum, whole.sum)


def test_histogram_merge_rejects_different_buckets():
    with pytest.raises(ValueError, match="different bucket bounds"):
        Histogram().merge_from(Histogram(buckets=BATCH_SIZE_BUCKETS))


def test_histogram_snapshot_is_independent():
    h = Histogram()
    h.observe(0.01)
    snap = h.snapshot()
    h.observe(0.02)
    assert snap.count == 1 and h.count == 2


def test_histogram_concurrent_observers_lose_nothing():
    h = Histogram()
    n, threads = 2000, 8

    def work():
        for _ in range(n):
            h.observe(0.001)

    ts = [threading.Thread(target=work) for _ in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert h.count == n * threads
    assert sum(h.counts) == n * threads


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
def test_registry_registration_is_idempotent_but_shape_checked():
    reg = MetricsRegistry()
    c1 = reg.counter("tasd_test_total", "help text")
    c2 = reg.counter("tasd_test_total")
    assert c1 is c2
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("tasd_test_total")
    with pytest.raises(ValueError, match="already registered"):
        reg.counter("tasd_test_total", labels=("layer",))


def test_registry_rejects_bad_names():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="invalid metric name"):
        reg.counter("bad name")
    with pytest.raises(ValueError, match="invalid label name"):
        reg.counter("fine_name", labels=("bad-label",))


def test_labeled_family_children_are_distinct_and_cached():
    reg = MetricsRegistry()
    fam = reg.counter("tasd_calls_total", labels=("layer",))
    fam.labels(layer="a").inc(3)
    fam.labels(layer="b").inc(1)
    assert fam.labels(layer="a").value == 3.0
    with pytest.raises(ValueError, match="expects labels"):
        fam.labels(wrong="a")


def test_snapshot_shape_and_json_serializable():
    reg = MetricsRegistry()
    reg.counter("tasd_reqs_total", "requests").inc(2)
    reg.gauge("tasd_depth", "queue depth").set(7)
    reg.histogram("tasd_lat_seconds", "latency").observe(0.02)
    snap = reg.snapshot()
    json.dumps(snap)  # plain dict all the way down
    assert snap["tasd_reqs_total"]["type"] == "counter"
    assert snap["tasd_reqs_total"]["series"][0]["value"] == 2.0
    assert snap["tasd_depth"]["series"][0]["value"] == 7.0
    hseries = snap["tasd_lat_seconds"]["series"][0]
    assert hseries["count"] == 1
    assert len(hseries["le"]) == len(LATENCY_BUCKETS)
    assert len(hseries["counts"]) == len(LATENCY_BUCKETS) + 1


def test_prometheus_rendering_format():
    reg = MetricsRegistry()
    reg.counter("tasd_reqs_total", "served requests").inc(5)
    fam = reg.histogram("tasd_lat_seconds", "latency", labels=("layer",))
    fam.labels(layer="conv1").observe(0.02)
    fam.labels(layer="conv1").observe(50.0)
    text = reg.render()
    assert "# HELP tasd_reqs_total served requests" in text
    assert "# TYPE tasd_reqs_total counter" in text
    assert "tasd_reqs_total 5" in text
    assert "# TYPE tasd_lat_seconds histogram" in text
    # Buckets are cumulative and end with the +Inf bound == _count.
    assert 'tasd_lat_seconds_bucket{layer="conv1",le="+Inf"} 2' in text
    assert 'tasd_lat_seconds_count{layer="conv1"} 2' in text
    assert 'tasd_lat_seconds_sum{layer="conv1"}' in text
    cums = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("tasd_lat_seconds_bucket")
    ]
    assert cums == sorted(cums)
    assert cums[-1] == 2


def test_prometheus_escapes_label_values():
    reg = MetricsRegistry()
    reg.counter("tasd_x_total", labels=("name",)).labels(name='we"ird\\v').inc()
    text = reg.render()
    assert 'name="we\\"ird\\\\v"' in text


# ---------------------------------------------------------------------- #
# Snapshot merging
# ---------------------------------------------------------------------- #
def _snap_with(kind, name, value=None, labels=None, observations=()):
    reg = MetricsRegistry()
    fam = getattr(reg, kind)(name, labels=tuple(labels or ()))
    child = fam.labels(**(labels or {})) if labels else fam
    if kind == "counter":
        child.inc(value)
    elif kind == "gauge":
        child.set(value)
    else:
        for v in observations:
            child.observe(v)
    return reg.snapshot()


def test_merge_snapshots_counters_sum_gauges_last_win():
    a = _snap_with("counter", "tasd_reqs_total", 3)
    b = _snap_with("counter", "tasd_reqs_total", 4)
    g1 = _snap_with("gauge", "tasd_depth", 9)
    g2 = _snap_with("gauge", "tasd_depth", 2)
    merged = merge_snapshots(a, b, g1, g2)
    assert merged["tasd_reqs_total"]["series"][0]["value"] == 7.0
    assert merged["tasd_depth"]["series"][0]["value"] == 2.0


def test_merge_snapshots_histograms_sum_exactly():
    a = _snap_with("histogram", "tasd_lat", observations=[0.001, 0.5])
    b = _snap_with("histogram", "tasd_lat", observations=[0.002])
    merged = merge_snapshots(a, b)
    s = merged["tasd_lat"]["series"][0]
    assert s["count"] == 3
    assert s["sum"] == pytest.approx(0.503)
    whole = _snap_with("histogram", "tasd_lat", observations=[0.001, 0.5, 0.002])
    assert s["counts"] == whole["tasd_lat"]["series"][0]["counts"]


def test_merge_snapshots_distinct_labels_concatenate():
    a = _snap_with("counter", "tasd_w_total", 1, labels={"worker": "0"})
    b = _snap_with("counter", "tasd_w_total", 2, labels={"worker": "1"})
    merged = merge_snapshots(a, b)
    values = {
        s["labels"]["worker"]: s["value"] for s in merged["tasd_w_total"]["series"]
    }
    assert values == {"0": 1.0, "1": 2.0}


def test_merge_snapshots_rejects_kind_conflicts():
    a = _snap_with("counter", "tasd_thing", 1)
    b = _snap_with("gauge", "tasd_thing", 1)
    with pytest.raises(ValueError, match="cannot merge"):
        merge_snapshots(a, b)


def test_merge_of_worker_layer_counters_matches_single_stream():
    """The cross-process story end to end: N workers' counter arrays sum
    into exactly the histogram one worker recording everything would have."""
    workers = [{"conv1": LayerCounters()} for _ in range(4)]
    whole = LayerCounters()
    lat_ns = [100_000, 500_000, 2_000_000, 10_000_000, 50_000_000, 300_000_000,
              1_200_000_000, 8_000_000_000, 10**12]
    for i, ns in enumerate(lat_ns):
        workers[i % 4]["conv1"].record(structured=10, dense=20, ns=ns, cols=i % 2 + 1)
        whole.record(structured=10, dense=20, ns=ns, cols=i % 2 + 1)
    merged = ExecutorStats(names=("conv1",))
    for w in workers:
        snap = snapshot(w)
        # Simulate the pipe crossing the process pool does on every reply.
        counts, widths = pickle.loads(pickle.dumps((snap.counts, snap.widths)))
        merged = merged.merged_with(ExecutorStats(names=snap.names, counts=counts, widths=widths))
    got = merged.layers["conv1"]
    assert got.gemm_seconds == whole.gemm_seconds
    assert got.gemm_seconds.counts[-1] == 1  # 1000 s lands in +Inf
    assert got.calls == whole.calls == len(lat_ns)
    assert got.col_widths == whole.col_widths == {1: 5, 2: 4}
    np.testing.assert_array_equal(got.counts, whole.counts)


def test_layer_counter_row_layout():
    """One int64 row: calls, both MAC counts, GEMM ns, then the buckets;
    the histogram's count and sum are the calls and GEMM-time columns."""
    c = LayerCounters()
    c.record(structured=3, dense=8, ns=2_000_000, cols=4)
    c.record(structured=3, dense=8, ns=20_000, cols=4)
    assert c.counts.dtype == np.int64 and c.counts.shape == (COLUMNS,)
    assert COLUMNS == 4 + len(LATENCY_BUCKETS) + 1
    assert (c.calls, c.structured_macs, c.dense_macs) == (2, 6, 16)
    assert c.wall_time == pytest.approx(2.02e-3)
    h = c.gemm_seconds
    assert h.count == c.calls and h.sum == c.wall_time
    reference = Histogram()
    reference.observe(2e-3)
    reference.observe(2e-5)
    assert h.counts == reference.counts


def test_snapshot_is_independent_and_reset_zeroes_in_place():
    layers = {"a": LayerCounters(), "b": LayerCounters()}
    layers["a"].record(structured=1, dense=2, ns=5, cols=3)
    snap = snapshot(layers)
    assert snap.names == ("a", "b") and snap.counts.shape == (2, COLUMNS)
    row = layers["a"].counts
    layers["a"].record(structured=1, dense=2, ns=5, cols=3)
    assert snap.layers["a"].calls == 1 and snap.layers["a"].col_widths == {3: 1}
    reset(layers)
    assert layers["a"].counts is row and not row.any()
    assert layers["a"].col_widths == {}
    assert snap.layers["a"].calls == 1


def test_executor_stats_merge_unions_layers_by_name():
    a = {"x": LayerCounters(), "y": LayerCounters()}
    b = {"y": LayerCounters(), "z": LayerCounters()}
    for layers in (a, b):
        for c in layers.values():
            c.record(structured=1, dense=2, ns=10, cols=1)
    merged = snapshot(a, batches=1).merged_with(snapshot(b, batches=2))
    assert merged.names == ("x", "y", "z") and merged.batches == 3
    assert {n: c.calls for n, c in merged.layers.items()} == {"x": 1, "y": 2, "z": 1}
    assert merged.layers["y"].col_widths == {1: 2}
    assert merged.total.calls == 4 and merged.total.col_widths == {1: 4}


# ---------------------------------------------------------------------- #
# export_executor_stats
# ---------------------------------------------------------------------- #
def test_export_executor_stats_fills_families():
    c = LayerCounters()
    c.record(structured=100, dense=400, ns=10_000_000, cols=4)
    c.record(structured=100, dense=400, ns=30_000_000, cols=4)
    stats = snapshot({"conv1": c}, batches=2, samples=8, wall_time=0.05)
    reg = MetricsRegistry()
    export_executor_stats(reg, stats, backends={"conv1": "einsum-gather"})
    snap = reg.snapshot()
    assert snap["tasd_layer_calls_total"]["series"][0]["value"] == 2.0
    assert snap["tasd_layer_structured_macs_total"]["series"][0]["value"] == 200.0
    assert snap["tasd_executor_samples_total"]["series"][0]["value"] == 8.0
    hs = snap["tasd_layer_gemm_latency_seconds"]["series"][0]
    assert hs["labels"] == {"layer": "conv1", "backend": "einsum-gather"}
    assert hs["count"] == 2


# ---------------------------------------------------------------------- #
# HTTP exporter
# ---------------------------------------------------------------------- #
def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


def test_metrics_server_serves_all_routes():
    reg = MetricsRegistry()
    reg.counter("tasd_reqs_total", "requests").inc(4)
    with MetricsServer(
        snapshot_fn=reg.snapshot,
        health_fn=lambda: (True, {"workers_alive": 2}),
        status_fn=lambda: "status body\n",
    ) as server:
        assert server.port > 0
        status, text = _get(server.url + "/metrics")
        assert status == 200 and "tasd_reqs_total 4" in text
        status, body = _get(server.url + "/metrics.json")
        assert json.loads(body)["tasd_reqs_total"]["series"][0]["value"] == 4.0
        status, body = _get(server.url + "/healthz")
        assert status == 200 and json.loads(body) == {"ok": True, "workers_alive": 2}
        status, body = _get(server.url + "/statusz")
        assert status == 200 and body == "status body\n"
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url + "/nope")
        assert exc.value.code == 404


def test_metrics_server_unhealthy_is_503():
    with MetricsServer(
        snapshot_fn=dict, health_fn=lambda: (False, {"running": False})
    ) as server:
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url + "/healthz")
        assert exc.value.code == 503
        assert json.loads(exc.value.read().decode()) == {"ok": False, "running": False}


def test_metrics_server_broken_snapshot_is_500_not_hang():
    def boom():
        raise RuntimeError("snapshot exploded")

    with MetricsServer(snapshot_fn=boom) as server:
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url + "/metrics")
        assert exc.value.code == 500
        assert "snapshot exploded" in exc.value.read().decode()
