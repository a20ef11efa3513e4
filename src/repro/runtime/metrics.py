"""Runtime telemetry spine: metric primitives, registry, and live export.

The runtime's layers already count everything that matters — per-layer
MACs and GEMM time (:class:`~repro.runtime.counters.LayerCounters`),
per-request latencies — but until now the only way
to see them was a blocking ``stats().table()`` dump after ``stop()``.
This module turns those counters into *live* telemetry:

- :class:`Counter` / :class:`Gauge` / :class:`Histogram` — thread-safe
  metric primitives.  Histograms use **fixed** log-spaced latency buckets
  (:data:`LATENCY_BUCKETS`), so histograms recorded by different workers
  (threads *or* processes) merge exactly: bucket counts are integers over
  identical bounds, and merging is elementwise addition with no rebinning
  error.  The per-layer GEMM histograms are kept as bucket columns of the
  layer counter rows (:mod:`repro.runtime.counters`), which
  :class:`~repro.runtime.pool.ProcessWorkerPool` workers ship with every
  reply, so the parent renders one coherent view.
- :class:`MetricsRegistry` — a named, labeled family store with a
  ``snapshot()`` plain-dict view (JSON-serializable) and Prometheus
  text-format rendering (:func:`render_prometheus`).
- :func:`merge_snapshots` — combine snapshots from several sources
  (the engine's own registry, scrape-time views of executor stats, worker
  liveness) into one scrape.
- :class:`MetricsServer` — a stdlib ``ThreadingHTTPServer`` exporter
  serving ``/metrics`` (Prometheus text), ``/metrics.json`` (the
  snapshot), ``/healthz`` (pool liveness), and ``/statusz`` (the most
  recent request records).  No new dependencies.

Nothing here imports the rest of the runtime, so every layer (counters,
plan, serve) can import this module freely.
"""

from __future__ import annotations

import bisect
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = [
    "LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "OCCUPANCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "export_executor_stats",
    "merge_snapshots",
    "render_prometheus",
]

# Fixed log-spaced latency bounds: 10 µs → 100 s, four buckets per decade.
# Every latency histogram in the runtime shares these exact bounds, which is
# the invariant that makes cross-worker (and cross-process) merges exact.
LATENCY_BUCKETS = tuple(10.0 ** (e / 4.0) for e in range(-20, 9))

# Micro-batch sizes are small integers; powers-of-two-ish bounds resolve them.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0, 128.0)

# Micro-batch occupancy is a fraction of ``max_batch`` in (0, 1].
OCCUPANCY_BUCKETS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Counter:
    """A monotonically increasing value (requests served, batches run, ...)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase; got increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """A value that can go up and down (queue depth, worker liveness, ...)."""

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bucketed distribution with *fixed* bounds, so merges are exact.

    ``counts[i]`` holds observations with ``value <= buckets[i]`` (and
    greater than the previous bound); ``counts[-1]`` is the overflow bucket
    (``+Inf``).  Two histograms over the same bounds merge by elementwise
    addition — an integer operation with no rebinning error — which is how
    per-worker and per-thread observations combine into one exact view.
    A histogram never crosses a process pipe: pool workers ship their
    per-layer GEMM latencies as counter-array columns instead.
    """

    __slots__ = ("buckets", "counts", "sum", "count", "_lock")

    def __init__(self, buckets: tuple[float, ...] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histograms need at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase, got {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.buckets == other.buckets
            and self.counts == other.counts
            and self.sum == other.sum
            and self.count == other.count
        )

    def observe(self, value: float) -> None:
        i = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[i] += 1
            self.sum += value
            self.count += 1

    def merge_from(self, other: "Histogram") -> None:
        """Add ``other``'s observations into this histogram (exact)."""
        if other.buckets != self.buckets:
            raise ValueError(
                "cannot merge histograms with different bucket bounds: "
                f"{len(self.buckets)} vs {len(other.buckets)} bounds"
            )
        with self._lock:
            for i, c in enumerate(other.counts):
                self.counts[i] += c
            self.sum += other.sum
            self.count += other.count

    def snapshot(self) -> "Histogram":
        """An independent copy, safe to hand out while recording continues."""
        out = Histogram(self.buckets)
        with self._lock:
            out.counts = list(self.counts)
            out.sum = self.sum
            out.count = self.count
        return out

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.buckets) + 1)
            self.sum = 0.0
            self.count = 0

    def percentile(self, q: float) -> float:
        """Latency at percentile ``q`` (0..100), interpolated within buckets.

        0.0 on an empty histogram (never NaN).  Observations past the last
        bound report the last bound — the histogram cannot resolve further.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, -(-int(q * self.count) // 100))  # ceil(q/100 * count), >= 1
        cum = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            below, cum = cum, cum + c
            if cum >= rank:
                if i == len(self.buckets):  # overflow bucket
                    return self.buckets[-1]
                lo = self.buckets[i - 1] if i > 0 else 0.0
                return lo + (self.buckets[i] - lo) * (rank - below) / c
        return self.buckets[-1]  # pragma: no cover - counts always reach count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with zero or more label dimensions.

    ``labels(**kv)`` returns the child primitive for one label combination;
    a family declared with no labels proxies the child API directly
    (``inc`` / ``set`` / ``observe`` / ``value``), so unlabeled metrics
    read naturally at call sites.
    """

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        label_names: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        if kind not in _CHILD_TYPES:
            raise ValueError(f"unknown metric kind {kind!r}; options: {sorted(_CHILD_TYPES)}")
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets)
        self._children: dict[tuple[str, ...], object] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def _make_child(self):
        if self.kind == "histogram":
            return Histogram(self._buckets)
        return _CHILD_TYPES[self.kind]()

    def labels(self, **labels: str):
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def series(self) -> list[tuple[dict[str, str], object]]:
        """(labels, child) pairs — children live, snapshot before rendering."""
        with self._lock:
            items = list(self._children.items())
        return [(dict(zip(self.label_names, key)), child) for key, child in items]

    # Label-less convenience: the family *is* its one unlabeled child.
    def inc(self, amount: float = 1) -> None:
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value


class MetricsRegistry:
    """Thread-safe store of metric families, snapshottable and renderable.

    Registration is idempotent: asking for an existing name returns the
    existing family (so hot paths can look families up cheaply), but
    re-registering under a different kind or label set is an error — two
    code paths disagreeing about a metric's shape is always a bug.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def _register(self, kind: str, name: str, help: str, labels, buckets=LATENCY_BUCKETS) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.label_names}; cannot re-register "
                        f"as {kind} with labels {tuple(labels)}"
                    )
                return family
            family = MetricFamily(kind, name, help, tuple(labels), buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labels=()) -> MetricFamily:
        return self._register("counter", name, help, labels)

    def gauge(self, name: str, help: str = "", labels=()) -> MetricFamily:
        return self._register("gauge", name, help, labels)

    def histogram(
        self, name: str, help: str = "", labels=(), buckets: tuple[float, ...] = LATENCY_BUCKETS
    ) -> MetricFamily:
        return self._register("histogram", name, help, labels, buckets)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Plain-dict (JSON-serializable) view of every family and series."""
        out: dict = {}
        for family in self.families():
            series = []
            for labels, child in family.series():
                if family.kind == "histogram":
                    h = child.snapshot()
                    series.append(
                        {
                            "labels": labels,
                            "le": list(h.buckets),
                            "counts": list(h.counts),
                            "sum": h.sum,
                            "count": h.count,
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": series,
            }
        return out

    def render(self) -> str:
        return render_prometheus(self.snapshot())


# ---------------------------------------------------------------------- #
# Snapshot-level operations: merging and Prometheus rendering
# ---------------------------------------------------------------------- #
def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def merge_snapshots(*snapshots: dict) -> dict:
    """Combine registry snapshots from several sources into one scrape.

    Counters and histograms with the same name + labels sum (histograms
    require identical bucket bounds — exact merge, no rebinning); gauges
    take the last writer's value.  Distinct label sets concatenate.
    """
    out: dict = {}
    for snap in snapshots:
        for name, family in snap.items():
            merged = out.get(name)
            if merged is None:
                out[name] = {
                    "type": family["type"],
                    "help": family["help"],
                    "labels": list(family["labels"]),
                    "series": [dict(s) for s in family["series"]],
                }
                continue
            if merged["type"] != family["type"]:
                raise ValueError(
                    f"cannot merge metric {name!r}: kind {merged['type']} vs {family['type']}"
                )
            if not merged["help"] and family["help"]:
                merged["help"] = family["help"]
            by_labels = {_label_key(s["labels"]): s for s in merged["series"]}
            for s in family["series"]:
                incumbent = by_labels.get(_label_key(s["labels"]))
                if incumbent is None:
                    s = dict(s)
                    merged["series"].append(s)
                    by_labels[_label_key(s["labels"])] = s
                elif family["type"] == "counter":
                    incumbent["value"] += s["value"]
                elif family["type"] == "gauge":
                    incumbent["value"] = s["value"]
                else:  # histogram
                    if incumbent["le"] != s["le"]:
                        raise ValueError(
                            f"cannot merge histogram {name!r}: bucket bounds differ"
                        )
                    incumbent["counts"] = [
                        a + b for a, b in zip(incumbent["counts"], s["counts"])
                    ]
                    incumbent["sum"] += s["sum"]
                    incumbent["count"] += s["count"]
    return out


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict, extra: dict | None = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in items.items())
    return "{" + body + "}"


def _format_value(v: float) -> str:
    return repr(float(v)) if isinstance(v, float) and not v.is_integer() else str(int(v))


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    for name, family in snapshot.items():
        if family["help"]:
            lines.append(f"# HELP {name} {family['help']}")
        lines.append(f"# TYPE {name} {family['type']}")
        for s in family["series"]:
            if family["type"] == "histogram":
                cum = 0
                for bound, c in zip(s["le"], s["counts"]):
                    cum += c
                    le = _format_labels(s["labels"], {"le": f"{bound:.6g}"})
                    lines.append(f"{name}_bucket{le} {cum}")
                inf = _format_labels(s["labels"], {"le": "+Inf"})
                lines.append(f"{name}_bucket{inf} {s['count']}")
                lines.append(f"{name}_sum{_format_labels(s['labels'])} {repr(float(s['sum']))}")
                lines.append(f"{name}_count{_format_labels(s['labels'])} {s['count']}")
            else:
                lines.append(
                    f"{name}{_format_labels(s['labels'])} {_format_value(s['value'])}"
                )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Scrape-time export of executor stats into a registry
# ---------------------------------------------------------------------- #
def export_executor_stats(registry: MetricsRegistry, stats, backends: dict | None = None) -> None:
    """Populate ``registry`` from an ``ExecutorStats``-shaped snapshot.

    Duck-typed (``stats.layers`` / batch totals) so this
    module never imports the counters layer.  ``backends`` maps layer name
    to the kernel-backend label (``ExecutionPlan.backend_choices()``);
    unlisted layers are labeled with their execution mode stand-in
    ``"dense"``.  Per-layer GEMM histograms merge in exactly — the layer
    counters record them over :data:`LATENCY_BUCKETS`.
    """
    backends = backends or {}
    calls = registry.counter("tasd_layer_calls_total", "GEMM calls per layer", labels=("layer",))
    smacs = registry.counter(
        "tasd_layer_structured_macs_total", "MACs actually executed per layer", labels=("layer",)
    )
    dmacs = registry.counter(
        "tasd_layer_dense_macs_total", "MACs a dense GEMM would run per layer", labels=("layer",)
    )
    seconds = registry.counter(
        "tasd_layer_gemm_seconds_total", "Seconds inside each layer's GEMM", labels=("layer",)
    )
    hist = registry.histogram(
        "tasd_layer_gemm_latency_seconds",
        "Per-call GEMM latency per layer and kernel backend",
        labels=("layer", "backend"),
    )
    for name, c in stats.layers.items():
        calls.labels(layer=name).inc(c.calls)
        smacs.labels(layer=name).inc(c.structured_macs)
        dmacs.labels(layer=name).inc(c.dense_macs)
        seconds.labels(layer=name).inc(c.wall_time)
        hist.labels(layer=name, backend=backends.get(name, "dense")).merge_from(c.gemm_seconds)
    registry.counter("tasd_executor_batches_total", "Micro-batches executed").inc(stats.batches)
    registry.counter("tasd_executor_samples_total", "Samples executed").inc(stats.samples)
    registry.counter(
        "tasd_executor_wall_seconds_total", "Seconds of model execution (compute volume)"
    ).inc(stats.wall_time)


# ---------------------------------------------------------------------- #
# HTTP exporter
# ---------------------------------------------------------------------- #
class MetricsServer:
    """Serve live telemetry over HTTP from a background thread.

    Built on the stdlib ``ThreadingHTTPServer`` — no dependencies — and
    generic over three callables so any engine (or test) can expose
    itself:

    - ``snapshot_fn() -> dict`` backs ``/metrics`` (Prometheus text) and
      ``/metrics.json`` (the raw snapshot);
    - ``health_fn() -> (bool, dict)`` backs ``/healthz`` (200 when
      healthy, 503 otherwise, detail as JSON).  Degradation is conveyed
      200-with-status: a degraded-but-serving engine returns ``ok`` with
      ``{"status": "degraded"}`` in the detail, reserving 503 for
      ``"dead"`` — stopped, or collapsed with nothing to serve through;
    - ``status_fn() -> str`` backs ``/statusz`` (the recent-request
      table).

    ``port=0`` binds an ephemeral port; read the chosen one from
    ``server.port``.  Callable errors surface as HTTP 500 with the
    exception text, never as a hung scrape.
    """

    def __init__(
        self,
        snapshot_fn,
        health_fn=None,
        status_fn=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # keep scrapes off stderr
                pass

            def _reply(self, status: int, content_type: str, body: str) -> None:
                payload = body.encode()
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802 - http.server contract
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        self._reply(
                            200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            render_prometheus(outer._snapshot_fn()),
                        )
                    elif path == "/metrics.json":
                        self._reply(200, "application/json", json.dumps(outer._snapshot_fn()))
                    elif path == "/healthz":
                        ok, detail = True, {}
                        if outer._health_fn is not None:
                            ok, detail = outer._health_fn()
                        body = json.dumps({"ok": bool(ok), **detail})
                        self._reply(200 if ok else 503, "application/json", body)
                    elif path == "/statusz":
                        body = outer._status_fn() if outer._status_fn else "no status source\n"
                        self._reply(200, "text/plain; charset=utf-8", body)
                    else:
                        self._reply(404, "text/plain", f"unknown path {path}\n")
                # lint: disable=broad-except — a broken snapshot/health
                # callable must surface as a 500, never kill the handler
                # thread (scrapes would hang forever)
                except Exception as exc:
                    try:
                        self._reply(500, "text/plain", f"{type(exc).__name__}: {exc}\n")
                    # lint: disable=broad-except — the client disconnected
                    # mid-error-reply; nothing left to tell it
                    except Exception:  # pragma: no cover - client went away
                        pass

        self._snapshot_fn = snapshot_fn
        self._health_fn = health_fn
        self._status_fn = status_fn
        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self.host = host
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="metrics-exporter", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
