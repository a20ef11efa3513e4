"""Perf/telemetry structs shared across the inference runtime.

Counters are plain mutable dataclasses: the layer plans update them in
place on the hot path (no allocation), and reporting code snapshots them
into tables.  MAC counts follow the compute model of Section 3.2 — each
TASD term runs ``n/m`` of the dense MACs — so ``structured_macs /
dense_macs`` reproduces the compute fraction TASDER optimises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.annotations import cross_process

from .metrics import Histogram

__all__ = [
    "LayerCounters",
    "ExecutorStats",
    "RequestStats",
    "ServeReport",
    "WorkerStat",
]


@cross_process
@dataclass
class LayerCounters:
    """Per-layer execution counters accumulated by a :class:`LayerPlan`.

    Shipped across the process-pool pipe with every ``run`` reply, so every
    field must stay transitively picklable (the ``cross-process`` lint rule
    enforces it; :class:`Histogram` participates via its state dunders).
    """

    calls: int = 0
    structured_macs: int = 0  # MACs actually executed (compressed slots)
    dense_macs: int = 0  # MACs a dense GEMM of the same shape would run
    wall_time: float = 0.0  # seconds spent inside the layer's GEMM
    # Observed GEMM column widths (batch rows of the 2-D input block, i.e.
    # the im2col width x batch the layer actually served), width -> count.
    # perfbench costs each kernel call's MACs and bytes from these widths
    # for its per-backend rows of pool-served workloads.
    col_widths: dict[int, int] = field(default_factory=dict)
    # Per-call GEMM latency over the runtime's fixed log-spaced buckets.
    # Fixed bounds make the merge across workers (threads or processes)
    # exact, so the /metrics per-layer histograms reflect every worker;
    # the process pool ships this with its cumulative reply counters.
    gemm_seconds: Histogram = field(default_factory=Histogram)

    @property
    def mac_fraction(self) -> float:
        """Executed MACs relative to dense (Section 3.2's cost model)."""
        return self.structured_macs / self.dense_macs if self.dense_macs else 1.0

    def record(self, structured: int, dense: int, seconds: float, cols: int | None = None) -> None:
        self.calls += 1
        self.structured_macs += structured
        self.dense_macs += dense
        self.wall_time += seconds
        self.gemm_seconds.observe(seconds)
        if cols is not None:
            self.col_widths[cols] = self.col_widths.get(cols, 0) + 1

    def merged_with(self, other: "LayerCounters") -> "LayerCounters":
        widths = dict(self.col_widths)
        for w, n in other.col_widths.items():
            widths[w] = widths.get(w, 0) + n
        return LayerCounters(
            calls=self.calls + other.calls,
            structured_macs=self.structured_macs + other.structured_macs,
            dense_macs=self.dense_macs + other.dense_macs,
            wall_time=self.wall_time + other.wall_time,
            col_widths=widths,
            gemm_seconds=self.gemm_seconds.merged_with(other.gemm_seconds),
        )

    def snapshot(self) -> "LayerCounters":
        """An independent copy — safe to hand out while recording continues.

        ``dataclasses.replace`` would alias the mutable ``col_widths`` dict
        into the copy; this copies it, so snapshots never see later updates.
        """
        return LayerCounters(
            calls=self.calls,
            structured_macs=self.structured_macs,
            dense_macs=self.dense_macs,
            wall_time=self.wall_time,
            col_widths=dict(self.col_widths),
            gemm_seconds=self.gemm_seconds.snapshot(),
        )

    def reset(self) -> None:
        self.calls = self.structured_macs = self.dense_macs = 0
        self.wall_time = 0.0
        self.col_widths.clear()
        self.gemm_seconds.reset()


@dataclass
class ExecutorStats:
    """Aggregate view of an executor's work since the last reset."""

    batches: int = 0
    samples: int = 0
    wall_time: float = 0.0
    layers: dict[str, LayerCounters] = field(default_factory=dict)

    @property
    def total(self) -> LayerCounters:
        out = LayerCounters()
        for counters in self.layers.values():
            out = out.merged_with(counters)
        return out

    def merged_with(self, other: "ExecutorStats") -> "ExecutorStats":
        layers = {name: c.snapshot() for name, c in self.layers.items()}
        for name, c in other.layers.items():
            layers[name] = layers[name].merged_with(c) if name in layers else c.snapshot()
        return ExecutorStats(
            batches=self.batches + other.batches,
            samples=self.samples + other.samples,
            wall_time=self.wall_time + other.wall_time,
            layers=layers,
        )

    @property
    def throughput(self) -> float:
        """Samples per second over the executor's measured forwards."""
        return self.samples / self.wall_time if self.wall_time else 0.0

    def table(self) -> str:
        """Per-layer counter table plus totals, for CLI / example output."""
        header = f"{'layer':<28s} {'calls':>6s} {'MACs':>12s} {'dense':>12s} {'frac':>6s} {'ms':>8s}"
        lines = [header, "-" * len(header)]
        for name, c in self.layers.items():
            lines.append(
                f"{name:<28s} {c.calls:>6d} {c.structured_macs:>12d} "
                f"{c.dense_macs:>12d} {c.mac_fraction:>6.3f} {c.wall_time * 1e3:>8.2f}"
            )
        t = self.total
        lines.append("-" * len(header))
        lines.append(
            f"{'total':<28s} {t.calls:>6d} {t.structured_macs:>12d} "
            f"{t.dense_macs:>12d} {t.mac_fraction:>6.3f} {t.wall_time * 1e3:>8.2f}"
        )
        lines.append(
            f"{self.batches} batches / {self.samples} samples, "
            f"{self.wall_time * 1e3:.2f} ms total ({self.throughput:.1f} samples/s)"
        )
        return "\n".join(lines)


@dataclass
class RequestStats:
    """The serving engine's record of one request, whatever its outcome.

    The stamps are ``time.perf_counter()`` values, clamped monotonic (each
    stage starts no earlier than the previous one ended), so a request
    that skipped a stage — expired or cancelled before dispatch, or
    served synchronously during shutdown — has zero-length spans, never
    negative ones.  ``error`` is ``None`` for a served request, and
    otherwise names the outcome: ``"cancelled"``, or the exception the
    request's future raised (``DeadlineExceeded: ...`` when it expired).
    """

    request_id: int
    batch_size: int  # size of the micro-batch this request rode in
    samples: int  # samples this request itself contributed
    submitted_at: float
    collected_at: float  # a worker pulled it off the queue
    dispatched_at: float  # its micro-batch went to the pool
    done_at: float  # the pool returned (or failed)
    resolved_at: float  # its future resolved
    attempts: int = 1  # dispatch attempts; > 1 means crash-recovery retries
    error: str | None = None

    def __post_init__(self) -> None:
        self.collected_at = max(self.submitted_at, self.collected_at)
        self.dispatched_at = max(self.collected_at, self.dispatched_at)
        self.done_at = max(self.dispatched_at, self.done_at)
        self.resolved_at = max(self.done_at, self.resolved_at)

    @property
    def queue_time(self) -> float:
        """Seconds from submit to batch dispatch."""
        return self.dispatched_at - self.submitted_at

    @property
    def compute_time(self) -> float:
        """Seconds of model execution for the micro-batch."""
        return self.done_at - self.dispatched_at

    @property
    def latency(self) -> float:
        """Seconds from submit to result."""
        return self.done_at - self.submitted_at

    def spans(self) -> dict[str, float]:
        """Span durations in seconds, tiling submit → resolve:
        ``enqueue`` (waiting to be pulled off the queue), ``batch_form``
        (waiting for the micro-batch window), ``execute`` (the pool's
        forward) and ``reply`` (resolving the future)."""
        return {
            "enqueue": self.collected_at - self.submitted_at,
            "batch_form": self.dispatched_at - self.collected_at,
            "execute": self.done_at - self.dispatched_at,
            "reply": self.resolved_at - self.done_at,
        }

    def __str__(self) -> str:
        return (
            f"request {self.request_id}: latency {self.latency * 1e3:.2f} ms "
            f"(queued {self.queue_time * 1e3:.2f} ms, compute "
            f"{self.compute_time * 1e3:.2f} ms, batch {self.batch_size})"
        )


@dataclass(frozen=True)
class WorkerStat:
    """Liveness + served-request count of one pool worker (gauge fodder)."""

    uid: int
    alive: bool
    requests: int


@dataclass
class ServeReport:
    """Aggregate latency/throughput report over a batch of served requests.

    Every derived quantity is well-defined on an *empty* report (a server
    that started and stopped without traffic): means, percentiles, and
    throughput all report 0.0 — never a division by the served count, so
    never NaN/inf in a ``summary()``.
    """

    requests: list[RequestStats] = field(default_factory=list)  # served ones
    wall_time: float = 0.0
    # End-to-end latency histogram over the runtime's fixed log-spaced
    # buckets: the serving engine hands in a snapshot of its live histogram
    # (bucket-exact with what /metrics exports).
    histogram: Histogram = field(default_factory=Histogram)

    @property
    def count(self) -> int:
        return len(self.requests)

    @property
    def samples(self) -> int:
        return sum(r.samples for r in self.requests)

    @property
    def mean_latency(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.latency for r in self.requests) / len(self.requests)

    @property
    def mean_batch_size(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.batch_size for r in self.requests) / len(self.requests)

    def latency_percentile(self, q: float) -> float:
        """Latency at percentile ``q`` (0..100) by nearest-rank."""
        if not self.requests:
            return 0.0
        ordered = sorted(r.latency for r in self.requests)
        rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.histogram.percentile(50)

    @property
    def p95(self) -> float:
        return self.histogram.percentile(95)

    @property
    def p99(self) -> float:
        return self.histogram.percentile(99)

    @property
    def throughput(self) -> float:
        """Requests per second over the serving window."""
        return self.count / self.wall_time if self.wall_time else 0.0

    def summary(self) -> str:
        return (
            f"{self.count} requests ({self.samples} samples) in "
            f"{self.wall_time * 1e3:.1f} ms — {self.throughput:.1f} req/s, "
            f"latency mean {self.mean_latency * 1e3:.2f} ms / "
            f"p50 {self.p50 * 1e3:.2f} ms / "
            f"p95 {self.p95 * 1e3:.2f} ms / "
            f"p99 {self.p99 * 1e3:.2f} ms, "
            f"mean micro-batch {self.mean_batch_size:.1f}"
        )
