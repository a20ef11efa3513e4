"""Perf/telemetry structs shared across the inference runtime.

This module alone decides the layer counter format.  Each
:class:`LayerPlan` records its GEMM calls into a :class:`LayerCounters`:
one int64 vector — calls, structured MACs, dense MACs, GEMM nanoseconds,
then one column per :data:`LATENCY_BUCKETS` bucket, ``+Inf`` last — and a
``col_widths`` dict beside it.  Snapshot, reset and merge are array
operations, and a process-pool worker ships its plan's counters with
every ``run`` reply as one ``(layers, COLUMNS)`` array plus the widths.

MAC counts follow the compute model of Section 3.2 — each TASD term runs
``n/m`` of the dense MACs — so ``structured_macs / dense_macs`` reproduces
the compute fraction TASDER optimises.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import reduce
from typing import Mapping

import numpy as np

from .metrics import LATENCY_BUCKETS, Histogram

__all__ = [
    "COLUMNS",
    "LayerCounters",
    "ExecutorStats",
    "RequestStats",
    "ServeReport",
    "WorkerStat",
    "reset",
    "snapshot",
]

# Columns of a counter row.  The GEMM latency histogram's count and sum
# are the CALLS and GEMM_NS columns; only its buckets get columns of their own.
CALLS, STRUCTURED_MACS, DENSE_MACS, GEMM_NS, FIRST_BUCKET = range(5)
COLUMNS = FIRST_BUCKET + len(LATENCY_BUCKETS) + 1
_BUCKETS_NS = tuple(b * 1e9 for b in LATENCY_BUCKETS)


def _zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape + (COLUMNS,), dtype=np.int64)


def _add_widths(into: dict[int, int], other: dict[int, int]) -> dict[int, int]:
    for w, n in other.items():
        into[w] = into.get(w, 0) + n
    return into


@dataclass(eq=False)
class LayerCounters:
    """One layer's counter vector and served widths, or a read view of an
    :class:`ExecutorStats` row.  A plan layer's vector is its own array, not
    a view into a plan-wide one, so copies of a plan count separately."""

    counts: np.ndarray = field(default_factory=_zeros)
    # GEMM column widths served (the 2-D input block's batch rows: im2col
    # width x batch), width -> calls.  perfbench costs its per-backend rows
    # of pool-served workloads from them.
    col_widths: dict[int, int] = field(default_factory=dict)

    def record(self, structured: int, dense: int, ns: int, cols: int) -> None:
        c = memoryview(self.counts)  # item updates without numpy scalar boxing
        c[CALLS] += 1
        c[STRUCTURED_MACS] += structured
        c[DENSE_MACS] += dense
        c[GEMM_NS] += ns
        c[FIRST_BUCKET + bisect.bisect_left(_BUCKETS_NS, ns)] += 1
        self.col_widths[cols] = self.col_widths.get(cols, 0) + 1

    @property
    def calls(self) -> int:
        return int(self.counts[CALLS])

    @property
    def structured_macs(self) -> int:  # MACs executed (compressed slots)
        return int(self.counts[STRUCTURED_MACS])

    @property
    def dense_macs(self) -> int:  # MACs a dense GEMM of the same shape runs
        return int(self.counts[DENSE_MACS])

    @property
    def wall_time(self) -> float:  # seconds inside the layer's GEMM
        return int(self.counts[GEMM_NS]) * 1e-9

    @property
    def gemm_seconds(self) -> Histogram:
        h = Histogram()
        h.counts = self.counts[FIRST_BUCKET:].tolist()
        h.count, h.sum = self.calls, self.wall_time
        return h

    @property
    def mac_fraction(self) -> float:
        """Executed MACs relative to dense (Section 3.2's cost model)."""
        return self.structured_macs / self.dense_macs if self.dense_macs else 1.0


@dataclass(eq=False)
class ExecutorStats:
    """An executor's work since the last reset: a counter row and a width
    dict per layer in ``names``, zero where omitted."""

    batches: int = 0
    samples: int = 0
    wall_time: float = 0.0
    names: tuple[str, ...] = ()
    counts: np.ndarray | None = None
    widths: list[dict[int, int]] | None = None

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = _zeros(len(self.names))
        if self.widths is None:
            self.widths = [{} for _ in self.names]

    @property
    def layers(self) -> dict[str, LayerCounters]:
        """Per-layer read views over the rows of ``counts``."""
        return {
            name: LayerCounters(row, widths)
            for name, row, widths in zip(self.names, self.counts, self.widths)
        }

    @property
    def total(self) -> LayerCounters:
        return LayerCounters(self.counts.sum(axis=0), reduce(_add_widths, self.widths, {}))

    def merged_with(self, other: "ExecutorStats") -> "ExecutorStats":
        """Sums layer by layer, by name, over the union of both's layers."""
        out = ExecutorStats(
            self.batches + other.batches,
            self.samples + other.samples,
            self.wall_time + other.wall_time,
            names=self.names + tuple(n for n in other.names if n not in self.names),
        )
        index = {name: i for i, name in enumerate(out.names)}
        for stats in (self, other):
            rows = [index[name] for name in stats.names]
            out.counts[rows] += stats.counts
            for i, widths in zip(rows, stats.widths):
                _add_widths(out.widths[i], widths)
        return out

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


def snapshot(
    layers: Mapping[str, LayerCounters], batches: int = 0, samples: int = 0, wall_time: float = 0.0
) -> ExecutorStats:
    """An :class:`ExecutorStats` copy of ``layers``' counters, safe to hand
    out while recording continues: ``np.stack`` of the rows, widths copied."""
    rows = list(layers.values())
    counts = np.stack([c.counts for c in rows]) if rows else _zeros(0)
    widths = [dict(c.col_widths) for c in rows]
    return ExecutorStats(batches, samples, wall_time, tuple(layers), counts, widths)


def reset(layers: Mapping[str, LayerCounters]) -> None:
    """Zero every counter in ``layers``, in place."""
    for c in layers.values():
        c.counts.fill(0)
        c.col_widths.clear()


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
