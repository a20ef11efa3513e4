"""Fixtures shared by the runtime tests."""

from __future__ import annotations

import threading

import pytest

from repro.runtime.pool import WorkerPool

GATE_TIMEOUT = 60.0


class GatedPool(WorkerPool):
    """A :class:`WorkerPool` that delegates to ``inner`` behind a gate.

    While the gate is held, every :meth:`run` blocks before it reaches
    ``inner``.  A test holds it, submits a plug request (the engine thread
    parks in ``run`` with it), queues the requests whose batching it wants
    to pin down, then releases: the engine's next batch is formed from a
    queue the test filled, so its size and members are exact.
    """

    def __init__(self, inner: WorkerPool) -> None:
        self.inner = inner
        self.model, self.plan = inner.model, inner.plan
        self._open = threading.Event()
        self._open.set()
        self.entered = threading.Event()  # set when a run() reaches the gate

    def hold(self) -> None:
        self._open.clear()
        self.entered.clear()

    def release(self) -> None:
        self._open.set()

    def run(self, x):
        self.entered.set()
        if not self._open.wait(GATE_TIMEOUT):
            raise TimeoutError("gate was never released")
        return self.inner.run(x)

    def install(self) -> "GatedPool":
        self.inner.install()
        return self

    def close(self) -> None:
        self.inner.close()

    def stats(self):
        return self.inner.stats()

    def reset_stats(self) -> None:
        self.inner.reset_stats()

    def worker_stats(self):
        return self.inner.worker_stats()

    def with_plan(self, plan) -> WorkerPool:
        return self.inner.with_plan(plan)

    @property
    def degraded(self) -> bool:
        return self.inner.degraded

    @property
    def respawns(self) -> int:
        return self.inner.respawns

    @property
    def deaths(self) -> int:
        return self.inner.deaths


def batches_by_dispatch(records) -> list[list[int]]:
    """Request ids grouped into the micro-batches that carried them, in
    dispatch order.  A batch's records share one ``dispatched_at``."""
    groups: dict = {}
    for r in sorted(records, key=lambda r: (r.dispatched_at, r.request_id)):
        groups.setdefault(r.dispatched_at, []).append(r.request_id)
    return list(groups.values())


@pytest.fixture
def gated():
    """Factory: ``gated(pool)`` wraps ``pool`` in a :class:`GatedPool`."""
    return GatedPool


@pytest.fixture
def batches():
    """:func:`batches_by_dispatch`, for tests that read an engine's records."""
    return batches_by_dispatch
