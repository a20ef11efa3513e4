"""Chaos smoke: serving must survive worker kills with zero visible failures.

The acceptance scenario for the fault-tolerance layer, run by CI on every
push.  An unharmed run establishes the reference outputs; the chaos run
serves the same request stream while a :class:`ChaosMonkey` SIGKILLs one
live process-pool worker after every few requests.  Asserts:

- **zero failed requests** — every future resolves (worker-crash retries
  are invisible to clients);
- **bit-identical outputs** — the chaos run matches the unharmed run
  exactly, request by request;
- **the pool heals** — the supervisor returns it to the configured
  worker count once the killing stops, and the respawn/death counters
  are visible in the engine's metrics snapshot.

Run it yourself::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import ChaosMonkey, ProcessWorkerPool, ServingEngine, compile_plan
from repro.tasder.transform import TASDTransform

WORKERS = 2
REQUESTS = 24
KILL_EVERY = 4  # SIGKILL one live worker after every KILL_EVERY requests


def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def main() -> int:
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
    )
    plan = compile_plan(model, transform)
    rng = np.random.default_rng(0)
    requests = [rng.normal(size=(1, 3, 8, 8)) for _ in range(REQUESTS)]

    # Unharmed run: the reference outputs.
    with ProcessWorkerPool(model, plan, workers=WORKERS) as pool:
        with ServingEngine(pool, max_batch=2, workers=WORKERS) as engine:
            reference = [engine.infer(x, timeout=120.0) for x in requests]
    print(f"unharmed run: {REQUESTS} requests served")

    # Chaos run: same stream, a worker SIGKILLed every few requests.
    pool = ProcessWorkerPool(
        model,
        plan,
        workers=WORKERS,
        max_respawns=50,
        respawn_window=120.0,
        respawn_backoff=0.01,
        health_interval=0.05,
    )
    with pool:
        with ServingEngine(pool, max_batch=2, workers=WORKERS, max_retries=4) as engine:
            monkey = ChaosMonkey(pool)
            outputs = []
            failures = 0
            for i, x in enumerate(requests):
                if i % KILL_EVERY == 0:
                    monkey.kill_one()
                try:
                    outputs.append(engine.infer(x, timeout=120.0))
                # lint: disable=broad-except — every client-visible failure
                # of any type is counted and flunks the smoke's assert below
                except Exception as exc:
                    failures += 1
                    print(f"request {i} FAILED: {type(exc).__name__}: {exc}")
            retried = sum(1 for s in engine.report().requests if s.attempts > 1)
            snap = engine.metrics_snapshot()
        assert failures == 0, f"{failures} client-visible failures under chaos"
        assert len(outputs) == REQUESTS
        for i, (a, b) in enumerate(zip(reference, outputs)):
            np.testing.assert_array_equal(
                b, a, err_msg=f"request {i}: chaos run diverged from unharmed run"
            )
        print(
            f"chaos run: {REQUESTS}/{REQUESTS} requests ok under {monkey.kills} "
            f"SIGKILLs ({retried} recorded retries), outputs bit-identical"
        )

        # The supervisor returns the pool to its configured strength.
        assert _wait_until(lambda: len(pool.worker_pids()) == WORKERS), (
            f"pool stuck at {len(pool.worker_pids())}/{WORKERS} workers"
        )
        assert not pool.degraded, "breaker tripped on a survivable kill rate"
        respawns = snap["tasd_worker_respawns_total"]["series"][0]["value"]
        deaths = snap["tasd_worker_deaths_total"]["series"][0]["value"]
        assert deaths >= 1, "kills happened but no death was counted"
        print(
            f"pool healed to {WORKERS}/{WORKERS} workers "
            f"(deaths {int(deaths)}, respawns {int(respawns)} at last scrape; "
            f"final respawns {pool.respawns})"
        )
    print("CHAOS SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
