"""Swap smoke: a hot plan-swap under load must be invisible to clients.

The acceptance scenario for zero-downtime operations, run by CI on every
push.  An unswapped run establishes the reference outputs; the swap run
serves the same request stream while (a) a hot swap forks a candidate
pool on an equivalent re-compiled plan mid-stream and switches the engine
onto it and (b) a *corrupt* candidate (same weight fingerprint, skewed
arithmetic) is pushed and must be thrown out by the canary.  Asserts:

- **zero failed requests** — every future resolves across both the
  committed swap and the rejected one;
- **bit-identical outputs** — the swap run matches the unswapped run
  exactly, request by request (the exact backends make an equivalent
  plan compute bit-for-bit the same function);
- **typed rejection** — the corrupt candidate raises ``SwapRejected``
  and the live plan keeps serving;
- **graceful drain** — the engine drains to an empty queue at the end,
  and the swap/rollback counters are visible in the metrics snapshot.

It also prints the peak resident set size the run reached (this process
plus its largest worker), since a swap briefly runs two pools.

Run it yourself::

    PYTHONPATH=src python benchmarks/swap_smoke.py
"""

from __future__ import annotations

import resource
import sys

import numpy as np

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    ProcessWorkerPool,
    ServingEngine,
    SwapRejected,
    compile_plan,
    skewed_plan,
)
from repro.tasder.transform import TASDTransform

WORKERS = 2
REQUESTS = 24
SWAP_AFTER = 8  # hot-swap once this many requests are in flight


def _build():
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
    )
    return model, transform


def main() -> int:
    model, transform = _build()
    plan = compile_plan(model, transform)
    candidate = compile_plan(model, transform)  # equivalent, freshly compiled
    corrupt = skewed_plan(candidate)  # passes the identity gate, wrong math
    rng = np.random.default_rng(0)
    requests = [rng.normal(size=(1, 3, 8, 8)) for _ in range(REQUESTS)]
    canary = rng.normal(size=(2, 3, 8, 8))

    # Unswapped run: the reference outputs.  max_batch=1 pins the batch
    # composition (every 1-sample request is its own GEMM), so the swap
    # run below is comparable bit-for-bit: coalescing would change GEMM
    # row counts between runs and with them the last-ulp rounding.
    with ProcessWorkerPool(model, plan, workers=WORKERS) as pool:
        with ServingEngine(pool, max_batch=1, workers=WORKERS) as engine:
            futures = [engine.submit(x) for x in requests]
            reference = [f.result(timeout=120.0) for f in futures]
    print(f"unswapped run: {REQUESTS} requests served")

    # Swap run: same stream, one committed hot swap + one rejected swap.
    pool = ProcessWorkerPool(
        model,
        plan,
        workers=WORKERS,
        respawn_backoff=0.01,
        backoff_cap=0.1,
        health_interval=0.05,
    )
    with pool:
        engine = ServingEngine(pool, max_batch=1, workers=WORKERS, max_retries=4)
        engine.start()
        futures = [engine.submit(x) for x in requests[:SWAP_AFTER]]

        info = engine.swap_plan(candidate, canary=canary)
        assert info["swapped_workers"] == WORKERS, info
        print(
            f"hot swap committed mid-stream: {info['swapped_workers']} workers "
            f"forked behind a {info['canary_samples']}-sample canary"
        )

        futures += [engine.submit(x) for x in requests[SWAP_AFTER : 2 * SWAP_AFTER]]

        try:
            engine.swap_plan(corrupt, canary=canary)
            raise AssertionError("corrupt candidate was accepted")
        except SwapRejected as exc:
            print(f"corrupt candidate thrown out by the canary: {exc.reason}")

        futures += [engine.submit(x) for x in requests[2 * SWAP_AFTER :]]

        failures = 0
        outputs = []
        for i, f in enumerate(futures):
            try:
                outputs.append(f.result(timeout=120.0))
            # lint: disable=broad-except — every client-visible failure
            # of any type is counted and flunks the smoke's assert below
            except Exception as exc:
                failures += 1
                print(f"request {i} FAILED: {type(exc).__name__}: {exc}")
        assert failures == 0, f"{failures} client-visible failures across the swaps"
        assert len(outputs) == REQUESTS
        for i, (got, want) in enumerate(zip(outputs, reference)):
            np.testing.assert_array_equal(
                got, want, err_msg=f"request {i}: swap run diverged from unswapped run"
            )
        print(f"swap run: {REQUESTS}/{REQUESTS} requests ok, outputs bit-identical")

        drained = engine.drain(timeout=60.0)
        assert drained, "drain timed out with work pending"
        assert engine.queue_depth == 0
        snap = engine.metrics_snapshot()
        swaps = snap["tasd_plan_swaps_total"]["series"][0]["value"]
        rollbacks = snap["tasd_swap_rollbacks_total"]["series"][0]["value"]
        assert swaps == 1.0, f"expected 1 committed swap, metrics say {swaps}"
        assert rollbacks == 1.0, f"expected 1 rollback, metrics say {rollbacks}"
        print(
            f"drained to an empty queue; metrics: {int(swaps)} swap committed, "
            f"{int(rollbacks)} rollback recorded"
        )
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # reaped child, so the sum bounds the parent plus one worker.
    peak_kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    print(f"peak RSS: {peak_kib / 1024:.0f} MB (parent + largest worker)")
    print("SWAP SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
