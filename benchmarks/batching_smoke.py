"""Quick-bench smoke: work-conserving batches still fill under load.

The engine never waits for a batch to fill: a worker takes the requests
already queued, up to ``max_batch``, and dispatches at once.  This smoke
checks that batches still grow when the load is there.  Eight client
threads each keep one request outstanding for about two seconds against
a 2-worker :class:`ProcessWorkerPool` at ``max_batch=4``, so requests
queue while both pool workers are busy.  It fails unless every output is
``allclose`` to its single-request reference and the mean ``batch_size``
over the engine's records is above 1.  Run by CI on every push::

    PYTHONPATH=src python benchmarks/batching_smoke.py
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import PlanExecutor, ProcessWorkerPool, ServingEngine, compile_plan
from repro.tasder.transform import TASDTransform

WORKERS = 2
MAX_BATCH = 4
CLIENTS = 8
SECONDS = 2.0
INPUTS = 16


def main() -> int:
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
    )
    plan = compile_plan(model, transform)
    rng = np.random.default_rng(0)
    inputs = [rng.normal(size=(1, 3, 8, 8)) for _ in range(INPUTS)]
    with PlanExecutor(model, plan) as executor:
        refs = executor.run_many(inputs)

    mismatches: list[str] = []
    served = [0] * CLIENTS
    with ProcessWorkerPool(model, plan, workers=WORKERS) as pool:
        with ServingEngine(pool, max_batch=MAX_BATCH, workers=WORKERS) as engine:
            end = time.perf_counter() + SECONDS

            def client(c: int) -> None:
                i = c
                while time.perf_counter() < end:
                    k = i % INPUTS
                    y = engine.infer(inputs[k], timeout=120.0)
                    if not np.allclose(y, refs[k], rtol=1e-6, atol=1e-9):
                        mismatches.append(f"client {c}, input {k}")
                    served[c] += 1
                    i += CLIENTS

            threads = [threading.Thread(target=client, args=(c,)) for c in range(CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        records = engine.records()

    assert not mismatches, f"outputs diverged from their references: {mismatches[:5]}"
    assert all(r.error is None for r in records), [r.error for r in records if r.error][:5]
    assert len(records) == sum(served) and all(served), served
    mean_batch = float(np.mean([r.batch_size for r in records]))
    print(f"{len(records)} requests from {CLIENTS} clients in {SECONDS:.0f} s, "
          f"all allclose to their references; mean batch size {mean_batch:.2f} "
          f"(max_batch {MAX_BATCH}, {WORKERS} pool workers)")
    assert mean_batch > 1.0, f"batches did not fill under load: mean batch size {mean_batch:.2f}"
    print("BATCHING SMOKE OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
