"""Quick-bench smoke: a persisted plan must round-trip exactly.

Compiles a small sparse model on the ``dense-emulation`` backend, saves
the plan to a ``.npz`` artifact, reloads it, and asserts that the warm
restart preserves the backend choices and serves bit-identical outputs —
then that
a drifted weight is *refused* instead of served approximately.  Run by CI
on every push::

    PYTHONPATH=src python benchmarks/plan_roundtrip_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import PlanDigestError, PlanExecutor, compile_plan, load_plan
from repro.tasder.transform import TASDTransform


def main() -> int:
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
    )
    t0 = time.perf_counter()
    plan = compile_plan(model, transform, backend="dense-emulation")
    compile_time = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmpdir:
        path = Path(tmpdir) / "plan.npz"
        plan.save(path)
        t0 = time.perf_counter()
        loaded = load_plan(path, model)
        load_time = time.perf_counter() - t0
        print(
            f"compile {compile_time * 1e3:.1f} ms, plan load "
            f"{load_time * 1e3:.1f} ms ({path.stat().st_size / 1024:.0f} KiB artifact)"
        )

        if loaded.backend_choices() != plan.backend_choices():
            print("FAIL: loaded plan lost the backend choices")
            return 1

        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        with PlanExecutor(model, plan) as executor:
            fresh = executor.run(x)
        with PlanExecutor(model, loaded) as executor:
            warm = executor.run(x)
        if not np.array_equal(fresh, warm):
            print("FAIL: loaded plan served different outputs than the fresh plan")
            return 1

        model.head.weight.data[0, 0] += 1.0  # drift one weight
        try:
            load_plan(path, model)
        except PlanDigestError as exc:
            print(f"stale artifact refused as expected: {exc}")
        else:
            print("FAIL: plan loaded against drifted weights instead of refusing")
            return 1

    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
