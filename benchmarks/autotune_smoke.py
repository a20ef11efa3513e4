"""Quick-bench smoke: the compile-time autotuner must actually choose.

Compiles a small sparse model with ``autotune=True`` and asserts that a
non-reference backend wins on at least one layer shape — if every layer
falls back to ``einsum-gather``, either the alternative kernels regressed
or the tuner stopped measuring.  Then compiles it again with
``autotune_exact_only=True`` and asserts that its forward is bit-identical
to a plan pinned to the ``einsum-gather`` reference.  Run by CI on every
push::

    PYTHONPATH=src python benchmarks/autotune_smoke.py
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import DEFAULT_BACKEND, PlanExecutor, compile_plan
from repro.tasder.transform import TASDTransform


def _forward(model, plan, x) -> np.ndarray:
    with PlanExecutor(model, plan) as executor:
        return executor.run(x)


def main() -> int:
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
    )
    plan = compile_plan(model, transform, autotune=True, autotune_repeats=3)
    print(plan.summary())
    choices = plan.backend_choices()
    non_reference = {n: b for n, b in choices.items() if b != DEFAULT_BACKEND}
    print(
        f"\n{len(non_reference)}/{len(choices)} compiled layers chose a "
        f"non-reference backend"
    )
    if not non_reference:
        print("FAIL: autotuner never beat the reference kernel on any layer shape")
        return 1

    exact = compile_plan(
        model, transform, autotune=True, autotune_repeats=3, autotune_exact_only=True
    )
    x = np.random.default_rng(0).normal(size=(4, 3, 8, 8))
    reference = compile_plan(model, transform, backend=DEFAULT_BACKEND)
    print(f"exact-only choices: {sorted(set(exact.backend_choices().values()))}")
    if not np.array_equal(_forward(model, exact, x), _forward(model, reference, x)):
        print("FAIL: exact-only autotuned forward differs from the reference bits")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
