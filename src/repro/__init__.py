"""repro: reproduction of "Enabling Unstructured Sparse Acceleration on
Structured Sparse Accelerators" (TASD / TASDER / TTC, MLSys 2025).

Public API highlights
---------------------
- :mod:`repro.core` — TASD: N:M patterns, decomposition, series, kernels.
- :mod:`repro.tasder` — the TASDER optimizer (TASD-W / TASD-A searches).
- :mod:`repro.nn` — NumPy DNN substrate (models, training, pruning hooks).
- :mod:`repro.hw` — Sparseloop-style analytical accelerator models
  (TC / DSTC / VEGETA / TTC) with the decomposition-aware dataflow.
- :mod:`repro.gpu` — 2:4 semi-structured kernels + Ampere-like perf model
  (the real-system substitute).
- :mod:`repro.workloads` — full-size layer shapes and evaluation workloads.
- :mod:`repro.experiments` — one driver per paper table/figure.
- :mod:`repro.runtime` — inference runtime: compiled execution plans,
  batched executor, process worker pool, micro-batching serving engine.
"""

from .core import (
    DENSE_CONFIG,
    Decomposition,
    NMPattern,
    TASDConfig,
    compose_menu,
    decompose,
    pattern_view,
    tasd_matmul,
)

__version__ = "1.0.0"

__all__ = [
    "NMPattern",
    "TASDConfig",
    "DENSE_CONFIG",
    "Decomposition",
    "decompose",
    "pattern_view",
    "compose_menu",
    "tasd_matmul",
    "__version__",
]
