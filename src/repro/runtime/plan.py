"""Ahead-of-time plan compiler: Module + TASDTransform → ExecutionPlan.

A compiled plan fixes, per GEMM layer, everything that does not depend on
the input: the weight-side TASD decomposition, its :class:`CompressedNM`
storage, and the gather tables of the structured kernels.  Weights are
decomposed and compressed exactly once — at plan-build time — so serving a
request costs only the structured GEMMs themselves (SparseRT's insight,
applied to the TASD datapath).

Three execution modes exist for every layer:

- ``compiled``  — structured GEMMs over the pre-compressed weight terms;
- ``per_call``  — re-decompose through :func:`tasd_matmul` on every forward
  (the uncompiled baseline the benchmarks compare against);
- ``dense``     — plain dense GEMM (layers the transform leaves dense).

Compiled layers additionally carry a kernel *backend* (see
:mod:`repro.runtime.backends`): ``LayerPlan.gemm`` is the single seam every
structured GEMM flows through, and the backend name chooses which kernel
implementation serves it.  ``compile_plan(..., autotune=True)`` picks it by
rule: ``dense-emulation`` for allclose plans, the fastest backend at every
width the benchmark workloads serve, and the reference ``einsum-gather``
for exact ones (``autotune_exact_only=True``).  The choice is visible in
``plan.summary()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.series import DENSE_CONFIG, TASDConfig
from repro.core.sparse_ops import tasd_matmul
from repro.nn.blocks import fold_epilogues, unfold_epilogues
from repro.nn.layers import Conv2d, _GemmLayer
from repro.nn.module import Module
from repro.pruning.targets import gemm_layers
from repro.tasder.transform import (
    TASDTransform,
    _activation_axis,
    clear_transform,
    decompose_activation,
)
from repro.tensor.blocks import pad_to_multiple

from repro.analysis.annotations import hot_path

from .backends import DEFAULT_BACKEND, get_backend
from .cache import CompiledOperand, compile_operand, tensor_digest
from .counters import LayerCounters, snapshot

__all__ = ["LayerPlan", "ExecutionPlan", "compile_plan"]

MODES = ("compiled", "per_call", "dense")


@dataclass
class LayerPlan:
    """Everything one GEMM layer needs to execute requests against.

    The plan owns the layer's GEMM: :meth:`gemm` maps a 2-D input block
    ``(batch_rows, k)`` to ``(batch_rows, out)`` exactly as ``x2 @ W.T``
    would, routed through whichever kernel ``mode`` selects, and records
    MAC / wall-time counters as it goes.

    A compiled layer builds its backend's prepared state when constructed
    (compiled or loaded), so forked pool workers share one copy-on-write copy.
    """

    name: str
    kind: str  # "linear" | "conv2d"
    mode: str
    weight_config: TASDConfig
    activation_config: TASDConfig
    activation_axis: int
    operand: CompiledOperand | None  # compressed weights (compiled mode)
    dense_weight: np.ndarray | None  # weight matrix (dense / per-call modes)
    backend: str = DEFAULT_BACKEND  # structured-GEMM kernel (compiled mode)
    weight_digest: str | None = None  # content digest of the source weight
    # Not an __init__ argument: a dataclasses.replace copy counts on its own.
    counters: LayerCounters = field(default_factory=LayerCounters, init=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown plan mode {self.mode!r}; options: {MODES}")
        if self.mode == "compiled" and self.operand is None:
            raise ValueError("compiled mode requires a compiled operand")
        if self.mode in ("per_call", "dense") and self.dense_weight is None:
            raise ValueError(f"{self.mode} mode requires the dense weight matrix")
        if self.mode == "compiled":
            # An unknown backend fails here, at build time, not mid-forward.
            self.operand.backend_state(get_backend(self.backend))

    # ------------------------------------------------------------------ #
    @property
    def out_features(self) -> int:
        if self.operand is not None:
            return self.operand.original_shape[0]
        return self.dense_weight.shape[0]

    @property
    def reduction(self) -> int:
        if self.operand is not None:
            return self.operand.original_shape[1]
        return self.dense_weight.shape[1]

    def transform_input(self, x: np.ndarray) -> np.ndarray:
        """Dynamic TASD-A decomposition of the incoming activation, if any."""
        if self.activation_config.is_dense:
            return x
        return decompose_activation(x, self.activation_config, self.activation_axis)

    # ------------------------------------------------------------------ #
    @hot_path
    def gemm(self, x2: np.ndarray) -> np.ndarray:
        """Execute this layer's GEMM: ``x2 @ W_eff.T`` through the plan.

        The result is allocated by this call and owned by the caller: a
        conv's epilogue overwrites it in place.
        """
        t0 = time.perf_counter_ns()
        if x2.ndim != 2 or x2.shape[1] != self.reduction:
            # Never silently zero-pad a wrong-width input up to the padded
            # reduction: an (rows, k-1) block would "work" and compute
            # garbage.  Only the exact reduction width is a valid GEMM.
            raise ValueError(
                f"layer {self.name!r} expects GEMM input of shape "
                f"(rows, {self.reduction}), got {x2.shape}"
            )
        batch_rows = x2.shape[0]
        if self.mode == "compiled":
            xt = x2.T
            if xt.shape[0] != self.operand.padded_shape[1]:
                xt = pad_to_multiple(xt, self.weight_config.block_lcm, axis=0)
            y = self.operand.matmul(xt, backend=self.backend).T
            structured = self.operand.slots * batch_rows
        elif self.mode == "per_call":
            w = self.dense_weight
            lcm = self.weight_config.block_lcm
            w_pad = pad_to_multiple(w, lcm, axis=-1)
            xt = pad_to_multiple(x2.T, lcm, axis=0)
            y = tasd_matmul(w_pad, xt, self.weight_config).T
            slots = sum(
                (w_pad.shape[1] // p.m) * p.n for p in self.weight_config.patterns
            ) * w.shape[0]
            structured = slots * batch_rows
        else:  # dense
            y = x2 @ self.dense_weight.T
            structured = batch_rows * self.reduction * self.out_features
        dense = batch_rows * self.reduction * self.out_features
        # batch_rows is the GEMM's column count once the operand side is
        # transposed: the width each kernel call actually served.
        self.counters.record(structured, dense, time.perf_counter_ns() - t0, batch_rows)
        return y

    __call__ = gemm

    def describe(self) -> str:
        storage = "-"
        if self.operand is not None:
            storage = f"{self.operand.total_nnz} nnz / {self.operand.compressed_bits / 8192:.1f} KiB"
        backend = self.backend if self.mode == "compiled" else "-"
        return (
            f"{self.name:<28s} {self.kind:<7s} {self.mode:<9s} "
            f"W={str(self.weight_config):<10s} A={str(self.activation_config):<10s} "
            f"{backend:<28s} {storage}"
        )


@dataclass
class ExecutionPlan:
    """An ordered set of layer plans compiled for one model + transform."""

    layers: dict[str, LayerPlan]
    transform: TASDTransform
    mode: str
    build_time: float

    # ------------------------------------------------------------------ #
    @property
    def total_nnz(self) -> int:
        return sum(p.operand.total_nnz for p in self.layers.values() if p.operand is not None)

    @property
    def compressed_bits(self) -> float:
        return sum(p.operand.compressed_bits for p in self.layers.values() if p.operand is not None)

    def counters(self) -> dict[str, LayerCounters]:
        """Each layer's live counters, by layer name."""
        return {name: plan.counters for name, plan in self.layers.items()}

    def backend_choices(self) -> dict[str, str]:
        """Kernel backend per *compiled* layer."""
        return {
            name: plan.backend
            for name, plan in self.layers.items()
            if plan.mode == "compiled"
        }

    def metrics_registry(self):
        """One-shot registry of compile-time metrics (CLI ``--metrics-json``).

        Covers everything knowable without serving traffic: build time,
        compressed footprint, per-layer nnz/slots and the chosen kernel
        backend, plus any execution counters
        the plan has already accumulated.  ``registry.snapshot()`` is the
        JSON artifact; ``registry.render()`` the Prometheus text.
        """
        from .metrics import MetricsRegistry, export_executor_stats

        registry = MetricsRegistry()
        registry.gauge("tasd_plan_layers", "Layers covered by the plan").set(len(self.layers))
        registry.gauge("tasd_plan_build_seconds", "Plan compile time").set(self.build_time)
        registry.gauge("tasd_plan_total_nnz", "Non-zeros across compressed operands").set(
            self.total_nnz
        )
        registry.gauge("tasd_plan_compressed_bytes", "Compressed operand storage").set(
            self.compressed_bits / 8
        )
        layer_nnz = registry.gauge(
            "tasd_plan_layer_nnz", "Compressed non-zeros per layer", labels=("layer",)
        )
        layer_info = registry.gauge(
            "tasd_plan_layer_info",
            "1 per layer, keyed by execution mode and kernel backend",
            labels=("layer", "mode", "backend"),
        )
        for name, lp in self.layers.items():
            layer_nnz.labels(layer=name).set(lp.operand.total_nnz if lp.operand else 0)
            backend = lp.backend if lp.mode == "compiled" else lp.mode
            layer_info.labels(layer=name, mode=lp.mode, backend=backend).set(1)
        export_executor_stats(registry, snapshot(self.counters()), self.backend_choices())
        return registry

    # ------------------------------------------------------------------ #
    def save(self, path) -> Path:
        """Persist this plan to a single ``.npz`` + JSON-manifest artifact.

        The artifact is keyed by the content digests of the weights the
        plan was compiled from; :func:`repro.runtime.planio.load_plan`
        rebuilds the plan from it in milliseconds and refuses models whose
        weights have drifted.
        """
        from .planio import save_plan

        return save_plan(self, path)

    # ------------------------------------------------------------------ #
    def install(self, model: Module) -> None:
        """Attach layer plans to the model's GEMM layers (the fast path).

        Any TASD transform applied via ``tasder.apply`` is cleared first:
        the plan subsumes both the weight and activation sides, and leaving
        the transform's forward wrappers in place would decompose every
        activation twice per request.  A plan that names a layer the model
        lacks, or a compiled layer whose backend is unknown, raises
        ``KeyError`` before the model is touched, so whatever plan was
        installed keeps serving.

        It then pairs each conv with the BatchNorm2d and ReLU that follow
        it (:func:`repro.nn.blocks.fold_epilogues`): in eval mode the conv
        applies them, and a block's residual add, to its GEMM output in
        place.  The pairs come from the model's live modules, not from the
        plan, whose artifact holds no BN statistics.
        """
        layers = dict(gemm_layers(model, include_head=True))
        missing = set(self.layers) - set(layers)
        if missing:
            raise KeyError(f"plan names layers the model lacks: {sorted(missing)}")
        for plan in self.layers.values():
            if plan.mode == "compiled":
                get_backend(plan.backend)
        clear_transform(model)
        for name, plan in self.layers.items():
            layers[name].set_compiled_plan(plan)
        fold_epilogues(model)

    def uninstall(self, model: Module) -> None:
        """Detach all layer plans and epilogues, restoring the uncompiled forward."""
        for _, layer in gemm_layers(model, include_head=True):
            layer.set_compiled_plan(None)
        unfold_epilogues(model)

    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        lines = [
            f"execution plan: {len(self.layers)} layers, mode={self.mode}, "
            f"built in {self.build_time * 1e3:.1f} ms",
            f"compressed weights: {self.total_nnz} nnz, "
            f"{self.compressed_bits / 8192:.1f} KiB",
        ]
        lines += [plan.describe() for plan in self.layers.values()]
        return "\n".join(lines)


def _layer_kind(layer: _GemmLayer) -> str:
    return "conv2d" if isinstance(layer, Conv2d) else "linear"


def autotune_operand(exact_only: bool = False) -> str:
    """The backend rule: ``einsum-gather`` if ``exact_only``, else ``dense-emulation``.

    The name is kept for perfbench, which looks it up and times it as the
    plan's backend choice.
    """
    return DEFAULT_BACKEND if exact_only else "dense-emulation"


def compile_plan(
    model: Module,
    transform: TASDTransform,
    mode: str = "compiled",
    backend: str = DEFAULT_BACKEND,
    autotune: bool = False,
    autotune_exact_only: bool = False,
) -> ExecutionPlan:
    """Compile a model + transform into an :class:`ExecutionPlan`.

    Every GEMM layer (heads included) receives a plan: layers the transform
    targets get their weights decomposed and compressed exactly once, by
    :func:`~repro.runtime.cache.compile_operand`; untargeted layers get
    dense plans so the executor's counters cover the whole network.  Each
    layer records its source weight's :func:`tensor_digest`, the identity
    a saved plan is checked against.  ``mode="per_call"`` builds the
    uncompiled baseline instead (no compression at build time; every
    forward re-decomposes through ``tasd_matmul``).

    ``backend`` fixes the structured-GEMM kernel for every compiled layer;
    ``autotune=True`` instead applies :func:`autotune_operand`'s rule:
    ``dense-emulation``, or the bit-exact reference ``einsum-gather`` when
    ``autotune_exact_only`` is set.  (The keywords keep their names for
    perfbench; no kernel is timed.)

    Dynamic TASD-A activations are decomposed on every forward, never
    cached: like the paper's TASD units, each activation block is
    decomposed as it is produced.
    """
    if mode not in ("compiled", "per_call"):
        raise ValueError(f"compile mode must be 'compiled' or 'per_call', got {mode!r}")
    t0 = time.perf_counter()
    plans: dict[str, LayerPlan] = {}
    for name, layer in gemm_layers(model, include_head=True):
        weight_config = transform.weight_configs.get(name, DENSE_CONFIG)
        activation_config = transform.activation_configs.get(name, DENSE_CONFIG)
        w = layer.weight_matrix()
        # Hashed once per layer: the identity plan persistence verifies
        # restarts against.
        w_digest = tensor_digest(w)
        if weight_config.is_dense:
            layer_mode, operand, dense_weight = "dense", None, w
        elif mode == "per_call":
            layer_mode, operand, dense_weight = "per_call", None, w
        else:
            layer_mode = "compiled"
            operand, dense_weight = compile_operand(w, weight_config), None
        layer_backend = backend
        if autotune and layer_mode == "compiled":
            layer_backend = autotune_operand(exact_only=autotune_exact_only)
        plans[name] = LayerPlan(
            name=name,
            kind=_layer_kind(layer),
            mode=layer_mode,
            weight_config=weight_config,
            activation_config=activation_config,
            activation_axis=_activation_axis(layer),
            operand=operand,
            dense_weight=dense_weight,
            backend=layer_backend,
            weight_digest=w_digest,
        )
    return ExecutionPlan(
        layers=plans,
        transform=transform,
        mode=mode,
        build_time=time.perf_counter() - t0,
    )
