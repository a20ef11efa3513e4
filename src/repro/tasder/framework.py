"""TASDER: the end-to-end optimizer (Fig. 5's system overview).

Inputs: a DNN model, sample data, the target hardware's structured sparsity
menu, and hyperparameters.  Output: a TASD transformation (per-layer series
configurations) that maximises compute reduction subject to the 99 %
accuracy gate, plus the transformed model ready for inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.data import Dataset
from repro.nn.module import Module
from repro.nn.train import evaluate_accuracy

from .activation_search import activation_search
from .config import HardwareMenu
from .quality import collect_gemm_shapes, evaluate_transform, transform_compute_fraction
from .transform import (
    TASDTransform,
    apply_activation_transform,
    apply_weight_transform,
    clear_transform,
)
from .weight_search import greedy_weight_search, sparsity_based_weight_selection

__all__ = ["TasderResult", "Tasder"]


@dataclass
class TasderResult:
    """What TASDER returns: the transform and its measured effects."""

    transform: TASDTransform
    original_accuracy: float
    transformed_accuracy: float
    compute_fraction: float

    @property
    def mac_reduction(self) -> float:
        """Fractional MAC savings (Fig. 20's metric)."""
        return 1.0 - self.compute_fraction

    @property
    def accuracy_retention(self) -> float:
        if self.original_accuracy == 0.0:
            return 1.0
        return self.transformed_accuracy / self.original_accuracy

    def __str__(self) -> str:  # pragma: no cover - formatting
        return (
            f"accuracy {self.original_accuracy:.4f} -> {self.transformed_accuracy:.4f} "
            f"({self.accuracy_retention:.1%} retained), "
            f"MACs x{self.compute_fraction:.3f} ({self.mac_reduction:.1%} saved)"
        )


class Tasder:
    """The TASDER framework (Section 4.1).

    Parameters
    ----------
    model : Module
        The (possibly unstructured-sparse) trained model to accelerate.
    dataset : Dataset
        Provides the evaluation split (quality gate) and calibration split
        (activation statistics).
    menu : HardwareMenu
        Target hardware's supported structured sparsity patterns.
    threshold : float
        Accuracy-retention requirement (0.99 per MLPerf).
    alpha : float
        TASD-A aggressiveness hyperparameter.
    """

    def __init__(
        self,
        model: Module,
        dataset: Dataset,
        menu: HardwareMenu,
        threshold: float = 0.99,
        alpha: float = 0.0,
    ) -> None:
        self.model = model
        self.dataset = dataset
        self.menu = menu
        self.threshold = threshold
        self.alpha = alpha

    # ------------------------------------------------------------------ #
    def optimize_weights(self, method: str = "greedy", eval_every: int = 4) -> TasderResult:
        """TASD-W: decompose unstructured-sparse weights for this hardware."""
        clear_transform(self.model)
        if method == "greedy":
            search = greedy_weight_search(
                self.model, self.menu,
                self.dataset.x_eval, self.dataset.y_eval,
                threshold=self.threshold, eval_every=eval_every,
            )
            transform = search.transform
            original = search.original_accuracy
        elif method == "sparsity":
            original = evaluate_accuracy(self.model, self.dataset.x_eval, self.dataset.y_eval)
            transform = sparsity_based_weight_selection(self.model, self.menu, self.alpha)
        else:
            raise ValueError(f"unknown TASD-W method {method!r}; use 'greedy' or 'sparsity'")
        return self._finalize(transform, original)

    def optimize_activations(self, skip_layers: tuple[str, ...] = ()) -> TasderResult:
        """TASD-A: dynamic decomposition configs for activations."""
        clear_transform(self.model)
        original = evaluate_accuracy(self.model, self.dataset.x_eval, self.dataset.y_eval)
        transform = activation_search(
            self.model, self.menu, self.dataset.x_calib,
            alpha=self.alpha, skip_layers=skip_layers,
        )
        return self._finalize(transform, original)

    # ------------------------------------------------------------------ #
    def _finalize(self, transform: TASDTransform, original_accuracy: float) -> TasderResult:
        accuracy = evaluate_transform(
            self.model, transform, self.dataset.x_eval, self.dataset.y_eval, restore=False
        )
        shapes = collect_gemm_shapes(self.model, self.dataset.x_eval[:2])
        fraction = transform_compute_fraction(transform, shapes)
        clear_transform(self.model)
        return TasderResult(
            transform=transform,
            original_accuracy=original_accuracy,
            transformed_accuracy=accuracy,
            compute_fraction=fraction,
        )

    def apply(self, transform: TASDTransform) -> Module:
        """Install a transform on the model (returns it for chaining)."""
        apply_weight_transform(self.model, transform.weight_configs)
        apply_activation_transform(self.model, transform.activation_configs)
        return self.model

    def compile(self, result: "TasderResult | TASDTransform", **plan_kwargs):
        """Compile a search result (or bare transform) into an execution plan.

        Weights are decomposed and compressed exactly once, at compile time;
        the returned :class:`repro.runtime.plan.ExecutionPlan` serves many
        requests through :class:`repro.runtime.executor.PlanExecutor`.
        Extra keyword arguments pass through to
        :func:`repro.runtime.plan.compile_plan` — e.g.
        ``backend="dense-emulation"`` to serve the structured GEMMs through
        BLAS.
        """
        # Imported lazily: repro.runtime depends on this package.
        from repro.runtime.plan import compile_plan

        transform = result.transform if isinstance(result, TasderResult) else result
        clear_transform(self.model)
        return compile_plan(self.model, transform, **plan_kwargs)
