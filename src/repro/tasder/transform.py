"""Model transformation: CONV/FC → TCONV/TFC (+ TASD layers), Fig. 7.

Weight-side (TASD-W): each targeted GEMM layer gets an *effective weight* —
the TASD-series view of its trained weight — used during eval-mode forward
passes.  The true parameter is untouched, so transforms are reversible.

Activation-side (TASD-A): each targeted GEMM layer gets an input transform
that decomposes the incoming activation tensor on the fly, modelling the
TASD unit's dynamic decomposition (the TASD layer of Fig. 7c, fused into
the consuming TCONV/TFC for simplicity of graph surgery).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.series import DENSE_CONFIG, TASDConfig
from repro.nn.layers import Conv2d, Linear, _GemmLayer
from repro.nn.module import Module
from repro.pruning.targets import gemm_layers
from repro.tensor.blocks import crop_to_shape, pad_to_multiple

__all__ = [
    "decompose_weight_matrix",
    "decompose_activation",
    "TASDTransform",
    "apply_weight_transform",
    "apply_activation_transform",
    "clear_transform",
]


def decompose_weight_matrix(w: np.ndarray, config: TASDConfig) -> np.ndarray:
    """TASD view of a weight matrix along its reduction (last) axis.

    Pads ragged reduction dims with zeros before decomposing (padding never
    changes which elements a view keeps) and crops back.
    """
    if config.is_dense:
        return np.asarray(w)
    padded = pad_to_multiple(w, config.block_lcm, axis=-1)
    approx = config.view(padded, axis=-1)
    return crop_to_shape(approx, w.shape)


def decompose_activation(x: np.ndarray, config: TASDConfig, axis: int) -> np.ndarray:
    """TASD view of an activation tensor along ``axis`` (dynamic TASD-A path).

    Pads ``axis`` with zeros to the series' block size, takes
    :meth:`TASDConfig.view` and crops back.  When the series has one block
    size (A ``4:8``, ``2:8+2:8``) that view is one top-n pass of
    :func:`~repro.core.patterns.pattern_mask` over the blocks in place
    (``(b, c/m, m, h*w)`` for NCHW) and one ``np.where``, bit-identical to
    the greedy term-by-term decomposition; mixed block sizes stay greedy.
    """
    if config.is_dense:
        return np.asarray(x)
    original_shape = x.shape
    padded = pad_to_multiple(x, config.block_lcm, axis=axis)
    approx = config.view(padded, axis=axis)
    return crop_to_shape(approx, original_shape)


def _activation_axis(layer: _GemmLayer) -> int:
    """Axis of the incoming activation the TASD unit blocks along.

    Convolutions consume NCHW maps — blocks run along channels (the leading
    chunk of the im2col reduction axis); Linear layers consume feature-last
    tensors.
    """
    return 1 if isinstance(layer, Conv2d) else -1


@dataclass
class TASDTransform:
    """A TASD transformation ``T`` of a model (Section 4.2's notation).

    Maps layer names to weight-side and/or activation-side configurations.
    Layers absent from a mapping stay dense on that side.
    """

    weight_configs: dict[str, TASDConfig] = field(default_factory=dict)
    activation_configs: dict[str, TASDConfig] = field(default_factory=dict)

    def merged_with(self, other: "TASDTransform") -> "TASDTransform":
        """Combine two transforms; ``other`` wins on conflicts."""
        return TASDTransform(
            weight_configs={**self.weight_configs, **other.weight_configs},
            activation_configs={**self.activation_configs, **other.activation_configs},
        )

    def summary(self) -> str:
        lines = []
        for name in sorted(set(self.weight_configs) | set(self.activation_configs)):
            w = self.weight_configs.get(name, DENSE_CONFIG)
            a = self.activation_configs.get(name, DENSE_CONFIG)
            lines.append(f"  {name}: W={w} A={a}")
        return "\n".join(lines) or "  (identity transform)"


def apply_weight_transform(model: Module, configs: dict[str, TASDConfig]) -> None:
    """Install decomposed effective weights (CONV/FC → TCONV/TFC, Fig. 7b)."""
    layers = dict(gemm_layers(model, include_head=True))
    for name, config in configs.items():
        if name not in layers:
            raise KeyError(f"no GEMM layer named {name!r} in model")
        layer = layers[name]
        if config.is_dense:
            layer.set_effective_weight(None)
        else:
            layer.set_effective_weight(decompose_weight_matrix(layer.weight_matrix(), config))


def apply_activation_transform(model: Module, configs: dict[str, TASDConfig]) -> None:
    """Install dynamic activation decomposition (TASD layer of Fig. 7c)."""
    layers = dict(gemm_layers(model, include_head=True))
    for name, config in configs.items():
        if name not in layers:
            raise KeyError(f"no GEMM layer named {name!r} in model")
        layer = layers[name]
        if config.is_dense:
            _uninstall_input_transform(layer)
        else:
            _install_input_transform(layer, config)


def clear_transform(model: Module) -> None:
    """Remove every TASD effect, restoring the original dense execution."""
    for _, layer in gemm_layers(model, include_head=True):
        layer.set_effective_weight(None)
        _uninstall_input_transform(layer)


# --------------------------------------------------------------------------
# Input-transform plumbing: wrap the layer's forward to decompose its input
# during eval-mode execution only (training always sees exact activations).
# --------------------------------------------------------------------------
def _install_input_transform(layer: _GemmLayer, config: TASDConfig) -> None:
    _uninstall_input_transform(layer)
    axis = _activation_axis(layer)
    original_forward = layer.forward

    def forward_with_tasd(x: np.ndarray) -> np.ndarray:
        if not layer.training:
            x = decompose_activation(x, config, axis)
        return original_forward(x)

    layer._tasd_original_forward = original_forward
    layer.tasd_activation_config = config
    layer.forward = forward_with_tasd


def _uninstall_input_transform(layer: _GemmLayer) -> None:
    original = getattr(layer, "_tasd_original_forward", None)
    if original is not None:
        layer.forward = original
        del layer._tasd_original_forward
    if hasattr(layer, "tasd_activation_config"):
        del layer.tasd_activation_config
