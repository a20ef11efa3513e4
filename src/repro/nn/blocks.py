"""Composite blocks: ResNet blocks, Transformer encoder, ConvNeXt block.

These mirror Fig. 8's block diagrams — the structures TASDER rewrites by
swapping CONV/FC for TCONV/TFC and inserting TASD layers after activations.
"""

from __future__ import annotations

import numpy as np

from .attention import MultiHeadSelfAttention
from .layers import (
    Activation,
    BatchNorm2d,
    Conv2d,
    ConvEpilogue,
    DepthwiseConv2d,
    Dropout,
    LayerNorm,
    Linear,
    _epilogue_live,
)
from .module import Identity, Module, Sequential

__all__ = [
    "BasicBlock",
    "BottleneckBlock",
    "TransformerEncoderBlock",
    "ConvNeXtBlock",
    "conv_bn_act",
    "fold_epilogues",
    "unfold_epilogues",
]


def conv_bn_act(
    in_ch: int, out_ch: int, kernel: int, stride: int = 1, padding: int = 0,
    activation: str = "relu", rng=None,
) -> Sequential:
    """Conv → BN → activation, the CNN workhorse stack."""
    return Sequential(
        Conv2d(in_ch, out_ch, kernel, stride, padding, bias=False, rng=rng),
        BatchNorm2d(out_ch),
        Activation(activation),
    )


class BasicBlock(Module):
    """ResNet-18/34 residual block: two 3x3 convs plus identity/projection skip."""

    expansion = 1

    def __init__(self, in_ch: int, out_ch: int, stride: int = 1, rng=None) -> None:
        super().__init__()
        self.conv1 = Conv2d(in_ch, out_ch, 3, stride, 1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_ch)
        self.act1 = Activation("relu")
        self.conv2 = Conv2d(out_ch, out_ch, 3, 1, 1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_ch)
        self.act2 = Activation("relu")
        if stride != 1 or in_ch != out_ch:
            self.shortcut: Module = Sequential(
                Conv2d(in_ch, out_ch, 1, stride, 0, bias=False, rng=rng), BatchNorm2d(out_ch)
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.act1(self.bn1(self.conv1(x)))
        if _epilogue_live(self.conv2):
            return self.conv2.forward(out, residual=self.shortcut(x))
        out = self.bn2(self.conv2(out))
        out = out + self.shortcut(x)
        return self.act2(out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = self.act2.backward(grad)
        g_main = self.bn2.backward(g)
        g_main = self.conv2.backward(g_main)
        g_main = self.act1.backward(g_main)
        g_main = self.bn1.backward(g_main)
        g_main = self.conv1.backward(g_main)
        return g_main + self.shortcut.backward(g)


class BottleneckBlock(Module):
    """ResNet-50/101 bottleneck: 1x1 reduce → 3x3 → 1x1 expand (Fig. 8a)."""

    expansion = 4

    def __init__(self, in_ch: int, mid_ch: int, stride: int = 1, rng=None) -> None:
        super().__init__()
        out_ch = mid_ch * self.expansion
        self.conv1 = Conv2d(in_ch, mid_ch, 1, 1, 0, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(mid_ch)
        self.act1 = Activation("relu")
        self.conv2 = Conv2d(mid_ch, mid_ch, 3, stride, 1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(mid_ch)
        self.act2 = Activation("relu")
        self.conv3 = Conv2d(mid_ch, out_ch, 1, 1, 0, bias=False, rng=rng)
        self.bn3 = BatchNorm2d(out_ch)
        self.act3 = Activation("relu")
        if stride != 1 or in_ch != out_ch:
            self.shortcut: Module = Sequential(
                Conv2d(in_ch, out_ch, 1, stride, 0, bias=False, rng=rng), BatchNorm2d(out_ch)
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.act1(self.bn1(self.conv1(x)))
        out = self.act2(self.bn2(self.conv2(out)))
        if _epilogue_live(self.conv3):
            return self.conv3.forward(out, residual=self.shortcut(x))
        out = self.bn3(self.conv3(out))
        out = out + self.shortcut(x)
        return self.act3(out)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = self.act3.backward(grad)
        g_main = self.bn3.backward(g)
        g_main = self.conv3.backward(g_main)
        g_main = self.act2.backward(g_main)
        g_main = self.bn2.backward(g_main)
        g_main = self.conv2.backward(g_main)
        g_main = self.act1.backward(g_main)
        g_main = self.bn1.backward(g_main)
        g_main = self.conv1.backward(g_main)
        return g_main + self.shortcut.backward(g)


def _is_relu(module: Module | None) -> bool:
    return isinstance(module, Activation) and module.kind == "relu"


def _fold(conv: Conv2d, bn: BatchNorm2d, act: Module | None, residual: bool = False) -> None:
    if residual and not _is_relu(act):
        return  # the add sits between BN and a non-ReLU tail; stay unfused
    act = act if _is_relu(act) else None
    epilogue = ConvEpilogue(conv, bn, act, residual)
    conv.epilogue = epilogue
    if not residual:  # a block skips its tail modules itself
        for module in (bn, act):
            if module is not None:
                module.epilogue = epilogue


def fold_epilogues(model: Module) -> None:
    """Pair each conv with the BatchNorm2d and ReLU that follow it.

    The pairs are ``Sequential(Conv2d, BatchNorm2d[, ReLU])`` runs (the
    stem, :func:`conv_bn_act`, a projection shortcut, VGG's features),
    each convolution of a :class:`BasicBlock` or :class:`BottleneckBlock`,
    and a block's last conv together with its residual add and final ReLU.
    Each pair is a :class:`~repro.nn.layers.ConvEpilogue` on the conv, and
    on the modules it folds; whether it runs is decided per forward.
    """
    for module in model.modules():
        if isinstance(module, Sequential):
            layers = module.layers
            for conv, bn, act in zip(layers, layers[1:], layers[2:] + [None]):
                if isinstance(conv, Conv2d) and isinstance(bn, BatchNorm2d):
                    _fold(conv, bn, act)
        elif isinstance(module, BasicBlock):
            _fold(module.conv1, module.bn1, module.act1)
            _fold(module.conv2, module.bn2, module.act2, residual=True)
        elif isinstance(module, BottleneckBlock):
            _fold(module.conv1, module.bn1, module.act1)
            _fold(module.conv2, module.bn2, module.act2)
            _fold(module.conv3, module.bn3, module.act3, residual=True)


def unfold_epilogues(model: Module) -> None:
    """Drop every pair :func:`fold_epilogues` made; the model runs unfused."""
    for module in model.modules():
        vars(module).pop("epilogue", None)


class TransformerEncoderBlock(Module):
    """Pre-LN transformer block: LN→MHSA→add, LN→FC→GELU→FC→add (Fig. 8c)."""

    def __init__(
        self, dim: int, num_heads: int, mlp_ratio: int = 4,
        activation: str = "gelu", dropout: float = 0.0, rng=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng=rng)
        self.ln2 = LayerNorm(dim)
        self.fc1 = Linear(dim, dim * mlp_ratio, rng=rng)
        self.act = Activation(activation)
        self.fc2 = Linear(dim * mlp_ratio, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = x + self.attn(self.ln1(x))
        return x + self.fc2(self.drop(self.act(self.fc1(self.ln2(x)))))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g_mlp = self.fc2.backward(grad)
        g_mlp = self.drop.backward(g_mlp)
        g_mlp = self.act.backward(g_mlp)
        g_mlp = self.fc1.backward(g_mlp)
        g_mlp = self.ln2.backward(g_mlp)
        g = grad + g_mlp
        g_attn = self.attn.backward(g)
        g_attn = self.ln1.backward(g_attn)
        return g + g_attn


class ConvNeXtBlock(Module):
    """ConvNeXt block: 7x7 depthwise → LN → pointwise x4 → GELU → pointwise.

    Pointwise convs are implemented as Linear over the channel axis (the
    tensor is kept channels-last inside the block), making them TFC targets.
    """

    def __init__(self, channels: int, rng=None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.dwconv = DepthwiseConv2d(channels, 7, padding=3, rng=rng)
        self.norm = LayerNorm(channels)
        self.pw1 = Linear(channels, 4 * channels, rng=rng)
        self.act = Activation("gelu")
        self.pw2 = Linear(4 * channels, channels, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self.dwconv(x)
        y = y.transpose(0, 2, 3, 1)  # NCHW -> NHWC for the per-channel MLP
        y = self.pw2(self.act(self.pw1(self.norm(y))))
        return x + y.transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = grad.transpose(0, 2, 3, 1)
        g = self.pw2.backward(g)
        g = self.act.backward(g)
        g = self.pw1.backward(g)
        g = self.norm.backward(g)
        g = g.transpose(0, 3, 1, 2)
        return grad + self.dwconv.backward(g)
