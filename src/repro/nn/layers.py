"""Trainable layers: Linear, Conv2d, normalisation, pooling, activations.

Every layer implements forward and backward explicitly (no autograd).  The
two compute-heavy layers — :class:`Linear` and :class:`Conv2d` — are the
TASD targets: both lower to GEMM, expose their reduction-axis weight matrix
via ``weight_matrix()``, and accept an optional *effective weight* override
that the TASDER transform uses to run inference with decomposed weights.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .im2col import GemmShape, col2im, conv_gemm_shape, im2col
from .module import Module, Parameter

__all__ = [
    "Linear",
    "Conv2d",
    "ConvEpilogue",
    "DepthwiseConv2d",
    "BatchNorm2d",
    "LayerNorm",
    "Activation",
    "ReLU",
    "GELU",
    "SiLU",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Embedding",
]


def _kaiming(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / max(1, fan_in)), size=shape)


class _GemmLayer(Module):
    """Shared machinery for layers that lower to GEMM (Linear / Conv2d).

    ``effective_weight`` holds a (possibly decomposed/approximated) weight
    matrix used in place of the trained one during inference — the mechanism
    behind the paper's TFC/TCONV layers.  Training always uses the true
    parameter.

    ``compiled_plan`` is the runtime's fast path: when a
    :class:`repro.runtime.plan.LayerPlan` is attached, eval-mode forwards
    route their GEMM through the plan's pre-compressed structured kernels
    instead of re-decomposing per call.  Training ignores it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.effective_weight: np.ndarray | None = None
        self.compiled_plan = None  # LayerPlan | None (duck-typed; no nn→runtime import)

    # Overridden by subclasses -------------------------------------------------
    def weight_matrix(self) -> np.ndarray:
        """The (out_features, reduction) weight matrix the GEMM uses.

        TASD decomposes along axis -1 of this matrix (the reduction/K axis),
        matching how N:M hardware blocks the dot-product dimension.
        """
        raise NotImplementedError

    def set_effective_weight(self, w: np.ndarray | None) -> None:
        if w is not None and w.shape != self.weight_matrix().shape:
            raise ValueError(
                f"effective weight shape {w.shape} != {self.weight_matrix().shape}"
            )
        self.effective_weight = None if w is None else np.asarray(w)

    def set_compiled_plan(self, plan) -> None:
        """Attach (or detach, with ``None``) a compiled runtime layer plan."""
        if plan is not None:
            expected = self.weight_matrix().shape
            got = (plan.out_features, plan.reduction)
            if got != expected:
                raise ValueError(f"plan GEMM shape {got} != layer weight shape {expected}")
        self.compiled_plan = plan

    def _plan_active(self) -> bool:
        return self.compiled_plan is not None and not self.training

    def _active_weight(self) -> np.ndarray:
        if not self.training and self.effective_weight is not None:
            return self.effective_weight
        return self.weight_matrix()

    def gemm_shape(self, batch: int) -> GemmShape:
        raise NotImplementedError


class Linear(_GemmLayer):
    """Fully-connected layer ``y = x @ W.T + b`` (an FC layer of the paper).

    Accepts inputs of any leading shape; the last axis is the feature axis.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_kaiming(rng, in_features, (out_features, in_features)), "weight")
        self.bias = Parameter(np.zeros(out_features), "bias") if bias else None
        self._x: np.ndarray | None = None

    def weight_matrix(self) -> np.ndarray:
        return self.weight.data

    def gemm_shape(self, batch: int) -> GemmShape:
        return GemmShape(m=batch, k=self.in_features, n=self.out_features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        if self._plan_active():
            plan = self.compiled_plan
            x_eff = plan.transform_input(x)
            x2 = x_eff.reshape(-1, self.in_features)
            y = plan.gemm(x2).reshape(*x.shape[:-1], self.out_features)
        else:
            w = self._active_weight()
            y = x @ w.T
        if self.bias is not None:
            y = y + self.bias.data
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        g2 = grad.reshape(-1, self.out_features)
        x2 = x.reshape(-1, self.in_features)
        self.weight.grad += g2.T @ x2
        if self.bias is not None:
            self.bias.grad += g2.sum(axis=0)
        return (g2 @ self.weight.data).reshape(x.shape)


class Conv2d(_GemmLayer):
    """2-D convolution over NCHW inputs, lowered to GEMM via im2col.

    While a plan is installed and the model is in eval mode, the forward
    is inference only: it keeps no im2col cache for a backward.  If the
    plan paired the conv with the BatchNorm2d (and ReLU) that follow it,
    its :class:`ConvEpilogue` applies them in place to the fresh
    ``(M, out)`` buffer the plan's GEMM returns, before the NCHW reshape;
    those modules then pass their input through.  A residual epilogue also
    adds the ``residual`` a block passes in, before the ReLU.
    """

    #: the fold :meth:`repro.runtime.plan.ExecutionPlan.install` paired it into
    epilogue: "ConvEpilogue | None" = None

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng=None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _kaiming(rng, fan_in, (out_channels, in_channels, kernel_size, kernel_size)),
            "weight",
        )
        self.bias = Parameter(np.zeros(out_channels), "bias") if bias else None
        self._cols: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def weight_matrix(self) -> np.ndarray:
        return self.weight.data.reshape(self.out_channels, -1)

    def gemm_shape(self, batch: int, height: int | None = None, width: int | None = None) -> GemmShape:
        if height is None or width is None:
            if self._input_shape is None:
                raise ValueError("run a forward pass or pass height/width explicitly")
            _, _, height, width = self._input_shape
        return conv_gemm_shape(
            batch, self.in_channels, height, width, self.out_channels,
            self.kernel_size, self.stride, self.padding,
        )

    def forward(self, x: np.ndarray, residual: np.ndarray | None = None) -> np.ndarray:
        b = x.shape[0]
        self._input_shape = x.shape
        use_plan = self._plan_active()
        if use_plan:
            # Dynamic TASD-A decomposes the NCHW map along channels,
            # before im2col spreads them across the reduction axis.
            x = self.compiled_plan.transform_input(x)
        cols, (oh, ow) = im2col(x, self.kernel_size, self.stride, self.padding)
        self._cols = None if use_plan else cols
        self._out_hw = (oh, ow)
        if use_plan:
            y = self.compiled_plan.gemm(cols)  # (b*oh*ow, out_ch)
        else:
            w = self._active_weight()  # (out_ch, c*k*k)
            y = cols @ w.T  # (b*oh*ow, out_ch)
        if self.bias is not None:
            y = y + self.bias.data
        nhwc = (b, oh, ow, self.out_channels)
        epilogue = self.epilogue
        if epilogue is not None and epilogue.residual == (residual is not None) and epilogue.live():
            return epilogue.apply(y, nhwc, residual)
        if residual is not None:
            raise ValueError("only a live residual epilogue adds a residual")
        return y.reshape(nhwc).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        b, _, oh, ow = grad.shape
        g2 = grad.transpose(0, 2, 3, 1).reshape(b * oh * ow, self.out_channels)
        self.weight.grad += (g2.T @ self._cols).reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += g2.sum(axis=0)
        dcols = g2 @ self.weight.data.reshape(self.out_channels, -1)
        return col2im(dcols, self._input_shape, self.kernel_size, self.stride, self.padding)


class DepthwiseConv2d(Module):
    """Per-channel (depthwise) convolution, used by ConvNeXt blocks.

    Not a TASD target: its reduction dimension is only ``k*k`` and the paper
    restricts decomposition to CONV/FC GEMMs.
    """

    def __init__(self, channels: int, kernel_size: int, padding: int = 0, rng=None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.channels = channels
        self.kernel_size = kernel_size
        self.padding = padding
        fan_in = kernel_size * kernel_size
        self.weight = Parameter(_kaiming(rng, fan_in, (channels, kernel_size, kernel_size)), "weight")
        self.bias = Parameter(np.zeros(channels), "bias")
        self._windows: np.ndarray | None = None
        self._input_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        self._input_shape = x.shape
        k, p = self.kernel_size, self.padding
        xp = x
        if p:
            xp = np.zeros_like(x, shape=(b, c, h + 2 * p, w + 2 * p))
            xp[:, :, p : p + h, p : p + w] = x
        oh, ow = h + 2 * p - k + 1, w + 2 * p - k + 1
        sb, sc, sh, sw = xp.strides
        windows = np.lib.stride_tricks.as_strided(
            xp, shape=(b, c, oh, ow, k, k), strides=(sb, sc, sh, sw, sh, sw), writeable=False
        )
        self._windows = windows
        y = np.einsum("bcijuv,cuv->bcij", windows, self.weight.data, optimize=True)
        return y + self.bias.data[None, :, None, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.weight.grad += np.einsum("bcij,bcijuv->cuv", grad, self._windows, optimize=True)
        self.bias.grad += grad.sum(axis=(0, 2, 3))
        k = self.kernel_size
        b, c, oh, ow = grad.shape
        # dcols[b, i, j, c, u, v] = grad[b,c,i,j] * w[c,u,v], then im2col adjoint.
        dcols = np.einsum("bcij,cuv->bijcuv", grad, self.weight.data, optimize=True)
        dcols = dcols.reshape(b * oh * ow, c * k * k)
        return col2im(dcols, self._input_shape, k, stride=1, padding=self.padding)


class BatchNorm2d(Module):
    """Batch normalisation over NCHW feature maps with running statistics.

    When a plan has folded this module into the epilogue of the conv before
    it (see :class:`ConvEpilogue`), and that epilogue is live, the conv has
    already applied it: the forward passes its input through and keeps no
    backward cache.
    """

    buffer_names = ("running_mean", "running_var")
    #: the conv epilogue that applies this module while it is live
    epilogue: "ConvEpilogue | None" = None

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels), "gamma")
        self.beta = Parameter(np.zeros(channels), "beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if _epilogue_live(self):
            self._cache = None
            return x
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean += self.momentum * (mean - self.running_mean)
            self.running_var += self.momentum * (var - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, x.shape)
        return self.gamma.data[None, :, None, None] * x_hat + self.beta.data[None, :, None, None]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std, shape = self._cache
        b, _, h, w = shape
        n = b * h * w
        self.gamma.grad += (grad * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad.sum(axis=(0, 2, 3))
        g = grad * self.gamma.data[None, :, None, None]
        if not self.training:
            return g * inv_std[None, :, None, None]
        # Standard batch-norm backward: dx = inv_std/n * (n*g - Σg - x_hat Σ(g x_hat))
        sum_g = g.sum(axis=(0, 2, 3))[None, :, None, None]
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3))[None, :, None, None]
        return (inv_std[None, :, None, None] / n) * (n * g - sum_g - x_hat * sum_gx)


class LayerNorm(Module):
    """Layer normalisation over the trailing feature axis."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(np.ones(features), "gamma")
        self.beta = Parameter(np.zeros(features), "beta")
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return self.gamma.data * x_hat + self.beta.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._cache
        d = self.features
        axes = tuple(range(grad.ndim - 1))
        self.gamma.grad += (grad * x_hat).sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)
        g = grad * self.gamma.data
        sum_g = g.sum(axis=-1, keepdims=True)
        sum_gx = (g * x_hat).sum(axis=-1, keepdims=True)
        return (inv_std / d) * (d * g - sum_g - x_hat * sum_gx)


class Activation(Module):
    """Pointwise non-linearity from :data:`repro.nn.functional.ACTIVATIONS`.

    The paper's TASD layers attach right after these (Fig. 8); calibration
    measures the sparsity they produce with its own input hooks
    (:mod:`repro.tasder.calibrate`), so the forward does no bookkeeping.
    """

    #: the conv epilogue that applies this module while it is live
    epilogue: "ConvEpilogue | None" = None

    def __init__(self, kind: str = "relu") -> None:
        super().__init__()
        if kind not in F.ACTIVATIONS:
            raise ValueError(f"unknown activation {kind!r}; options: {sorted(F.ACTIVATIONS)}")
        self.kind = kind
        self._fwd, self._grad = F.ACTIVATIONS[kind]
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if _epilogue_live(self):
            self._x = None
            return x
        self._x = x
        return self._fwd(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._grad(self._x)


class ConvEpilogue:
    """Eval-mode BatchNorm2d, residual add and ReLU on a conv's GEMM output.

    :meth:`repro.runtime.plan.ExecutionPlan.install` pairs a
    :class:`Conv2d` with the :class:`BatchNorm2d` and optional ReLU
    :class:`Activation` that follow it (see
    :func:`repro.nn.blocks.fold_epilogues`); ``uninstall`` drops the pairs.
    A ``residual`` epilogue is a block's last conv: the block passes its
    shortcut output to the conv's forward, and the epilogue adds it after
    the BatchNorm and before the ReLU.

    :meth:`live` is decided afresh on every forward, from the modules
    themselves: a module that trains or has forward hooks is never
    folded, and a conv without an active plan runs unfused.
    """

    __slots__ = ("conv", "bn", "act", "residual")

    def __init__(
        self, conv: Conv2d, bn: "BatchNorm2d", act: "Activation | None" = None,
        residual: bool = False,
    ) -> None:
        self.conv = conv
        self.bn = bn
        self.act = act
        self.residual = residual

    def live(self) -> bool:
        """Whether the conv applies the folded modules on this forward."""
        if self.conv.compiled_plan is None:
            return False
        # A plain loop: asked about 50 times a ResNet-18 forward, a
        # generator under any() doubles its cost.
        for m in (self.conv, self.bn, self.act):
            if m is not None and (m.training or getattr(m, "_forward_hooks", None)):
                return False
        return True

    def apply(
        self, y: np.ndarray, nhwc: tuple[int, int, int, int], residual: np.ndarray | None = None
    ) -> np.ndarray:
        """``relu(bn(y) + residual)`` over the ``(M, out)`` GEMM output, as NCHW.

        The arithmetic is the unfused modules' own, operation for
        operation, so the bits are theirs.  It runs in place on ``y``,
        which the GEMM allocated for this call, unless an operand's dtype
        would widen the result: then each step allocates, as unfused.
        """
        bn = self.bn
        mean, gamma, beta = bn.running_mean, bn.gamma.data, bn.beta.data
        # Length-C and recomputed per call, so it follows the live statistics.
        inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
        operands = (y, mean, inv_std, gamma, beta) + (() if residual is None else (residual,))
        inplace = np.result_type(*operands) == y.dtype
        out = y if inplace else None
        # A per-channel broadcast over runs shorter than NumPy's ufunc
        # buffer (8192 elements) gets buffered across runs, copying the
        # channel vector; a one-run buffer keeps the loop unbuffered.  On
        # ResNet-18's batch-4 32x32 outputs this halves these four passes
        # for runs of 256-4096, and costs about 10 us per call on runs of
        # 64.  Elementwise ufuncs give the same bits at any buffer size.
        run = nhwc[0] * nhwc[1] * nhwc[2]
        saved = np.setbufsize(run - run % 16) if 256 <= run < 8192 else None
        try:
            y = np.subtract(y, mean, out=out)
            y = np.multiply(y, inv_std, out=out)
            y = np.multiply(gamma, y, out=out)
            y = np.add(y, beta, out=out)
        finally:
            if saved is not None:
                np.setbufsize(saved)
        y = y.reshape(nhwc).transpose(0, 3, 1, 2)
        out = y if inplace else None
        if residual is not None:
            y = np.add(y, residual, out=out)
        if self.act is not None:
            y = np.maximum(y, 0.0, out=out)  # F.relu
        return y


def _epilogue_live(module: Module) -> bool:
    """Whether ``module``'s conv epilogue applies it on this forward."""
    return module.epilogue is not None and module.epilogue.live()


def ReLU() -> Activation:
    return Activation("relu")


def GELU() -> Activation:
    return Activation("gelu")


def SiLU() -> Activation:
    return Activation("silu")


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride, dims divisible)."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(f"spatial dims {(h, w)} not divisible by pool size {k}")
        tiles = x.reshape(b, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
        flat = tiles.reshape(b, c, h // k, w // k, k * k)
        arg = flat.argmax(axis=-1)
        self._cache = (arg, x.shape)
        return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        arg, (b, c, h, w) = self._cache
        k = self.kernel_size
        flat = np.zeros((b, c, h // k, w // k, k * k), dtype=grad.dtype)
        np.put_along_axis(flat, arg[..., None], grad[..., None], axis=-1)
        tiles = flat.reshape(b, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5)
        return tiles.reshape(b, c, h, w)


class GlobalAvgPool2d(Module):
    """Global average pooling NCHW -> NC."""

    def __init__(self) -> None:
        super().__init__()
        self._hw: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._hw = x.shape[2:]
        return x.mean(axis=(2, 3))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        h, w = self._hw
        return np.broadcast_to(grad[:, :, None, None], grad.shape + (h, w)) / (h * w)


class Flatten(Module):
    """Flatten all but the batch dimension."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout; identity at eval time."""

    def __init__(self, p: float = 0.1, rng=None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng or np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = (self.rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Embedding(Module):
    """Token embedding lookup (BERT substrate)."""

    def __init__(self, vocab_size: int, dim: int, rng=None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(vocab_size, dim)), "weight")
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = np.asarray(ids)
        return self.weight.data[self._ids]

    def backward(self, grad: np.ndarray) -> np.ndarray:
        np.add.at(self.weight.grad, self._ids.ravel(), grad.reshape(-1, self.dim))
        return grad  # no gradient flows to integer ids
