"""Stateless tensor functions: activations (forward + derivative), softmax.

Activation choice matters to this paper — ReLU-family functions create the
intrinsic activation sparsity TASD-A exploits, while GELU/Swish produce dense
but magnitude-skewed activations handled via pseudo-density (Section 4.3).
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "relu",
    "relu_grad",
    "relu6",
    "relu6_grad",
    "squared_relu",
    "squared_relu_grad",
    "gelu",
    "gelu_grad",
    "silu",
    "silu_grad",
    "softmax",
    "log_softmax",
    "ACTIVATIONS",
]

_SQRT_2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(x.dtype)


def relu6(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 6.0)


def relu6_grad(x: np.ndarray) -> np.ndarray:
    return ((x > 0.0) & (x < 6.0)).astype(x.dtype)


def squared_relu(x: np.ndarray) -> np.ndarray:
    r = np.maximum(x, 0.0)
    return r * r


def squared_relu_grad(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.maximum(x, 0.0)


def gelu(x: np.ndarray) -> np.ndarray:
    """Exact GELU: ``x * Phi(x)`` with the Gaussian CDF."""
    return x * 0.5 * (1.0 + special.erf(x / _SQRT_2))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + special.erf(x / _SQRT_2))
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return cdf + x * pdf


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / Swish: ``x * sigmoid(x)``."""
    return x * special.expit(x)


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = special.expit(x)
    return s * (1.0 + x * (1.0 - s))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


# name -> (forward, derivative)
ACTIVATIONS: dict[str, tuple] = {
    "relu": (relu, relu_grad),
    "relu6": (relu6, relu6_grad),
    "squared_relu": (squared_relu, squared_relu_grad),
    "gelu": (gelu, gelu_grad),
    "silu": (silu, silu_grad),
    "swish": (silu, silu_grad),
}
