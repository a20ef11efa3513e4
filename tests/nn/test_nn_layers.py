"""Tests for the NumPy DNN layers, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Activation,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Dropout,
    Embedding,
    Flatten,
    GlobalAvgPool2d,
    LayerNorm,
    Linear,
    MaxPool2d,
    Sequential,
)
from repro.nn import functional as F
from repro.nn.module import Identity, Module, Parameter


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_input_grad(layer: Module, x: np.ndarray, atol: float = 1e-6) -> None:
    """Compare layer.backward's input gradient against finite differences."""
    layer.train()

    def loss() -> float:
        return float(layer.forward(x).sum())

    loss()  # populate caches
    analytic = layer.backward(np.ones_like(layer.forward(x)))
    numeric = numeric_grad(loss, x)
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


def check_param_grads(layer: Module, x: np.ndarray, atol: float = 1e-5) -> None:
    layer.train()
    out = layer.forward(x)
    for p in layer.parameters():
        p.zero_grad()
    layer.backward(np.ones_like(out))
    for p in layer.parameters():
        def loss() -> float:
            return float(layer.forward(x).sum())

        numeric = numeric_grad(loss, p.data)
        np.testing.assert_allclose(p.grad, numeric, atol=atol, rtol=1e-4)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(8, 3, rng=rng)
        assert layer(rng.normal(size=(5, 8))).shape == (5, 3)

    def test_forward_3d(self, rng):
        layer = Linear(8, 3, rng=rng)
        assert layer(rng.normal(size=(2, 4, 8))).shape == (2, 4, 3)

    def test_input_grad(self, rng):
        check_input_grad(Linear(6, 4, rng=rng), rng.normal(size=(3, 6)))

    def test_param_grads(self, rng):
        check_param_grads(Linear(5, 3, rng=rng), rng.normal(size=(2, 5)))

    def test_effective_weight_eval_only(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        x = rng.normal(size=(3, 4))
        w_eff = np.zeros_like(layer.weight.data)
        layer.set_effective_weight(w_eff)
        layer.train()
        assert np.any(layer(x))  # training path uses the true weight
        layer.eval()
        assert not np.any(layer(x))  # eval path uses the effective weight

    def test_effective_weight_shape_check(self, rng):
        layer = Linear(4, 2, rng=rng)
        with pytest.raises(ValueError):
            layer.set_effective_weight(np.zeros((3, 4)))


class TestConv2d:
    def test_forward_shape(self, rng):
        conv = Conv2d(3, 8, 3, stride=1, padding=1, rng=rng)
        assert conv(rng.normal(size=(2, 3, 8, 8))).shape == (2, 8, 8, 8)

    def test_forward_stride(self, rng):
        conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=rng)
        assert conv(rng.normal(size=(1, 3, 8, 8))).shape == (1, 4, 4, 4)

    def test_matches_manual_convolution(self, rng):
        """1x1 conv equals an einsum over channels."""
        conv = Conv2d(3, 5, 1, rng=rng)
        x = rng.normal(size=(2, 3, 4, 4))
        manual = np.einsum("bchw,oc->bohw", x, conv.weight.data[:, :, 0, 0]) + conv.bias.data[
            None, :, None, None
        ]
        assert np.allclose(conv(x), manual)

    def test_input_grad(self, rng):
        check_input_grad(Conv2d(2, 3, 3, padding=1, rng=rng), rng.normal(size=(2, 2, 4, 4)))

    def test_param_grads(self, rng):
        check_param_grads(Conv2d(2, 2, 3, rng=rng), rng.normal(size=(1, 2, 5, 5)))

    def test_weight_matrix_shape(self, rng):
        conv = Conv2d(3, 8, 3, rng=rng)
        assert conv.weight_matrix().shape == (8, 27)

    def test_gemm_shape(self, rng):
        conv = Conv2d(3, 8, 3, padding=1, rng=rng)
        conv(rng.normal(size=(2, 3, 8, 8)))
        gs = conv.gemm_shape(2)
        assert (gs.m, gs.k, gs.n) == (2 * 64, 27, 8)


class TestDepthwiseConv2d:
    def test_forward_shape(self, rng):
        dw = DepthwiseConv2d(4, 3, padding=1, rng=rng)
        assert dw(rng.normal(size=(2, 4, 6, 6))).shape == (2, 4, 6, 6)

    def test_input_grad(self, rng):
        check_input_grad(DepthwiseConv2d(2, 3, padding=1, rng=rng), rng.normal(size=(1, 2, 4, 4)))

    def test_channels_independent(self, rng):
        """Changing channel 0's input must not affect channel 1's output."""
        dw = DepthwiseConv2d(2, 3, padding=1, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        base = dw(x)
        x2 = x.copy()
        x2[:, 0] += 1.0
        out = dw(x2)
        assert np.allclose(out[:, 1], base[:, 1])
        assert not np.allclose(out[:, 0], base[:, 0])


class TestNormalisation:
    def test_batchnorm_normalises(self, rng):
        bn = BatchNorm2d(4)
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        y = bn(x)
        assert np.abs(y.mean(axis=(0, 2, 3))).max() < 1e-7
        assert np.abs(y.std(axis=(0, 2, 3)) - 1.0).max() < 1e-2

    def test_batchnorm_running_stats_used_in_eval(self, rng):
        bn = BatchNorm2d(2)
        for _ in range(50):
            bn(rng.normal(loc=1.0, size=(16, 2, 4, 4)))
        bn.eval()
        y = bn(np.full((2, 2, 4, 4), 1.0))
        assert np.abs(y).max() < 0.5  # input at the running mean -> near zero

    def test_batchnorm_input_grad(self, rng):
        check_input_grad(BatchNorm2d(2), rng.normal(size=(4, 2, 3, 3)), atol=1e-5)

    def test_layernorm_normalises(self, rng):
        ln = LayerNorm(16)
        y = ln(rng.normal(loc=5.0, size=(4, 16)))
        assert np.abs(y.mean(axis=-1)).max() < 1e-7

    def test_layernorm_input_grad(self, rng):
        check_input_grad(LayerNorm(8), rng.normal(size=(3, 8)), atol=1e-5)

    def test_layernorm_param_grads(self, rng):
        check_param_grads(LayerNorm(6), rng.normal(size=(4, 6)))


class TestActivations:
    @pytest.mark.parametrize("kind", ["relu", "relu6", "gelu", "silu", "squared_relu"])
    def test_grad_matches_numeric(self, kind, rng):
        check_input_grad(Activation(kind), rng.normal(size=(4, 8)), atol=1e-5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("tanh")

    def test_functional_softmax_sums_to_one(self, rng):
        s = F.softmax(rng.normal(size=(5, 7)))
        assert np.allclose(s.sum(axis=-1), 1.0)

    def test_log_softmax_consistent(self, rng):
        x = rng.normal(size=(3, 5))
        assert np.allclose(np.exp(F.log_softmax(x)), F.softmax(x))


class TestPoolingAndShape:
    def test_maxpool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2)(x)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_input_grad(self, rng):
        check_input_grad(MaxPool2d(2), rng.normal(size=(2, 2, 4, 4)))

    def test_maxpool_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            MaxPool2d(2)(rng.normal(size=(1, 1, 5, 5)))

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        assert np.allclose(GlobalAvgPool2d()(x), x.mean(axis=(2, 3)))

    def test_global_avg_pool_grad(self, rng):
        check_input_grad(GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)))

    def test_flatten_roundtrip(self, rng):
        f = Flatten()
        x = rng.normal(size=(2, 3, 4))
        y = f(x)
        assert y.shape == (2, 12)
        assert f.backward(y).shape == x.shape


class TestDropoutEmbedding:
    def test_dropout_eval_identity(self, rng):
        d = Dropout(0.5, rng=rng)
        d.eval()
        x = rng.normal(size=(4, 4))
        assert np.array_equal(d(x), x)

    def test_dropout_train_scales(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        x = np.ones((1000,))
        y = d(x)
        assert y.mean() == pytest.approx(1.0, abs=0.1)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_embedding_lookup(self, rng):
        emb = Embedding(10, 4, rng=rng)
        ids = np.array([[1, 2], [3, 1]])
        out = emb(ids)
        assert out.shape == (2, 2, 4)
        assert np.array_equal(out[0, 0], emb.weight.data[1])

    def test_embedding_grad_accumulates(self, rng):
        emb = Embedding(10, 4, rng=rng)
        ids = np.array([[1, 1]])
        emb(ids)
        emb.backward(np.ones((1, 2, 4)))
        assert np.allclose(emb.weight.grad[1], 2.0)  # token 1 used twice


class TestModuleSystem:
    def test_sequential_backward_order(self, rng):
        seq = Sequential(Linear(4, 4, rng=rng), Activation("relu"), Linear(4, 2, rng=rng))
        check_input_grad(seq, rng.normal(size=(3, 4)), atol=1e-5)

    def test_named_parameters_unique(self, rng):
        seq = Sequential(Linear(4, 4, rng=rng), Linear(4, 2, rng=rng))
        names = [n for n, _ in seq.named_parameters()]
        assert len(names) == len(set(names)) == 4

    def test_state_dict_roundtrip(self, rng):
        a = Sequential(Linear(4, 4, rng=rng))
        b = Sequential(Linear(4, 4, rng=np.random.default_rng(99)))
        b.load_state_dict(a.state_dict())
        x = rng.normal(size=(2, 4))
        assert np.allclose(a(x), b(x))

    def test_state_dict_mismatch_raises(self, rng):
        a = Sequential(Linear(4, 4, rng=rng))
        with pytest.raises(KeyError):
            a.load_state_dict({"bogus": np.zeros(1)})

    def test_train_eval_propagates(self, rng):
        seq = Sequential(Sequential(Dropout(0.5)))
        seq.eval()
        assert all(not m.training for m in seq.modules())

    def test_forward_hooks(self, rng):
        layer = Linear(4, 2, rng=rng)
        seen = []
        layer.register_forward_hook(lambda mod, x, y: seen.append(y.shape))
        layer(rng.normal(size=(3, 4)))
        assert seen == [(3, 2)]
        layer.clear_forward_hooks()
        layer(rng.normal(size=(3, 4)))
        assert len(seen) == 1

    def test_identity(self, rng):
        x = rng.normal(size=(2, 2))
        ident = Identity()
        assert ident(x) is x
        assert ident.backward(x) is x

    def test_zero_grad(self, rng):
        layer = Linear(3, 3, rng=rng)
        layer(rng.normal(size=(2, 3)))
        layer.backward(np.ones((2, 3)))
        assert np.any(layer.weight.grad)
        layer.zero_grad()
        assert not np.any(layer.weight.grad)
