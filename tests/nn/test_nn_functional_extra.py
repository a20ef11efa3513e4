"""Additional coverage: activation function properties and numerical safety."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn import functional as F


class TestActivationValues:
    def test_relu6_saturates(self):
        x = np.array([-1.0, 3.0, 10.0])
        assert np.array_equal(F.relu6(x), [0.0, 3.0, 6.0])

    def test_squared_relu(self):
        x = np.array([-2.0, 3.0])
        assert np.array_equal(F.squared_relu(x), [0.0, 9.0])

    def test_gelu_known_values(self):
        assert F.gelu(np.array([0.0]))[0] == 0.0
        assert F.gelu(np.array([100.0]))[0] == pytest.approx(100.0)
        assert F.gelu(np.array([-100.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_silu_known_values(self):
        assert F.silu(np.array([0.0]))[0] == 0.0
        assert F.silu(np.array([100.0]))[0] == pytest.approx(100.0)

    def test_gelu_never_exactly_zero_for_moderate_negatives(self):
        """The Section 2.2 point: GELU produces no exact zeros."""
        x = np.linspace(-5, -0.1, 100)
        assert np.all(F.gelu(x) != 0.0)

    def test_relu_produces_exact_zeros(self):
        x = np.linspace(-5, -0.1, 100)
        assert np.all(F.relu(x) == 0.0)

    def test_softmax_stability_large_logits(self):
        x = np.array([[1e4, 1e4 + 1, 1e4 - 1]])
        s = F.softmax(x)
        assert np.isfinite(s).all()
        assert s.sum() == pytest.approx(1.0)

    def test_log_softmax_stability(self):
        x = np.array([[1e4, -1e4]])
        ls = F.log_softmax(x)
        assert np.isfinite(ls).all()

    def test_registry_swish_aliases_silu(self):
        assert F.ACTIVATIONS["swish"][0] is F.ACTIVATIONS["silu"][0]


@given(st.sampled_from(list(F.ACTIVATIONS)), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_derivatives_match_finite_differences(kind, seed):
    fwd, grad = F.ACTIVATIONS[kind]
    x = np.random.default_rng(seed).uniform(-3, 3, size=32)
    x = x[np.abs(x) > 1e-3]  # avoid kink points of relu-family
    if kind == "relu6":
        x = x[np.abs(x - 6.0) > 1e-3]
    eps = 1e-6
    numeric = (fwd(x + eps) - fwd(x - eps)) / (2 * eps)
    np.testing.assert_allclose(grad(x), numeric, atol=1e-5)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_softmax_invariant_to_shift(seed):
    g = np.random.default_rng(seed)
    x = g.normal(size=(4, 8))
    np.testing.assert_allclose(F.softmax(x), F.softmax(x + 123.456), atol=1e-12)
