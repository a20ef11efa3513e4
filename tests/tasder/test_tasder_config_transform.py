"""Tests for TASDER menus, transforms and calibration."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.decompose import decompose
from repro.core.patterns import NMPattern, is_pattern_legal, pattern_mask
from repro.core.series import DENSE_CONFIG, TASDConfig
from repro.nn import synthetic_images
from repro.nn.models import MLP, resnet18
from repro.nn.train import evaluate_accuracy, predict_logits
from repro.pruning import gemm_layers
from repro.tasder import (
    TTC_STC_M4,
    TTC_STC_M8,
    TTC_VEGETA_M4,
    TTC_VEGETA_M8,
    VEGETA_M8,
    TASDTransform,
    apply_activation_transform,
    apply_weight_transform,
    calibrate,
    clear_transform,
    decompose_activation,
    decompose_weight_matrix,
)
from repro.tensor.blocks import crop_to_shape, pad_to_multiple


class TestHardwareMenu:
    def test_vegeta_m8_menu_densities(self):
        menu = TTC_VEGETA_M8.menu()
        assert sorted(round(d, 4) for d in menu) == [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0]

    def test_stc_m4_menu(self):
        assert sorted(TTC_STC_M4.menu()) == [0.5, 1.0]

    def test_configs_ordering(self):
        configs = TTC_VEGETA_M8.configs()
        densities = [c.density for c in configs]
        assert densities == sorted(densities, reverse=True)
        assert configs[0].is_dense

    def test_block_size(self):
        assert TTC_VEGETA_M8.block_size == 8
        assert TTC_VEGETA_M4.block_size == 4

    def test_select_by_sparsity_alpha_rule(self):
        # S=0.55, alpha=0: densest admissible approx sparsity below 0.55 is 0.5
        cfg = TTC_VEGETA_M8.select_by_sparsity(0.55, alpha=0.0)
        assert cfg.approximated_sparsity == pytest.approx(0.5)
        # alpha=0.1 raises the budget past 5:8's 0.625... 0.55+0.1=0.65 > 0.625
        cfg = TTC_VEGETA_M8.select_by_sparsity(0.55, alpha=0.1)
        assert cfg.approximated_sparsity == pytest.approx(0.625)

    def test_select_by_sparsity_dense_fallback(self):
        assert TTC_VEGETA_M8.select_by_sparsity(0.0, alpha=0.0).is_dense
        assert TTC_STC_M4.select_by_sparsity(0.3, alpha=0.0).is_dense

    def test_larger_alpha_never_less_aggressive(self):
        for s in (0.2, 0.5, 0.8):
            a0 = TTC_VEGETA_M8.select_by_sparsity(s, 0.0).approximated_sparsity
            a1 = TTC_VEGETA_M8.select_by_sparsity(s, 0.2).approximated_sparsity
            assert a1 >= a0

    def test_table3_term_limits(self):
        assert TTC_STC_M8.max_terms == 1
        assert TTC_VEGETA_M8.max_terms == 2
        assert not VEGETA_M8.dynamic_decomposition
        assert TTC_VEGETA_M8.dynamic_decomposition


class TestDecomposeHelpers:
    def test_weight_matrix_ragged_k(self, rng):
        w = rng.normal(size=(4, 10))  # K=10 not divisible by 8
        approx = decompose_weight_matrix(w, TASDConfig.parse("2:8"))
        assert approx.shape == w.shape
        # kept values are a subset of the original
        kept = approx != 0
        assert np.array_equal(approx[kept], w[kept])

    def test_weight_matrix_dense_identity(self, rng):
        w = rng.normal(size=(4, 8))
        assert np.array_equal(decompose_weight_matrix(w, DENSE_CONFIG), w)

    def test_activation_channel_axis(self, rng):
        x = rng.normal(size=(2, 16, 4, 4))  # NCHW
        out = decompose_activation(x, TASDConfig.parse("2:8"), axis=1)
        assert out.shape == x.shape
        assert is_pattern_legal(out, NMPattern(2, 8), axis=1)

    def test_activation_padding_roundtrip(self, rng):
        x = rng.normal(size=(2, 10))  # ragged feature dim
        out = decompose_activation(x, TASDConfig.parse("4:8"), axis=-1)
        assert out.shape == x.shape


# Quantised values tie often; signed zeros, infinities and NaN are the
# inputs a reordered or re-summed mask would get wrong.
TASD_A_VALUES = st.sampled_from(
    [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0, np.inf, -np.inf, np.nan]
)


@st.composite
def activations(draw):
    """``(x, axis)``: an NCHW map blocked on channels, or feature-last rows."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 20)),
                 draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        axis = 1
    else:
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 40)))
        axis = -1
    x = draw(hnp.arrays(dtype, shape, elements=TASD_A_VALUES.map(dtype)))
    return x, axis


def greedy_activation(x, config, axis):
    """TASD-A as the term-by-term decomposition, padded and cropped."""
    padded = pad_to_multiple(x, config.block_lcm, axis=axis)
    with np.errstate(invalid="ignore"):  # inf - inf in the residual
        return crop_to_shape(decompose(padded, config.patterns, axis=axis).reconstruct(), x.shape)


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


class TestOnePassTasdA:
    """The one-pass top-n mask against the greedy decomposition, bit for bit."""

    @given(
        data=activations(),
        config_text=st.sampled_from(["4:8", "2:8+2:8", "4:8+4:8", "1:8+1:8+2:8", "2:4"]),
    )
    def test_same_block_series_is_one_pass(self, data, config_text):
        x, axis = data
        config = TASDConfig.parse(config_text)
        expected = greedy_activation(x, config, axis)
        with mock.patch.object(
            TASDConfig, "apply", autospec=True, side_effect=TASDConfig.apply
        ) as greedy:
            out = decompose_activation(x, config, axis)
        greedy.assert_not_called()
        assert_same_bits(out, expected)
        padded = pad_to_multiple(x, config.block_lcm, axis=axis)
        keep = pattern_mask(padded, config.effective_pattern, axis=axis)
        assert_same_bits(crop_to_shape(np.where(keep, padded, 0), x.shape), expected)

    @given(data=activations())
    def test_mixed_block_series_stays_greedy(self, data):
        x, axis = data
        config = TASDConfig.parse("2:4+2:8")
        assert config.effective_pattern is None
        with mock.patch.object(
            TASDConfig, "apply", autospec=True, side_effect=TASDConfig.apply
        ) as greedy, np.errstate(invalid="ignore"):
            out = decompose_activation(x, config, axis)
        greedy.assert_called_once()
        assert_same_bits(out, greedy_activation(x, config, axis))

    def test_same_block_series_keeping_all_keeps_every_nonzero(self):
        x = np.array([[3.0, -0.0, np.nan, -np.inf, 0.0, 1.0, -1.0, 2.0, 5.0]])
        out = decompose_activation(x, TASDConfig.parse("4:8+4:8"), axis=-1)
        expected = np.array([[3.0, 0.0, 0.0, -np.inf, 0.0, 1.0, -1.0, 2.0, 5.0]])
        assert_same_bits(out, expected)


class TestTransforms:
    @pytest.fixture
    def model_and_data(self, rng):
        ds = synthetic_images(n_train=32, n_eval=32, size=8, seed=0)
        model = MLP(192, (64, 64), 10, rng=rng)
        return model, ds

    def test_weight_transform_eval_only(self, model_and_data, rng):
        model, ds = model_and_data
        x = ds.x_eval.reshape(32, -1)
        before = predict_logits(model, x)
        name = gemm_layers(model)[0][0]
        apply_weight_transform(model, {name: TASDConfig.parse("1:8")})
        after = predict_logits(model, x)
        assert not np.allclose(before, after)
        clear_transform(model)
        assert np.allclose(predict_logits(model, x), before)

    def test_weight_transform_dense_noop(self, model_and_data):
        model, ds = model_and_data
        x = ds.x_eval.reshape(32, -1)
        before = predict_logits(model, x)
        name = gemm_layers(model)[0][0]
        apply_weight_transform(model, {name: DENSE_CONFIG})
        assert np.allclose(predict_logits(model, x), before)

    def test_weight_transform_unknown_layer(self, model_and_data):
        model, _ = model_and_data
        with pytest.raises(KeyError):
            apply_weight_transform(model, {"nope": DENSE_CONFIG})

    def test_weight_transform_preserves_parameters(self, model_and_data):
        """The trained parameter itself is never modified."""
        model, _ = model_and_data
        name, layer = gemm_layers(model)[0]
        original = layer.weight.data.copy()
        apply_weight_transform(model, {name: TASDConfig.parse("1:8")})
        assert np.array_equal(layer.weight.data, original)

    def test_activation_transform_changes_eval_output(self, model_and_data):
        model, ds = model_and_data
        x = ds.x_eval.reshape(32, -1)
        before = predict_logits(model, x)
        names = [n for n, _ in gemm_layers(model)]
        apply_activation_transform(model, {n: TASDConfig.parse("1:8") for n in names})
        after = predict_logits(model, x)
        assert not np.allclose(before, after)
        # training path unaffected
        model.train()
        assert np.allclose(model(x), before, atol=1e-8)
        clear_transform(model)
        assert np.allclose(predict_logits(model, x), before)

    def test_activation_transform_install_uninstall_idempotent(self, model_and_data):
        model, ds = model_and_data
        x = ds.x_eval.reshape(32, -1)
        names = [n for n, _ in gemm_layers(model)]
        cfg = {n: TASDConfig.parse("2:8") for n in names}
        apply_activation_transform(model, cfg)
        once = predict_logits(model, x)
        apply_activation_transform(model, cfg)  # re-install over itself
        assert np.allclose(predict_logits(model, x), once)

    def test_transform_merge(self):
        a = TASDTransform(weight_configs={"x": TASDConfig.parse("2:4")})
        b = TASDTransform(weight_configs={"x": TASDConfig.parse("1:4")},
                          activation_configs={"y": TASDConfig.parse("2:8")})
        merged = a.merged_with(b)
        assert merged.weight_configs["x"] == TASDConfig.parse("1:4")
        assert "y" in merged.activation_configs

    def test_transform_summary_readable(self):
        t = TASDTransform(weight_configs={"layer": TASDConfig.parse("2:4")})
        assert "2:4" in t.summary()


class TestCalibration:
    def test_profiles_per_layer(self, rng):
        model = resnet18(base_width=4, rng=rng)
        ds = synthetic_images(n_train=8, n_eval=8, n_calib=8, size=8, seed=0)
        result = calibrate(model, ds.x_calib)
        assert len(result) == len(gemm_layers(model))
        for name, profile in result:
            assert 0.0 <= profile.mean_sparsity <= 1.0
            assert 0.0 < profile.mean_pseudo_density <= 1.0

    def test_relu_fed_layers_see_sparsity(self, rng):
        model = resnet18(base_width=4, rng=rng)
        ds = synthetic_images(n_train=8, n_eval=8, n_calib=8, size=8, seed=0)
        result = calibrate(model, ds.x_calib)
        sparsities = [p.mean_sparsity for _, p in result]
        assert max(sparsities) > 0.3  # post-ReLU inputs carry real zeros

    def test_hooks_cleaned_up(self, rng):
        model = MLP(8, (8,), 2, rng=rng)
        calibrate(model, np.random.default_rng(0).normal(size=(4, 8)))
        for _, layer in gemm_layers(model):
            assert not getattr(layer, "_forward_hooks", [])

    def test_effective_sparsity_pseudo_fallback(self):
        from repro.tasder.calibrate import ActivationProfile

        relu_like = ActivationProfile("l", 0.5, 0.6, 0.4, 0.9)
        assert relu_like.effective_sparsity == 0.5
        gelu_like = ActivationProfile("l", 0.0, 0.0, 0.0, 0.4)
        assert gelu_like.effective_sparsity == pytest.approx(0.6)
