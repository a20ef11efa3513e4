"""Tests for the plan compiler and the batched executor.

The load-bearing property: a plan-compiled forward is numerically identical
to the uncompiled per-call ``tasd_matmul`` path — compilation changes when
decomposition happens, never what is computed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TASDConfig, tasd_matmul
from repro.nn.layers import Conv2d, Linear
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import CompiledOperand, OperandCache, PlanExecutor, compile_plan
from repro.tasder.transform import (
    TASDTransform,
    apply_activation_transform,
    apply_weight_transform,
    clear_transform,
)

CFG = TASDConfig.parse("2:4")


@pytest.fixture(scope="module")
def sparse_resnet():
    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    return model, transform


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(7).normal(size=(3, 3, 8, 8))


class TestLayerPlanGemm:
    def test_linear_fast_path_matches_tasd_matmul_bitwise(self, rng):
        layer = Linear(32, 16, rng=rng)
        layer.weight.data *= rng.random((16, 32)) < 0.5
        transform = TASDTransform(weight_configs={"linear": CFG})
        plan = compile_plan(layer, transform)
        x = rng.normal(size=(5, 32))
        expected = tasd_matmul(layer.weight.data, x.T, CFG).T + layer.bias.data
        layer.eval()
        plan.install(layer)
        np.testing.assert_array_equal(layer(x), expected)
        plan.uninstall(layer)

    def test_training_mode_ignores_the_plan(self, rng):
        layer = Linear(8, 4, rng=rng)
        plan = compile_plan(layer, TASDTransform(weight_configs={"linear": CFG}))
        plan.install(layer)
        layer.train()
        x = rng.normal(size=(2, 8))
        np.testing.assert_array_equal(layer(x), x @ layer.weight.data.T + layer.bias.data)
        plan.uninstall(layer)

    def test_uninstall_restores_dense_forward(self, rng):
        layer = Linear(8, 4, rng=rng).eval()
        x = rng.normal(size=(2, 8))
        dense = layer(x)
        plan = compile_plan(layer, TASDTransform(weight_configs={"linear": CFG}))
        plan.install(layer)
        assert not np.array_equal(layer(x), dense)  # plan approximates
        plan.uninstall(layer)
        np.testing.assert_array_equal(layer(x), dense)

    @pytest.mark.parametrize("mode", ["compiled", "per_call", "dense"])
    def test_gemm_rejects_wrong_reduction_width(self, rng, mode):
        """A (rows, k-1) input must raise, not be zero-padded into garbage."""
        layer = Linear(32, 16, rng=rng)
        configs = {} if mode == "dense" else {"linear": CFG}
        plan_mode = "per_call" if mode == "per_call" else "compiled"
        plan = compile_plan(layer, TASDTransform(weight_configs=configs), mode=plan_mode)
        lp = plan.layers["linear"]
        assert lp.mode == mode
        with pytest.raises(ValueError, match="'linear'.*rows, 32"):
            lp.gemm(rng.normal(size=(5, 31)))
        with pytest.raises(ValueError, match="'linear'"):
            lp.gemm(rng.normal(size=(5, 33)))
        assert lp.counters.calls == 0  # rejected inputs are never recorded
        assert lp.gemm(rng.normal(size=(5, 32))).shape == (5, 16)

    def test_plan_counters_track_mac_fraction(self, rng):
        layer = Linear(32, 16, rng=rng).eval()
        plan = compile_plan(layer, TASDTransform(weight_configs={"linear": CFG}))
        plan.install(layer)
        layer(rng.normal(size=(4, 32)))
        counters = plan.layers["linear"].counters
        assert counters.calls == 1
        assert counters.mac_fraction == pytest.approx(0.5)
        assert counters.dense_macs == 4 * 32 * 16
        plan.uninstall(layer)


class TestCompiledModelForward:
    def test_matches_effective_weight_path(self, sparse_resnet, batch):
        model, transform = sparse_resnet
        model.eval()
        apply_weight_transform(model, transform.weight_configs)
        reference = model(batch)
        clear_transform(model)
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as executor:
            out = executor.run(batch)
        np.testing.assert_allclose(out, reference, atol=1e-10)

    def test_bitwise_equal_to_per_call_plan(self, sparse_resnet, batch):
        model, transform = sparse_resnet
        compiled = compile_plan(model, transform)
        per_call = compile_plan(model, transform, mode="per_call")
        with PlanExecutor(model, compiled) as executor:
            fast = executor.run(batch)
        with PlanExecutor(model, per_call) as executor:
            slow = executor.run(batch)
        np.testing.assert_array_equal(fast, slow)

    def test_weights_compress_exactly_once(self, sparse_resnet, batch):
        model, transform = sparse_resnet
        cache = OperandCache()
        plan = compile_plan(model, transform, cache=cache)
        n_targets = len(transform.weight_configs)
        assert cache.counters.misses == n_targets
        with PlanExecutor(model, plan) as executor:
            executor.run(batch)
            executor.run(batch)
        # Forwards never touch the compression path again.
        assert cache.counters.misses == n_targets
        # Recompiling against the same cache is all hits.
        compile_plan(model, transform, cache=cache)
        assert cache.counters.hits == n_targets
        assert cache.counters.hit_rate == pytest.approx(0.5)

    def test_untargeted_layers_get_dense_plans(self, sparse_resnet):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        assert plan.layers["head"].mode == "dense"
        assert plan.layers["head"].operand is None
        assert all(
            p.mode == "compiled" for name, p in plan.layers.items() if name != "head"
        )

    def test_activation_configs_match_transform_path(self, sparse_resnet, batch):
        model, _ = sparse_resnet
        names = [name for name, _ in gemm_layers(model)][:4]
        transform = TASDTransform(activation_configs={n: CFG for n in names})
        model.eval()
        apply_activation_transform(model, transform.activation_configs)
        reference = model(batch)
        clear_transform(model)
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as executor:
            out = executor.run(batch)
        np.testing.assert_allclose(out, reference, atol=1e-12)

    def test_executor_stats_aggregate(self, sparse_resnet, batch):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as executor:
            executor.run(batch)
            executor.run(batch)
            stats = executor.stats()
        assert stats.batches == 2
        assert stats.samples == 2 * batch.shape[0]
        assert stats.wall_time > 0.0
        assert 0.4 < stats.total.mac_fraction < 0.6  # 2:4 everywhere but the head
        assert "total" in stats.table()

    def test_conv_layers_serve_a_c_contiguous_operand(self, sparse_resnet, batch, monkeypatch):
        """Every conv hands its kernel a C-contiguous ``(K, cols)`` right-hand
        side: the layout ``autotune_operand`` times the backends on."""
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        convs = {
            id(plan.layers[name].operand): name
            for name, layer in gemm_layers(model)
            if isinstance(layer, Conv2d)
        }
        served: dict[str, list[bool]] = {}
        matmul = CompiledOperand.matmul

        def recording_matmul(operand, b, *args, **kwargs):
            if id(operand) in convs:
                served.setdefault(convs[id(operand)], []).append(b.flags.c_contiguous)
            return matmul(operand, b, *args, **kwargs)

        monkeypatch.setattr(CompiledOperand, "matmul", recording_matmul)
        with PlanExecutor(model, plan) as executor:
            executor.run(batch)
        assert set(served) == set(convs.values())
        assert all(all(flags) for flags in served.values()), served

    def test_plan_summary_mentions_every_layer(self, sparse_resnet):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        text = plan.summary()
        for name in plan.layers:
            assert name in text

    def test_install_rejects_foreign_model(self, sparse_resnet, rng):
        _, transform = sparse_resnet
        model, _ = sparse_resnet
        plan = compile_plan(model, transform)
        other = Linear(8, 4, rng=rng)
        with pytest.raises(KeyError):
            plan.install(other)


class TestTasderCompile:
    def test_compile_from_transform(self, sparse_resnet, batch):
        from repro.nn.data import Dataset
        from repro.tasder import TTC_STC_M4, Tasder

        model, transform = sparse_resnet
        y = np.zeros(len(batch), dtype=int)
        dataset = Dataset(
            x_train=batch, y_train=y, x_eval=batch, y_eval=y, x_calib=batch
        )
        tasder = Tasder(model, dataset, TTC_STC_M4)
        plan = tasder.compile(transform)
        assert set(plan.layers) == {name for name, _ in gemm_layers(model, include_head=True)}
        with PlanExecutor(model, plan) as executor:
            assert executor.run(batch).shape == (len(batch), 10)


class TestActivationCaching:
    def test_activation_views_bypass_the_cache(self, sparse_resnet, batch):
        model, _ = sparse_resnet
        transform = TASDTransform(activation_configs={"stem.layers.0": CFG})
        cache = OperandCache()
        plan = compile_plan(model, transform, cache=cache)
        with PlanExecutor(model, plan) as executor:
            executor.run(batch)
            executor.run(batch)
        assert cache.counters.lookups == 0


def test_stats_snapshot_survives_reset(sparse_resnet, batch):
    model, transform = sparse_resnet
    with PlanExecutor(model, compile_plan(model, transform)) as executor:
        executor.run(batch)
        snapshot = executor.stats()
        executor.reset_stats()
    assert snapshot.total.calls > 0
    assert snapshot.cache.misses > 0
    assert executor.stats().total.calls == 0


def test_install_clears_applied_transform(sparse_resnet, batch):
    """Installing a plan on a tasder.apply'ed model must not decompose twice."""
    model, _ = sparse_resnet
    name = "stem.layers.0"
    transform = TASDTransform(activation_configs={name: CFG})
    model.eval()
    apply_activation_transform(model, transform.activation_configs)
    plan = compile_plan(model, transform)
    with PlanExecutor(model, plan) as executor:
        layers = dict(gemm_layers(model, include_head=True))
        assert not hasattr(layers[name], "_tasd_original_forward")  # wrapper gone
        out = executor.run(batch)
    # Reference: the transform alone (plan path must match it exactly).
    apply_activation_transform(model, transform.activation_configs)
    reference = model(batch)
    clear_transform(model)
    np.testing.assert_allclose(out, reference, atol=1e-12)
