"""The conv epilogue: eval-mode BatchNorm2d, ReLU and a block's residual add,
applied in place to the conv's GEMM output while a plan is installed.

The load-bearing property: folding changes where the arithmetic runs, never
its bits.  A plan-installed forward with the epilogues must equal the same
plan's forward without them bit for bit, on exact and inexact kernels,
with and without dynamic TASD-A, over generated blocks and statistics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TASDConfig
from repro.nn.blocks import BasicBlock, BottleneckBlock, conv_bn_act, unfold_epilogues
from repro.nn.layers import Activation, BatchNorm2d, Conv2d, ConvEpilogue
from repro.nn.models.resnet import resnet18
from repro.pruning.targets import gemm_layers
from repro.runtime import PlanExecutor, compile_plan
from repro.tasder.transform import TASDTransform

# The two plans the property runs on: the bit-exact reference kernel with
# dynamic TASD-A on every GEMM input, and the BLAS dense-emulation kernel.
PLANS = {
    "exact-tasda": dict(weights="2:4+2:8", activations="4:8", backend="einsum-gather"),
    "dense-emulation": dict(weights="2:4", activations=None, backend="dense-emulation"),
}


def _plan(model, kind: str):
    spec = PLANS[kind]
    names = [name for name, _ in gemm_layers(model, include_head=True)]
    activations = {}
    if spec["activations"] is not None:
        activations = {n: TASDConfig.parse(spec["activations"]) for n in names}
    transform = TASDTransform(
        weight_configs={n: TASDConfig.parse(spec["weights"]) for n in names},
        activation_configs=activations,
    )
    return compile_plan(model, transform, backend=spec["backend"])


def _randomise_bn(model, rng: np.random.Generator) -> None:
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            c = module.channels
            module.running_mean[...] = rng.normal(size=c)
            module.running_var[...] = rng.uniform(0.05, 3.0, size=c)
            module.gamma.data[...] = rng.normal(size=c)
            module.beta.data[...] = rng.normal(size=c)


def _batch_norms(model) -> list[BatchNorm2d]:
    return [m for m in model.modules() if isinstance(m, BatchNorm2d)]


@st.composite
def blocks(draw):
    """A conv_bn_act, BasicBlock or BottleneckBlock with its input shape."""
    kind = draw(st.sampled_from(["conv_bn_act", "basic", "bottleneck"]))
    stride = draw(st.sampled_from([1, 2]))
    in_ch = draw(st.sampled_from([2, 4, 8]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "conv_bn_act":
        kernel = draw(st.sampled_from([1, 3]))
        act = draw(st.sampled_from(["relu", "gelu"]))
        out_ch = draw(st.sampled_from([4, 8]))
        block = conv_bn_act(in_ch, out_ch, kernel, stride, kernel // 2, act, rng=rng)
    else:
        cls = BasicBlock if kind == "basic" else BottleneckBlock
        width = draw(st.sampled_from([2, 4]))
        if not draw(st.booleans()):  # identity shortcut
            stride, in_ch = 1, width * cls.expansion
        block = cls(in_ch, width, stride, rng=rng)
    _randomise_bn(block, rng)
    batch = draw(st.integers(1, 4))
    hw = draw(st.sampled_from([4, 5, 8]))
    x = rng.normal(size=(batch, in_ch, hw, hw))
    return block, x


@settings(max_examples=30)
@given(case=blocks(), plan_kind=st.sampled_from(sorted(PLANS)))
def test_fused_forward_is_bit_identical_to_the_unfused_plan(case, plan_kind):
    block, x = case
    plan = _plan(block, plan_kind)
    plan.install(block)
    block.eval()
    fused = block(x)
    # Every folded BatchNorm passed its input through and cached nothing.
    assert all(bn._cache is None for bn in _batch_norms(block))
    unfold_epilogues(block)
    unfused = block(x)
    assert all(bn._cache is not None for bn in _batch_norms(block))
    np.testing.assert_array_equal(fused, unfused)
    assert fused.dtype == unfused.dtype
    plan.uninstall(block)


@pytest.fixture
def resnet():
    model = resnet18(num_classes=10, base_width=8)
    _randomise_bn(model, np.random.default_rng(3))
    return model


@pytest.fixture
def batch():
    return np.random.default_rng(4).normal(size=(2, 3, 8, 8))


def test_install_pairs_every_conv_and_uninstall_clears_them(resnet, batch):
    plan = _plan(resnet, "dense-emulation")
    plan.install(resnet)
    convs = [m for m in resnet.modules() if isinstance(m, Conv2d)]
    assert all(conv.epilogue is not None for conv in convs)
    residual = [conv for conv in convs if conv.epilogue.residual]
    assert len(residual) == len(list(resnet.body.layers))  # one tail per block
    plan.uninstall(resnet)
    assert all(vars(m).get("epilogue") is None for m in resnet.modules())
    resnet.eval()
    resnet(batch)
    # Uninstalled: every BatchNorm runs itself again and caches its x_hat.
    assert all(bn._cache is not None for bn in _batch_norms(resnet))


def test_training_runs_unfused_with_its_caches(resnet, batch):
    plan = _plan(resnet, "dense-emulation")
    plan.install(resnet)
    resnet.train()
    y = resnet(batch)
    assert not any(conv.epilogue.live() for conv in resnet.modules() if isinstance(conv, Conv2d))
    for module in resnet.modules():
        if isinstance(module, Conv2d):
            assert module._cols is not None
        if isinstance(module, (BatchNorm2d, Activation)):
            assert (module._cache if isinstance(module, BatchNorm2d) else module._x) is not None
    grad = resnet.backward(np.ones_like(y))
    assert grad.shape == batch.shape and np.isfinite(grad).all()
    plan.uninstall(resnet)


def test_plan_forward_keeps_no_backward_caches(resnet, batch):
    plan = _plan(resnet, "dense-emulation")
    with PlanExecutor(resnet, plan) as executor:
        executor.run(batch)
        for module in resnet.modules():
            if isinstance(module, Conv2d):
                assert module._cols is None
                module.gemm_shape(batch.shape[0])  # _input_shape is kept
            elif isinstance(module, BatchNorm2d):
                assert module._cache is None
            elif isinstance(module, Activation):
                assert module._x is None


def test_a_module_with_hooks_is_not_folded(resnet, batch):
    plan = _plan(resnet, "dense-emulation")
    plan.install(resnet)
    resnet.eval()
    expected = resnet(batch)
    bn = resnet.body.layers[0].bn1
    seen = []
    bn.register_forward_hook(lambda module, x, out: seen.append((x, out)))
    conv = resnet.body.layers[0].conv1
    assert not conv.epilogue.live()
    np.testing.assert_array_equal(resnet(batch), expected)
    (x, out), = seen
    assert bn._cache is not None  # the hooked BatchNorm ran itself
    assert not np.array_equal(x, out)  # and saw the raw conv output
    plan.uninstall(resnet)


def test_residual_conv_called_alone_returns_its_raw_output(resnet, batch):
    plan = _plan(resnet, "dense-emulation")
    plan.install(resnet)
    resnet.eval()
    block = resnet.body.layers[0]
    h = block.act1(block.bn1(block.conv1(resnet.stem(batch))))
    raw = block.conv2(h)  # no residual: the tail epilogue does not apply
    unfold_epilogues(resnet)
    np.testing.assert_array_equal(raw, block.conv2(h))
    with pytest.raises(ValueError, match="residual"):
        block.conv1.forward(h, residual=h)  # conv1 has no epilogue now
    plan.uninstall(resnet)


def test_with_plan_clone_leaves_the_live_modules_untouched(resnet, batch):
    plan = _plan(resnet, "dense-emulation")
    with PlanExecutor(resnet, plan) as live:
        expected = live.run(batch)
        live_epilogues = {id(m): vars(m).get("epilogue") for m in resnet.modules()}
        live_state = {id(m): dict(vars(m)) for m in resnet.modules()}
        candidate = live.with_plan(_plan(resnet, "exact-tasda"))
        assert all(vars(m).get("epilogue") is None for m in candidate.model.modules())
        with candidate:
            candidate.run(batch)
        clone_convs = [m for m in candidate.model.modules() if isinstance(m, Conv2d)]
        clone_ids = {id(m) for m in candidate.model.modules()}
        for conv in clone_convs:
            epilogue = conv.epilogue
            assert epilogue is None or {id(epilogue.conv), id(epilogue.bn)} <= clone_ids
        for module in resnet.modules():
            assert vars(module).get("epilogue") is live_epilogues[id(module)]
            for key, value in live_state[id(module)].items():
                assert vars(module)[key] is value, (type(module).__name__, key)
        np.testing.assert_array_equal(live.run(batch), expected)


def test_narrower_buffer_is_not_widened_in_place():
    """A float32 GEMM output under float64 statistics: computed out of place,
    in float64, exactly as the unfused modules compute it."""
    rng = np.random.default_rng(5)
    conv = Conv2d(3, 4, 1, bias=False)
    bn, act = BatchNorm2d(4), Activation("relu")
    _randomise_bn(bn, rng)
    bn.eval()
    act.eval()
    epilogue = ConvEpilogue(conv, bn, act)
    y = rng.normal(size=(2 * 3 * 3, 4)).astype(np.float32)
    original = y.copy()
    out = epilogue.apply(y, (2, 3, 3, 4))
    expected = act.forward(bn.forward(original.reshape(2, 3, 3, 4).transpose(0, 3, 1, 2)))
    assert out.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(y, original)
