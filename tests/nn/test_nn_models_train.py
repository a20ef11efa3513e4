"""Tests for im2col, attention, blocks, models and the training loop."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.nn import (
    Adam,
    MultiHeadSelfAttention,
    SGD,
    conv_gemm_shape,
    conv_out_size,
    col2im,
    cross_entropy,
    evaluate_accuracy,
    im2col,
    predict_logits,
    synthetic_images,
    synthetic_tokens,
    train_classifier,
)
from repro.nn.blocks import BasicBlock, BottleneckBlock, ConvNeXtBlock, TransformerEncoderBlock
from repro.nn.models import MLP, bert_mini, convnext_tiny, resnet18, resnet50, vgg11, vit_tiny

from test_nn_layers import check_input_grad  # same-directory helper import


class TestIm2col:
    def test_out_size(self):
        assert conv_out_size(8, 3, 1, 1) == 8
        assert conv_out_size(8, 3, 2, 1) == 4
        with pytest.raises(ValueError):
            conv_out_size(2, 5, 1, 0)

    def test_im2col_identity_kernel(self, rng):
        """k=1, s=1: columns are just the channel vectors per position."""
        x = rng.normal(size=(2, 3, 4, 4))
        cols, (oh, ow) = im2col(x, kernel=1)
        assert (oh, ow) == (4, 4)
        assert np.allclose(cols.reshape(2, 4, 4, 3), x.transpose(0, 2, 3, 1))

    def test_im2col_col2im_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.normal(size=(2, 3, 6, 6))
        cols, _ = im2col(x, 3, stride=1, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, x.shape, 3, 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @given(
        batch=st.integers(1, 3),
        channels=st.integers(1, 5),
        height=st.integers(1, 9),
        width=st.integers(1, 9),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 2),
        layout=st.sampled_from(["c-order", "channel-major", "strided-slice"]),
        seed=st.integers(0, 2**16),
    )
    def test_im2col_matches_naive_windows(
        self, batch, channels, height, width, kernel, stride, padding, layout, seed
    ):
        """Bitwise equal to a per-position loop, whatever the input's memory
        order, and ``cols.T`` is the C-contiguous (K, M) GEMM operand; a
        ``cols`` that is a view of ``x`` cannot write through to it."""
        try:
            oh = conv_out_size(height, kernel, stride, padding)
            ow = conv_out_size(width, kernel, stride, padding)
        except ValueError:
            assume(False)
        rng = np.random.default_rng(seed)
        shape = (batch, channels, height, width)
        if layout == "c-order":
            x = rng.normal(size=shape)
        elif layout == "channel-major":  # how a conv output arrives
            x = rng.normal(size=(channels, batch, height, width)).transpose(1, 0, 2, 3)
        else:
            x = rng.normal(size=(batch, channels, 2 * height, width + 1))[:, :, ::2, 1:]
        cols, out_hw = im2col(x, kernel, stride, padding)

        xp = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
        xp[:, :, padding : padding + height, padding : padding + width] = x
        expected = np.empty((batch * oh * ow, channels * kernel * kernel))
        row = 0
        for b in range(batch):
            for i in range(oh):
                for j in range(ow):
                    r, c = i * stride, j * stride
                    expected[row] = xp[b, :, r : r + kernel, c : c + kernel].reshape(-1)
                    row += 1
        assert out_hw == (oh, ow)
        np.testing.assert_array_equal(cols, expected)
        assert cols.T.flags.c_contiguous
        assert not (np.shares_memory(cols, x) and cols.flags.writeable)

    def test_gemm_shape_table4_l1(self):
        """Table 4's L1 comes from a 3x3 conv on 28x28 with 128 channels."""
        gs = conv_gemm_shape(1, 128, 28, 28, 128, 3, 1, 1)
        assert (gs.m, gs.k, gs.n) == (784, 1152, 128)
        assert str(gs) == "M784-N128-K1152"


class TestAttention:
    def test_forward_shape(self, rng):
        attn = MultiHeadSelfAttention(16, 4, rng=rng)
        assert attn(rng.normal(size=(2, 5, 16))).shape == (2, 5, 16)

    def test_grad_check(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        check_input_grad(attn, rng.normal(size=(1, 3, 8)), atol=1e-5)

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_permutation_equivariance(self, rng):
        """Self-attention without masks is equivariant to token permutation."""
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        x = rng.normal(size=(1, 6, 8))
        perm = rng.permutation(6)
        assert np.allclose(attn(x[:, perm]), attn(x)[:, perm])


class TestBlocks:
    def test_basic_block_grad(self, rng):
        block = BasicBlock(4, 4, rng=rng)
        check_input_grad(block, rng.normal(size=(2, 4, 4, 4)), atol=1e-4)

    def test_bottleneck_projection_shapes(self, rng):
        block = BottleneckBlock(8, 4, stride=2, rng=rng)
        assert block(rng.normal(size=(1, 8, 8, 8))).shape == (1, 16, 4, 4)

    def test_transformer_block_grad(self, rng):
        block = TransformerEncoderBlock(8, 2, rng=rng)
        check_input_grad(block, rng.normal(size=(1, 4, 8)), atol=1e-4)

    def test_convnext_block_grad(self, rng):
        block = ConvNeXtBlock(4, rng=rng)
        check_input_grad(block, rng.normal(size=(1, 4, 4, 4)), atol=1e-4)

    def test_residual_identity_path(self, rng):
        """Zeroing the main path leaves the skip contribution."""
        block = BasicBlock(4, 4, rng=rng)
        for p in block.conv2.parameters():
            p.data[...] = 0.0
        for p in block.bn2.parameters():
            p.data[...] = 0.0
        x = rng.normal(size=(1, 4, 4, 4))
        block.eval()
        assert np.allclose(block(x), np.maximum(x, 0.0))


class TestModels:
    @pytest.mark.parametrize(
        "factory,input_shape",
        [
            (lambda r: resnet18(base_width=4, rng=r), (2, 3, 8, 8)),
            (lambda r: resnet50(base_width=4, rng=r), (2, 3, 8, 8)),
            (lambda r: vgg11(base_width=4, rng=r), (2, 3, 32, 32)),
            (lambda r: vit_tiny(image_size=8, patch_size=4, dim=16, num_layers=2, rng=r), (2, 3, 8, 8)),
            (lambda r: convnext_tiny(base_width=4, depths=(1, 1, 2, 1), rng=r), (2, 3, 16, 16)),
        ],
    )
    def test_forward_backward_runs(self, factory, input_shape, rng):
        model = factory(rng)
        x = rng.normal(size=input_shape)
        logits = model(x)
        assert logits.shape == (input_shape[0], 10)
        model.backward(np.ones_like(logits))  # must not raise

    def test_bert_forward_backward(self, rng):
        model = bert_mini(num_layers=2, rng=rng)
        ids = rng.integers(0, 64, size=(3, 16))
        logits = model(ids)
        assert logits.shape == (3, 4)
        model.backward(np.ones_like(logits))

    def test_bert_wrong_seq_len(self, rng):
        model = bert_mini(rng=rng)
        with pytest.raises(ValueError):
            model(rng.integers(0, 64, size=(2, 8)))

    def test_resnet_unknown_depth(self):
        with pytest.raises(ValueError):
            resnet18(base_width=4).__class__(depth=99)

    def test_param_count_scales_with_width(self):
        small = resnet18(base_width=4)
        big = resnet18(base_width=8)
        assert big.num_parameters() > 3 * small.num_parameters()


class TestTraining:
    def test_cross_entropy_gradient(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 2, 0])
        loss, grad = cross_entropy(logits, labels)
        eps = 1e-6
        logits2 = logits.copy()
        logits2[0, 0] += eps
        loss2, _ = cross_entropy(logits2, labels)
        assert grad[0, 0] == pytest.approx((loss2 - loss) / eps, abs=1e-4)

    def test_mlp_learns_xor_like_task(self, rng):
        x = rng.normal(size=(256, 2))
        y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
        model = MLP(2, (32, 32), 2, rng=rng)
        train_classifier(model, x, y, epochs=60, optimizer=Adam(model, lr=5e-3), seed=0)
        assert evaluate_accuracy(model, x, y) > 0.95

    def test_sgd_and_adam_reduce_loss(self, rng):
        ds = synthetic_images(n_train=64, n_eval=32, size=8, seed=1)
        for opt_cls, kwargs in ((SGD, {"lr": 0.05}), (Adam, {"lr": 2e-3})):
            model = MLP(8 * 8 * 3, (32,), 10, rng=np.random.default_rng(0))
            x = ds.x_train.reshape(len(ds.x_train), -1)
            result = train_classifier(
                model, x, ds.y_train, epochs=5, optimizer=opt_cls(model, **kwargs), seed=0
            )
            assert result.losses[-1] < result.losses[0]

    def test_training_deterministic(self):
        ds = synthetic_images(n_train=64, n_eval=16, size=8, seed=2)
        accs = []
        for _ in range(2):
            model = MLP(192, (16,), 10, rng=np.random.default_rng(3))
            x = ds.x_train.reshape(len(ds.x_train), -1)
            train_classifier(model, x, ds.y_train, epochs=2, optimizer=Adam(model, lr=1e-3), seed=4)
            accs.append(evaluate_accuracy(model, x, ds.y_train))
        assert accs[0] == accs[1]

    def test_predict_logits_batched(self, rng):
        model = MLP(4, (8,), 3, rng=rng)
        x = rng.normal(size=(10, 4))
        assert np.allclose(predict_logits(model, x, batch_size=3), model(x))

    def test_mask_fn_keeps_zeros(self, rng):
        ds = synthetic_images(n_train=32, n_eval=8, size=8, seed=5)
        model = MLP(192, (16,), 10, rng=rng)
        layer = model.net[0]
        layer.weight.data[0, :] = 0.0
        mask = {id(layer): layer.weight.data != 0}

        def mask_fn(m):
            layer.weight.data *= mask[id(layer)]

        x = ds.x_train.reshape(len(ds.x_train), -1)
        train_classifier(model, x, ds.y_train, epochs=1, mask_fn=mask_fn, seed=0)
        assert not np.any(layer.weight.data[0, :])


class TestSyntheticData:
    def test_images_learnable_and_deterministic(self):
        a = synthetic_images(n_train=16, n_eval=8, size=8, seed=9)
        b = synthetic_images(n_train=16, n_eval=8, size=8, seed=9)
        assert np.array_equal(a.x_train, b.x_train)
        assert a.num_classes == 10

    def test_tokens_vocab_range(self):
        ds = synthetic_tokens(n_train=32, n_eval=8, seed=0)
        assert ds.x_train.min() >= 0
        assert ds.x_train.max() < 64

    def test_token_motifs_present(self):
        ds = synthetic_tokens(n_train=64, n_eval=8, seed=1)
        # class c plants token 3c somewhere in each sequence
        for ids, label in zip(ds.x_train[:10], ds.y_train[:10]):
            assert 3 * label in ids
