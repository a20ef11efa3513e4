"""Tests for the pluggable structured-GEMM kernel backends.

The load-bearing property: every *exact* backend is **bit-identical** to
the reference ``einsum-gather`` kernel (they restructure memory movement,
never the per-element floating-point evaluation order), and the inexact
``dense-emulation`` backend agrees to rounding error.
That is what lets the autotuner swap kernels per layer without changing
what a compiled plan computes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NMPattern, TASDConfig
from repro.core.sparse_ops import nm_compress, nm_gather_tables
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    DEFAULT_BACKEND,
    CompiledOperand,
    PlanExecutor,
    autotune_operand,
    backend_names,
    compile_operand,
    compile_plan,
    exact_backend_names,
    get_backend,
)
from repro.runtime.autotune import AutotuneResult
from repro.runtime.backends import BlockedGatherBackend
from repro.tasder.transform import TASDTransform

# Representative series: single-term, multi-term uniform M, mixed block
# sizes (lcm padding), and a three-term series.
CONFIGS = ["1:4", "2:4", "2:8", "2:8+1:8", "2:4+1:4", "4:8+2:8+1:8", "2:4+1:8"]
# (rows, cols) including reduction dims that need padding for every series.
SHAPES = [(4, 8), (16, 32), (7, 19), (32, 100), (1, 24), (64, 130)]

EXACT = set(exact_backend_names())
INEXACT = set(backend_names()) - EXACT


def make_operand(rng, shape, config_text, sparsity=0.5, dtype=np.float64):
    config = TASDConfig.parse(config_text)
    w = rng.normal(size=shape) * (rng.random(shape) < (1.0 - sparsity))
    return compile_operand(w.astype(dtype), config)


class TestRegistry:
    def test_reference_is_registered_first(self):
        assert backend_names()[0] == DEFAULT_BACKEND

    def test_all_three_backends_registered(self):
        assert backend_names() == ("einsum-gather", "blocked-gather", "dense-emulation")

    def test_exact_tier(self):
        assert EXACT == {"einsum-gather", "blocked-gather"}
        assert INEXACT == {"dense-emulation"}

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown GEMM backend"):
            get_backend("no-such-kernel")


class TestBackendEquivalence:
    """Property-style sweep: every backend vs the reference kernel."""

    @pytest.mark.parametrize("config_text", CONFIGS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gather_backends_bit_identical(self, rng, config_text, shape):
        op = make_operand(rng, shape, config_text)
        for n_cols in (1, 3, 33):
            b = rng.normal(size=(op.padded_shape[1], n_cols))
            ref = op.matmul(b, backend=DEFAULT_BACKEND)
            for name in EXACT:
                out = op.matmul(b, backend=name)
                np.testing.assert_array_equal(
                    out, ref, err_msg=f"{name} not bit-identical for {config_text} {shape}"
                )

    @pytest.mark.parametrize("config_text", CONFIGS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_inexact_backends_allclose(self, rng, config_text, shape):
        op = make_operand(rng, shape, config_text)
        b = rng.normal(size=(op.padded_shape[1], 17))
        ref = op.matmul(b, backend=DEFAULT_BACKEND)
        for name in INEXACT:
            out = op.matmul(b, backend=name)
            np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.95, 1.0])
    def test_extreme_sparsity_levels(self, rng, sparsity):
        """Fully-dense and fully-zero operands exercise padding-slot paths."""
        op = make_operand(rng, (8, 32), "2:4", sparsity=sparsity)
        b = rng.normal(size=(32, 5))
        ref = op.matmul(b)
        for name in backend_names():
            out = op.matmul(b, backend=name)
            if name in EXACT:
                np.testing.assert_array_equal(out, ref, err_msg=name)
            else:
                np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12, err_msg=name)

    def test_float32_operand_keeps_dtype(self, rng):
        op = make_operand(rng, (8, 16), "2:4", dtype=np.float32)
        b = rng.normal(size=(16, 4)).astype(np.float32)
        for name in backend_names():
            assert op.matmul(b, backend=name).dtype == np.float32, name

    def test_blocked_gather_tiling_loop_bit_identical(self, rng):
        """Force multi-tile execution (tiny block_rows) and check bits."""
        op = make_operand(rng, (37, 64), "2:8+1:8")
        b = rng.normal(size=(op.padded_shape[1], 29))
        ref = op.matmul(b, backend=DEFAULT_BACKEND)
        for block_rows in (1, 3, 16, 37, 100):
            be = BlockedGatherBackend(block_rows=block_rows)
            out = be.matmul(op, None, b)
            np.testing.assert_array_equal(out, ref, err_msg=f"block_rows={block_rows}")

    def test_blocked_gather_auto_tile_bounds_budget(self, rng):
        op = make_operand(rng, (64, 64), "2:4")
        be = BlockedGatherBackend(budget_bytes=1024)  # force tiny tiles
        b = rng.normal(size=(64, 16))
        np.testing.assert_array_equal(be.matmul(op, None, b), op.matmul(b))

    def test_blocked_gather_invalid_params(self):
        with pytest.raises(ValueError):
            BlockedGatherBackend(block_rows=0)
        with pytest.raises(ValueError):
            BlockedGatherBackend(budget_bytes=0)

    def test_backend_state_is_memoised_per_operand(self, rng):
        op = make_operand(rng, (8, 16), "2:4")
        b = rng.normal(size=(16, 4))
        op.matmul(b, backend="dense-emulation")
        state = op.backend_states["dense-emulation"]
        op.matmul(b, backend="dense-emulation")
        assert op.backend_states["dense-emulation"] is state


class TestBackendProperty:
    """Generated operands: every backend against the reference kernel."""

    # A kernel that sums a three-term series out of term order differs
    # from the reference only on some operands; 200 examples reach one.
    @settings(max_examples=200)
    @given(
        rows=st.integers(1, 70),
        reduction=st.integers(1, 140),
        config_text=st.sampled_from(CONFIGS),
        dtype=st.sampled_from([np.float32, np.float64]),
        extra_cols=st.lists(st.integers(2, 40), max_size=2),
        tiles=st.integers(2, 8),
        sparsity=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backends_match_reference(
        self, rows, reduction, config_text, dtype, extra_cols, tiles, sparsity, seed
    ):
        rng = np.random.default_rng(seed)
        op = make_operand(rng, (rows, reduction), config_text, sparsity, dtype)
        max_slots = max(v.shape[1] for v in op.flat_values)
        itemsize = np.dtype(dtype).itemsize
        tol = 1e-4 if dtype is np.float32 else 1e-10
        for n_cols in (1, *extra_cols):
            b = rng.normal(size=(op.padded_shape[1], n_cols)).astype(dtype)
            ref = op.matmul(b, backend=DEFAULT_BACKEND)
            assert ref.dtype == dtype
            # A budget of ``rows // tiles`` gather rows forces several tiles.
            tiled = BlockedGatherBackend(
                budget_bytes=max_slots * n_cols * itemsize * max(1, rows // tiles)
            )
            if rows > 1:
                assert tiled._tile(op, n_cols, itemsize) < rows
            np.testing.assert_array_equal(tiled.matmul(op, None, b), ref)
            for name in EXACT:
                np.testing.assert_array_equal(op.matmul(b, backend=name), ref, err_msg=name)
            for name in INEXACT:
                np.testing.assert_allclose(
                    op.matmul(b, backend=name), ref, rtol=tol, atol=tol, err_msg=name
                )


class TestMixedDtypeAccumulation:
    def test_result_type_spans_all_terms(self, rng):
        """Out dtype must come from *all* terms, not just ``terms[0]``."""
        pattern = NMPattern(2, 4)
        w32 = (rng.normal(size=(4, 8)) * (rng.random((4, 8)) < 0.5)).astype(np.float32)
        w64 = rng.normal(size=(4, 8)) * (rng.random((4, 8)) < 0.5)
        from repro.core.patterns import pattern_view

        t32 = nm_compress(pattern_view(w32, pattern), pattern)
        t64 = nm_compress(pattern_view(w64, pattern), pattern)
        tables = [nm_gather_tables(t) for t in (t32, t64)]
        op = CompiledOperand(
            config=TASDConfig.parse("2:4+2:4"),
            original_shape=(4, 8),
            padded_shape=(4, 8),
            terms=(t32, t64),
            flat_values=tuple(v for v, _ in tables),
            flat_rows=tuple(r for _, r in tables),
        )
        b = rng.normal(size=(8, 3)).astype(np.float32)
        # terms[0] is float32 and b is float32, but the float64 second term
        # must widen the accumulator.
        assert op.matmul(b).dtype == np.float64


class TestPlanBackendDispatch:
    @pytest.fixture(scope="class")
    def sparse_model(self):
        model = resnet18(num_classes=10, base_width=16)
        global_magnitude_prune(model, 0.6)
        transform = TASDTransform(
            weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
        )
        return model, transform

    def test_full_forward_bit_identical_across_exact_backends(self, sparse_model):
        model, transform = sparse_model
        x = np.random.default_rng(3).normal(size=(2, 3, 8, 8))
        outputs = {}
        for name in EXACT:
            plan = compile_plan(model, transform, backend=name)
            with PlanExecutor(model, plan) as ex:
                outputs[name] = ex.run(x)
        ref = outputs[DEFAULT_BACKEND]
        for name, out in outputs.items():
            np.testing.assert_array_equal(out, ref, err_msg=name)

    def test_full_forward_allclose_across_inexact_backends(self, sparse_model):
        model, transform = sparse_model
        x = np.random.default_rng(4).normal(size=(2, 3, 8, 8))
        plan = compile_plan(model, transform)
        with PlanExecutor(model, plan) as ex:
            ref = ex.run(x)
        for name in INEXACT:
            plan = compile_plan(model, transform, backend=name)
            with PlanExecutor(model, plan) as ex:
                np.testing.assert_allclose(ex.run(x), ref, rtol=1e-9, atol=1e-9, err_msg=name)

    def test_unknown_backend_fails_at_build_time(self, sparse_model):
        model, transform = sparse_model
        with pytest.raises(KeyError, match="unknown GEMM backend"):
            compile_plan(model, transform, backend="warp-drive")

    def test_backend_visible_in_summary(self, sparse_model):
        model, transform = sparse_model
        plan = compile_plan(model, transform, backend="blocked-gather")
        assert "blocked-gather" in plan.summary()
        assert set(plan.backend_choices().values()) == {"blocked-gather"}


class TestAutotune:
    def test_autotune_operand_sweeps_all_backends(self, rng):
        op = make_operand(rng, (32, 64), "2:4")
        result = autotune_operand(op, sample_cols=8, repeats=2)
        assert result.backend in backend_names()
        assert set(result.timings) == set(backend_names())
        assert all(t > 0 for t in result.timings.values())
        assert result.speedup_vs_reference > 0
        assert "autotune" in str(result)

    def test_exact_only_restricts_candidates(self, rng):
        op = make_operand(rng, (16, 32), "2:4")
        result = autotune_operand(op, sample_cols=4, repeats=1, exact_only=True)
        assert set(result.timings) == EXACT
        assert result.backend in EXACT

    def test_losing_backend_state_is_evicted(self, rng):
        """Only the winner's prepared state may stay resident on the operand."""
        op = make_operand(rng, (16, 32), "2:4")
        result = autotune_operand(op, sample_cols=4, repeats=1)
        assert set(op.backend_states) <= {result.backend}

    def test_sample_dtype_follows_operand(self, rng):
        """A float32 operand must be tuned on float32 arithmetic."""
        op = make_operand(rng, (16, 32), "2:4", dtype=np.float32)
        result = autotune_operand(op, sample_cols=4, repeats=1)
        state = op.backend_states.get(result.backend)
        if isinstance(state, np.ndarray):  # dense-emulation: prepared matrix
            assert state.dtype == np.float32

    def test_speedup_distinguishes_zero_timings_from_missing(self):
        """A measured 0.0 s median is a real timing, not "unmeasured"."""
        # Missing keys: genuinely unmeasured, ratio defaults to 1.0.
        assert AutotuneResult(backend="blocked-gather").speedup_vs_reference == 1.0
        assert (
            AutotuneResult(
                backend="blocked-gather", timings={"blocked-gather": 1e-6}
            ).speedup_vs_reference
            == 1.0
        )
        assert (
            AutotuneResult(
                backend="blocked-gather", timings={"einsum-gather": 1e-6}
            ).speedup_vs_reference
            == 1.0
        )
        # Zero-time winner against a measurable reference: unboundedly fast,
        # not silently 1.0x (the timer-resolution case on tiny layers).
        assert (
            AutotuneResult(
                backend="blocked-gather",
                timings={"einsum-gather": 1e-6, "blocked-gather": 0.0},
            ).speedup_vs_reference
            == float("inf")
        )
        # Both medians at zero: indistinguishable, 1.0.
        assert (
            AutotuneResult(
                backend="blocked-gather",
                timings={"einsum-gather": 0.0, "blocked-gather": 0.0},
            ).speedup_vs_reference
            == 1.0
        )
        # Normal case unchanged.
        assert AutotuneResult(
            backend="blocked-gather",
            timings={"einsum-gather": 2e-6, "blocked-gather": 1e-6},
        ).speedup_vs_reference == pytest.approx(2.0)

    def test_invalid_parameters(self, rng):
        op = make_operand(rng, (16, 32), "2:4")
        with pytest.raises(ValueError):
            autotune_operand(op, repeats=0)
        with pytest.raises(ValueError):
            autotune_operand(op, sample_cols=0)

    def test_compile_plan_autotune_records_winners(self):
        model = resnet18(num_classes=10, base_width=16)
        global_magnitude_prune(model, 0.6)
        transform = TASDTransform(
            weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
        )
        plan = compile_plan(model, transform, autotune=True, autotune_repeats=1)
        compiled = [p for p in plan.layers.values() if p.mode == "compiled"]
        assert compiled
        for layer_plan in compiled:
            assert isinstance(layer_plan.autotune, AutotuneResult)
            assert layer_plan.backend == layer_plan.autotune.backend
        # The tuned choice is visible in the human-readable summary.
        assert any(p.backend in plan.summary() for p in compiled)
        # The forward still matches the reference arithmetic to rounding.
        x = np.random.default_rng(5).normal(size=(2, 3, 8, 8))
        with PlanExecutor(model, plan) as ex:
            tuned = ex.run(x)
        with PlanExecutor(model, compile_plan(model, transform)) as ex:
            ref = ex.run(x)
        np.testing.assert_allclose(tuned, ref, rtol=1e-9, atol=1e-9)

    def test_compile_plan_autotune_exact_only_preserves_bits(self):
        model = resnet18(num_classes=10, base_width=16)
        global_magnitude_prune(model, 0.6)
        transform = TASDTransform(
            weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
        )
        x = np.random.default_rng(6).normal(size=(2, 3, 8, 8))
        plan = compile_plan(
            model, transform, autotune=True, autotune_repeats=1, autotune_exact_only=True
        )
        assert set(plan.backend_choices().values()) <= EXACT
        with PlanExecutor(model, plan) as ex:
            tuned = ex.run(x)
        with PlanExecutor(model, compile_plan(model, transform)) as ex:
            ref = ex.run(x)
        np.testing.assert_array_equal(tuned, ref)
