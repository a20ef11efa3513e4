"""Tests for the pluggable structured-GEMM kernel backends.

The load-bearing property: every *exact* backend is **bit-identical** to
the reference ``einsum-gather`` kernel, and the inexact
``dense-emulation`` backend agrees to rounding error.  That is what lets
``compile_plan`` put an allclose plan on ``dense-emulation`` by rule
without changing what it computes beyond rounding.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NMPattern, TASDConfig, native
from repro.core.sparse_ops import nm_compress, nm_gather_tables
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    DEFAULT_BACKEND,
    CompiledOperand,
    PlanExecutor,
    backend_names,
    compile_operand,
    compile_plan,
    get_backend,
)
from repro.runtime.backends import DenseEmulationBackend, EinsumGatherBackend
from repro.runtime.plan import autotune_operand
from repro.tasder.transform import TASDTransform

# Representative series: single-term, multi-term uniform M, mixed block
# sizes (lcm padding), and a three-term series.
CONFIGS = ["1:4", "2:4", "2:8", "2:8+1:8", "2:4+1:4", "4:8+2:8+1:8", "2:4+1:8"]
# (rows, cols) including reduction dims that need padding for every series.
SHAPES = [(4, 8), (16, 32), (7, 19), (32, 100), (1, 24), (64, 130)]

EXACT = {name for name in backend_names() if get_backend(name).exact}
INEXACT = set(backend_names()) - EXACT

# perfbench's tolerance for an allclose workload's outputs.
ALLCLOSE = {"rtol": 1e-6, "atol": 1e-9}


def make_operand(rng, shape, config_text, sparsity=0.5, dtype=np.float64):
    config = TASDConfig.parse(config_text)
    w = rng.normal(size=shape) * (rng.random(shape) < (1.0 - sparsity))
    return compile_operand(w.astype(dtype), config)


class TestRegistry:
    def test_reference_is_registered_first(self):
        assert backend_names()[0] == DEFAULT_BACKEND

    def test_both_backends_registered(self):
        assert backend_names() == ("einsum-gather", "dense-emulation")

    def test_exact_tier(self):
        assert EXACT == {"einsum-gather"}
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
        sparsity=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backends_match_reference(
        self, rows, reduction, config_text, dtype, extra_cols, sparsity, seed
    ):
        rng = np.random.default_rng(seed)
        op = make_operand(rng, (rows, reduction), config_text, sparsity, dtype)
        tol = 1e-4 if dtype is np.float32 else 1e-10
        for n_cols in (1, *extra_cols):
            b = rng.normal(size=(op.padded_shape[1], n_cols)).astype(dtype)
            ref = op.matmul(b, backend=DEFAULT_BACKEND)
            assert ref.dtype == dtype
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


class TestNativeGatherPath:
    """``einsum-gather`` serves float64 operands through the native gather-MAC."""

    @staticmethod
    def loaded():
        if native.gather_mac() is None:
            pytest.skip(f"native gather-MAC unavailable: {native.fallback_reason()}")

    @staticmethod
    def einsum_loop_counter(monkeypatch):
        calls = []
        loop = native.einsum_gather

        def counted(*args):
            calls.append(args)
            return loop(*args)

        monkeypatch.setattr(native, "einsum_gather", counted)
        return calls

    def test_float64_operands_take_the_native_path(self, rng, monkeypatch):
        self.loaded()
        op = make_operand(rng, (37, 100), "2:4+1:8")
        b = rng.normal(size=(op.padded_shape[1], 5))
        assert isinstance(op.backend_state(get_backend(DEFAULT_BACKEND)), native.BoundGatherMAC)
        expected = native.einsum_gather(op.flat_values, op.flat_rows, b)
        calls = self.einsum_loop_counter(monkeypatch)
        out = op.matmul(b)
        assert calls == []
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))

    def test_other_dtypes_keep_the_einsum_loop(self, rng, monkeypatch):
        self.loaded()
        calls = self.einsum_loop_counter(monkeypatch)
        op32 = make_operand(rng, (8, 16), "2:4", dtype=np.float32)
        assert op32.backend_state(get_backend(DEFAULT_BACKEND)) is None
        op32.matmul(rng.normal(size=(16, 3)).astype(np.float32))
        op64 = make_operand(rng, (8, 16), "2:4")
        op64.matmul(rng.normal(size=(16, 3)).astype(np.float32))  # a float32 b
        assert len(calls) == 2

    @pytest.mark.parametrize("compiler", ["missing", "failing"])
    def test_failed_build_serves_the_same_bits(self, rng, tmp_path, monkeypatch, compiler):
        """Without a kernel (no compiler, or a build that fails) the einsum
        loop serves, and gives the native kernel's bits."""
        self.loaded()
        op = make_operand(rng, (64, 130), "2:4+1:8")
        b = rng.normal(size=(op.padded_shape[1], 7))
        expected = [op.matmul(b), op.matmul(b[:, :1])]  # native
        if compiler == "missing":
            compiler = str(tmp_path / "no-such-cc")
        else:
            compiler = shutil.which("false") or pytest.skip("no false(1)")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(native, "_state", None)
        monkeypatch.setattr(native, "COMPILER", compiler)
        unprepared = dataclasses.replace(op, backend_states={})
        with pytest.warns(RuntimeWarning, match="native gather-MAC unavailable"):
            assert unprepared.backend_state(get_backend(DEFAULT_BACKEND)) is None
        assert native.fallback_reason() is not None
        for out, ref in zip([unprepared.matmul(b), unprepared.matmul(b[:, :1])], expected):
            np.testing.assert_array_equal(out, ref)
            np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))
        assert not list((tmp_path / "cache").rglob("*.so"))

    def test_a_copied_operand_serves_its_own_tables(self, rng):
        """``copy.deepcopy`` (as the chaos helper uses) rebinds the kernel."""
        self.loaded()
        op = make_operand(rng, (16, 32), "2:4")
        b = rng.normal(size=(32, 4))
        expected = op.matmul(b)
        clone = copy.deepcopy(op)
        np.testing.assert_array_equal(clone.matmul(b), expected)
        clone.flat_values[0][...] *= 3.0
        np.testing.assert_allclose(clone.matmul(b), 3.0 * expected)
        np.testing.assert_array_equal(op.matmul(b), expected)


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
        plan = compile_plan(model, transform, backend="dense-emulation")
        assert "dense-emulation" in plan.summary()
        assert set(plan.backend_choices().values()) == {"dense-emulation"}

    @pytest.mark.parametrize("exact", [False, True], ids=["allclose", "exact"])
    def test_rule_on_conv_network(self, sparse_model, exact):
        """Convs (and their folded epilogues) follow the rule like linears."""
        model, transform = sparse_model
        plan = compile_plan(model, transform, autotune=True, autotune_exact_only=exact)
        rule = "einsum-gather" if exact else "dense-emulation"
        assert len(plan.backend_choices()) == len(transform.weight_configs)
        assert set(plan.backend_choices().values()) == {rule}
        assert rule in plan.summary()
        x = np.random.default_rng(5).normal(size=(2, 3, 8, 8))
        with PlanExecutor(model, plan) as ex:
            out = ex.run(x)
        with PlanExecutor(model, compile_plan(model, transform)) as ex:
            ref = ex.run(x)
        if exact:
            np.testing.assert_array_equal(out, ref)
        else:
            np.testing.assert_allclose(out, ref, **ALLCLOSE)

    def test_rule_overrides_backend_keyword(self, sparse_model):
        model, transform = sparse_model
        plan = compile_plan(model, transform, backend="einsum-gather", autotune=True)
        assert set(plan.backend_choices().values()) == {"dense-emulation"}

    @pytest.mark.parametrize("backend", backend_names())
    def test_exact_only_without_autotune_honours_backend(self, sparse_model, backend):
        model, transform = sparse_model
        plan = compile_plan(model, transform, backend=backend, autotune_exact_only=True)
        assert set(plan.backend_choices().values()) == {backend}

    def test_rule_leaves_per_call_plans_alone(self, sparse_model):
        model, transform = sparse_model
        plan = compile_plan(model, transform, mode="per_call", autotune=True)
        assert {lp.mode for lp in plan.layers.values()} <= {"per_call", "dense"}
        assert plan.backend_choices() == {}
        assert all(lp.operand is None for lp in plan.layers.values())

    def test_rule_times_no_kernel(self, sparse_model, monkeypatch):
        """Compiling by rule prepares state but never runs a GEMM kernel."""
        model, transform = sparse_model

        def forbidden(*args, **kwargs):
            raise AssertionError("compile_plan ran a GEMM kernel")

        with monkeypatch.context() as m:
            for cls in (EinsumGatherBackend, DenseEmulationBackend):
                m.setattr(cls, "matmul", forbidden)
            plan = compile_plan(model, transform, autotune=True)
        assert set(plan.backend_choices().values()) == {"dense-emulation"}


class TestBackendRule:
    """``compile_plan(autotune=True)`` picks by rule, and the rule keeps outputs."""

    @pytest.mark.parametrize("exact", [False, True], ids=["allclose", "exact"])
    def test_plan_prepares_only_the_rule_backend(self, exact):
        """Each compiled layer holds exactly its rule backend's prepared
        state once the plan is built, before any forward."""
        model = MLP(32, hidden=(24,), num_classes=8, rng=np.random.default_rng(9))
        transform = TASDTransform(
            weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
        )
        plan = compile_plan(model, transform, autotune=True, autotune_exact_only=exact)
        rule = "einsum-gather" if exact else "dense-emulation"
        assert autotune_operand(exact_only=exact) == rule
        compiled = [lp for lp in plan.layers.values() if lp.mode == "compiled"]
        assert compiled
        for lp in compiled:
            assert lp.backend == rule
            assert set(lp.operand.backend_states) == {rule}

    def test_prepared_matrix_keeps_operand_dtype(self, rng):
        """A float32 operand's dense-emulation matrix is built in float32."""
        op = make_operand(rng, (16, 32), "2:4", dtype=np.float32)
        assert op.backend_state(get_backend("dense-emulation")).dtype == np.float32

    @settings(max_examples=25)
    @given(
        in_features=st.integers(1, 40),
        hidden=st.lists(st.integers(1, 24), min_size=1, max_size=2),
        classes=st.integers(1, 12),
        series=st.lists(st.sampled_from(["dense", *CONFIGS]), min_size=3, max_size=3),
        act_series=st.sampled_from(["dense", "2:4", "4:8"]),
        exact=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_rule_backends_and_outputs(
        self, in_features, hidden, classes, series, act_series, exact, seed
    ):
        model = MLP(in_features, hidden=tuple(hidden), num_classes=classes,
                    rng=np.random.default_rng(seed))
        names = [name for name, _ in gemm_layers(model, include_head=True)]
        transform = TASDTransform(
            weight_configs={
                name: TASDConfig.parse(text)
                for name, text in zip(names, series)
                if text != "dense"
            },
            activation_configs={} if act_series == "dense"
            else {names[-1]: TASDConfig.parse(act_series)},
        )
        plan = compile_plan(model, transform, autotune=True, autotune_exact_only=exact)
        rule = "einsum-gather" if exact else "dense-emulation"
        for name, lp in plan.layers.items():
            assert lp.mode == ("compiled" if name in transform.weight_configs else "dense")
            if lp.mode == "compiled":
                assert lp.backend == rule
                # Prepared at compile time, so forked workers inherit it.
                assert set(lp.operand.backend_states) == {rule}
        x = np.random.default_rng(seed + 1).normal(size=(3, in_features))
        with PlanExecutor(model, plan) as ex:
            out = ex.run(x)
        reference = compile_plan(model, transform, backend="einsum-gather")
        with PlanExecutor(model, reference) as ex:
            ref = ex.run(x)
        if exact:
            np.testing.assert_array_equal(out, ref)
        else:
            np.testing.assert_allclose(out, ref, **ALLCLOSE)
