"""Tests for plan persistence: save/load round trips, digests, tampering.

The load-bearing property: a loaded plan is *the same plan* — bit-identical
served outputs on every backend, preserved autotune choices, operands
re-registered in the cache — and anything that is not the same plan
(drifted weights, tampered artifact) is refused with a clear error, never
loaded approximately.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TASDConfig
from repro.nn.layers import Linear
from repro.nn.models.mlp import MLP
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    OperandCache,
    PlanDigestError,
    PlanExecutor,
    PlanFormatError,
    ServingEngine,
    backend_names,
    compile_plan,
    load_plan,
    model_fingerprint,
    save_plan,
)
from repro.runtime.planio import _CHECKSUM_KEY, _MANIFEST_KEY
from repro.tasder.transform import TASDTransform

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
    return np.random.default_rng(21).normal(size=(3, 3, 8, 8))


def _npz_dict(path) -> dict[str, np.ndarray]:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def _rewrite(path, arrays: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)


class TestRoundTrip:
    @pytest.mark.parametrize("backend", backend_names())
    def test_loaded_plan_serves_bit_identical_outputs(
        self, sparse_resnet, batch, tmp_path, backend
    ):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform, backend=backend)
        path = plan.save(tmp_path / f"plan-{backend}.npz")
        loaded = load_plan(path, model)
        with PlanExecutor(model, plan) as executor:
            fresh = executor.run(batch)
        with PlanExecutor(model, loaded) as executor:
            warm = executor.run(batch)
        np.testing.assert_array_equal(warm, fresh)

    def test_compressed_artifact_still_loads(self, sparse_resnet, batch, tmp_path):
        """Artifacts written deflated (``np.savez_compressed``) by earlier
        saves still load and serve bit-identically."""
        model, transform = sparse_resnet
        plan = compile_plan(model, transform, autotune=True, autotune_repeats=1)
        path = plan.save(tmp_path / "plan.npz")
        stored_size = path.stat().st_size
        _rewrite(path, _npz_dict(path))
        assert path.stat().st_size < stored_size  # really rewritten deflated
        loaded = load_plan(path, model)
        assert loaded.backend_choices() == plan.backend_choices()
        with PlanExecutor(model, plan) as executor:
            fresh = executor.run(batch)
        with PlanExecutor(model, loaded) as executor:
            warm = executor.run(batch)
        np.testing.assert_array_equal(warm, fresh)

    def test_backend_choices_and_autotune_preserved(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform, autotune=True, autotune_repeats=2)
        path = plan.save(tmp_path / "plan.npz")
        loaded = load_plan(path, model)
        assert loaded.backend_choices() == plan.backend_choices()
        for name, lp in plan.layers.items():
            got = loaded.layers[name]
            assert got.backend == lp.backend
            if lp.autotune is None:
                assert got.autotune is None
            else:
                assert got.autotune.backend == lp.autotune.backend
                assert got.autotune.timings == lp.autotune.timings
                assert got.autotune.sample_cols == lp.autotune.sample_cols

    def test_layer_metadata_preserved(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        loaded = load_plan(plan.save(tmp_path / "plan.npz"), model)
        assert set(loaded.layers) == set(plan.layers)
        assert loaded.mode == plan.mode
        for name, lp in plan.layers.items():
            got = loaded.layers[name]
            assert (got.kind, got.mode) == (lp.kind, lp.mode)
            assert str(got.weight_config) == str(lp.weight_config)
            assert str(got.activation_config) == str(lp.activation_config)
            assert got.activation_axis == lp.activation_axis
            if lp.operand is not None:
                assert got.operand.original_shape == lp.operand.original_shape
                assert got.operand.padded_shape == lp.operand.padded_shape
                for a, b in zip(got.operand.terms, lp.operand.terms):
                    assert a.pattern == b.pattern
                    np.testing.assert_array_equal(a.values, b.values)
                    np.testing.assert_array_equal(a.indices, b.indices)
                for a, b in zip(got.operand.flat_rows, lp.operand.flat_rows):
                    np.testing.assert_array_equal(a, b)
        assert loaded.transform.weight_configs.keys() == transform.weight_configs.keys()

    def test_loaded_operands_reregister_in_cache(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        path = plan.save(tmp_path / "plan.npz")
        cache = OperandCache()
        loaded = load_plan(path, model, cache=cache)
        assert cache.counters.lookups == 0  # adoption is neither hit nor miss
        recompiled = compile_plan(model, transform, cache=cache)
        assert cache.counters.misses == 0
        assert cache.counters.hits == len(transform.weight_configs)
        name = next(iter(transform.weight_configs))
        assert recompiled.layers[name].operand is loaded.layers[name].operand

    def test_backend_state_rebuilds_lazily(self, sparse_resnet, batch, tmp_path):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform, backend="dense-emulation")
        loaded = load_plan(plan.save(tmp_path / "plan.npz"), model)
        for lp in loaded.layers.values():
            if lp.operand is not None:
                assert lp.operand.backend_states == {}
        with PlanExecutor(model, loaded) as executor:
            executor.run(batch)
        states = [
            lp.operand.backend_states
            for lp in loaded.layers.values()
            if lp.operand is not None
        ]
        assert all("dense-emulation" in s for s in states)

    def test_serving_engine_over_loaded_plan(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        loaded = load_plan(plan.save(tmp_path / "plan.npz"), model)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 3, 8, 8))
        with PlanExecutor(model, plan) as executor:
            expected = executor.run(x)
        with PlanExecutor(model, loaded) as executor:
            with ServingEngine(executor, max_batch=2) as engine:
                out = engine.infer(x, timeout=60.0)
        np.testing.assert_array_equal(out, expected)

    def test_per_call_plan_round_trips(self, sparse_resnet, batch, tmp_path):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform, mode="per_call")
        loaded = load_plan(plan.save(tmp_path / "plan.npz"), model)
        assert loaded.mode == "per_call"
        with PlanExecutor(model, plan) as executor:
            fresh = executor.run(batch)
        with PlanExecutor(model, loaded) as executor:
            warm = executor.run(batch)
        np.testing.assert_array_equal(warm, fresh)

    def test_warm_cache_keeps_incumbent_operands(self, sparse_resnet, tmp_path):
        """Loading into a cache that already holds the operands must share them.

        The loaded plan keeps the cache's incumbent objects (identity), so a
        later save() of the loaded plan still resolves every digest.
        """
        model, transform = sparse_resnet
        cache = OperandCache()
        plan = compile_plan(model, transform, cache=cache)
        path = plan.save(tmp_path / "plan.npz")
        loaded = load_plan(path, model, cache=cache)
        for name, lp in plan.layers.items():
            if lp.operand is not None:
                assert loaded.layers[name].operand is lp.operand
        loaded.save(tmp_path / "resaved.npz")  # digest_of still resolves

    def test_save_survives_operand_eviction(self, sparse_resnet, batch, tmp_path):
        """Eviction must not block persistence: the digest is recorded on the
        LayerPlan at compile time, not recovered from the cache."""
        model, transform = sparse_resnet
        plan = compile_plan(model, transform, cache=OperandCache(capacity=1))
        path = plan.save(tmp_path / "plan.npz")
        loaded = load_plan(path, model)
        with PlanExecutor(model, plan) as executor:
            fresh = executor.run(batch)
        with PlanExecutor(model, loaded) as executor:
            warm = executor.run(batch)
        np.testing.assert_array_equal(warm, fresh)

    def test_save_plan_function_matches_method(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        path = save_plan(plan, tmp_path / "plan.npz")
        assert path.exists()
        assert load_plan(path, model).backend_choices() == plan.backend_choices()

    def test_old_row_partition_entries_ignored(self, sparse_resnet, batch, tmp_path):
        """Version-1 files from older writers carry a per-layer row-partition
        schedule entry.  It is a schedule, not weights: the loader ignores it
        and serves bit-identical outputs, while the checksum still covers it."""
        from repro.runtime.planio import _manifest_checksum

        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        path = plan.save(tmp_path / "plan.npz")
        arrays = _npz_dict(path)
        manifest = json.loads(bytes(arrays[_MANIFEST_KEY]).decode())
        for entry in manifest["layers"]:
            operand = plan.layers[entry["name"]].operand
            if operand is None:
                continue
            rows, half = operand.padded_shape[0], operand.padded_shape[0] // 2
            entry["sh" "ards"] = {  # the key older writers used
                "rows": rows,
                "ranges": [[0, half], [half, rows]],
                "nnz": [operand.total_nnz // 2, operand.total_nnz - operand.total_nnz // 2],
            }
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
        arrays[_MANIFEST_KEY] = np.frombuffer(manifest_bytes, dtype=np.uint8)
        _rewrite(path, arrays)
        with pytest.raises(PlanFormatError, match="checksum"):
            load_plan(path, model)
        arrays[_CHECKSUM_KEY] = np.frombuffer(
            _manifest_checksum(manifest_bytes).encode(), dtype=np.uint8
        )
        _rewrite(path, arrays)
        loaded = load_plan(path, model)
        with PlanExecutor(model, plan) as executor:
            fresh = executor.run(batch)
        with PlanExecutor(model, loaded) as executor:
            warm = executor.run(batch)
        np.testing.assert_array_equal(warm, fresh)


    def test_old_activation_cache_flag_ignored(self, sparse_resnet, batch, tmp_path):
        """Version-1 files from older writers carry a per-layer activation-cache
        flag.  Activations are always decomposed per forward now: the loader
        ignores the flag and serves bit-identical outputs, and fresh saves no
        longer write it."""
        from repro.runtime.planio import _manifest_checksum

        legacy_key = "cache_" "activations"  # the key older writers used
        model, _ = sparse_resnet
        transform = TASDTransform(
            weight_configs={name: CFG for name, _ in gemm_layers(model)},
            activation_configs={"stem.layers.0": CFG},
        )
        plan = compile_plan(model, transform)
        path = plan.save(tmp_path / "plan.npz")
        arrays = _npz_dict(path)
        manifest = json.loads(bytes(arrays[_MANIFEST_KEY]).decode())
        assert all(legacy_key not in entry for entry in manifest["layers"])
        for entry in manifest["layers"]:
            entry[legacy_key] = True
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
        arrays[_MANIFEST_KEY] = np.frombuffer(manifest_bytes, dtype=np.uint8)
        arrays[_CHECKSUM_KEY] = np.frombuffer(
            _manifest_checksum(manifest_bytes).encode(), dtype=np.uint8
        )
        _rewrite(path, arrays)
        loaded = load_plan(path, model)
        assert loaded.backend_choices() == plan.backend_choices()
        with PlanExecutor(model, plan) as executor:
            fresh = executor.run(batch)
        with PlanExecutor(model, loaded) as executor:
            warm = executor.run(batch)
        np.testing.assert_array_equal(warm, fresh)


class TestRefusals:
    def test_mismatched_weight_digest_refused(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        path = plan.save(tmp_path / "plan.npz")
        original = model.head.weight.data.copy()
        model.head.weight.data[0, 0] += 1.0
        try:
            with pytest.raises(PlanDigestError, match="head"):
                load_plan(path, model)
        finally:
            model.head.weight.data = original
        load_plan(path, model)  # restored weights load again

    def test_model_with_extra_gemm_layer_refused(self, sparse_resnet, tmp_path, rng):
        """A model that *gained* a GEMM layer since the save must be refused.

        Per-layer digests all match, so only the whole-model fingerprint
        catches it — otherwise the new layer would serve silently unplanned.
        """
        model, transform = sparse_resnet
        path = compile_plan(model, transform).save(tmp_path / "plan.npz")
        model.extra = Linear(4, 4, rng=rng)
        try:
            with pytest.raises(PlanDigestError, match="extra"):
                load_plan(path, model)
        finally:
            del model.extra
        load_plan(path, model)  # original layer set loads again

    def test_foreign_model_refused(self, sparse_resnet, tmp_path, rng):
        model, transform = sparse_resnet
        path = compile_plan(model, transform).save(tmp_path / "plan.npz")
        with pytest.raises(PlanDigestError, match="lacks"):
            load_plan(path, Linear(8, 4, rng=rng))

    def test_tampered_manifest_refused(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        path = compile_plan(model, transform).save(tmp_path / "plan.npz")
        arrays = _npz_dict(path)
        manifest = json.loads(bytes(arrays[_MANIFEST_KEY]).decode())
        manifest["layers"][0]["backend"] = "dense-emulation"
        arrays[_MANIFEST_KEY] = np.frombuffer(
            json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8
        )
        _rewrite(path, arrays)
        with pytest.raises(PlanFormatError, match="checksum"):
            load_plan(path, model)

    def test_tampered_array_refused(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        path = compile_plan(model, transform).save(tmp_path / "plan.npz")
        arrays = _npz_dict(path)
        key = next(k for k in arrays if k.endswith(".values"))
        tampered = arrays[key].copy()
        tampered.flat[0] += 1.0
        arrays[key] = tampered
        _rewrite(path, arrays)
        with pytest.raises(PlanFormatError, match="digest mismatch"):
            load_plan(path, model)

    def test_not_a_plan_artifact_refused(self, sparse_resnet, tmp_path):
        model, _ = sparse_resnet
        path = tmp_path / "random.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(PlanFormatError, match="missing manifest"):
            load_plan(path, model)

    def test_garbage_bytes_refused_not_crashed(self, sparse_resnet, tmp_path):
        """Arbitrary bytes must raise PlanFormatError, not a raw numpy error."""
        model, _ = sparse_resnet
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(PlanFormatError, match="cannot read plan artifact"):
            load_plan(path, model)

    def test_truncated_artifact_refused_not_crashed(self, sparse_resnet, tmp_path):
        model, transform = sparse_resnet
        path = compile_plan(model, transform).save(tmp_path / "plan.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(PlanFormatError):
            load_plan(path, model)

    def test_missing_artifact_raises_file_not_found(self, sparse_resnet, tmp_path):
        """A missing path is the caller's error, not a bad artifact."""
        model, _ = sparse_resnet
        with pytest.raises(FileNotFoundError):
            load_plan(tmp_path / "never-saved.npz", model)

    def test_unsupported_version_refused(self, sparse_resnet, tmp_path):
        from repro.runtime.planio import _manifest_checksum

        model, transform = sparse_resnet
        path = compile_plan(model, transform).save(tmp_path / "plan.npz")
        arrays = _npz_dict(path)
        manifest = json.loads(bytes(arrays[_MANIFEST_KEY]).decode())
        manifest["version"] = 999
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
        arrays[_MANIFEST_KEY] = np.frombuffer(manifest_bytes, dtype=np.uint8)
        arrays[_CHECKSUM_KEY] = np.frombuffer(
            _manifest_checksum(manifest_bytes).encode(), dtype=np.uint8
        )
        _rewrite(path, arrays)
        with pytest.raises(PlanFormatError, match="version"):
            load_plan(path, model)

    @pytest.mark.parametrize(
        "backend", ["gpu-plugin-kernel", "fused-gather", "scatter-csr"]
    )
    def test_unregistered_backend_in_artifact_refused(
        self, sparse_resnet, tmp_path, backend
    ):
        """An artifact recording a backend this process lacks (an unknown
        name, or a kernel since deleted) must not escape as a raw KeyError
        from LayerPlan construction, nor be remapped to another kernel."""
        from repro.runtime.planio import _manifest_checksum

        model, transform = sparse_resnet
        path = compile_plan(model, transform).save(tmp_path / "plan.npz")
        arrays = _npz_dict(path)
        manifest = json.loads(bytes(arrays[_MANIFEST_KEY]).decode())
        compiled = next(e for e in manifest["layers"] if e["mode"] == "compiled")
        compiled["backend"] = backend
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
        arrays[_MANIFEST_KEY] = np.frombuffer(manifest_bytes, dtype=np.uint8)
        arrays[_CHECKSUM_KEY] = np.frombuffer(
            _manifest_checksum(manifest_bytes).encode(), dtype=np.uint8
        )
        _rewrite(path, arrays)
        with pytest.raises(PlanFormatError, match="unknown GEMM backend.*recompile the plan"):
            load_plan(path, model)

    def test_failed_save_preserves_existing_artifact(
        self, sparse_resnet, tmp_path, monkeypatch
    ):
        """A crash mid-save must never destroy the good artifact in place."""
        import repro.runtime.planio as planio

        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        path = plan.save(tmp_path / "plan.npz")
        good_bytes = path.read_bytes()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(planio.np, "savez", explode)
        with pytest.raises(OSError, match="disk full"):
            plan.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == good_bytes
        assert not list(tmp_path.glob(".*.tmp-*"))  # temp file cleaned up
        load_plan(path, model)

    def test_forged_manifest_with_missing_keys_refused(self, sparse_resnet, tmp_path):
        """A manifest rewritten (checksum recomputed) without required keys
        must refuse cleanly, not crash with a raw KeyError."""
        from repro.runtime.planio import _manifest_checksum

        model, transform = sparse_resnet
        path = compile_plan(model, transform).save(tmp_path / "plan.npz")
        arrays = _npz_dict(path)
        manifest = json.loads(bytes(arrays[_MANIFEST_KEY]).decode())
        for entry in manifest["layers"]:
            del entry["weight_digest"]
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
        arrays[_MANIFEST_KEY] = np.frombuffer(manifest_bytes, dtype=np.uint8)
        arrays[_CHECKSUM_KEY] = np.frombuffer(
            _manifest_checksum(manifest_bytes).encode(), dtype=np.uint8
        )
        _rewrite(path, arrays)
        with pytest.raises(PlanFormatError, match="malformed"):
            load_plan(path, model)

    def test_save_without_digest_or_resident_operand_refused(
        self, sparse_resnet, tmp_path
    ):
        """The reverse-lookup fallback fails clearly when nothing records
        the source-weight digest (hand-built plan, empty cache)."""
        import dataclasses

        model, transform = sparse_resnet
        plan = compile_plan(model, transform)
        name = next(n for n, lp in plan.layers.items() if lp.mode == "compiled")
        plan.layers[name] = dataclasses.replace(plan.layers[name], weight_digest=None)
        plan.cache = OperandCache()  # empty: reverse lookup cannot resolve
        with pytest.raises(PlanFormatError, match="cannot persist"):
            plan.save(tmp_path / "plan.npz")


# ---------------------------------------------------------------------- #
# Properties over generated plans and corruptions
# ---------------------------------------------------------------------- #
SERIES = ["dense", "2:4", "1:4", "2:8", "2:4+2:8"]


def _mlp_plan(in_features, hidden, classes, weight_series, act_series, mode, seed):
    model = MLP(in_features, hidden=(hidden,), num_classes=classes,
                rng=np.random.default_rng(seed))
    names = [name for name, _ in gemm_layers(model, include_head=True)]
    weight_configs = {
        name: TASDConfig.parse(series)
        for name, series in zip(names, weight_series)
        if series != "dense"
    }
    activation_configs = {names[1]: TASDConfig.parse(act_series)} if act_series != "dense" else {}
    transform = TASDTransform(
        weight_configs=weight_configs, activation_configs=activation_configs
    )
    return model, compile_plan(model, transform, mode=mode)


def _serve(model, plan, x):
    with PlanExecutor(model, plan) as executor:
        return executor.run(x)


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("plan-properties")


@pytest.fixture(scope="module")
def two_layer_artifact(artifact_dir):
    """A saved two-layer plan (one compiled 2:4+2:8 layer, one dense head)
    with its model, a request batch and the served reference output."""
    model, plan = _mlp_plan(32, 32, 16, ["2:4+2:8", "dense"], "dense", "compiled", 0)
    path = plan.save(artifact_dir / "two-layer.npz")
    x = np.random.default_rng(1).normal(size=(3, 32))
    return model, path.read_bytes(), x, _serve(model, plan, x)


class TestArtifactProperties:
    @settings(max_examples=40)
    @given(
        in_features=st.integers(1, 40),
        hidden=st.integers(1, 24),
        classes=st.integers(1, 12),
        weight_series=st.lists(st.sampled_from(SERIES), min_size=2, max_size=2),
        act_series=st.sampled_from(["dense", "2:4", "4:8"]),
        mode=st.sampled_from(["compiled", "per_call"]),
        backends=st.lists(st.sampled_from(backend_names()), min_size=2, max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_save_load_is_the_identity(
        self, artifact_dir, in_features, hidden, classes, weight_series,
        act_series, mode, backends, seed,
    ):
        """save -> load serves bit-identical outputs with the same backends."""
        model, plan = _mlp_plan(
            in_features, hidden, classes, weight_series, act_series, mode, seed
        )
        for lp, backend in zip(plan.layers.values(), backends):
            if lp.mode == "compiled":
                lp.backend = backend
        loaded = load_plan(plan.save(artifact_dir / "round-trip.npz"), model)
        assert loaded.backend_choices() == plan.backend_choices()
        assert loaded.mode == plan.mode
        x = np.random.default_rng(seed + 1).normal(size=(2, in_features))
        np.testing.assert_array_equal(_serve(model, loaded, x), _serve(model, plan, x))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_flipped_byte_is_refused_or_harmless(self, artifact_dir, two_layer_artifact, data):
        """Any single corrupted byte raises PlanFormatError, or (benign bytes
        such as zip timestamps) loads a plan that serves bit-identically."""
        model, raw, x, expected = two_layer_artifact
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        mask = data.draw(st.integers(1, 255), label="xor mask")
        corrupted = bytearray(raw)
        corrupted[position] ^= mask
        path = artifact_dir / "flipped.npz"
        path.write_bytes(bytes(corrupted))
        try:
            loaded = load_plan(path, model)
        except PlanFormatError:
            return
        np.testing.assert_array_equal(_serve(model, loaded, x), expected)


def test_model_fingerprint_tracks_weights(sparse_resnet):
    model, _ = sparse_resnet
    before = model_fingerprint(model)
    assert before == model_fingerprint(model)  # deterministic
    original = model.head.weight.data.copy()
    model.head.weight.data[0, 0] += 1.0
    try:
        assert model_fingerprint(model) != before
    finally:
        model.head.weight.data = original
    assert model_fingerprint(model) == before
