"""Tests for compiled operands, content digests, and cross-process compiles."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core import NMPattern, TASDConfig, tasd_matmul
from repro.core.series import DENSE_CONFIG
from repro.core.sparse_ops import nm_decompress
from repro.runtime import SharedOperandStore, compile_operand, tensor_digest

CFG = TASDConfig.parse("2:4")


@pytest.fixture
def matrix(rng):
    return rng.normal(size=(16, 32)) * (rng.random((16, 32)) < 0.5)


class TestDigest:
    def test_identical_content_identical_digest(self, matrix):
        assert tensor_digest(matrix) == tensor_digest(matrix.copy())

    def test_content_changes_digest(self, matrix):
        other = matrix.copy()
        other[0, 0] += 1.0
        assert tensor_digest(matrix) != tensor_digest(other)

    def test_shape_and_dtype_change_digest(self):
        a = np.zeros((4, 8))
        assert tensor_digest(a) != tensor_digest(a.reshape(8, 4))
        assert tensor_digest(a) != tensor_digest(a.astype(np.float32))


class TestCompileOperand:
    def test_compiled_operand_matches_tasd_matmul(self, matrix, rng):
        op = compile_operand(matrix, CFG)
        b = rng.normal(size=(32, 8))
        np.testing.assert_array_equal(op.matmul(b), tasd_matmul(matrix, b, CFG))

    def test_terms_reconstruct_the_series_view(self, matrix):
        op = compile_operand(matrix, CFG)
        reconstructed = sum(nm_decompress(t) for t in op.terms)
        np.testing.assert_allclose(reconstructed, CFG.view(matrix))
        assert op.total_nnz == np.count_nonzero(reconstructed)

    def test_dense_config_rejected(self, matrix):
        with pytest.raises(ValueError, match="dense"):
            compile_operand(matrix, DENSE_CONFIG)

    def test_ragged_reduction_dim_is_padded(self, rng):
        w = rng.normal(size=(4, 10))  # 10 % 4 != 0
        op = compile_operand(w, CFG)
        assert op.padded_shape == (4, 12)
        b = rng.normal(size=(12, 3))
        assert op.matmul(b).shape == (4, 3)


def _attach_worker(conn, segment: str, refs, config_str: str) -> None:
    """Child process: attach the shared store, compile, and serve one matmul."""
    from repro.core import TASDConfig
    from repro.runtime import SharedOperandStore, compile_operand

    store = SharedOperandStore.attach(segment)
    try:
        operand = compile_operand(store.get(refs["matrix"]), TASDConfig.parse(config_str))
        conn.send(operand.matmul(store.get(refs["rhs"])))
    finally:
        store.close()
        conn.close()


class TestCrossProcess:
    def test_many_processes_compile_one_segment_identically(self, rng):
        """Workers compiling from one shared segment serve the same bits."""
        matrix = rng.normal(size=(8, 16)) * (rng.random((8, 16)) < 0.5)
        rhs = rng.normal(size=(16, 4))
        store, refs = SharedOperandStore.create({"matrix": matrix, "rhs": rhs})
        try:
            ref = compile_operand(matrix, CFG).matmul(rhs)
            ctx = multiprocessing.get_context(
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
            pipes, procs = [], []
            for _ in range(3):
                parent, child = ctx.Pipe()
                p = ctx.Process(
                    target=_attach_worker, args=(child, store.name, refs, str(CFG))
                )
                p.start()
                child.close()
                pipes.append(parent)
                procs.append(p)
            for conn, p in zip(pipes, procs):
                np.testing.assert_array_equal(conn.recv(), ref)
                conn.close()
            for p in procs:
                p.join(timeout=30.0)
                assert p.exitcode == 0
        finally:
            store.unlink()
