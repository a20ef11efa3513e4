"""Tests for the native gather-MAC's build cache, probe and fallback (repro.core.native).

Its arithmetic is checked against the einsum spelling in
``test_core_sparse_ops.py::TestGatherKernelProperty``.
"""

from __future__ import annotations

import copy
import os
import pickle
import shutil
import tempfile
import warnings

import numpy as np
import pytest

from repro.core import native

from test_core_sparse_ops import assert_same_bits, native_kernel, term_tables

needs_cc = pytest.mark.skipif(shutil.which(native.COMPILER) is None, reason="no C compiler")


def off_by_one_ulp_at_n1(bind):
    """A kernel that nudges one output of every N == 1 call by one ulp."""

    def nudged_bind(flat_values, flat_rows, k):
        bound = bind(flat_values, flat_rows, k)

        def call(b):
            out = bound(b)
            if b.shape[1] == 1 and out.size:
                out[-1, 0] = np.nextafter(out[-1, 0], np.inf)
            return out

        return call

    return nudged_bind


def sequential_at_n1(bind):
    """A kernel that sums N == 1 dot products in slot order, one lane."""

    def sequential_bind(flat_values, flat_rows, k):
        bound = bind(flat_values, flat_rows, k)

        def call(b):
            if b.shape[1] != 1:
                return bound(b)
            out = np.zeros((flat_rows[0].shape[0], 1))
            for vals, rows in zip(flat_values, flat_rows):
                for r in range(vals.shape[0]):
                    acc = 0.0
                    for v, i in zip(vals[r], rows[r]):
                        acc = acc + v * b[i, 0]
                    out[r, 0] = out[r, 0] + (0.0 + acc)
            return out

        return call

    return sequential_bind


class TestProbe:
    def test_accepts_the_built_kernel(self):
        assert native.probe(native_kernel().bind) is None

    def test_refuses_a_kernel_one_ulp_off_at_n1(self):
        with np.errstate(all="ignore"):
            found = native.probe(off_by_one_ulp_at_n1(native_kernel().bind))
        assert found is not None and found.startswith("N=1 ")

    def test_refuses_a_sequential_order_n1_dot(self):
        """Summing in slot order is einsum's N >= 2 order, not its N == 1 one."""
        with np.errstate(all="ignore"):
            found = native.probe(sequential_at_n1(native_kernel().bind))
        assert found is not None and found.startswith("N=1 ")

    def test_refuses_a_kernel_that_refuses_float64_tables(self):
        assert "refused" in native.probe(lambda *tables: None)


class TestBind:
    def test_refuses_tables_it_cannot_serve(self, rng):
        kernel = native_kernel()
        vals, rows = term_tables(rng, 4, (6, 3), 10)
        assert kernel.bind(vals, rows, 10) is not None
        assert kernel.bind((vals[0].astype(np.float32), vals[1]), rows, 10) is None
        assert kernel.bind(vals, (rows[0].astype(np.int32), rows[1]), 10) is None
        assert kernel.bind((np.asfortranarray(vals[0]), vals[1]), rows, 10) is None
        assert kernel.bind(vals, rows, int(max(r.max() for r in rows))) is None  # index >= k
        assert kernel.bind(vals, (rows[0] - 10, rows[1]), 10) is None  # negative index
        assert kernel.bind((vals[0], vals[1][:3]), (rows[0], rows[1][:3]), 10) is None
        assert kernel.bind((), (), 10) is None

    def test_checks_b_and_copies_a_read_only_one(self, rng):
        vals, rows = term_tables(rng, 5, (8,), 12)
        bound = native_kernel().bind(vals, rows, 12)
        b = rng.normal(size=(12, 3))
        expected = bound(b)
        with pytest.raises(ValueError, match="float64"):
            bound(b.astype(np.float32))
        with pytest.raises(ValueError, match="float64"):
            bound(b[:11])
        frozen = b.copy()
        frozen.flags.writeable = False
        assert_same_bits(bound(frozen), expected)
        assert_same_bits(bound(np.asfortranarray(b)), expected)

    def test_a_copy_rebinds_to_its_own_tables(self, rng):
        vals, rows = term_tables(rng, 5, (8, 4), 12)
        bound = native_kernel().bind(vals, rows, 12)
        b = rng.normal(size=(12, 2))
        expected = bound(b)
        for clone in (copy.deepcopy(bound), pickle.loads(pickle.dumps(bound))):
            assert_same_bits(clone(b), expected)
            clone._tables[0][0][...] *= 2.0  # the clone's own copy of the values
            assert not np.array_equal(clone(b), expected)
            assert_same_bits(bound(b), expected)


@needs_cc
class TestBuildCache:
    def test_builds_once_per_source_and_flags(self, fresh_native, monkeypatch):
        path = native.build(native.COMPILER)
        assert path.parent == fresh_native and path.is_file()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the cached kernel was rebuilt")

        with monkeypatch.context() as patched:
            patched.setattr(native.subprocess, "run", no_compiler)
            assert native.build(native.COMPILER) == path
        monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-g0",))
        other = native.build(native.COMPILER)
        assert other != path and other.parent == fresh_native
        assert sorted(p.name for p in fresh_native.iterdir()) == sorted([path.name, other.name])

    def test_an_unwritable_cache_falls_back_to_the_temp_dir(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        path = native.build(native.COMPILER)
        assert path.parent == tmp_path / f"repro-{os.getuid()}"

    def test_a_failed_compile_leaves_no_file(self, fresh_native, tmp_path):
        with pytest.raises(native.CompileError, match="exited"):
            native.build(shutil.which("false") or pytest.skip("no false(1)"))
        assert list(fresh_native.iterdir()) == []


class TestFallback:
    def test_no_compiler_warns_once_and_records_why(self, fresh_native, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "COMPILER", str(tmp_path / "no-such-cc"))
        with pytest.warns(RuntimeWarning, match="no C compiler"):
            assert native.gather_mac() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.gather_mac() is None
        assert "no C compiler" in native.fallback_reason()
        assert native.kernel_status().startswith("einsum loop (no C compiler")
        assert not fresh_native.exists()

    def test_a_failed_build_warns_and_records_why(self, fresh_native, monkeypatch):
        monkeypatch.setattr(native, "COMPILER", shutil.which("false") or pytest.skip("no false(1)"))
        with pytest.warns(RuntimeWarning, match="build failed"):
            assert native.gather_mac() is None
        assert native.fallback_reason().startswith("build failed")

    def test_a_probe_mismatch_refuses_the_kernel(self, fresh_native, monkeypatch):
        if shutil.which(native.COMPILER) is None:
            pytest.skip("no C compiler")
        real_probe = native.probe
        monkeypatch.setattr(native, "probe", lambda bind: real_probe(off_by_one_ulp_at_n1(bind)))
        with pytest.warns(RuntimeWarning, match="probe refused"), np.errstate(all="ignore"):
            assert native.gather_mac() is None
        assert native.fallback_reason().startswith("probe refused the kernel: N=1 ")

    @needs_cc
    def test_a_loaded_kernel_records_no_reason(self, request):
        """In this process, then freshly built: a silent fallback would let
        every test that needs the kernel skip."""
        assert native.gather_mac() is not None, native.fallback_reason()
        cache = request.getfixturevalue("fresh_native")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = native.gather_mac()
        assert kernel is not None and native.fallback_reason() is None
        assert kernel.path.parent == cache
        assert native.kernel_status() == f"native gather-MAC ({kernel.path})"
