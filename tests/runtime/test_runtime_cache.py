"""Tests for the content-addressed operand cache."""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.core import NMPattern, TASDConfig, tasd_matmul
from repro.core.series import DENSE_CONFIG
from repro.core.sparse_ops import nm_decompress
from repro.runtime import OperandCache, SharedOperandStore, tensor_digest

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


class TestCompressCache:
    def test_hit_returns_identical_object(self, matrix):
        cache = OperandCache()
        first = cache.compress(matrix, CFG)
        second = cache.compress(matrix.copy(), CFG)  # same content, new array
        assert second is first
        assert cache.counters.hits == 1
        assert cache.counters.misses == 1

    def test_different_config_is_a_different_entry(self, matrix):
        cache = OperandCache()
        a = cache.compress(matrix, CFG)
        b = cache.compress(matrix, TASDConfig.parse("1:4"))
        assert a is not b
        assert cache.counters.misses == 2

    def test_compiled_operand_matches_tasd_matmul(self, matrix, rng):
        cache = OperandCache()
        op = cache.compress(matrix, CFG)
        b = rng.normal(size=(32, 8))
        np.testing.assert_array_equal(op.matmul(b), tasd_matmul(matrix, b, CFG))

    def test_terms_reconstruct_the_series_view(self, matrix):
        op = OperandCache().compress(matrix, CFG)
        reconstructed = sum(nm_decompress(t) for t in op.terms)
        np.testing.assert_allclose(reconstructed, CFG.view(matrix))
        assert op.total_nnz == np.count_nonzero(reconstructed)

    def test_dense_config_rejected(self, matrix):
        with pytest.raises(ValueError, match="dense"):
            OperandCache().compress(matrix, DENSE_CONFIG)

    def test_ragged_reduction_dim_is_padded(self, rng):
        w = rng.normal(size=(4, 10))  # 10 % 4 != 0
        op = OperandCache().compress(w, CFG)
        assert op.padded_shape == (4, 12)
        b = rng.normal(size=(12, 3))
        assert op.matmul(b).shape == (4, 3)


class TestEviction:
    def test_capacity_bound_evicts_lru(self, rng):
        cache = OperandCache(capacity=2)
        mats = [rng.normal(size=(4, 8)) + i for i in range(3)]
        for m in mats:
            cache.compress(m, CFG)
        assert len(cache) == 2
        assert cache.counters.evictions == 1
        # Oldest entry was evicted: requesting it again is a miss ...
        cache.compress(mats[0], CFG)
        assert cache.counters.misses == 4
        # ... while the most recent entry is still resident.
        cache.compress(mats[2], CFG)
        assert cache.counters.hits == 1

    def test_adopt_registers_respects_capacity_and_reverse_lookup(self, rng):
        cache = OperandCache(capacity=2)
        mats = [rng.normal(size=(4, 8)) + i for i in range(3)]
        operands = [cache.compress(m, CFG) for m in mats]
        # Adoption is neither hit nor miss, the incumbent wins on collision,
        # and digest_of resolves resident operands (eviction loses them).
        hits, misses = cache.counters.hits, cache.counters.misses
        digest = tensor_digest(mats[2])
        fresh = OperandCache().compress(mats[2], CFG)
        assert cache.adopt(digest, CFG, fresh) is operands[2]
        assert (cache.counters.hits, cache.counters.misses) == (hits, misses)
        assert cache.digest_of(operands[2]) == digest
        assert cache.digest_of(operands[0]) is None  # evicted at capacity 2
        # Adopting a new key evicts LRU past capacity, like compress.
        evictions = cache.counters.evictions
        extra = rng.normal(size=(4, 8)) + 9
        cache.adopt(tensor_digest(extra), CFG, OperandCache().compress(extra, CFG))
        assert len(cache) == 2
        assert cache.counters.evictions == evictions + 1

    def test_hit_refreshes_recency(self, rng):
        cache = OperandCache(capacity=2)
        a, b, c = (rng.normal(size=(4, 8)) + i for i in range(3))
        cache.compress(a, CFG)
        cache.compress(b, CFG)
        cache.compress(a, CFG)  # refresh a; b becomes LRU
        cache.compress(c, CFG)  # evicts b
        hits_before = cache.counters.hits
        cache.compress(a, CFG)
        assert cache.counters.hits == hits_before + 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            OperandCache(capacity=0)


def _hammer(n_threads: int, work) -> None:
    """Run ``work(thread_index)`` concurrently from ``n_threads`` threads."""
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def runner(i: int) -> None:
        try:
            barrier.wait()
            work(i)
        # lint: disable=broad-except — captured (asserts included) for
        # re-raise in the main thread; a raise here would vanish silently
        except BaseException as exc:  # pragma: no cover - only on test failure
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


def _attach_worker(conn, segment: str, refs, config_str: str) -> None:
    """Child process: attach the shared store, adopt, and serve one matmul."""
    from repro.core import TASDConfig
    from repro.runtime import OperandCache, SharedOperandStore

    store = SharedOperandStore.attach(segment)
    try:
        cache = OperandCache()
        config = TASDConfig.parse(config_str)
        fresh = cache.compress(store.get(refs["matrix"]), config)
        adopted = cache.adopt(tensor_digest(store.get(refs["matrix"])), config, fresh)
        out = adopted.matmul(store.get(refs["rhs"]))
        counters = (cache.counters.hits, cache.counters.misses, cache.counters.evictions)
        conn.send((out, counters))
    finally:
        store.close()
        conn.close()


class TestConcurrency:
    """Hammer the cache's counters and identity guarantees concurrently.

    The contracts under fire: ``hits + misses == lookups`` never drifts, a
    key only ever materialises one operand object (racing builders may
    duplicate *work*, but exactly one result is kept and returned to every
    caller), and eviction never leaves the store over capacity.
    """

    N_THREADS = 8
    ROUNDS = 25

    def test_compress_counters_consistent_and_single_object(self, rng):
        cache = OperandCache(capacity=64)
        mats = [rng.normal(size=(8, 16)) + i for i in range(4)]
        results: list[list] = [[] for _ in range(self.N_THREADS)]

        def work(i: int) -> None:
            for r in range(self.ROUNDS):
                results[i].append(cache.compress(mats[(i + r) % len(mats)], CFG))

        _hammer(self.N_THREADS, work)
        total = self.N_THREADS * self.ROUNDS
        assert cache.counters.lookups == total
        assert cache.counters.hits + cache.counters.misses == total
        assert cache.counters.evictions == 0
        # No double materialisation: every caller of a key got one object.
        by_key: dict[str, set[int]] = {}
        for i in range(self.N_THREADS):
            for r, op in enumerate(results[i]):
                key = tensor_digest(mats[(i + r) % len(mats)])
                by_key.setdefault(key, set()).add(id(op))
        assert len(by_key) == len(mats)
        assert all(len(ids) == 1 for ids in by_key.values())

    def test_eviction_hammering_never_overflows_capacity(self, rng):
        cache = OperandCache(capacity=3)
        mats = [rng.normal(size=(4, 8)) + i for i in range(8)]

        def work(i: int) -> None:
            for r in range(self.ROUNDS):
                cache.compress(mats[(i * 3 + r) % len(mats)], CFG)

        _hammer(self.N_THREADS, work)
        assert len(cache) <= 3
        total = self.N_THREADS * self.ROUNDS
        assert cache.counters.lookups == total
        assert cache.counters.evictions >= len(mats) - 3
        assert cache.counters.misses >= len(mats)

    def test_adopt_hammering_single_incumbent(self, rng):
        cache = OperandCache(capacity=16)
        matrix = rng.normal(size=(8, 16))
        digest = tensor_digest(matrix)
        candidates = [OperandCache().compress(matrix, CFG) for _ in range(self.N_THREADS)]
        winners: list[object] = [None] * self.N_THREADS

        def work(i: int) -> None:
            winners[i] = cache.adopt(digest, CFG, candidates[i])

        _hammer(self.N_THREADS, work)
        # Exactly one candidate won; every later adopter got the incumbent,
        # and adoption counted as neither hit nor miss.
        assert len({id(w) for w in winners}) == 1
        assert cache.counters.lookups == 0
        assert cache.digest_of(winners[0]) == digest

    def test_adopt_from_many_processes_serves_identically(self, rng):
        """Workers attaching one shared segment adopt + serve the same bits."""
        matrix = rng.normal(size=(8, 16)) * (rng.random((8, 16)) < 0.5)
        rhs = rng.normal(size=(16, 4))
        store, refs = SharedOperandStore.create({"matrix": matrix, "rhs": rhs})
        try:
            ref = OperandCache().compress(matrix, CFG).matmul(rhs)
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
                out, (hits, misses, evictions) = conn.recv()
                np.testing.assert_array_equal(out, ref)
                # Each worker's private cache saw exactly its own compress.
                assert (hits, misses, evictions) == (0, 1, 0)
                conn.close()
            for p in procs:
                p.join(timeout=30.0)
                assert p.exitcode == 0
        finally:
            store.unlink()
