"""Autoscaler controller tests: hysteresis, cooldown, bounds, actuation.

The decision logic runs against injected signal/actuator/clock fakes, so
every scenario is deterministic — no sleeps, no load generation.  The
integration tests at the bottom drive a real engine + pool through
``scale_to`` and check the fleet (and the ``tasd_pool_target_workers``
gauge) actually moves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TASDConfig
from repro.nn import Linear, Sequential
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    Autoscaler,
    PlanExecutor,
    ProcessWorkerPool,
    ServingEngine,
    compile_plan,
)
from repro.tasder.transform import TASDTransform

CFG = TASDConfig.parse("2:4")
FAST = dict(respawn_backoff=0.01, backoff_cap=0.1, health_interval=0.05)


def _small_model():
    model = Sequential(Linear(32, 48), Linear(48, 16))
    global_magnitude_prune(model, 0.6)
    transform = TASDTransform(
        weight_configs={name: CFG for name, _ in gemm_layers(model)}
    )
    return model, transform


@pytest.fixture(scope="module")
def compiled():
    model, transform = _small_model()
    return model, compile_plan(model, transform)


class _Fake:
    """Scripted signals + recorded actuation + manual clock."""

    def __init__(self, depths, utils=None):
        self.depths = list(depths)
        self.utils = list(utils) if utils is not None else [0.0] * len(self.depths)
        self.now = 0.0
        self.scaled: list[int] = []

    def depth(self):
        return self.depths.pop(0)

    def util(self):
        return self.utils.pop(0)

    def scale(self, n):
        self.scaled.append(n)

    def scaler(self, **kwargs):
        kwargs.setdefault("min_workers", 1)
        kwargs.setdefault("max_workers", 8)
        kwargs.setdefault("high_depth", 4.0)
        kwargs.setdefault("low_depth", 1.0)
        kwargs.setdefault("breach_ticks", 3)
        kwargs.setdefault("cooldown", 10.0)
        start_at = kwargs.pop("start_at", None)
        scaler = Autoscaler(
            depth_fn=self.depth,
            util_fn=self.util,
            scale_fn=self.scale,
            clock=lambda: self.now,
            **kwargs,
        )
        if start_at is not None:
            scaler._current = start_at
        return scaler


class TestControllerLogic:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Autoscaler(depth_fn=lambda: 0, scale_fn=lambda n: None, min_workers=0)
        with pytest.raises(ValueError):
            Autoscaler(
                depth_fn=lambda: 0, scale_fn=lambda n: None,
                min_workers=4, max_workers=2,
            )
        with pytest.raises(ValueError):
            Autoscaler(
                depth_fn=lambda: 0, scale_fn=lambda n: None,
                high_depth=1.0, low_depth=2.0,
            )
        with pytest.raises(ValueError):
            Autoscaler(depth_fn=lambda: 0, scale_fn=lambda n: None, breach_ticks=0)
        with pytest.raises(ValueError):
            Autoscaler()  # no engine, no signal functions

    def test_breach_must_persist_before_scaling_up(self):
        fake = _Fake(depths=[10, 10, 10, 10])
        scaler = fake.scaler()
        assert scaler.tick() is None  # streak 1
        assert scaler.tick() is None  # streak 2
        assert scaler.tick() == "up"  # streak 3 = breach_ticks
        assert fake.scaled == [2]
        assert scaler.target == 2

    def test_single_burst_never_scales(self):
        # Depth spikes for two ticks, recovers, spikes again: the streak
        # resets every time it recovers, so nothing ever moves.
        fake = _Fake(depths=[10, 10, 2, 10, 10, 2, 10, 10])
        scaler = fake.scaler()
        for _ in range(8):
            assert scaler.tick() is None
        assert fake.scaled == []

    def test_flapping_load_holds_steady(self):
        fake = _Fake(depths=[10, 0, 10, 0, 10, 0, 10, 0])
        scaler = fake.scaler()
        for _ in range(8):
            assert scaler.tick() is None
        assert fake.scaled == []

    def test_cooldown_blocks_consecutive_resizes(self):
        fake = _Fake(depths=[10] * 10)
        scaler = fake.scaler(cooldown=10.0)
        results = [scaler.tick() for _ in range(3)]
        assert results == [None, None, "up"]
        # Sustained pressure inside the cooldown window: nothing moves...
        assert [scaler.tick() for _ in range(4)] == [None] * 4
        # ...but the streak kept advancing, so the first tick after the
        # cooldown lifts acts immediately.
        fake.now = 11.0
        assert scaler.tick() == "up"
        assert fake.scaled == [2, 3]

    def test_scale_down_requires_low_depth_and_low_util(self):
        # Depth is idle but workers are saturated: not a scale-down.
        fake = _Fake(depths=[0] * 6, utils=[0.9] * 6)
        scaler = fake.scaler(start_at=4)
        for _ in range(6):
            assert scaler.tick() is None
        assert fake.scaled == []

    def test_sustained_idle_scales_down_to_min(self):
        fake = _Fake(depths=[0] * 12, utils=[0.0] * 12)
        scaler = fake.scaler(start_at=3, cooldown=0.0)
        directions = [scaler.tick() for _ in range(12)]
        assert directions.count("down") == 2  # 3 -> 2 -> 1, then clamped
        assert fake.scaled == [2, 1]
        assert scaler.target == 1

    def test_high_utilization_alone_scales_up(self):
        fake = _Fake(depths=[0] * 3, utils=[1.0] * 3)
        scaler = fake.scaler()
        assert [scaler.tick() for _ in range(3)] == [None, None, "up"]

    def test_target_clamped_at_max_workers(self):
        fake = _Fake(depths=[10] * 6)
        scaler = fake.scaler(max_workers=2, cooldown=0.0)
        assert [scaler.tick() for _ in range(3)] == [None, None, "up"]
        # Already at the ceiling: pressure keeps building, target holds.
        assert [scaler.tick() for _ in range(3)] == [None] * 3
        assert scaler.target == 2

    def test_events_record_the_trajectory(self):
        fake = _Fake(depths=[10] * 3 + [0] * 3, utils=[0.0] * 6)
        scaler = fake.scaler(cooldown=0.0)
        for _ in range(6):
            scaler.tick()
        assert [(d, a, b) for _, d, a, b in scaler.events] == [
            ("up", 1, 2),
            ("down", 2, 1),
        ]

    def test_actuator_failure_does_not_kill_the_thread(self):
        calls = []

        def flaky_scale(n):
            calls.append(n)
            raise RuntimeError("pool mid-swap")

        fake = _Fake(depths=[10] * 100)
        scaler = Autoscaler(
            depth_fn=fake.depth,
            util_fn=fake.util,
            scale_fn=flaky_scale,
            clock=lambda: fake.now,
            breach_ticks=1,
            cooldown=0.0,
            interval=0.005,
        )
        with scaler:
            deadline = 100
            while not calls and deadline:
                import time

                time.sleep(0.01)
                deadline -= 1
        assert calls  # the loop survived at least one actuator failure


class TestEngineIntegration:
    def test_autoscaler_resizes_the_process_pool_both_ways(self, compiled):
        model, plan = compiled
        x = np.random.default_rng(4).normal(size=(2, 32))
        with ProcessWorkerPool(model, plan, workers=1, **FAST) as pool:
            with ServingEngine(pool, max_batch=4, workers=1) as engine:
                reference = engine.infer(x)
                scaler = Autoscaler(
                    engine,
                    max_workers=2,
                    breach_ticks=1,
                    cooldown=0.0,
                    depth_fn=lambda: 100.0,
                    util_fn=lambda: 0.0,
                )
                assert scaler.tick() == "up"
                assert engine.workers == 2
                assert len(pool.worker_pids()) == 2
                snap = engine.metrics_snapshot()
                assert snap["tasd_pool_target_workers"]["series"][0]["value"] == 2.0
                assert (
                    snap["tasd_pool_scale_events_total"]["series"][0]["value"] >= 1.0
                )
                idle = Autoscaler(
                    engine,
                    min_workers=1,
                    max_workers=2,
                    breach_ticks=1,
                    cooldown=0.0,
                    depth_fn=lambda: 0.0,
                    util_fn=lambda: 0.0,
                )
                assert idle.tick() == "down"
                assert len(pool.worker_pids()) == 1
                np.testing.assert_allclose(engine.infer(x), reference)

    def test_pool_scale_to_is_rejected_before_install(self, compiled):
        model, plan = compiled
        pool = ProcessWorkerPool(model, plan, workers=1, **FAST)
        # Not installed yet: the resize is recorded as the target strength
        # and applied by install(), not performed against a dead pool.
        assert pool.scale_to(2) == 1
        with pool:
            assert len(pool.worker_pids()) == 2
