"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property tests snappy and deterministic in CI-like runs.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fig4_matrix() -> np.ndarray:
    """The worked 2x8 example of Fig. 4."""
    return np.array(
        [
            [1, 3, 0, 0, 2, 4, 4, 1],
            [2, 0, 0, 0, 0, 3, 1, 4],
        ],
        dtype=float,
    )


@pytest.fixture
def fresh_native(tmp_path, monkeypatch):
    """A process that has not loaded the native gather-MAC, with an empty
    kernel cache under ``tmp_path``; returns that cache directory."""
    from repro.core import native

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_state", None)
    return tmp_path / "cache" / "repro"
