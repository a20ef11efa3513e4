"""Tests for TASD series configs and the Table 2 menu (repro.core.series)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.patterns import NMPattern, pattern_view
from repro.core.series import DENSE_CONFIG, TASDConfig, compose_menu, menu_table


class TestTASDConfig:
    def test_parse_two_terms(self):
        cfg = TASDConfig.parse("4:8+1:8")
        assert cfg.order == 2
        assert cfg.patterns == (NMPattern(4, 8), NMPattern(1, 8))

    def test_parse_dense(self):
        assert TASDConfig.parse("dense").is_dense
        assert TASDConfig.parse("dense") == DENSE_CONFIG

    def test_str_roundtrip(self):
        for text in ("2:4", "4:8+1:8", "2:4+2:8+2:16", "dense"):
            assert str(TASDConfig.parse(text)) == text

    def test_density_sums_terms(self):
        assert TASDConfig.parse("4:8+1:8").density == pytest.approx(0.625)
        assert TASDConfig.parse("2:4").density == pytest.approx(0.5)
        assert DENSE_CONFIG.density == 1.0

    def test_density_capped_at_one(self):
        assert TASDConfig.parse("4:8+4:8+4:8").density == 1.0

    def test_effective_pattern_same_m(self):
        assert TASDConfig.parse("2:8+1:8").effective_pattern == NMPattern(3, 8)
        assert TASDConfig.parse("4:8+2:8").effective_pattern == NMPattern(6, 8)

    def test_effective_pattern_mixed_m_is_none(self):
        assert TASDConfig.parse("2:4+2:8").effective_pattern is None

    def test_effective_pattern_equivalence(self, rng):
        """A same-M series view equals the single effective-pattern view."""
        x = rng.normal(size=(6, 32))
        series = TASDConfig.parse("2:8+1:8")
        assert np.allclose(series.view(x), pattern_view(x, NMPattern(3, 8)))

    def test_dense_view_identity(self, rng):
        x = rng.normal(size=(3, 8))
        assert np.array_equal(DENSE_CONFIG.view(x), x)

    def test_single_constructor(self):
        assert TASDConfig.single(2, 4) == TASDConfig.parse("2:4")

    def test_rejects_non_pattern(self):
        with pytest.raises(TypeError):
            TASDConfig(("2:4",))  # type: ignore[arg-type]

    def test_hashable(self):
        assert len({TASDConfig.parse("2:4"), TASDConfig.parse("2:4")}) == 1


class TestComposeMenu:
    def test_table2_exact(self):
        """The derived menu must reproduce Table 2 row for row."""
        menu = compose_menu(
            [NMPattern(1, 8), NMPattern(2, 8), NMPattern(4, 8)], max_terms=2
        )
        rows = dict(menu_table(menu, m=8))
        assert rows == {
            "1:8": "1:8",
            "2:8": "2:8",
            "3:8": "2:8+1:8",
            "4:8": "4:8",
            "5:8": "4:8+1:8",
            "6:8": "4:8+2:8",
            "7:8": "-",
            "8:8": "Dense",
        }

    def test_m4_menu(self):
        menu = compose_menu([NMPattern(1, 4), NMPattern(2, 4)], max_terms=2)
        rows = dict(menu_table(menu, m=4))
        assert rows == {"1:4": "1:4", "2:4": "2:4", "3:4": "2:4+1:4", "4:4": "Dense"}

    def test_single_term_menu(self):
        menu = compose_menu([NMPattern(2, 4)], max_terms=1)
        densities = sorted(menu)
        assert densities == [0.5, 1.0]

    def test_three_terms_covers_7_of_8(self):
        menu = compose_menu(
            [NMPattern(1, 8), NMPattern(2, 8), NMPattern(4, 8)], max_terms=3
        )
        rows = dict(menu_table(menu, m=8))
        assert rows["7:8"] == "4:8+2:8+1:8"

    def test_prefers_fewer_terms(self):
        menu = compose_menu([NMPattern(1, 8), NMPattern(2, 8)], max_terms=2)
        # density 0.25 is reachable as 2:8 (1 term) or 1:8+1:8 (2 terms)
        assert menu[0.25].order == 1

    def test_no_dense_option(self):
        menu = compose_menu([NMPattern(2, 4)], max_terms=1, include_dense=False)
        assert 1.0 not in menu

    def test_zero_pattern_rejected(self):
        with pytest.raises(ValueError):
            compose_menu([NMPattern(0, 4)])


@given(st.integers(min_value=1, max_value=3))
def test_property_menu_entries_within_budget(max_terms):
    menu = compose_menu(
        [NMPattern(1, 8), NMPattern(2, 8), NMPattern(4, 8)], max_terms=max_terms
    )
    for density, config in menu.items():
        assert config.order <= max_terms
        assert config.density == pytest.approx(density)


# Signed zeros, infinities and NaN are where two spellings of one view can
# differ; the quantised values tie often.
SPECIAL_VALUES = st.sampled_from(
    [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan]
)
PATTERNS = st.sampled_from([1, 2, 4, 8]).flatmap(
    lambda m: st.integers(0, m).map(lambda n: NMPattern(n, m))
)


@st.composite
def series_and_tensor(draw):
    """A series of 1-3 terms (all-dense ones included) and a tensor whose
    last axis is a whole number of the series' blocks."""
    if draw(st.booleans()):
        config = TASDConfig.parse(draw(st.sampled_from(["4:4", "2:2+2:2", "8:8+1:8", "2:2+4:4"])))
    else:
        config = TASDConfig(tuple(draw(st.lists(PATTERNS, min_size=1, max_size=3))))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = (draw(st.integers(1, 3)), config.block_lcm * draw(st.integers(1, 3)))
    return config, draw(hnp.arrays(dtype, shape, elements=SPECIAL_VALUES.map(dtype)))


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


@given(series_and_tensor())
def test_property_view_is_reconstruct_bit_for_bit(data):
    """Both spellings of a series view agree on every bit, NaN, signed
    zeros and infinities included, whatever the series."""
    config, x = data
    with np.errstate(invalid="ignore"):  # inf - inf in the greedy residual
        expected = config.apply(x).reconstruct()
    assert_same_bits(config.view(x), expected)


def test_all_dense_series_view_drops_nan_and_negative_zero():
    x = np.array([[np.nan, -0.0, -np.inf, 3.0]])
    expected = np.array([[0.0, 0.0, -np.inf, 3.0]])
    for text in ("4:4", "2:2+2:2"):
        assert_same_bits(TASDConfig.parse(text).view(x), expected)
    assert DENSE_CONFIG.view(x) is x  # no decomposition at all
