"""TASD series configurations and the hardware pattern menu (Table 2).

A :class:`TASDConfig` names a fixed sequence of N:M patterns — the series a
layer will be decomposed with.  :func:`compose_menu` derives the *effective*
sparsity menu a structured accelerator exposes once TASD is layered on top:
e.g. native {1:8, 2:8, 4:8} support plus two TASD terms yields effective
3:8 (= 2:8 + 1:8), 5:8 (= 4:8 + 1:8) and 6:8 (= 4:8 + 2:8), exactly Table 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .decompose import Decomposition, decompose
from .patterns import NMPattern, pattern_view

__all__ = ["TASDConfig", "DENSE_CONFIG", "compose_menu", "menu_table"]


@dataclass(frozen=True)
class TASDConfig:
    """An ordered, immutable TASD series configuration.

    ``TASDConfig.parse("4:8+1:8")`` builds the two-term series from Fig. 10.
    An empty configuration means "dense" (no decomposition, no compute
    savings); it is always an admissible choice for TASDER.
    """

    patterns: tuple[NMPattern, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", tuple(self.patterns))
        for p in self.patterns:
            if not isinstance(p, NMPattern):
                raise TypeError(f"expected NMPattern, got {type(p).__name__}")

    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Number of terms in the series."""
        return len(self.patterns)

    # The series is immutable, so the derived properties the per-request
    # TASD-A path reads are computed once (cached_property writes the
    # instance __dict__ directly, which a frozen dataclass allows).
    @cached_property
    def is_dense(self) -> bool:
        """True for the no-decomposition configuration."""
        return self.order == 0 or all(p.is_dense for p in self.patterns)

    @property
    def density(self) -> float:
        """Fraction of MACs executed relative to dense (``Σ n_i / m_i``).

        This is the compute-cost model of Section 3.2: each term runs one
        structured GEMM at its own ``n/m`` cost.  Capped at 1.0 — a series
        denser than dense would never be selected.
        """
        if self.order == 0:
            return 1.0
        return min(1.0, sum(p.density for p in self.patterns))

    @property
    def approximated_sparsity(self) -> float:
        """Sparsity degree of the series view (``1 - density``), Fig. 14's x-axis."""
        return 1.0 - self.density

    @cached_property
    def block_lcm(self) -> int:
        """Least common multiple of the series' block sizes.

        The padding granule: a tensor axis zero-padded to a multiple of this
        is block-aligned for every term of the series.
        """
        return int(np.lcm.reduce([p.m for p in self.patterns])) if self.patterns else 1

    @cached_property
    def effective_pattern(self) -> NMPattern | None:
        """The single N:M pattern this series is exactly equivalent to, if any.

        A series whose terms share one block size ``M`` extracts, in total,
        the ``Σ n_i`` largest-magnitude elements per block — identical to a
        single ``(Σ n_i):M`` view (greedy top-k extraction nests).  Mixed
        block sizes have no such equivalent and return ``None``.
        """
        if self.order == 0:
            return None
        ms = {p.m for p in self.patterns}
        if len(ms) != 1:
            return None
        m = ms.pop()
        n = min(m, sum(p.n for p in self.patterns))
        return NMPattern(n, m)

    # ------------------------------------------------------------------ #
    def apply(self, x: np.ndarray, axis: int = -1) -> Decomposition:
        """Decompose ``x`` with this series (dense config leaves a dense term out)."""
        return decompose(x, self.patterns, axis=axis)

    def view(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """The approximation of ``x`` under this series (``Σ Ai``).

        The empty configuration (no decomposition) returns ``x`` unchanged.
        Every series of one or more terms equals ``apply(x).reconstruct()``
        bit for bit, all-dense ones (``4:4``, ``2:2+2:2``) included: NaN
        and zeros are never kept, so both come out as ``+0.0``.  A series
        with one block size is a single
        :func:`~repro.core.patterns.pattern_view` under its
        :attr:`effective_pattern`, whose kept values are copied, never
        summed; mixed block sizes take the greedy term-by-term path.
        """
        if self.order == 0:
            return np.asarray(x)
        effective = self.effective_pattern
        if effective is not None:
            return pattern_view(x, effective, axis=axis)
        return self.apply(x, axis=axis).reconstruct()

    # ------------------------------------------------------------------ #
    def __str__(self) -> str:
        if self.order == 0:
            return "dense"
        return "+".join(str(p) for p in self.patterns)

    @classmethod
    def parse(cls, text: str) -> "TASDConfig":
        """Parse ``"4:8+1:8"`` / ``"2:4"`` / ``"dense"`` notation."""
        text = text.strip().lower()
        if text in ("dense", ""):
            return cls(())
        return cls(tuple(NMPattern.parse(part) for part in text.split("+")))

    @classmethod
    def single(cls, n: int, m: int) -> "TASDConfig":
        """Convenience constructor for a one-term series."""
        return cls((NMPattern(n, m),))


DENSE_CONFIG = TASDConfig(())


# ---------------------------------------------------------------------- #
# Table 2: effective pattern menu of a structured accelerator with TASD
# ---------------------------------------------------------------------- #
def compose_menu(
    native_patterns: Sequence[NMPattern] | Iterable[NMPattern],
    max_terms: int = 2,
    include_dense: bool = True,
) -> dict[float, TASDConfig]:
    """Effective sparsity menu from composing up to ``max_terms`` native patterns.

    Parameters
    ----------
    native_patterns : sequence of NMPattern
        Patterns the hardware supports losslessly (e.g. VEGETA: 1:8, 2:8, 4:8).
    max_terms : int
        TASD series length limit (the paper uses 2).
    include_dense : bool
        Whether the dense fallback appears in the menu (it always exists on
        the accelerators modelled here).

    Returns
    -------
    dict mapping *density* (Σ n_i/m_i, rounded to 6 decimals) to the cheapest
    TASDConfig achieving it.  When several configurations reach the same
    density, the one with fewer terms wins; ties break toward extracting the
    densest pattern first (which minimises per-term residual magnitude).
    """
    native = sorted(set(native_patterns), key=lambda p: (-p.density, p.m))
    if any(p.n == 0 for p in native):
        raise ValueError("a 0:M pattern cannot be a native hardware pattern")
    menu: dict[float, TASDConfig] = {}

    def consider(config: TASDConfig) -> None:
        density = round(config.density, 6)
        if density >= 1.0 and not config.is_dense:
            return  # no cheaper than dense; never useful
        incumbent = menu.get(density)
        if incumbent is None or config.order < incumbent.order:
            menu[density] = config

    if include_dense:
        menu[1.0] = DENSE_CONFIG
    for n_terms in range(1, max_terms + 1):
        # combinations_with_replacement over patterns sorted densest-first
        # keeps the canonical "densest term first" ordering of the paper.
        for combo in itertools.combinations_with_replacement(native, n_terms):
            consider(TASDConfig(tuple(combo)))
    return menu


def menu_table(menu: Mapping[float, TASDConfig], m: int | None = None) -> list[tuple[str, str]]:
    """Render a menu as (effective pattern, TASD series) rows like Table 2.

    When ``m`` is given, rows are labelled ``k:m`` for every k in 1..m, with
    ``-`` marking unsupported effective patterns (7:8 in the paper's table).
    """
    rows: list[tuple[str, str]] = []
    if m is None:
        for density in sorted(menu):
            rows.append((f"{density:.3f}", str(menu[density])))
        return rows
    by_density = {round(k, 6): v for k, v in menu.items()}
    for k in range(1, m + 1):
        density = round(k / m, 6)
        config = by_density.get(density)
        if config is None:
            rows.append((f"{k}:{m}", "-"))
        elif config.is_dense:
            rows.append((f"{k}:{m}", "Dense"))
        else:
            rows.append((f"{k}:{m}", str(config)))
    return rows
