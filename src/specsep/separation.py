"""Eigenvalue-count prediction from the separation functions h_j = u_j*g + t_j*s.

Across a gap, each pair's h_j stays on one side of -1; the counts of pairs
on each side predict how many eigenvalues of the finite matrix land below
and above the gap. Two side-mapping conventions are supported; the
default "derivation" convention sends h_j < -1 to eigenvalues above the
gap, which is the mapping consistent with the y -> 0 degenerate limit
h_j = -(u_j + t_j)/x. The alternative "theorem" convention is the flipped
mapping, kept behind a flag so Monte Carlo runs can discriminate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NotInGapError, SignConstancyError
from .solver import DEFAULT_SETTINGS, SolveSettings, boundary_value
from .spectrum import ModelConfig
from .support import GAP_IMAG_TOL, SpectralGap

CONVENTIONS = ("derivation", "theorem")


@dataclass(frozen=True)
class SeparationPrediction:
    """Side counts of the separation functions over a gap."""

    gap: SpectralGap
    pairs: tuple[tuple[float, float], ...]
    h_min: tuple[float, ...]
    h_max: tuple[float, ...]
    count_h_below: int
    count_h_above: int
    convention: str

    def eigencounts(self, convention: str | None = None) -> tuple[int, int]:
        """(below gap, above gap) eigenvalue counts under a convention."""
        conv = self.convention if convention is None else convention
        if conv not in CONVENTIONS:
            raise ValueError(f"unknown convention {conv!r}")
        if conv == "derivation":
            return self.count_h_above, self.count_h_below
        return self.count_h_below, self.count_h_above


def h_values(
    pairs,
    x: float,
    cfg: ModelConfig,
    settings: SolveSettings = DEFAULT_SETTINGS,
) -> np.ndarray:
    """u_j*Re(g) + t_j*Re(s) at a point x strictly inside a gap.

    Raises NotInGapError when the boundary pair is not real enough
    (|Im s| >= 1e-6), which signals x is not on a gap.
    """
    pair = boundary_value(float(x), cfg, settings)
    if abs(pair.s_under.imag) >= GAP_IMAG_TOL:
        raise NotInGapError(
            f"x={x} has |Im s|={abs(pair.s_under.imag):.3e}; not inside a gap"
        )
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[:, 0] * pair.g_under.real + arr[:, 1] * pair.s_under.real


def predict_counts(
    gap: SpectralGap,
    pairs,
    cfg: ModelConfig,
    settings: SolveSettings = DEFAULT_SETTINGS,
    n_samples: int = 5,
    convention: str = "derivation",
) -> SeparationPrediction:
    """Evaluate the separation functions across a gap and count the sides.

    Samples n_samples points inset from the endpoints by 1e-3 of the gap
    span (unbounded gaps are cut at a + 10) and requires each pair's sign
    relative to -1 to be constant across samples.
    """
    if n_samples < 3:
        raise ValueError(f"n_samples must be >= 3, got {n_samples}")
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    pairs = tuple((float(u), float(t)) for u, t in pairs)
    delta = 1e-3 * (gap.finite_b - gap.a)
    xs = np.linspace(gap.a + delta, gap.finite_b - delta, n_samples)

    h_rows = np.vstack([h_values(pairs, x, cfg, settings) for x in xs])
    above = h_rows > -1.0
    for j in range(len(pairs)):
        col = above[:, j]
        if not (col.all() or not col.any()):
            raise SignConstancyError(j, pairs[j], h_rows[:, j].tolist())

    count_above = int(np.count_nonzero(above[0]))
    count_below = len(pairs) - count_above
    return SeparationPrediction(
        gap=gap,
        pairs=pairs,
        h_min=tuple(np.min(h_rows, axis=0)),
        h_max=tuple(np.max(h_rows, axis=0)),
        count_h_below=count_below,
        count_h_above=count_above,
        convention=convention,
    )
