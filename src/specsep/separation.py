"""Eigenvalue-count prediction from the separation functions h_j = u_j*g + t_j*s.

In a gap g and s are real Stieltjes transforms and increase, so each h_j
(u_j >= 0, t_j > 0) increases too, and its side of -1 is read at the gap's
two ends, from the real-branch points (g, s) that ``find_gaps`` carries on
the gap, with no solve. The counts of pairs on each side predict how many
eigenvalues of the finite matrix land below and above the gap. The
"derivation" convention, which sets every prediction, sends h_j < -1 to
eigenvalues above the gap, the mapping consistent with the y -> 0
degenerate limit h_j = -(u_j + t_j)/x; the flipped "theorem" convention is
kept only so Monte Carlo runs can show it fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import GapStateError, NotInGapError, SignConstancyError
from .solver import boundary_value
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

    def eigencounts(self, convention: str = "derivation") -> tuple[int, int]:
        """(below gap, above gap) eigenvalue counts under a convention."""
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if convention == "derivation":
            return self.count_h_above, self.count_h_below
        return self.count_h_below, self.count_h_above


def h_values(pairs, x: float, cfg: ModelConfig) -> np.ndarray:
    """u_j*Re(g) + t_j*Re(s) at a point x strictly inside a gap.

    Raises NotInGapError when the boundary pair is not real enough
    (|Im s| >= 1e-6), which signals x is not on a gap.
    """
    pair = boundary_value(float(x), cfg)
    if abs(pair.s_under.imag) >= GAP_IMAG_TOL:
        raise NotInGapError(
            f"x={x} has |Im s|={abs(pair.s_under.imag):.3e}; not inside a gap"
        )
    arr = np.asarray(pairs, dtype=np.float64)
    return arr[:, 0] * pair.g_under.real + arr[:, 1] * pair.s_under.real


def predict_counts(gap: SpectralGap, pairs) -> SeparationPrediction:
    """Count the sides of -1 that the h_j take at a gap's two ends.

    h_j = u_j*g + t_j*s is read at the gap's ``end_a`` and ``end_b`` branch
    points, which hold each h_j's min and max; a side change between them
    raises SignConstancyError. Two ends on the real branch do not otherwise
    prove one gap. A gap without finite (g, s) at both ends raises
    GapStateError. Nothing is solved.
    """
    ends = np.array([gap.end_a, gap.end_b], dtype=np.float64)
    if not np.all(np.isfinite(ends)):
        raise GapStateError(
            f"gap ({gap.a}, {gap.b}) has no finite branch point at an end: "
            f"end_a={gap.end_a}, end_b={gap.end_b}"
        )
    pairs = tuple((float(u), float(t)) for u, t in pairs)
    arr = np.asarray(pairs, dtype=np.float64)
    h_lo, h_hi = arr[:, 0] * ends[:, :1] + arr[:, 1] * ends[:, 1:]
    above = h_hi > -1.0
    crossed = (h_lo > -1.0) != above
    j = int(np.argmax(crossed))
    if crossed[j]:
        raise SignConstancyError(j, pairs[j], [float(h_lo[j]), float(h_hi[j])])

    return SeparationPrediction(
        gap=gap,
        pairs=pairs,
        h_min=tuple(h_lo),
        h_max=tuple(h_hi),
        count_h_below=int(np.count_nonzero(~above)),
        count_h_above=int(np.count_nonzero(above)),
    )
