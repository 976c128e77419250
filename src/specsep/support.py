"""Support analysis: density, real-branch parametrization, and gap detection.

Outside the support, the solution triple (g, s(g), x(g)) moves along a real
branch where x is the inverse map of the transform pair. Points with
dx/dg > 0 lie in the complement of the support; stationary points of x are
support edges. Gaps are found by sweeping g, grouping dx/dg > 0 runs with
a consistent atom-denominator sign pattern, and refining run boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import _kernels as K
from .exceptions import (
    BracketError,
    CoarseGridError,
    ContinuationError,
    GapTrackingError,
    PoleError,
)
from .solver import DEFAULT_SETTINGS, SolveSettings, boundary_value
from .spectrum import JointSpectrum, ModelConfig, spectrum_arrays

DEFAULT_G_BOUND = 1e4
DEFAULT_G_INNER = 1e-6
DEFAULT_N_GRID = 4000

ROOT_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class RealBranch:
    """One point of the real-axis solution branch."""

    g: float
    s: float
    x: float
    dx_dg: float


@dataclass(frozen=True)
class SpectralGap:
    """Open interval (a, b) outside the support, with parameter preimages.

    b may be math.inf for the gap above the support; g_a is -inf when the
    lower endpoint is the clamped origin reached as g -> -inf.
    """

    a: float
    b: float
    g_a: float
    g_b: float
    y: float

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.b)


@dataclass(frozen=True)
class DensityCurve:
    """Density of the limiting spectral distribution on a grid.

    ``failed`` holds the indices whose continuation failed (NaN rows);
    ``vmin_fallbacks`` those whose real-axis polish failed, so the row
    holds the pair at z = x + i*v_min instead of the limit on the axis.
    """

    grid: np.ndarray
    f: np.ndarray
    s_under: np.ndarray
    g_under: np.ndarray
    y: float
    spectrum: JointSpectrum
    failed: tuple[int, ...] = field(default=())
    vmin_fallbacks: tuple[int, ...] = field(default=())

    def mass(self) -> float:
        """Trapezoid mass over the grid, skipping failed points."""
        ok = np.isfinite(self.f)
        return float(np.trapezoid(self.f[ok], self.grid[ok]))


def solve_s_given_g(g: float, cfg: ModelConfig) -> float:
    """Real solution s of the coupling constraint on the branch through s = g.

    The branch is pinned by continuity: when the u-moment of the spectrum
    vanishes the constraint degenerates to s = g, so the root nearest to g
    inside its pole-free interval is returned.
    """
    if g == 0.0:
        raise ValueError("the real branch is parametrized by g != 0")
    u, t, w = spectrum_arrays(cfg.spectrum)
    s, res, status = K.solve_s(float(g), u, t, w, cfg.y, float(g))
    if status != K.OK:
        raise BracketError(f"no sign change bracketing a root at g={g} (status {status})")
    if res > ROOT_RESIDUAL_TOL:
        raise BracketError(f"root residual {res:.3e} above {ROOT_RESIDUAL_TOL} at g={g}")
    return float(s)


def x_of_g(g: float, cfg: ModelConfig) -> RealBranch:
    """Full real-branch point at g: s, x, and the analytic dx/dg."""
    if g == 0.0:
        raise ValueError("the real branch is parametrized by g != 0")
    u, t, w = spectrum_arrays(cfg.spectrum)
    s, x, dx_dg, _min_ad, status = K.branch(float(g), u, t, w, cfg.y, float(g))
    if status == K.NO_BRACKET:
        raise BracketError(f"no sign change bracketing a root at g={g}")
    if status == K.POLE:
        raise PoleError(f"atom denominator vanished on the real branch at g={g}")
    if status == K.SINGULAR:
        raise PoleError(f"implicit derivative singular at g={g}")
    return RealBranch(g=float(g), s=float(s), x=float(x), dx_dg=float(dx_dg))


def _log_grid(lo_abs: float, hi_abs: float, n: int, sign: float) -> np.ndarray:
    grid = sign * np.logspace(np.log10(lo_abs), np.log10(hi_abs), n)
    return np.sort(grid)


def _sign_rows_match(den_a: np.ndarray, den_b: np.ndarray) -> bool:
    return bool(np.all(np.sign(den_a) == np.sign(den_b)))


def _refine_stationary(g_left, g_right, u, t, w, y):
    """Root of dx/dg on a bracketing cell, via Brent on the branch kernel."""

    def dxdg(g):
        _s, _x, d, _m, status = K.branch(float(g), u, t, w, y, float(g))
        if status != K.OK:
            raise CoarseGridError(
                f"branch evaluation failed at g={g} while refining; raise n_grid"
            )
        return d

    try:
        g_star = brentq(dxdg, g_left, g_right, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    except ValueError as exc:
        raise CoarseGridError(
            f"no derivative sign change inside [{g_left}, {g_right}]; raise n_grid"
        ) from exc
    return float(g_star)


def find_gaps(
    cfg: ModelConfig,
    g_lo: float = -DEFAULT_G_BOUND,
    g_hi: float = DEFAULT_G_BOUND,
    n_grid: int = DEFAULT_N_GRID,
) -> list[SpectralGap]:
    """All support gaps on the positive axis, sorted by lower endpoint.

    Sweeps g over log-spaced grids on (g_lo, 0) and (0, g_hi), keeps
    maximal runs where dx/dg > 0 with a per-atom constant denominator
    sign, refines finite run boundaries to stationary points of x, clamps
    the gap reached as g -> -inf to a = 0 (y < 1), and maps the run ending
    at g -> 0- to the unbounded gap (sup of support, +inf).
    """
    if n_grid < 100:
        raise ValueError(f"n_grid must be >= 100, got {n_grid}")
    if not (g_lo < 0 < g_hi):
        raise ValueError("need g_lo < 0 < g_hi")
    u, t, w = spectrum_arrays(cfg.spectrum)
    y = cfg.y

    gaps: list[SpectralGap] = []
    for sign, bound in ((-1.0, abs(g_lo)), (1.0, abs(g_hi))):
        gs = _log_grid(DEFAULT_G_INNER, bound, n_grid, sign)
        s_arr, x_arr, dx_arr, status, den = K.sweep(gs, u, t, w, y)
        good = (status == K.OK) & (dx_arr > 0.0)

        runs = []
        start = None
        for i in range(len(gs)):
            if good[i] and start is None:
                start = i
            elif start is not None and (
                not good[i] or not _sign_rows_match(den[i - 1], den[i])
            ):
                runs.append((start, i - 1))
                start = i if good[i] else None
        if start is not None:
            runs.append((start, len(gs) - 1))

        for i0, i1 in runs:
            if i1 - i0 < 1:
                continue
            at_lower_boundary = i0 == 0
            at_upper_boundary = i1 == len(gs) - 1

            if at_lower_boundary:
                g_a, a = gs[i0], x_arr[i0]
            elif status[i0 - 1] == K.OK and dx_arr[i0 - 1] <= 0.0 and _sign_rows_match(den[i0 - 1], den[i0]):
                g_a = _refine_stationary(gs[i0 - 1], gs[i0], u, t, w, y)
                a = x_of_g(g_a, cfg).x
            else:
                g_a, a = gs[i0], x_arr[i0]

            if at_upper_boundary:
                g_b, b = gs[i1], x_arr[i1]
            elif status[i1 + 1] == K.OK and dx_arr[i1 + 1] <= 0.0 and _sign_rows_match(den[i1], den[i1 + 1]):
                g_b = _refine_stationary(gs[i1], gs[i1 + 1], u, t, w, y)
                b = x_of_g(g_b, cfg).x
            else:
                g_b, b = gs[i1], x_arr[i1]

            if sign < 0 and at_lower_boundary and y < 1.0 and 0.0 < a:
                # branch runs out to g -> -inf where x -> 0+; no mass at zero
                a, g_a = 0.0, -math.inf
            if sign < 0 and at_upper_boundary and b > 0.0:
                # x -> +inf as g -> 0-; the gap above the support
                b, g_b = math.inf, 0.0

            if b <= 0.0:
                continue
            a = max(a, 0.0)
            if not b > a:
                continue
            gaps.append(SpectralGap(a=float(a), b=float(b), g_a=float(g_a), g_b=float(g_b), y=y))

    gaps.sort(key=lambda gap: gap.a)
    merged: list[SpectralGap] = []
    for gap in gaps:
        if merged and gap.a < merged[-1].b:
            prev = merged[-1]
            merged[-1] = SpectralGap(
                a=min(prev.a, gap.a),
                b=max(prev.b, gap.b),
                g_a=prev.g_a if prev.a <= gap.a else gap.g_a,
                g_b=prev.g_b if prev.b >= gap.b else gap.g_b,
                y=gap.y,
            )
        else:
            merged.append(gap)
    return merged


def density(
    cfg: ModelConfig,
    grid,
    settings: SolveSettings = DEFAULT_SETTINGS,
) -> DensityCurve:
    """Density of the limiting distribution of the p x p matrix on a grid.

    The boundary imaginary part gives the companion density; dividing by y
    converts to the density of the p-dimensional spectrum (the companion
    law carries an extra point mass (1-y) at zero). Failed points are
    flagged and reported as NaN, not fatal; points that kept their v_min
    pair are flagged too.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid == 0.0):
        raise ValueError("density grid must avoid x = 0")
    f = np.empty_like(grid)
    s_vals = np.empty(grid.shape, dtype=np.complex128)
    g_vals = np.empty(grid.shape, dtype=np.complex128)
    failed = []
    vmin_fallbacks = []
    for i, x in enumerate(grid):
        try:
            pair = boundary_value(float(x), cfg, settings)
        except ContinuationError:
            failed.append(i)
            f[i] = np.nan
            s_vals[i] = np.nan
            g_vals[i] = np.nan
            continue
        if pair.z.imag > 0.0:
            vmin_fallbacks.append(i)
        s_vals[i] = pair.s_under
        g_vals[i] = pair.g_under
        f[i] = max(0.0, pair.s_under.imag / (cfg.y * np.pi))
    return DensityCurve(
        grid=grid, f=f, s_under=s_vals, g_under=g_vals,
        y=cfg.y, spectrum=cfg.spectrum, failed=tuple(failed),
        vmin_fallbacks=tuple(vmin_fallbacks),
    )


def _select_gap(gaps: list[SpectralGap], gap_selector) -> SpectralGap:
    if callable(gap_selector):
        chosen = gap_selector(gaps)
        if chosen is None:
            raise GapTrackingError("gap selector matched no gap")
        return chosen
    return gaps[int(gap_selector)]


def _match_gap(gaps: list[SpectralGap], ref: SpectralGap, y: float) -> SpectralGap:
    """Continuity-based match: the candidate overlapping the reference most.

    Endpoints move continuously in y, so across a reasonable step the same
    gap intersects its predecessor; growth of the interval is expected and
    must not break the match.
    """
    best = None
    best_overlap = 0.0
    for gap in gaps:
        if gap.unbounded != ref.unbounded:
            continue
        cap = max(abs(ref.a), abs(gap.a), 1.0) * 10.0
        overlap = min(gap.b, ref.b, cap) - max(gap.a, ref.a)
        if overlap > best_overlap:
            best, best_overlap = gap, overlap
    if best is None:
        raise GapTrackingError(
            f"tracked gap lost continuity at y={y}: no overlapping gap of the same kind"
        )
    return best


def gap_vs_y(
    spectrum: JointSpectrum,
    y_values,
    gap_selector,
    g_lo: float = -DEFAULT_G_BOUND,
    g_hi: float = DEFAULT_G_BOUND,
    n_grid: int = DEFAULT_N_GRID,
) -> list[SpectralGap]:
    """Track one gap across strictly decreasing aspect ratios.

    Asserts the tracked width strictly increases as y decreases for finite
    gaps, and that the finite lower endpoint of the unbounded gap strictly
    decreases. Raises GapTrackingError when the gap closes, jumps, or
    violates monotonicity at some step.
    """
    y_values = list(y_values)
    if any(not (0.0 < y <= 1.0) for y in y_values):
        raise ValueError("y values must lie in (0, 1]")
    if any(b >= a for a, b in zip(y_values, y_values[1:])):
        raise ValueError("y values must be strictly decreasing")

    tracked: list[SpectralGap] = []
    current = _select_gap(find_gaps(ModelConfig(spectrum, y_values[0]), g_lo, g_hi, n_grid), gap_selector)
    tracked.append(current)
    for y in y_values[1:]:
        gaps = find_gaps(ModelConfig(spectrum, y), g_lo, g_hi, n_grid)
        nxt = _match_gap(gaps, current, y)
        if current.unbounded:
            if not nxt.a < current.a:
                raise GapTrackingError(
                    f"lower endpoint of the unbounded gap failed to decrease at y={y}: "
                    f"{current.a} -> {nxt.a}"
                )
        else:
            if not nxt.width > current.width:
                raise GapTrackingError(
                    f"gap width failed to increase at y={y}: {current.width} -> {nxt.width}"
                )
        tracked.append(nxt)
        current = nxt
    return tracked
