"""Support analysis: density, real-branch parametrization, and gap detection.

Outside the support, the solution triple (g, s(g), x(g)) moves along a real
branch where x is the inverse map of the transform pair. Points with
dx/dg > 0 on that branch lie in the complement of the support; stationary
points of x are support edges. Gaps are found by one sweep over a g grid
on both sides of 0, runs of admissible points with a consistent
atom-denominator sign pattern, found with numpy, and refinement of the run
ends.

The sweep (``_kernels.sweep``) takes every real root of the coupling
constraint at each grid point and keeps the admissible one: in a gap, g(x)
and s(x) are real Stieltjes transforms, so dx/dg > 0, s'(g) > 0 and the
Cauchy-Schwarz bounds g'(x) >= g^2 and s'(x) >= s^2 hold there. Which root
Newton would reach from some start plays no part. A run end at an end of
the grid is set by its index alone (``find_gaps``); every other run end is
refined inside the cell to its grid neighbour by one routine,
``_refine_edge``: bisection on the same four tests (``_kernels.admissible``),
each point solved by one scalar Newton solve (``_kernels.branch``) seeded on
the tangent at the last admissible point, so an edge at a stationary point
of x and one next to a fold are found alike. Each reported gap is then
checked once against ``boundary_value`` at its midpoint; a pair that is not
real there raises NotInGapError. The four tests are necessary conditions,
measured but not proved sufficient, and the check catches only a reported
gap whose midpoint lies in the support: it cannot see a wrong edge of a gap
whose midpoint is right, nor a gap that was not reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as K
from .exceptions import (
    BracketError,
    ContinuationError,
    GapTrackingError,
    NotInGapError,
    PoleError,
)
from .solver import boundary_value
from .spectrum import JointSpectrum, ModelConfig

DEFAULT_G_BOUND = 1e4
DEFAULT_G_INNER = 1e-6
DEFAULT_N_GRID = 4000

ROOT_RESIDUAL_TOL = 1e-12
# Every refined edge is located to this relative accuracy in g.
EDGE_RTOL = 1e-12
# A boundary pair with |Im s| at or above this is not inside a gap.
GAP_IMAG_TOL = 1e-6
# Unbounded gaps (a, inf) are sampled on (a, a + UNBOUNDED_SPAN).
UNBOUNDED_SPAN = 10.0


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

    end_a and end_b are the real-branch points (g, s) that ``find_gaps``
    holds at the two ends of the gap's run: the last admissible point of a
    refined edge, else the grid point the run ends on. At a clamped end that
    grid point is g = -DEFAULT_G_BOUND (a = 0) or g = -DEFAULT_G_INNER
    (b = inf), not the limit g_a = -inf or g_b = 0.
    """

    a: float
    b: float
    g_a: float
    g_b: float
    y: float
    end_a: tuple[float, float]
    end_b: tuple[float, float]

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.b)

    @property
    def finite_b(self) -> float:
        """b, or the proxy end a + UNBOUNDED_SPAN of the unbounded gap."""
        return self.a + UNBOUNDED_SPAN if self.unbounded else self.b


@dataclass(frozen=True)
class DensityCurve:
    """Density of the limiting spectral distribution on a grid.

    ``failed`` holds the indices whose continuation failed (NaN rows);
    ``vmin_fallbacks`` those whose real-axis polish failed, so the row
    holds the pair at z = x + i*V_MIN instead of the limit on the axis;
    ``cold_starts`` those after the first whose top rung was solved cold,
    because the Newton solve from the previous point's top rung did not
    hold or no earlier point had given one.
    """

    grid: np.ndarray
    f: np.ndarray
    s_under: np.ndarray
    g_under: np.ndarray
    y: float
    spectrum: JointSpectrum
    failed: tuple[int, ...] = field(default=())
    vmin_fallbacks: tuple[int, ...] = field(default=())
    cold_starts: tuple[int, ...] = field(default=())

    def mass(self) -> float:
        """Trapezoid mass over the grid, skipping failed points."""
        ok = np.isfinite(self.f)
        return float(np.trapezoid(self.f[ok], self.grid[ok]))


def solve_s_given_g(g: float, cfg: ModelConfig) -> float:
    """Real solution s of the coupling constraint on the branch through s = g.

    The branch is pinned by continuity: when the u-moment of the spectrum
    vanishes the constraint degenerates to s = g. This is one cold Newton
    solve from that pin, inside its pole-free interval; it raises
    BracketError when Newton leaves the interval or stalls (past a fold of
    the branch), or when |phi| at the root exceeds ROOT_RESIDUAL_TOL.
    Far from the pin the root Newton reaches need not be the boundary
    value; ``find_gaps`` instead takes every real root and keeps the
    admissible one.
    """
    if g == 0.0:
        raise ValueError("the real branch is parametrized by g != 0")
    u, t, w = cfg.spectrum.columns
    g = float(g)
    s, _res, status = K.solve_s(g, u, t, w, cfg.y, g)
    if status != K.OK:
        raise BracketError(f"no real root on the branch from s = g at g={g} (status {status})")
    res = abs(K.phi(g, s, u, t, w, cfg.y))
    if res > ROOT_RESIDUAL_TOL:
        raise BracketError(f"root residual {res:.3e} above {ROOT_RESIDUAL_TOL} at g={g}")
    return float(s)


def x_of_g(g: float, cfg: ModelConfig) -> RealBranch:
    """Full real-branch point at g: s, x, and the analytic dx/dg.

    Like ``solve_s_given_g``, one cold solve from the pin s = g.
    """
    if g == 0.0:
        raise ValueError("the real branch is parametrized by g != 0")
    u, t, w = cfg.spectrum.columns
    s, x, dx_dg, _ds_dg, status = K.branch(float(g), u, t, w, cfg.y, float(g))
    if status == K.NO_BRACKET:
        raise BracketError(f"no real root on the branch from s = g at g={g}")
    if status == K.POLE:
        raise PoleError(f"atom denominator vanished on the real branch at g={g}")
    if status == K.SINGULAR:
        raise PoleError(f"implicit derivative singular at g={g}")
    return RealBranch(g=float(g), s=float(s), x=float(x), dx_dg=float(dx_dg))


def _refine_edge(g_end, s_end, g_next, u, t, w, y):
    """Edge between the run end g_end and its grid neighbour g_next outside the run.

    Bisection on admissibility: g is inside the run when ``K.branch``, seeded
    on the tangent at the last point inside, returns OK with a root that
    ``K.admissible`` admits and that keeps the run end's denominator signs.
    Admissibility ends where dx/dg = 0, also next to a fold (on the way to
    one s' -> +inf and dx/dg -> -inf). Returns (g, x) of the last point
    inside once the cell is below EDGE_RTOL relative in g; x is stationary
    there, so exact to rounding.
    """
    g_in, s_in, g_out = float(g_end), float(s_end), float(g_next)
    x_in, _dx, ds_in, _phi_s = K.branch_terms(g_in, s_in, u, t, w, y)
    signs = [1.0 + u_k * g_in + t_k * s_in > 0.0 for u_k, t_k in zip(u, t)]
    while abs(g_out - g_in) > EDGE_RTOL * abs(g_in):
        g = 0.5 * (g_in + g_out)
        s, x, dx_dg, ds_dg, status = K.branch(g, u, t, w, y, s_in + ds_in * (g - g_in))
        inside = status == K.OK and K.admissible(g, s, dx_dg, ds_dg)
        if inside and signs == [1.0 + u_k * g + t_k * s > 0.0 for u_k, t_k in zip(u, t)]:
            g_in, s_in, x_in, ds_in = g, s, x, ds_dg
        else:
            g_out = g
    return g_in, s_in, x_in


def _check_gap(gap: SpectralGap, cfg: ModelConfig) -> None:
    """Raise NotInGapError unless the boundary pair is real mid-gap."""
    x = 0.5 * (gap.a + gap.finite_b)
    pair = boundary_value(x, cfg)
    if abs(pair.s_under.imag) >= GAP_IMAG_TOL:
        raise NotInGapError(
            f"reported gap ({gap.a}, {gap.b}) has |Im s|={abs(pair.s_under.imag):.3e} "
            f"at x={x}; it is not a gap"
        )


def find_gaps(cfg: ModelConfig, n_grid: int = DEFAULT_N_GRID) -> list[SpectralGap]:
    """All support gaps on the positive axis, in increasing order.

    Sweeps g once (``K.sweep``) over n_grid log-spaced points on each side
    of 0, from DEFAULT_G_INNER to DEFAULT_G_BOUND in |g|, negative half
    first. A run is a maximal stretch of at least two consecutive admissible
    points on one side of 0 whose atom denominators keep their signs. Each
    run end is classified by its grid index: the run reaching g = -bound is
    clamped to a = 0 (x -> 0+ as g -> -inf), the run reaching g -> 0- gives
    the unbounded gap (b = +inf), the ends of the positive half stay at
    their grid points, and every other end is refined (``_refine_edge``) to
    the stationary point of x where admissibility ends, to EDGE_RTOL
    relative in g, by scalar ``K.branch`` solves. Each gap carries the
    branch point (g, s) at the two ends of its run as ``end_a`` and
    ``end_b``: the refined point, or at an end set by its index the grid
    point's own root, never a new solve. Runs with x <= 0 (the
    positive half) are dropped. The runs come in increasing g, and on every
    model tried the gaps they give come in increasing x (notes/decisions.md).

    Raises NotInGapError when the boundary pair at a reported gap's midpoint
    (between a and ``finite_b`` for the unbounded gap) has |Im s| >=
    GAP_IMAG_TOL. That check only catches a gap whose midpoint lies in the
    support; it does not catch a wrong edge of a gap whose midpoint is
    right, or a gap that was not reported.
    """
    if n_grid < 100:
        raise ValueError(f"n_grid must be >= 100, got {n_grid}")
    u, t, w = cfg.spectrum.columns
    y = cfg.y
    half = np.logspace(np.log10(DEFAULT_G_INNER), np.log10(DEFAULT_G_BOUND), n_grid)
    gs = np.concatenate([-half[::-1], half])
    s_arr, x_arr, _dx, status, den = K.sweep(gs, u, t, w, y)
    good = status == K.OK
    # joined[i]: points i and i + 1 lie on one run; g = 0 parts the halves
    joined = good[1:] & good[:-1] & np.all(np.sign(den[1:]) == np.sign(den[:-1]), axis=1)
    joined[n_grid - 1] = False
    starts, ends = np.flatnonzero(np.diff(joined, prepend=False, append=False)).reshape(-1, 2).T

    def edge(i, outside):
        # (g, s, x) of run end i, whose grid neighbour outside the run is `outside`
        if i in (n_grid, 2 * n_grid - 1):
            return gs[i], s_arr[i], x_arr[i]
        return _refine_edge(gs[i], s_arr[i], gs[outside], u, t, w, y)

    gaps = []
    for i0, i1 in zip(starts, ends):
        # a clamped end keeps its grid point's (g, s): the symbolic g_a = -inf
        # and g_b = 0 are limits, with no s that h could be read from
        if i0 == 0:
            g_a, a, end_a = -math.inf, 0.0, (gs[0], s_arr[0])
        else:
            g_a, s_a, a = edge(i0, i0 - 1)
            end_a = (g_a, s_a)
        if i1 == n_grid - 1:
            g_b, b, end_b = 0.0, math.inf, (gs[i1], s_arr[i1])
        else:
            g_b, s_b, b = edge(i1, i1 + 1)
            end_b = (g_b, s_b)
        a = max(a, 0.0)
        if b > a:
            gaps.append(SpectralGap(
                a=float(a), b=float(b), g_a=float(g_a), g_b=float(g_b), y=y,
                end_a=(float(end_a[0]), float(end_a[1])),
                end_b=(float(end_b[0]), float(end_b[1])),
            ))
    for gap in gaps:
        _check_gap(gap, cfg)
    return gaps


def density(cfg: ModelConfig, grid) -> DensityCurve:
    """Density of the limiting distribution of the p x p matrix on a grid.

    The boundary imaginary part gives the companion density; dividing by y
    converts to the density of the p-dimensional spectrum (the companion
    law carries an extra point mass (1-y) at zero). Failed points are
    flagged and reported as NaN, not fatal; points that kept their V_MIN
    pair are flagged too.

    The points are solved in grid order, and each one's top rung is
    continued from the last top-rung pair that held before it (a failed
    point passes none on), so only the first point, and any point whose
    warm start does not hold, runs the cold fixed point; the second kind
    are listed in ``cold_starts``.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if np.any(grid == 0.0):
        raise ValueError("density grid must avoid x = 0")
    f = np.empty_like(grid)
    s_vals = np.empty(grid.shape, dtype=np.complex128)
    g_vals = np.empty(grid.shape, dtype=np.complex128)
    failed = []
    vmin_fallbacks = []
    cold_starts = []
    near = None
    for i, x in enumerate(grid):
        try:
            pair = boundary_value(float(x), cfg, near)
        except ContinuationError:
            failed.append(i)
            # both parts nan: a bare np.nan stores as complex(nan, 0)
            f[i] = np.nan
            s_vals[i] = g_vals[i] = complex(np.nan, np.nan)
            continue
        if pair.cold_top and i > 0:
            cold_starts.append(i)
        near = pair.top
        if pair.z.imag > 0.0:
            vmin_fallbacks.append(i)
        s_vals[i] = pair.s_under
        g_vals[i] = pair.g_under
        f[i] = max(0.0, pair.s_under.imag / (cfg.y * np.pi))
    return DensityCurve(
        grid=grid, f=f, s_under=s_vals, g_under=g_vals,
        y=cfg.y, spectrum=cfg.spectrum, failed=tuple(failed),
        vmin_fallbacks=tuple(vmin_fallbacks), cold_starts=tuple(cold_starts),
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


def gap_vs_y(spectrum: JointSpectrum, y_values, gap_selector) -> list[SpectralGap]:
    """Track one gap across strictly decreasing aspect ratios.

    Each ratio's gaps come from ``find_gaps`` on its default grid; the
    selector (an index, or a callable on the gap list) picks the gap at the
    first ratio, and each later one is its overlapping successor. Asserts
    the tracked width strictly increases as y decreases for finite gaps, and
    that the finite lower endpoint of the unbounded gap strictly decreases.
    Raises GapTrackingError when the gap closes, jumps, or violates
    monotonicity at some step.
    """
    y_values = list(y_values)
    if any(not (0.0 < y <= 1.0) for y in y_values):
        raise ValueError("y values must lie in (0, 1]")
    if any(b >= a for a, b in zip(y_values, y_values[1:])):
        raise ValueError("y values must be strictly decreasing")

    tracked: list[SpectralGap] = []
    current = _select_gap(find_gaps(ModelConfig(spectrum, y_values[0])), gap_selector)
    tracked.append(current)
    for y in y_values[1:]:
        gaps = find_gaps(ModelConfig(spectrum, y))
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
