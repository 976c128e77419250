"""Closed-form references for the benchmark's output checks.

Nothing here imports specsep: every expected value the checks use comes
from these formulas or from a property the method must have.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly


def mp_edges(y: float) -> tuple[float, float]:
    """Marchenko-Pastur support edges (1 -/+ sqrt(y))^2 for unit noise."""
    return (1.0 - math.sqrt(y)) ** 2, (1.0 + math.sqrt(y)) ** 2


def mp_density(x, y: float) -> np.ndarray:
    """Marchenko-Pastur density of the p x p spectrum for unit noise."""
    lo, hi = mp_edges(y)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > lo) & (x < hi)
    xi = x[inside]
    out[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * math.pi * y * xi)
    return out


# Two-atom model {(0, 1, 1/2), (8, 1, 1/2)}: the coupling constraint
# y*g^2*sum(w*u/(1+u*g+t*s)) + s - g = 0 reduces to the quadratic
# (s - g)*(1 + 8g + s) + 4*y*g^2 = 0, i.e. s^2 + (1 + 7g)*s + c(g) = 0.


def _two_atom_branch(g: np.ndarray, y: float):
    """(s, ds/dg, valid) on the real branch nearest to s = g."""
    b = 1.0 + 7.0 * g
    c = -g * (1.0 + 8.0 * g) + 4.0 * y * g * g
    disc = b * b - 4.0 * c
    valid = disc >= 0.0
    root = np.sqrt(np.where(valid, disc, 0.0))
    r1 = (-b + root) / 2.0
    r2 = (-b - root) / 2.0
    s = np.where(np.abs(r1 - g) <= np.abs(r2 - g), r1, r2)
    dc = -(1.0 + 16.0 * g) + 8.0 * y * g
    with np.errstate(divide="ignore", invalid="ignore"):
        ds = -(7.0 * s + dc) / (2.0 * s + b)
    return s, ds, valid


def two_atom_x(g, y: float) -> np.ndarray:
    """Inverse map x(g) = -1/g + y*(1/2)(1/(1+s) + 1/(1+8g+s))."""
    g = np.asarray(g, dtype=float)
    s, _ds, _valid = _two_atom_branch(g, y)
    return -1.0 / g + 0.5 * y * (1.0 / (1.0 + s) + 1.0 / (1.0 + 8.0 * g + s))


def _two_atom_dx(g, y: float):
    g = np.asarray(g, dtype=float)
    s, ds, valid = _two_atom_branch(g, y)
    d1 = 1.0 + s
    d2 = 1.0 + 8.0 * g + s
    dx = 1.0 / (g * g) - 0.5 * y * (ds / (d1 * d1) + (8.0 + ds) / (d2 * d2))
    return dx, valid, np.sign(d1), np.sign(d2)


def _bisect_stationary(g_lo: float, g_hi: float, y: float) -> float:
    """Zero of dx/dg between two grid points where its sign changes."""
    f_lo = float(_two_atom_dx(g_lo, y)[0])
    for _ in range(200):
        mid = 0.5 * (g_lo + g_hi)
        if mid <= g_lo or mid >= g_hi:
            break
        f_mid = float(_two_atom_dx(mid, y)[0])
        if (f_mid > 0.0) == (f_lo > 0.0):
            g_lo, f_lo = mid, f_mid
        else:
            g_hi = mid
    return 0.5 * (g_lo + g_hi)


def two_atom_gaps(y: float, n_grid: int = 100_000) -> list[tuple[float, float]]:
    """Gaps (a, b) on the positive axis of the two-atom model at ratio y.

    A log-spaced sweep of g < 0 keeps runs where x increases on the real
    branch with constant denominator signs; run ends between grid points are
    refined to stationary points of x by bisection on the closed-form
    derivative. The run reaching g -> -inf starts at a = 0 and the run
    reaching g -> 0- ends at b = inf.
    """
    gs = -np.logspace(4.0, -6.0, n_grid)
    dx, valid, sg1, sg2 = _two_atom_dx(gs, y)
    good = valid & (dx > 0.0)
    gaps = []
    i = 0
    while i < n_grid:
        if not good[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_grid and good[j + 1] and sg1[j + 1] == sg1[j] and sg2[j + 1] == sg2[j]:
            j += 1
        if i == 0:
            a = 0.0
        else:
            a = float(two_atom_x(_bisect_stationary(gs[i - 1], gs[i], y), y))
        if j == n_grid - 1:
            b = math.inf
        else:
            b = float(two_atom_x(_bisect_stationary(gs[j], gs[j + 1], y), y))
        gaps.append((a, b))
        i = j + 1
    return gaps


def two_atom_companion(x: float, y: float, im_min: float) -> complex:
    """Companion transform s(x) of the two-atom model at a real point x, or
    NaN when x lies outside the support (no root with Im s > im_min).

    With A = 1 + s and X = x + 1/g, the inverse map reads
    X*A^2 + (8gX - y)*A - 4yg = 0 and the constraint
    A^2 + (7g - 1)*A - 8g - 8g^2 + 4yg^2 = 0. Eliminating A^2 gives
    A = N(g)*g / Q(g); substituting back leaves a polynomial in g whose
    complex roots carry the boundary value. Inside the support exactly
    one root has Im s > 0; more than one raises ValueError.
    """
    P = np.array([1.0, x])  # X*g = x*g + 1
    G = np.array([0.0, 1.0])
    N = npoly.polyadd([0.0, 4.0 * y], npoly.polymul(P, [-8.0, -8.0 + 4.0 * y]))
    Q = npoly.polysub(npoly.polyadd(npoly.polymul(P, G), P), [0.0, y])
    Ng = npoly.polymul(N, G)
    poly = npoly.polyadd(
        npoly.polyadd(npoly.polymul(Ng, Ng), npoly.polymul(npoly.polymul([-1.0, 7.0], Ng), Q)),
        npoly.polymul(npoly.polymul([0.0, -8.0, -8.0 + 4.0 * y], Q), Q),
    )
    roots = []
    for g in npoly.polyroots(poly):
        if abs(g) < 1e-12:
            continue
        s = complex(npoly.polyval(g, Ng) / npoly.polyval(g, Q) - 1.0)
        if s.imag > im_min:
            roots.append(s)
    if len(roots) > 1:
        raise ValueError(f"{len(roots)} roots with Im s > 0 at x = {x}")
    return roots[0] if roots else complex(math.nan, math.nan)
