"""Independent closed-form and brute-force oracles used to freeze expected
values. Nothing here calls into the package."""

from __future__ import annotations

import cmath
import math

import numpy as np


def mp_edges(y: float, sigma2: float = 1.0) -> tuple[float, float]:
    """Support edges sigma^2*(1 -/+ sqrt(y))^2 of the pure-noise law."""
    return sigma2 * (1.0 - math.sqrt(y)) ** 2, sigma2 * (1.0 + math.sqrt(y)) ** 2


def mp_density(x, y: float, sigma2: float = 1.0):
    """Closed-form pure-noise density of the p x p spectrum."""
    lo, hi = mp_edges(y, sigma2)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    mask = (x > lo) & (x < hi)
    xm = x[mask]
    out[mask] = np.sqrt((hi - xm) * (xm - lo)) / (2.0 * np.pi * y * sigma2 * xm)
    return out


def mp_companion_transform(z: complex, y: float, sigma2: float = 1.0) -> complex:
    """Root with positive imaginary part of
    z*sigma2*s^2 + (z + sigma2*(1-y))*s + 1 = 0."""
    a = z * sigma2
    b = z + sigma2 * (1.0 - y)
    c = 1.0
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    r1 = (-b + disc) / (2.0 * a)
    r2 = (-b - disc) / (2.0 * a)
    return r1 if r1.imag > 0 else r2


def mp_transform(z: complex, y: float) -> complex:
    """Upper-half-plane root of y*z*s^2 + (z - 1 + y)*s + 1 = 0 (sigma2 = 1)."""
    a = y * z
    b = z - 1.0 + y
    c = 1.0
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    r1 = (-b + disc) / (2.0 * a)
    r2 = (-b - disc) / (2.0 * a)
    return r1 if r1.imag > 0 else r2


def mp_boundary_companion(x: float, y: float, sigma2: float = 1.0) -> complex:
    """Real-axis limit of the companion transform from slightly above."""
    s = mp_companion_transform(complex(x, 1e-9), y, sigma2)
    lo, hi = mp_edges(y, sigma2)
    if x < lo or x > hi:
        return complex(s.real, 0.0)
    return s


def mp_x_of_g(g: float, y: float) -> float:
    """Closed-form inverse map -1/g + y/(1+g) on the pure-noise branch."""
    return -1.0 / g + y / (1.0 + g)


def scan_bisect_root(fn, center: float, lo: float, hi: float, n_scan: int = 400_000):
    """Brute-force nearest root to center: dense scan for the closest sign
    change inside (lo, hi), then plain bisection."""
    grid = np.linspace(lo, hi, n_scan)
    vals = np.array([fn(s) for s in grid])
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if len(sign_change) == 0:
        raise ValueError("no sign change in scan range")
    mids = 0.5 * (grid[sign_change] + grid[sign_change + 1])
    k = sign_change[np.argmin(np.abs(mids - center))]
    a, b = grid[k], grid[k + 1]
    fa = fn(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def two_atom_s_of_g(g: float, y: float) -> float:
    """Closed-form coupling root for atoms {(0,1,1/2), (8,1,1/2)} on the
    branch continuous with s = g as the coupling vanishes.

    The constraint reduces to (s - g)*(1 + 8g + s) + 4*y*g^2 = 0; of the two
    quadratic roots the branch point is the one nearer to g. The roots are
    q and c/q with q = -(b + sign(b)*sqrt(disc))/2, which avoids the
    cancellation of (-b + sqrt(disc))/2 when |c| << b^2 (small |g|).
    """
    b = 1.0 + 7.0 * g
    c = -g * (1.0 + 8.0 * g) + 4.0 * y * g * g
    disc = b * b - 4.0 * c
    if disc < 0:
        raise ValueError("no real root (inside support)")
    r1 = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    r2 = c / r1
    return r1 if abs(r1 - g) <= abs(r2 - g) else r2


def two_atom_x_of_g(g: float, y: float) -> float:
    s = two_atom_s_of_g(g, y)
    return -1.0 / g + y * (0.5 / (1.0 + s) + 0.5 / (1.0 + 8.0 * g + s))


def two_atom_dx_dg(g: float, y: float) -> float:
    """Closed-form dx/dg on the branch of two_atom_s_of_g, by implicit
    differentiation of (s - g)*(1 + 8g + s) + 4*y*g^2 = 0."""
    s = two_atom_s_of_g(g, y)
    ds = (1.0 + 16.0 * g - 7.0 * s - 8.0 * y * g) / (1.0 + 7.0 * g + 2.0 * s)
    return 1.0 / g**2 - y * (0.5 * ds / (1.0 + s) ** 2 + 0.5 * (8.0 + ds) / (1.0 + 8.0 * g + s) ** 2)


def scan_gaps(imag_s, x_max: float, n_scan: int, tol: float) -> list[tuple[float, float]]:
    """Support gaps from a scan of a boundary value's imaginary part.

    imag_s(x) is |Im s| at x on the real axis. The gaps are the maximal runs
    of the n_scan points of (0, x_max] with imag_s < tol; each edge between
    two scan points is bisected on that test to 1e-13 relative. A run from
    the first point starts at 0 and one through x_max runs to inf, so the
    scan resolves features wider than x_max/n_scan only.
    """
    xs = np.linspace(x_max / n_scan, x_max, n_scan)
    real = [imag_s(float(x)) < tol for x in xs]

    def bisect(inside, outside):
        for _ in range(200):
            if abs(outside - inside) <= 1e-13 * abs(inside):
                break
            mid = 0.5 * (inside + outside)
            if imag_s(mid) < tol:
                inside = mid
            else:
                outside = mid
        return inside

    gaps = []
    i = 0
    while i < n_scan:
        if not real[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_scan and real[j + 1]:
            j += 1
        a = 0.0 if i == 0 else bisect(float(xs[i]), float(xs[i - 1]))
        b = math.inf if j == n_scan - 1 else bisect(float(xs[j]), float(xs[j + 1]))
        gaps.append((a, b))
        i = j + 1
    return gaps


def two_atom_gap_sweep(y: float, n_grid: int = 2_000_000) -> list[tuple[float, float]]:
    """Brute-force finite gaps of the two-atom model from a dense g-scan.

    Uses the closed-form branch and centered finite differences of x(g);
    maximal runs of increasing x with intact denominators map to gaps.
    Endpoints are refined by bisection on the finite-difference slope.
    """
    gs = -np.logspace(4, -6, n_grid)
    xs = np.full(n_grid, np.nan)
    d1 = np.full(n_grid, np.nan)
    d2 = np.full(n_grid, np.nan)
    for i, g in enumerate(gs):
        try:
            s = two_atom_s_of_g(g, y)
        except ValueError:
            continue
        xs[i] = two_atom_x_of_g(g, y)
        d1[i] = 1.0 + s
        d2[i] = 1.0 + 8.0 * g + s

    slope = np.full(n_grid, np.nan)
    slope[1:-1] = (xs[2:] - xs[:-2]) / (gs[2:] - gs[:-2])
    ok = np.isfinite(slope) & (slope > 0)

    def fd_slope(g, h=1e-9):
        return (two_atom_x_of_g(g + h, y) - two_atom_x_of_g(g - h, y)) / (2 * h)

    gaps = []
    i = 1
    while i < n_grid - 1:
        if not ok[i]:
            i += 1
            continue
        j = i
        while (
            j + 1 < n_grid - 1
            and ok[j + 1]
            and np.sign(d1[j + 1]) == np.sign(d1[j])
            and np.sign(d2[j + 1]) == np.sign(d2[j])
        ):
            j += 1
        # refine endpoints by bisecting the slope sign change where possible
        a_g, b_g = gs[i], gs[j]
        if i > 1 and np.isfinite(slope[i - 1]) and slope[i - 1] < 0:
            lo_g, hi_g = gs[i - 1], gs[i]
            for _ in range(200):
                mid = 0.5 * (lo_g + hi_g)
                if fd_slope(mid) > 0:
                    hi_g = mid
                else:
                    lo_g = mid
            a_g = 0.5 * (lo_g + hi_g)
        if j < n_grid - 2 and np.isfinite(slope[j + 1]) and slope[j + 1] < 0:
            lo_g, hi_g = gs[j], gs[j + 1]
            for _ in range(200):
                mid = 0.5 * (lo_g + hi_g)
                if fd_slope(mid) > 0:
                    lo_g = mid
                else:
                    hi_g = mid
            b_g = 0.5 * (lo_g + hi_g)
        gaps.append((two_atom_x_of_g(a_g, y), two_atom_x_of_g(b_g, y)))
        i = j + 1
    return gaps


# Frozen from a dense two_atom_gap_sweep of atoms {(0,1,1/2), (8,1,1/2)}:
# the low gap (0, low_b), the middle gap mid, and the unbounded gap starting
# at top_a. The support is [low_b, mid[0]] U [mid[1], top_a], one piece
# around each pair sum u + t.
TWO_ATOM_GAPS_Y001 = {
    "low_b": 0.858400501997408,
    "mid": (1.1403478447948345, 8.429835805384444),
    "top_a": 9.596114343144464,
}
TWO_ATOM_GAPS_Y005 = {
    "low_b": 0.6856421481613993,
    "mid": (1.3080672193802783, 7.760480121254587),
    "top_a": 10.369155410732212,
}
TWO_ATOM_PAIR_SUMS = (1.0, 9.0)


def two_atom_half_widths(gaps) -> tuple[float, float]:
    """Largest distance from each pair sum u + t (1 and 9) to an edge of the
    support piece around it, read from a frozen two-atom gap table."""
    pieces = ((gaps["low_b"], gaps["mid"][0]), (gaps["mid"][1], gaps["top_a"]))
    return tuple(
        max(c - lo, hi - c) for c, (lo, hi) in zip(TWO_ATOM_PAIR_SUMS, pieces)
    )


def largest_remainder_reference(weights, p: int) -> list[int]:
    """Reference apportionment: floor quotas, then largest fractional
    remainders win the leftover slots (ties by original order)."""
    quotas = [w * p for w in weights]
    counts = [math.floor(q) for q in quotas]
    rem = p - sum(counts)
    order = sorted(range(len(weights)), key=lambda k: (-(quotas[k] - counts[k]), k))
    for k in order[:rem]:
        counts[k] += 1
    return counts


def mp_boundary_exact(x: float, y: float, dps: int = 50) -> complex:
    """Real-axis limit of the pure-noise companion transform (sigma2 = 1) at
    x > 0, from the closed form evaluated at dps digits.

    The transform solves x*s^2 + (x + 1 - y)*s + 1 = 0. Inside the support
    the discriminant is negative and the root with Im s > 0 is the limit;
    below the support the limit is the root nearer -(1 - y)/x and above it
    the root nearer -1/x, the two real roots meeting at the edges. The
    discriminant (x + 1 - y)^2 - 4x is taken at dps digits, so there is no
    cancellation next to an edge.
    """
    import mpmath

    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        ym = mpmath.mpf(y)
        b = xm + 1 - ym
        disc = b * b - 4 * xm
        if disc < 0:
            s = (-b + 1j * mpmath.sqrt(-disc)) / (2 * xm)
        elif xm > 1 + ym:
            s = (-b + mpmath.sqrt(disc)) / (2 * xm)
        else:
            s = (-b - mpmath.sqrt(disc)) / (2 * xm)
        return complex(s)


def cleared_root(x: float, atoms, y: float, s0: complex, g0: complex, dps: int = 50):
    """Root (s, g) of the cleared system at the real point z = x, by
    mpmath.findroot at dps digits from (s0, g0):

        z*s + (1 - y) + y*sum(w/d) = 0,
        z*g + 1 - y*g*sum(w*t/d) = 0,   d = 1 + u*g + t*s,

    over the atoms (u, t, w). These are the two equations of the inverted
    system multiplied through by s and by g.
    """
    import mpmath

    with mpmath.workdps(dps):
        z = mpmath.mpf(x)
        ym = mpmath.mpf(y)
        terms = [(mpmath.mpf(u), mpmath.mpf(t), mpmath.mpf(w)) for u, t, w in atoms]

        def system(s, g):
            ds = [1 + u * g + t * s for u, t, _w in terms]
            sum0 = sum(w / d for (_u, _t, w), d in zip(terms, ds))
            sumt = sum(w * t / d for (_u, t, w), d in zip(terms, ds))
            return [z * s + (1 - ym) + ym * sum0, z * g + 1 - ym * g * sumt]

        s, g = mpmath.findroot(system, (mpmath.mpc(s0), mpmath.mpc(g0)))
        return complex(s), complex(g)
