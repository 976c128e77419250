"""Hot numeric kernels of the transform solver and the real-branch sweep.

Each kernel is a plain Python function with one path. Sums over atoms are
scalar loops: models have one to a few atoms, and on 1-3 atoms the loop is
3-5x faster per call than a numpy expression over the atom arrays (``phi``
on 2 atoms: 2.6 us for the loop against 10.2 us for ``np.sum`` and 7.3 us
for ``@``; see notes/decisions.md). A ``find_gaps`` sweep makes about a
million ``phi`` calls, so that per-call overhead would dominate it.

Kernels call each other through this module's globals (``phi`` inside
``solve_s``, ``branch`` inside ``sweep``, ...), never through local aliases.
A wrapper set as a module attribute, for a trace or a test, therefore sees
every nested call as well as the outermost one.

Status codes returned by kernels:
  0  success
  1  iteration budget exhausted
  2  pole guard tripped (a denominator magnitude fell below threshold)
  3  no bracketing sign change found for a real root
  4  derivative singular (implicit-differentiation denominator vanished)
"""

from __future__ import annotations

import numpy as np

OK = 0
NO_CONVERGE = 1
POLE = 2
NO_BRACKET = 3
SINGULAR = 4

# Magnitudes below this count as a pole.
POLE_EPS = 1e-14
# Double precision cannot push |z - RHS| below about this times |z|, so the
# solvers' residual target is max(tol, RESIDUAL_FLOOR * |z|).
RESIDUAL_FLOOR = 1e-14


def atom_sums(s, g, u, t, w):
    """Sums of w/d and w*t/d over atoms, d = 1 + u*g + t*s.

    Returns (sum0, sumt, min |d|).
    """
    sum0 = 0.0 + 0.0j
    sumt = 0.0 + 0.0j
    min_ad = np.inf
    for k in range(u.shape[0]):
        d = 1.0 + u[k] * g + t[k] * s
        ad = abs(d)
        if ad < min_ad:
            min_ad = ad
        if ad < POLE_EPS:
            return sum0, sumt, min_ad
        sum0 += w[k] / d
        sumt += w[k] * t[k] / d
    return sum0, sumt, min_ad


def residual_pair(z, s, g, u, t, w, y):
    """Residuals of the inverted two-equation system at (z, s, g).

    Returns (r1, r2, status); r1 checks the equation solved for s, r2 the
    one solved for g.
    """
    if abs(z) < POLE_EPS or abs(s) < POLE_EPS or abs(g) < POLE_EPS:
        return np.inf, np.inf, POLE
    sum0, sumt, min_ad = atom_sums(s, g, u, t, w)
    if min_ad < POLE_EPS:
        return np.inf, np.inf, POLE
    r1 = abs(z + (1.0 - y) / s + (y / s) * sum0)
    r2 = abs(z + 1.0 / g - y * sumt)
    return r1, r2, OK


def fixed_point(z, u, t, w, y, s0, g0, tol, max_iter, damping):
    """Damped alternating fixed point for the coupled transform pair.

    Candidate updates come from each equation rearranged for its own
    unknown; iterates leaving the closed upper half-plane are projected
    back to Im = +1e-16. Returns (s, g, r1, r2, iterations, status).
    """
    s = s0
    g = g0
    r1 = np.inf
    r2 = np.inf
    if abs(z) < POLE_EPS:
        return s, g, r1, r2, 0, POLE
    tol_eff = max(tol, abs(z) * RESIDUAL_FLOOR)
    for it in range(max_iter):
        sum0, sumt, min_ad = atom_sums(s, g, u, t, w)
        if min_ad < POLE_EPS:
            return s, g, np.inf, np.inf, it, POLE
        den = z - y * sumt
        if abs(den) < POLE_EPS:
            return s, g, np.inf, np.inf, it, POLE
        g_cand = -1.0 / den
        s_cand = -((1.0 - y) + y * sum0) / z
        s = (1.0 - damping) * s + damping * s_cand
        g = (1.0 - damping) * g + damping * g_cand
        if s.imag < 0.0:
            s = complex(s.real, 1e-16)
        if g.imag < 0.0:
            g = complex(g.real, 1e-16)
        r1, r2, status = residual_pair(z, s, g, u, t, w, y)
        if status == OK and r1 < tol_eff and r2 < tol_eff:
            return s, g, r1, r2, it + 1, OK
    return s, g, r1, r2, max_iter, NO_CONVERGE


def newton_pair(z, u, t, w, y, s0, g0, tol, max_iter):
    """Damped Newton on the two-equation residual map, polishing a stall.

    Solves the 2x2 complex linear system per step by Cramer's rule and
    backtracks on residual increase. Quadratically convergent where the
    fixed point suffers critical slowing (near support edges).
    Returns (s, g, r1, r2, iterations, status).
    """
    s = s0
    g = g0
    if abs(z) < POLE_EPS:
        return s, g, np.inf, np.inf, 0, POLE
    tol_eff = max(tol, abs(z) * RESIDUAL_FLOOR)
    n = u.shape[0]
    r1, r2, status = residual_pair(z, s, g, u, t, w, y)
    if status != OK:
        return s, g, np.inf, np.inf, 0, POLE
    if r1 < tol_eff and r2 < tol_eff:
        return s, g, r1, r2, 0, OK
    for it in range(max_iter):
        sum0 = 0.0 + 0.0j
        sumt = 0.0 + 0.0j
        sum_t_d2 = 0.0 + 0.0j
        sum_u_d2 = 0.0 + 0.0j
        sum_tt_d2 = 0.0 + 0.0j
        sum_ut_d2 = 0.0 + 0.0j
        pole = False
        for k in range(n):
            d = 1.0 + u[k] * g + t[k] * s
            if abs(d) < POLE_EPS:
                pole = True
                break
            d2 = d * d
            sum0 += w[k] / d
            sumt += w[k] * t[k] / d
            sum_t_d2 += w[k] * t[k] / d2
            sum_u_d2 += w[k] * u[k] / d2
            sum_tt_d2 += w[k] * t[k] * t[k] / d2
            sum_ut_d2 += w[k] * u[k] * t[k] / d2
        if pole:
            return s, g, r1, r2, it, POLE
        h1 = z + (1.0 - y) / s + (y / s) * sum0
        h2 = z + 1.0 / g - y * sumt
        j11 = -(1.0 - y) / (s * s) - (y / (s * s)) * sum0 - (y / s) * sum_t_d2
        j12 = -(y / s) * sum_u_d2
        j21 = y * sum_tt_d2
        j22 = -1.0 / (g * g) + y * sum_ut_d2
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-30:
            return s, g, r1, r2, it, SINGULAR
        ds = (-h1 * j22 + h2 * j12) / det
        dg = (-h2 * j11 + h1 * j21) / det
        step = 1.0
        improved = False
        for _ in range(30):
            s_new = s + step * ds
            g_new = g + step * dg
            if s_new.imag < 0.0:
                s_new = complex(s_new.real, 1e-16)
            if g_new.imag < 0.0:
                g_new = complex(g_new.real, 1e-16)
            q1, q2, st = residual_pair(z, s_new, g_new, u, t, w, y)
            if st == OK and max(q1, q2) < max(r1, r2):
                s = s_new
                g = g_new
                r1 = q1
                r2 = q2
                improved = True
                break
            step *= 0.5
        if not improved:
            return s, g, r1, r2, it + 1, NO_CONVERGE
        if r1 < tol_eff and r2 < tol_eff:
            return s, g, r1, r2, it + 1, OK
    return s, g, r1, r2, max_iter, NO_CONVERGE


def constraint_residual(s, g, u, t, w, y):
    """|y*g^2 * sum_k w*u/(1+u*g+t*s) + s - g| for complex or real inputs."""
    acc = 0.0 + 0.0j
    for k in range(u.shape[0]):
        d = 1.0 + u[k] * g + t[k] * s
        if abs(d) < POLE_EPS:
            return np.inf
        acc += w[k] * u[k] / d
    return abs(y * g * g * acc + s - g)


def phi(g, s, u, t, w, y):
    """Real coupling constraint y*g^2*sum(w*u/(1+u*g+t*s)) + s - g."""
    acc = 0.0
    for k in range(u.shape[0]):
        d = 1.0 + u[k] * g + t[k] * s
        acc += w[k] * u[k] / d
    return y * g * g * acc + s - g


def solve_s(g, u, t, w, y, s_center):
    """Real root of the coupling constraint nearest to s_center.

    The search stays inside the pole-free interval of s containing
    s_center (poles at -(1+u*g)/t for atoms with w*u > 0), expands a
    two-sided geometric scan until a sign change appears, bisects, then
    polishes with a few secant steps. Returns (s, |phi|, status).
    """
    n = u.shape[0]
    lo = -np.inf
    hi = np.inf
    for k in range(n):
        if w[k] * u[k] != 0.0:
            p = -(1.0 + u[k] * g) / t[k]
            if p <= s_center:
                if p > lo:
                    lo = p
            else:
                if p < hi:
                    hi = p

    f_c = phi(g, s_center, u, t, w, y)
    if f_c == 0.0:
        return s_center, 0.0, OK
    fc_pos = f_c > 0.0

    span = 1.0 + abs(s_center)
    lo_lim = -np.inf
    if lo > -np.inf:
        lo_lim = lo + 1e-13 * (1.0 + abs(lo))
    hi_lim = np.inf
    if hi < np.inf:
        hi_lim = hi - 1e-13 * (1.0 + abs(hi))

    step = 1e-9 * span
    left = s_center
    right = s_center
    f_left = f_c
    f_right = f_c
    left_done = False
    right_done = False
    a = 0.0
    b = 0.0
    fa = 0.0
    fb = 0.0
    found = False
    for _ in range(2000):
        if left_done and right_done:
            break
        if not right_done:
            cand = right + step
            if cand >= hi_lim:
                cand = hi_lim
                right_done = True
            if cand > right:
                f_cand = phi(g, cand, u, t, w, y)
                if np.isfinite(f_cand) and (f_cand > 0.0) != fc_pos:
                    a = right
                    b = cand
                    fa = f_right
                    fb = f_cand
                    found = True
                    break
                right = cand
                f_right = f_cand
            else:
                right_done = True
        if not left_done:
            cand = left - step
            if cand <= lo_lim:
                cand = lo_lim
                left_done = True
            if cand < left:
                f_cand = phi(g, cand, u, t, w, y)
                if np.isfinite(f_cand) and (f_cand > 0.0) != fc_pos:
                    a = cand
                    b = left
                    fa = f_cand
                    fb = f_left
                    found = True
                    break
                left = cand
                f_left = f_cand
            else:
                left_done = True
        step *= 1.4
    if not found:
        return s_center, abs(f_c), NO_BRACKET

    # bisection until the bracket collapses
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = phi(g, mid, u, t, w, y)
        if fm == 0.0:
            a = mid
            b = mid
            fa = fm
            break
        if (fm > 0.0) == (fa > 0.0):
            a = mid
            fa = fm
        else:
            b = mid
            fb = fm
        if b - a < 1e-16 * (1.0 + abs(a) + abs(b)):
            break
    root = 0.5 * (a + b)
    f_root = phi(g, root, u, t, w, y)

    # secant polish, confined to the bracket's pole-free interval
    x0 = a
    x1 = b
    f0 = fa
    f1 = fb
    for _ in range(8):
        if abs(f_root) < 1e-15:
            break
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not np.isfinite(x2) or x2 <= lo_lim or x2 >= hi_lim:
            break
        f2 = phi(g, x2, u, t, w, y)
        if abs(f2) < abs(f_root):
            root = x2
            f_root = f2
        x0 = x1
        f0 = f1
        x1 = x2
        f1 = f2
    return root, abs(f_root), OK


def branch(g, u, t, w, y, s_center):
    """Real-branch evaluation at one parameter value.

    Solves the coupling constraint for s, then evaluates the inverse map
    x(g) and the analytic derivative dx/dg = 1/g^2 - y*A2 - y*B2*s'(g),
    with s'(g) from implicit differentiation of the constraint.

    Returns (s, x, dx_dg, min |1+u*g+t*s|, status).
    """
    s, f_root, status = solve_s(g, u, t, w, y, s_center)
    if status != OK:
        return s, 0.0, 0.0, 0.0, status
    n = u.shape[0]
    x = -1.0 / g
    a2 = 0.0
    b2 = 0.0
    u2 = 0.0
    iu = 0.0
    min_ad = np.inf
    for k in range(n):
        d = 1.0 + u[k] * g + t[k] * s
        ad = abs(d)
        if ad < min_ad:
            min_ad = ad
        if ad < 1e-12:
            return s, 0.0, 0.0, min_ad, POLE
        x += y * w[k] * t[k] / d
        d2 = d * d
        a2 += w[k] * u[k] * t[k] / d2
        b2 += w[k] * t[k] * t[k] / d2
        u2 += w[k] * u[k] * u[k] / d2
        iu += w[k] * u[k] / d
    phi_g = 2.0 * y * g * iu - y * g * g * u2 - 1.0
    phi_s = 1.0 - y * g * g * a2
    if abs(phi_s) < 1e-14:
        return s, x, 0.0, min_ad, SINGULAR
    s_prime = -phi_g / phi_s
    dx_dg = 1.0 / (g * g) - y * a2 - y * b2 * s_prime
    return s, x, dx_dg, min_ad, OK


def sweep(gs, u, t, w, y):
    """Real-branch evaluation over a parameter grid.

    Returns (s, x, dx_dg, status, den) arrays; den[i, k] is atom k's
    denominator 1 + u*g + t*s at grid point i (NaN where the point failed).
    """
    m = gs.shape[0]
    n = u.shape[0]
    s_arr = np.empty(m)
    x_arr = np.empty(m)
    d_arr = np.empty(m)
    status = np.empty(m, np.int64)
    den = np.empty((m, n))
    for i in range(m):
        g = gs[i]
        s, x, dx_dg, _min_ad, st = branch(g, u, t, w, y, g)
        s_arr[i] = s
        x_arr[i] = x
        d_arr[i] = dx_dg
        status[i] = st
        for k in range(n):
            if st == OK:
                den[i, k] = 1.0 + u[k] * g + t[k] * s
            else:
                den[i, k] = np.nan
    return s_arr, x_arr, d_arr, status, den
