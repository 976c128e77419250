"""Hot numeric kernels of the transform solver and the real-branch sweep.

Each kernel is a plain Python function with one path. Sums over atoms are
scalar loops: models have one to a few atoms, and on 1-3 atoms the loop is
3-5x faster per call than a numpy expression over the atom arrays (``phi``
on 2 atoms: 2.6 us for the loop against 10.2 us for ``np.sum`` and 7.3 us
for ``@``; see notes/decisions.md). The real-branch sweep follows the
branch from both ends of the grid, predicting each root from the last one
and correcting it by Newton. On smooth stretches it jumps STRIDE grid
points at a time, and it walks every fold, decline and sign change point
by point: ``find_gaps`` on atoms {(0,1,1/2), (8,1,1/2)} at y = 0.1 makes
1,371 ``branch`` and 2,663 ``phi`` calls for its 8,000 grid points, edge
refinement included, and on a signal-free model one ``phi`` call per
``branch`` call.

Kernels call each other through this module's globals (``phi`` inside
``solve_s``, ``branch`` inside ``sweep``, ...), never through local aliases.
A wrapper set as a module attribute, for a trace or a test, therefore sees
every nested call as well as the outermost one.

Status codes returned by kernels:
  0  success
  1  iteration budget exhausted
  2  pole guard tripped (a denominator magnitude fell below threshold)
  3  no real root on the branch: Newton left its pole-free interval or
     stalled (a fold), or the sweep declined a root far from its prediction
  4  derivative singular (implicit-differentiation denominator vanished)
  5  a real root found by a cold start between two folds of the branch;
     it may lie on another branch and is not checked here (``sweep`` only)
  6  not solved: the sweep jumped over this point on a smooth stretch
     between two solved points of the same status (``sweep`` only)
"""

from __future__ import annotations

import numpy as np

OK = 0
NO_CONVERGE = 1
POLE = 2
NO_BRACKET = 3
SINGULAR = 4
COLD = 5
SKIPPED = 6

# Magnitudes below this count as a pole.
POLE_EPS = 1e-14
# Double precision cannot push |z - RHS| below about this times |z|, so the
# solvers' residual target is effective_tol(tol, z).
RESIDUAL_FLOOR = 1e-14
# solve_s stops once a Newton step is below STEP_TOL*(1+|s|): Newton
# converges quadratically there, so the stepped point is at rounding level.
STEP_TOL = 1e-10
# Newton steps solve_s takes before it calls the point a fold.
SOLVE_MAX_ITER = 50
# sweep declines a root farther from its prediction than FAR_FACTOR times
# the predicted step (plus DECLINE_SLACK*(1+|s|)): it lies on another branch.
FAR_FACTOR = 2.0
DECLINE_SLACK = 1e-9
# sweep jumps STRIDE grid points at a time where the branch is smooth: the
# root within EASY predicted steps and x within EASY of its linear prediction.
STRIDE = 8
EASY = 0.05


def effective_tol(tol, z):
    """Residual target at z: tol, or the rounding floor RESIDUAL_FLOOR*|z|."""
    return max(tol, abs(z) * RESIDUAL_FLOOR)


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
    tol_eff = effective_tol(tol, z)
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
    tol_eff = effective_tol(tol, z)
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
    """Real root of the coupling constraint by Newton from s_center.

    Newton on s -> phi(g, s), with phi_s = 1 - y*g^2*sum(w*u*t/d^2), stays
    inside the pole-free interval of s containing s_center (poles at
    -(1+u*g)/t for atoms with w*u != 0). It stops once a step falls below
    STEP_TOL*(1+|s|) and returns the stepped point. A step that leaves the
    interval or is not finite, a zero phi_s, or no convergence within
    SOLVE_MAX_ITER steps is a fold: there is no root to continue to, and the
    status is NO_BRACKET. There is no scan or bisection: a root is reached
    only from a start in its basin, never across a fold.

    Returns (s, |phi| at the last evaluated point, status). On success that
    point is one Newton step short of s, so in Newton's quadratic regime the
    value bounds |phi(g, s)| from above.
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

    s = s_center
    for _ in range(SOLVE_MAX_ITER):
        f = phi(g, s, u, t, w, y)
        if f == 0.0:
            return s, 0.0, OK
        acc = 0.0
        for k in range(n):
            d = 1.0 + u[k] * g + t[k] * s
            acc += w[k] * u[k] * t[k] / (d * d)
        f_s = 1.0 - y * g * g * acc
        if f_s == 0.0:
            return s, abs(f), NO_BRACKET
        step = f / f_s
        s_new = s - step
        if not lo < s_new < hi:
            return s, abs(f), NO_BRACKET
        if abs(step) <= STEP_TOL * (1.0 + abs(s_new)):
            return s_new, abs(f), OK
        s = s_new
    return s, abs(f), NO_BRACKET


def branch(g, u, t, w, y, s_center):
    """Real-branch evaluation at one parameter value.

    Solves the coupling constraint for s by Newton from s_center, then
    evaluates the inverse map x(g), s'(g) = -phi_g/phi_s by implicit
    differentiation of the constraint, and the analytic derivative
    dx/dg = 1/g^2 - y*A2 - y*B2*s'(g).

    Returns (s, x, dx_dg, ds_dg, status).
    """
    s, _res, status = solve_s(g, u, t, w, y, s_center)
    if status != OK:
        return s, 0.0, 0.0, 0.0, status
    n = u.shape[0]
    x = -1.0 / g
    a2 = 0.0
    b2 = 0.0
    u2 = 0.0
    iu = 0.0
    for k in range(n):
        d = 1.0 + u[k] * g + t[k] * s
        if abs(d) < 1e-12:
            return s, 0.0, 0.0, 0.0, POLE
        x += y * w[k] * t[k] / d
        d2 = d * d
        a2 += w[k] * u[k] * t[k] / d2
        b2 += w[k] * t[k] * t[k] / d2
        u2 += w[k] * u[k] * u[k] / d2
        iu += w[k] * u[k] / d
    phi_g = 2.0 * y * g * iu - y * g * g * u2 - 1.0
    phi_s = 1.0 - y * g * g * a2
    if abs(phi_s) < 1e-14:
        return s, x, 0.0, 0.0, SINGULAR
    s_prime = -phi_g / phi_s
    dx_dg = 1.0 / (g * g) - y * a2 - y * b2 * s_prime
    return s, x, dx_dg, s_prime, OK


def _walk(order, gs, u, t, w, y, s_arr, x_arr, d_arr, status, den, cold):
    """Walk the grid indices in ``order`` (one sign), following one root.

    Each point is predicted from the last accepted one,
    s_prev + s'(g_prev)*(g - g_prev); a root farther from the prediction
    than FAR_FACTOR predicted steps lies on another branch and is declined
    (NO_BRACKET). An anchored walk (``cold`` false) starts Newton from the
    prediction, the first point from the pin s = g, and stops after its
    first failure. A cold walk starts every point from the pin, goes on
    past failures and marks accepted points COLD.

    Once following, the walk tries a jump of STRIDE grid points. The jump
    is kept only where the stretch is smooth: the root lies within EASY
    predicted steps, dx/dg and every denominator keep their signs, and x
    is within EASY of its linear prediction. The points jumped over are
    marked SKIPPED. Otherwise the window is walked point by point, so
    folds, declines and sign changes are found on the grid's own cells.
    Fills the output arrays in place and returns the number of points
    walked.
    """
    n = u.shape[0]
    m = len(order)
    follow = False
    g_prev = s_prev = ds_prev = x_prev = dx_prev = 0.0
    i_prev = 0
    step = 0.0
    plain_to = 0  # positions before this one are walked point by point
    p = 0
    while p < m:
        q = p + STRIDE - 1
        jump = follow and p >= plain_to and p < q < m
        i = order[q] if jump else order[p]
        g = gs[i]
        if follow:
            step = ds_prev * (g - g_prev)
            pred = s_prev + step
        else:
            pred = g
        s, x, dx_dg, ds_dg, st = branch(g, u, t, w, y, g if cold else pred)
        slack = DECLINE_SLACK * (1.0 + abs(s))
        if jump:
            dx_lin = dx_prev * (g - g_prev)
            smooth = (
                st == OK
                and abs(s - pred) <= EASY * abs(step) + slack
                and (dx_dg > 0.0) == (dx_prev > 0.0)
                and abs(x - x_prev - dx_lin) <= EASY * abs(dx_lin)
                and all((1.0 + u[k] * g + t[k] * s > 0.0) == (den[i_prev, k] > 0.0)
                        for k in range(n))
            )
            if not smooth:
                plain_to = q + 1
                continue
            for j in order[p:q]:
                s_arr[j] = x_arr[j] = d_arr[j] = np.nan
                den[j, :] = np.nan
                status[j] = SKIPPED
            p = q
        elif follow and st == OK and abs(s - pred) > FAR_FACTOR * abs(step) + slack:
            st = NO_BRACKET
        follow = st == OK
        if follow and cold:
            st = COLD
        s_arr[i] = s
        x_arr[i] = x
        d_arr[i] = dx_dg
        status[i] = st
        for k in range(n):
            if follow:
                den[i, k] = 1.0 + u[k] * g + t[k] * s
            else:
                den[i, k] = np.nan
        p += 1
        if not follow and not cold:
            return p
        g_prev = g
        s_prev = s
        ds_prev = ds_dg
        x_prev = x
        dx_prev = dx_dg
        i_prev = i
    return p


def sweep(gs, u, t, w, y):
    """Real-branch evaluation over a parameter grid, following the branch.

    Each sign's points are covered by three walks (``_walk``). A point is
    solved once or, inside a smooth stretch, jumped over and marked
    SKIPPED. Two walks are anchored where the pin s = g reaches the branch
    and stop at their first fold: outward from the point nearest g = 0,
    where the branch is s = g, and inward from the point farthest from 0.
    There every denominator 1 + u*g + t*s has the sign of g at s = g, so
    phi(g, .) is concave (g < 0) or convex (g > 0) on the pin's pole-free
    interval, and Newton from the pin moves monotonically to the nearest
    root; on g < 0 that root carries the lowest gap. The
    points between the two folds are walked cold. A root found there may
    lie on another branch, so it is marked COLD, and ``find_gaps`` checks
    such runs against the boundary pair before it uses them.

    Returns (s, x, dx_dg, status, den) arrays; den[i, k] is atom k's
    denominator 1 + u*g + t*s at grid point i. A skipped point has NaN in
    every array but status, and a failed one NaN in den.
    """
    m = gs.shape[0]
    n = u.shape[0]
    s_arr = np.empty(m)
    x_arr = np.empty(m)
    d_arr = np.empty(m)
    status = np.empty(m, np.int64)
    den = np.empty((m, n))
    g_list = gs.tolist()
    order = np.argsort(np.abs(gs), kind="stable").tolist()
    out = (g_list, u, t, w, y, s_arr, x_arr, d_arr, status, den)
    for side in ([i for i in order if g_list[i] < 0.0], [i for i in order if g_list[i] > 0.0]):
        k = _walk(side, *out, False)
        rest = side[k:]
        j = _walk(rest[::-1], *out, False)
        _walk(rest[: len(rest) - j], *out, True)
    return s_arr, x_arr, d_arr, status, den
