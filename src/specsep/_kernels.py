"""Hot numeric kernels of the transform solver and the real-branch sweep.

Each scalar kernel is a plain Python function with one path. Sums over atoms
are scalar loops: models have one to a few atoms, and on 1-3 atoms the loop
is 5-10x faster per call than a numpy expression over the atom arrays. The
scalar kernels take the atoms (u, t, w) as tuples of Python floats
(``JointSpectrum.columns``): an ``np.float64`` taken from an array sends each
atom term through numpy's scalar arithmetic (``phi`` on 2 atoms: 0.74 us for
the loop on Python floats, 2.2 us on float64 arrays, 6.2 us for ``np.sum``
and 4.4 us for ``@``; see notes/decisions.md). The same loops run
elementwise on arrays, so ``phi`` and ``branch_terms`` also serve the sweep,
which treats a whole grid at once: ``real_roots`` takes every root of the
coupling constraint at every grid point, in closed form when the cleared
polynomial is linear or quadratic and from one batched eigenvalue call on
companion matrices otherwise, and ``sweep`` keeps the admissible one. On
both halves of the default grid (8,000 points) ``sweep`` takes 6.8 ms on
atoms {(0,1,1/2), (8,1,1/2)} at y = 0.1 and 2.0 ms on a signal-free model
(medians on a shared 2-core host; 12.3 and 3.6 ms with companion matrices at
every degree). ``find_gaps`` on the two-atom model makes 4 ``phi`` calls in
its one sweep and 132 ``branch`` calls (167 ``phi``) refining its 4 edges.

Kernels call each other through this module's globals (``phi`` inside
``solve_s`` and ``real_roots``, ``real_roots`` inside ``sweep``, ...), never
through local aliases. A wrapper set as a module attribute, for a trace or
a test, therefore sees every nested call as well as the outermost one.

Status codes returned by kernels:
  0  success
  1  iteration budget exhausted; in ``newton_pair`` also a step that stopped
     shrinking above rounding level
  2  pole guard tripped (a denominator magnitude fell below threshold)
  3  no real root on the branch: Newton left its pole-free interval or
     stalled (a fold); in ``sweep``, no admissible root at the grid point
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
# solvers' residual target is effective_tol(tol, z).
RESIDUAL_FLOOR = 1e-14
# solve_s stops once a Newton step is below STEP_TOL*(1+|s|): Newton
# converges quadratically there, so the stepped point is at rounding level.
STEP_TOL = 1e-10
# newton_pair stops, converged, once both steps are below PAIR_STEP_TOL
# relative to the stepped point: two units of rounding. Next to an edge the
# Jacobian is nearly singular and rounding keeps the step above that, so it
# also stops, unconverged, once a step below PAIR_NOISE_TOL (about the square
# root of the unit roundoff, below which a converging Newton step shrinks at
# every iteration) is no smaller than the one before.
PAIR_STEP_TOL = 4e-16
PAIR_NOISE_TOL = 1e-8
# Newton steps solve_s takes before it calls the point a fold.
SOLVE_MAX_ITER = 50
# real_roots counts a root r with |Im r| <= ROOT_RTOL*(1 + |r|) as real, lets
# the bound s'(x) >= s(x)^2 fail by ROOT_RTOL relative, and sweep takes
# admitted roots whose x agree to ROOT_RTOL relative for one root.
ROOT_RTOL = 1e-9
# Newton steps on the rational phi that polish each real root.
POLISH_STEPS = 3


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
    for u_k, t_k, w_k in zip(u, t, w):
        d = 1.0 + u_k * g + t_k * s
        ad = abs(d)
        if ad < min_ad:
            min_ad = ad
        if ad < POLE_EPS:
            return sum0, sumt, min_ad
        sum0 += w_k / d
        sumt += w_k * t_k / d
    return sum0, sumt, min_ad


def residual_pair(z, s, g, u, t, w, y):
    """Residuals of the inverted two-equation system at (z, s, g).

    Returns (r1, r2, status); r1 checks the equation solved for s, r2 the
    one solved for g.
    """
    return _residuals(z, s, g, atom_sums(s, g, u, t, w), y)


def _residuals(z, s, g, sums, y):
    """``residual_pair`` at (z, s, g) from the ``atom_sums`` taken there."""
    sum0, sumt, min_ad = sums
    if abs(z) < POLE_EPS or abs(s) < POLE_EPS or abs(g) < POLE_EPS or min_ad < POLE_EPS:
        return np.inf, np.inf, POLE
    r1 = abs(z + (1.0 - y) / s + (y / s) * sum0)
    r2 = abs(z + 1.0 / g - y * sumt)
    return r1, r2, OK


def fixed_point(z, u, t, w, y, s0, g0, tol, max_iter, damping):
    """Damped alternating fixed point for the coupled transform pair.

    Candidate updates come from each equation rearranged for its own
    unknown; iterates leaving the closed upper half-plane are projected
    back to Im = +1e-16. The atom sums at each new iterate serve both its
    residuals and the next update. Returns (s, g, r1, r2, iterations,
    status).
    """
    s = s0
    g = g0
    r1 = np.inf
    r2 = np.inf
    if abs(z) < POLE_EPS:
        return s, g, r1, r2, 0, POLE
    tol_eff = effective_tol(tol, z)
    sums = atom_sums(s, g, u, t, w)
    for it in range(max_iter):
        sum0, sumt, min_ad = sums
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
        sums = atom_sums(s, g, u, t, w)
        r1, r2, status = _residuals(z, s, g, sums, y)
        if status == OK and r1 < tol_eff and r2 < tol_eff:
            return s, g, r1, r2, it + 1, OK
    return s, g, r1, r2, max_iter, NO_CONVERGE


def newton_pair(z, u, t, w, y, s0, g0, tol, max_iter):
    """Newton on the cleared two-equation system, polishing a stall.

    The equations are ``residual_pair``'s multiplied through by s and by g,

        F1 = z*s + (1 - y) + y*sum(w/d),
        F2 = z*g + 1 - y*g*sum(w*t/d),

    which have no pole at s = 0 or g = 0, so Newton passes close to either
    where the inverted system, divided by s and g, stalls. A start whose
    ``residual_pair`` residuals are already below effective_tol(tol, z) is
    returned unchanged. Otherwise every step is the full Newton step (the
    2x2 complex system by Cramer's rule), and an iterate leaving the closed
    upper half-plane is projected back to Im = +1e-16. Newton stops, status
    OK, once both steps are below PAIR_STEP_TOL relative to the stepped
    point, which in its quadratic regime is at rounding level. It stops with
    status NO_CONVERGE once a step below PAIR_NOISE_TOL does not shrink (the
    rounding floor of an ill-conditioned Jacobian), or when max_iter steps
    ran out. A full step can end worse than its start, so the residuals
    returned are always ``residual_pair``'s at the returned point, and the
    caller judges them. Returns (s, g, r1, r2, iterations, status).
    """
    s = s0
    g = g0
    if abs(z) < POLE_EPS:
        return s, g, np.inf, np.inf, 0, POLE
    tol_eff = effective_tol(tol, z)
    r1, r2, status = residual_pair(z, s, g, u, t, w, y)
    if status != OK:
        return s, g, np.inf, np.inf, 0, POLE
    if r1 < tol_eff and r2 < tol_eff:
        return s, g, r1, r2, 0, OK
    status = NO_CONVERGE
    last_step = np.inf
    it = 0
    while it < max_iter:
        it += 1
        sum0 = 0.0 + 0.0j
        sumt = 0.0 + 0.0j
        sum_t_d2 = 0.0 + 0.0j
        sum_u_d2 = 0.0 + 0.0j
        sum_tt_d2 = 0.0 + 0.0j
        sum_ut_d2 = 0.0 + 0.0j
        for u_k, t_k, w_k in zip(u, t, w):
            d = 1.0 + u_k * g + t_k * s
            if abs(d) < POLE_EPS:
                return s, g, np.inf, np.inf, it, POLE
            wd = w_k / d
            wd2 = wd / d
            sum0 += wd
            sumt += t_k * wd
            sum_t_d2 += t_k * wd2
            sum_u_d2 += u_k * wd2
            sum_tt_d2 += t_k * t_k * wd2
            sum_ut_d2 += u_k * t_k * wd2
        f1 = z * s + (1.0 - y) + y * sum0
        f2 = z * g + 1.0 - y * g * sumt
        j11 = z - y * sum_t_d2
        j12 = -y * sum_u_d2
        j21 = y * g * sum_tt_d2
        j22 = z - y * sumt + y * g * sum_ut_d2
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-30:
            status = SINGULAR
            break
        ds = (f2 * j12 - f1 * j22) / det
        dg = (f1 * j21 - f2 * j11) / det
        s += ds
        g += dg
        if s.imag < 0.0:
            s = complex(s.real, 1e-16)
        if g.imag < 0.0:
            g = complex(g.real, 1e-16)
        step = max(abs(ds) / abs(s), abs(dg) / abs(g)) if s and g else np.inf
        if step <= PAIR_STEP_TOL:
            status = OK
            break
        if step < PAIR_NOISE_TOL and step >= last_step:
            break
        last_step = step
    r1, r2, pole = residual_pair(z, s, g, u, t, w, y)
    return s, g, r1, r2, it, POLE if pole == POLE else status


def constraint_residual(s, g, u, t, w, y):
    """|y*g^2 * sum_k w*u/(1+u*g+t*s) + s - g| for complex or real inputs."""
    acc = 0.0 + 0.0j
    for u_k, t_k, w_k in zip(u, t, w):
        d = 1.0 + u_k * g + t_k * s
        if abs(d) < POLE_EPS:
            return np.inf
        acc += w_k * u_k / d
    return abs(y * g * g * acc + s - g)


def phi(g, s, u, t, w, y):
    """Real coupling constraint y*g^2*sum(w*u/(1+u*g+t*s)) + s - g."""
    acc = 0.0
    for u_k, t_k, w_k in zip(u, t, w):
        d = 1.0 + u_k * g + t_k * s
        acc += w_k * u_k / d
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
    lo = -np.inf
    hi = np.inf
    for u_k, t_k, w_k in zip(u, t, w):
        if w_k * u_k != 0.0:
            p = -(1.0 + u_k * g) / t_k
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
        for u_k, t_k, w_k in zip(u, t, w):
            d = 1.0 + u_k * g + t_k * s
            acc += w_k * u_k * t_k / (d * d)
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


def branch_terms(g, s, u, t, w, y):
    """x(g), dx/dg, s'(g) and phi_s at a real root s of the coupling constraint.

    x is the inverse map, s'(g) = -phi_g/phi_s comes from implicit
    differentiation of the constraint, and dx/dg = 1/g^2 - y*A2 - y*B2*s'(g)
    is analytic. The arithmetic is elementwise, so g and s may be scalars
    (``branch``) or broadcasting arrays (``real_roots``, every root of a
    grid at once).

    Returns (x, dx_dg, ds_dg, phi_s).
    """
    x = -1.0 / g
    a2 = 0.0
    b2 = 0.0
    u2 = 0.0
    iu = 0.0
    for u_k, t_k, w_k in zip(u, t, w):
        d = 1.0 + u_k * g + t_k * s
        x = x + y * w_k * t_k / d
        d2 = d * d
        a2 = a2 + w_k * u_k * t_k / d2
        b2 = b2 + w_k * t_k * t_k / d2
        u2 = u2 + w_k * u_k * u_k / d2
        iu = iu + w_k * u_k / d
    phi_g = 2.0 * y * g * iu - y * g * g * u2 - 1.0
    phi_s = 1.0 - y * g * g * a2
    s_prime = -phi_g / phi_s
    dx_dg = 1.0 / (g * g) - y * a2 - y * b2 * s_prime
    return x, dx_dg, s_prime, phi_s


def branch(g, u, t, w, y, s_center):
    """Real-branch evaluation at one parameter value.

    Solves the coupling constraint for s by Newton from s_center, then
    evaluates ``branch_terms`` at the root.

    Returns (s, x, dx_dg, ds_dg, status).
    """
    s, _res, status = solve_s(g, u, t, w, y, s_center)
    if status != OK:
        return s, 0.0, 0.0, 0.0, status
    if min(abs(1.0 + u_k * g + t_k * s) for u_k, t_k in zip(u, t)) < 1e-12:
        return s, 0.0, 0.0, 0.0, POLE
    x, dx_dg, s_prime, phi_s = branch_terms(g, s, u, t, w, y)
    if abs(phi_s) < 1e-14:
        return s, x, 0.0, 0.0, SINGULAR
    return s, x, dx_dg, s_prime, OK


def admissible(g, s, dx_dg, s_prime):
    """Whether real roots s of the coupling constraint at g bound a gap, elementwise.

    In a gap, g(x) and s(x) are real Stieltjes transforms of probability
    measures: they increase, and by Cauchy-Schwarz g'(x) >= g^2 and
    s'(x) >= s^2. So a root is admissible when dx/dg > 0, s'(g) > 0,
    g^2*dx/dg <= 1 and s'(g) >= s^2*dx/dg, the last within ROOT_RTOL
    relative (it turns into an equality as x -> inf, below rounding when
    y*|g| is small). NaN is not admissible.
    """
    return (
        (dx_dg > 0.0)
        & (s_prime > 0.0)
        & (dx_dg <= 1.0 / (g * g))
        & (s * s * dx_dg <= (1.0 + ROOT_RTOL) * s_prime)
    )


def _times_linear(p, a, b):
    """Coefficient rows (highest power first) of p(s)*(a*s + b), row by row."""
    out = np.zeros((p.shape[0], p.shape[1] + 1))
    out[:, :-1] = a * p
    out[:, 1:] += b * p
    return out


def _closed_form_roots(coef):
    """Roots of degree-1 or degree-2 coefficient rows (highest power first).

    A linear row's root is -c1/c0. A quadratic a*s^2 + b*s + c uses the
    cancellation-free pair q/a and c/q with
    q = -(b + sign(b)*sqrt(|disc|))/2, and q = 0 (b = c = 0) is the double
    root 0; disc < 0 gives the complex pair -b/2a +- i*sqrt(-disc)/2|a|.
    Returns an array of shape (rows, degree).
    """
    if coef.shape[1] == 2:
        return -coef[:, 1:] / coef[:, :1]
    a, b, c = coef.T
    disc = b * b - 4.0 * a * c
    root = np.sqrt(np.abs(disc))
    q = -0.5 * (b + np.copysign(root, b))
    r = np.zeros((coef.shape[0], 2), dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        r.real[:, 0] = q / a
        r.real[:, 1] = np.where(q == 0.0, 0.0, c / q)
    pair = disc < 0.0
    mid = -b[pair] / (2.0 * a[pair])
    half = root[pair] / (2.0 * np.abs(a[pair]))
    r[pair, 0] = mid + 1j * half
    r[pair, 1] = mid - 1j * half
    return r


def real_roots(gs, u, t, w, y):
    """Every real root of the coupling constraint at each g of a grid, tested.

    Clearing the denominators d_j = 1 + u_j*g + t_j*s of the m atoms with
    w*u != 0 turns phi(g, .) into (s - g)*prod_j d_j + y*g^2*sum_k
    w_k*u_k*prod_{j != k} d_j, a polynomial of degree m + 1 in s. Its roots
    at every grid point come in closed form for degree 1 (no atom with
    signal) and 2 (one), vectorised over the grid (``_closed_form_roots``),
    and from one batched eigenvalue call on the companion matrices for
    degree 3 and more (two or more atoms with signal), the only path there:
    the cubic and quartic formulas lose accuracy to cancellation, and higher
    degrees have none. On degree 1 and 2 the per-matrix LAPACK overhead was
    about half the sweep's time. A root with |Im| <= ROOT_RTOL*(1 + |r|) is
    real; POLISH_STEPS Newton steps on the rational phi then undo the loss
    of accuracy from clearing, which is worst where two atoms' poles nearly
    coincide.

    Each root is tested by ``admissible``.

    Returns (s, x, dx_dg, admissible), arrays of shape (len(gs), m + 1): row
    i holds grid point i's roots, with NaN in place of complex ones.
    """
    u, t, w = (np.asarray(a, dtype=np.float64) for a in (u, t, w))
    active = w * u != 0.0
    # d_j = lin_j + t_j*s; build prod_j d_j and sum_k w_k*u_k*prod_{j != k} d_j
    # one atom at a time
    lin = 1.0 + np.outer(gs, u[active])
    prod = np.ones((gs.shape[0], 1))
    pole_sum = np.zeros((gs.shape[0], 0))
    for j, (t_j, wu_j) in enumerate(zip(t[active], (w * u)[active])):
        pole_sum = _times_linear(pole_sum, t_j, lin[:, j:j + 1]) + wu_j * prod
        prod = _times_linear(prod, t_j, lin[:, j:j + 1])
    g = gs[:, None]
    coef = _times_linear(prod, 1.0, -g)
    coef[:, 2:] += y * g * g * pole_sum
    degree = coef.shape[1] - 1
    if degree <= 2:
        r = _closed_form_roots(coef)
    else:
        companion = np.zeros((gs.shape[0], degree, degree))
        companion[:, 0, :] = -coef[:, 1:] / coef[:, :1]
        companion[:, range(1, degree), range(degree - 1)] = 1.0
        r = np.linalg.eigvals(companion)
    s = np.where(np.abs(r.imag) <= ROOT_RTOL * (1.0 + np.abs(r)), r.real, np.nan)
    with np.errstate(all="ignore"):
        for _ in range(POLISH_STEPS):
            s = s - phi(g, s, u, t, w, y) / branch_terms(g, s, u, t, w, y)[3]
        x, dx_dg, s_prime, _phi_s = branch_terms(g, s, u, t, w, y)
        admitted = admissible(g, s, dx_dg, s_prime)
    return s, x, dx_dg, admitted


def sweep(gs, u, t, w, y):
    """The admissible root of the coupling constraint at each g of a grid.

    A grid point is OK when ``real_roots`` admits a root there and every
    admitted root has the same x to ROOT_RTOL relative (copies of one root,
    left where two atoms' poles nearly coincide); the one with the smallest
    |phi| is returned, since a copy that the polish has not yet brought onto
    the root can agree with it in x. Every other point is NO_BRACKET.

    Returns (s, x, dx_dg, status, den) arrays; den[i, k] is atom k's
    denominator 1 + u*g + t*s at grid point i. A NO_BRACKET point has NaN in
    every array but status.
    """
    u, t, w = (np.asarray(a, dtype=np.float64) for a in (u, t, w))
    s, x, dx_dg, admitted = real_roots(gs, u, t, w, y)
    x_lo = np.where(admitted, x, np.inf).min(axis=1)
    x_hi = np.where(admitted, x, -np.inf).max(axis=1)
    ok = admitted.any(axis=1) & (x_hi - x_lo <= ROOT_RTOL * np.abs(x_lo))
    with np.errstate(all="ignore"):
        residual = np.where(admitted, np.abs(phi(gs[:, None], s, u, t, w, y)), np.inf)
    rows = np.arange(gs.shape[0])
    best = np.argmin(residual, axis=1)
    s, x, dx_dg = (np.where(ok, a[rows, best], np.nan) for a in (s, x, dx_dg))
    den = 1.0 + gs[:, None] * u + s[:, None] * t
    return s, x, dx_dg, np.where(ok, OK, NO_BRACKET), den
