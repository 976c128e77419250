"""Coupled companion-transform solver on the upper half-plane and real axis.

The system couples two scalar transforms (s, g) of the limiting spectral
distribution through atom denominators 1 + u*g + t*s. There is one solve
primitive. ``solve_at`` runs one damped fixed point from s = g = -1/z and
polishes it with Newton; it raises ConvergenceError when the fixed point
fails. ``boundary_value`` solves the top rung of the ladder of heights
LADDER the same way, or by one Newton solve from a neighbouring point's top
rung when it is given one, then runs one Newton solve per rung, warm-started
from the rung above, as the height shrinks by three decades per rung down
to V_MIN and then the real axis. Newton solves the cleared system, which
has no pole at s = 0, so a rung can span three decades even next to a
support edge. A rung above the axis whose Newton result fails the residual
or the upper-half-plane check raises ContinuationError; at the axis the
last pair above it is returned instead. The tolerances, budgets and
heights are fixed module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels as K
from .exceptions import (
    ContinuationError,
    ConvergenceError,
    PoleError,
    SingularTransformError,
)
from .spectrum import ModelConfig, spectrum_arrays


# Both residuals of an accepted pair lie below TOL, at every rung of the
# ladder and for the fixed point.
TOL = 1e-10
# Iteration budget and damping factor of the one fixed-point solve that
# starts ``solve_at`` and a cold ``boundary_value``.
FIXED_POINT_MAX_ITER = 10000
DAMPING = 0.5
# boundary_value's heights above the axis, three decades apart down to
# V_MIN, the last one, whose pair is the fallback when the v = 0 Newton
# solve fails.
LADDER = (1.0, 1e-3, 1e-6, 1e-8)
V_MIN = LADDER[-1]
# Newton steps allowed per solve (a rung, or the polish after the fixed point)
NEWTON_MAX_ITER = 50
# Newton steps allowed to boundary_value's real-part restart, which from a
# point inside the support has no real root to reach
RESTART_MAX_ITER = 8
# Newton polishes toward TOL * POLISH_FACTOR
POLISH_FACTOR = 1e-4
# boundary_value tries the real-part restart when the axis pair's imaginary
# parts are below RESTART_GATE relative to its magnitudes, and keeps the
# real pair only within RESTART_CLOSENESS times that fraction of it.
RESTART_GATE = 1e-3
RESTART_CLOSENESS = 10.0


@dataclass(frozen=True)
class StieltjesPair:
    """Solution pair (s_under, g_under) of the inverted system at a point z.

    A pair returned by ``boundary_value`` also carries ``top``, the pair of
    its ladder's top rung, which is the warm start ``near`` for the next
    point of a grid, and ``cold_top``, whether that rung was solved cold.
    Neither takes part in comparisons.
    """

    z: complex
    s_under: complex
    g_under: complex
    top: StieltjesPair | None = field(default=None, compare=False, repr=False)
    cold_top: bool = field(default=False, compare=False, repr=False)


def residual_713(pair: StieltjesPair, cfg: ModelConfig) -> tuple[float, float]:
    """Absolute residuals of the two inverted equations at the pair.

    Raises PoleError when z, s, g, or an atom denominator magnitude falls
    below 1e-14.
    """
    u, t, w = cfg.spectrum.columns
    r1, r2, status = K.residual_pair(
        complex(pair.z), complex(pair.s_under), complex(pair.g_under), u, t, w, cfg.y
    )
    if status == K.POLE:
        raise PoleError(f"denominator below {K.POLE_EPS} at z={pair.z!r}")
    return float(r1), float(r2)


def residual_712(s: complex, g: complex, z: complex, cfg: ModelConfig) -> tuple[float, float]:
    """Residuals of the original (non-companion) equation system at (s, g, z)."""
    u, t, w = spectrum_arrays(cfg.spectrum)
    y = cfg.y
    if abs(1.0 + y * g) < K.POLE_EPS:
        raise PoleError("1 + y*g vanished in the original system")
    den = u / (1.0 + y * g) - (1.0 + y * s * t) * z + t * (1.0 - y)
    if np.min(np.abs(den)) < K.POLE_EPS:
        raise PoleError("atom denominator vanished in the original system")
    rhs1 = np.sum(w / den)
    rhs2 = np.sum(w * t / den)
    return float(abs(s - rhs1)), float(abs(g - rhs2))


def to_companion(s: complex, g: complex, z: complex, y: float) -> StieltjesPair:
    """Map the original pair (s, g) at z to the companion pair.

    s_under = -(1-y)/z + y*s and g_under = -1/(z*(1+y*g)).
    """
    if abs(z) < K.POLE_EPS:
        raise SingularTransformError("z = 0 in companion transform")
    den = z * (1.0 + y * g)
    if abs(den) < K.POLE_EPS:
        raise SingularTransformError("z*(1+y*g) vanished in companion transform")
    return StieltjesPair(z=z, s_under=-(1.0 - y) / z + y * s, g_under=-1.0 / den)


def from_companion(pair: StieltjesPair, y: float) -> tuple[complex, complex]:
    """Invert the companion transform back to the original pair (s, g)."""
    if y == 0.0:
        raise SingularTransformError("y = 0 has no original pair")
    z = pair.z
    zg = z * pair.g_under
    if abs(z) < K.POLE_EPS or abs(zg) < K.POLE_EPS:
        raise SingularTransformError("z*g_under vanished in inverse transform")
    s = (pair.s_under + (1.0 - y) / z) / y
    g = (-1.0 / zg - 1.0) / y
    return s, g


def constraint_residual(pair: StieltjesPair, cfg: ModelConfig) -> float:
    """Residual of the compatibility constraint tying s, g, and the u-moment."""
    u, t, w = cfg.spectrum.columns
    return float(
        K.constraint_residual(
            complex(pair.s_under), complex(pair.g_under), u, t, w, cfg.y
        )
    )


def _newton(z, cfg, s0, g0, max_iter=NEWTON_MAX_ITER):
    """Newton from (s0, g0) toward the polish target, in at most max_iter
    steps.

    Returns (pair, holds, polished): the pair Newton ended at; whether it
    holds, that is both residuals of the inverted system are below
    K.effective_tol(TOL, z) and both imaginary parts are non-negative; and
    whether Newton converged, its step falling to rounding level, or started
    within K.effective_tol(TOL * POLISH_FACTOR, z). Both targets rise to the
    rounding floor RESIDUAL_FLOOR * |z| for large |z|. Newton takes full
    steps, so it can end worse than its start; the caller keeps the start
    when the result does not hold. s0 and g0 reach the kernel unconverted.
    They are Python complex at every call, from the ladder and from the
    fixed point alike: the atoms are Python floats, so the kernels never
    make a numpy scalar.
    """
    u, t, w = cfg.spectrum.columns
    s, g, r1, r2, _it, status = K.newton_pair(
        complex(z), u, t, w, cfg.y, s0, g0, TOL * POLISH_FACTOR, max_iter,
    )
    holds = (
        max(r1, r2) < K.effective_tol(TOL, z)
        and s.imag >= 0.0
        and g.imag >= 0.0
    )
    return StieltjesPair(z=complex(z), s_under=s, g_under=g), holds, status == K.OK


def _cold(z, cfg):
    """Damped fixed point from s = g = -1/z, then one Newton polish.

    The polished pair is returned when it holds, the fixed point's
    otherwise. Raises ConvergenceError when the fixed point fails: its
    budget ran out before both residuals fell below TOL, or a pole guard
    tripped.
    """
    u, t, w = cfg.spectrum.columns
    start = -1.0 / z
    s, g, r1, r2, it, status = K.fixed_point(
        z, u, t, w, cfg.y, start, start, TOL, FIXED_POINT_MAX_ITER, DAMPING,
    )
    if status != K.OK:
        raise ConvergenceError(z, (float(r1), float(r2)), it)
    polished, holds, _converged = _newton(z, cfg, s, g)
    if holds:
        return polished
    return StieltjesPair(z=complex(z), s_under=s, g_under=g)


def solve_at(z: complex, cfg: ModelConfig) -> StieltjesPair:
    """Unique upper-half-plane solution pair at z (requires Im z > 0).

    Starts from s = g = -1/z, exact in the y -> 0 and |z| -> infinity
    limits, damps the alternating update until both residuals drop below
    TOL, and polishes the result with Newton. Raises ConvergenceError when
    the fixed point fails.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"solve_at requires Im z > 0, got z={z!r}")
    return _cold(z, cfg)


def boundary_value(
    x: float,
    cfg: ModelConfig,
    near: StieltjesPair | None = None,
) -> StieltjesPair:
    """Real-axis limit of the solution pair at x != 0.

    Walks the heights LADDER (1, 1e-3, 1e-6, 1e-8 = V_MIN), then v = 0. The
    first height is solved by one Newton solve from near, the top-rung pair
    of a neighbouring point (``density`` passes the previous grid point's),
    when near is given and that Newton result holds; otherwise it is solved
    cold, as ``solve_at`` does. Every later height is one Newton solve
    warm-started from the pair one height up. A height above the axis whose
    pair does not hold (both residuals below TOL, both imaginary parts
    non-negative) raises ContinuationError(x, v). When the v = 0 pair does
    not hold, the V_MIN pair is returned: its ``z`` keeps Im z = V_MIN,
    which is how callers tell the fallback apart. The returned pair carries
    the top-rung pair in ``top`` and whether it was solved cold in
    ``cold_top``.

    Off the support the limit pair is real. When the imaginary parts of the
    v = 0 pair are already a small fraction rel_im (below RESTART_GATE) of
    the magnitudes, Newton solves once more from its real parts, in at most
    RESTART_MAX_ITER steps, so the iterates stay exactly real. The real
    pair replaces the complex one only when it lies within
    RESTART_CLOSENESS * rel_im of it (relative, in both s and g), so a full
    Newton step cannot carry the restart to another real root, and Newton
    converged on it or its residuals are no larger than the complex pair's.
    Next to a square-root edge inside the support a real point's residual
    is of order (Im s)^2, below TOL within about 1e-11 of the edge, yet it
    stays above both of those, so the complex pair is kept there.
    """
    if x == 0.0:
        raise ValueError("boundary values are undefined at x = 0")
    v = LADDER[0]
    top, holds = None, False
    if near is not None:
        top, holds, _polished = _newton(complex(x, v), cfg, near.s_under, near.g_under)
    cold = not holds
    if cold:
        try:
            top = _cold(complex(x, v), cfg)
        except ConvergenceError as exc:
            raise ContinuationError(x, v) from exc
    pair = top
    for v in LADDER[1:]:
        pair, holds, _polished = _newton(complex(x, v), cfg, pair.s_under, pair.g_under)
        if not holds:
            raise ContinuationError(x, v)

    result = pair
    axis, holds, _polished = _newton(complex(x, 0.0), cfg, pair.s_under, pair.g_under)
    if holds:
        result = axis
        s, g = axis.s_under, axis.g_under
        rel_im = max(
            abs(s.imag) / max(1.0, abs(s)),
            abs(g.imag) / max(1.0, abs(g)),
        )
        if rel_im < RESTART_GATE:
            real, holds, polished = _newton(
                complex(x, 0.0), cfg, complex(s.real, 0.0), complex(g.real, 0.0),
                RESTART_MAX_ITER,
            )
            close = max(
                abs(real.s_under - s) / max(1.0, abs(s)),
                abs(real.g_under - g) / max(1.0, abs(g)),
            ) <= RESTART_CLOSENESS * rel_im
            if close and holds and (
                polished or max(residual_713(real, cfg)) <= max(residual_713(axis, cfg))
            ):
                result = real
    return replace(result, top=top, cold_top=cold)
