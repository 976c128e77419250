from __future__ import annotations

import numpy as np
import pytest

from specsep import (
    ContinuationError,
    ConvergenceError,
    JointSpectrum,
    ModelConfig,
    PoleError,
    StieltjesPair,
    boundary_value,
    constraint_residual,
    density,
    from_companion,
    residual_712,
    residual_713,
    solve_at,
    to_companion,
)

from specsep import _kernels as K
from specsep.solver import LADDER, NEWTON_MAX_ITER, RESTART_MAX_ITER, TOL, V_MIN

from oracles import (
    cleared_root,
    mp_boundary_companion,
    mp_boundary_exact,
    mp_companion_transform,
    mp_density,
    mp_edges,
    mp_transform,
)


def random_model(rng) -> ModelConfig:
    k = int(rng.integers(1, 6))
    w = rng.dirichlet(np.ones(k))
    atoms = [(rng.uniform(0.0, 10.0), rng.uniform(0.1, 5.0), wi) for wi in w]
    y = float(rng.uniform(0.05, 1.0))
    return ModelConfig(JointSpectrum.from_atoms(atoms), y)


class TestResidual713:
    def test_zero_at_closed_form_solution(self, mp_config):
        z = 3 + 0.5j
        s = mp_companion_transform(z, 0.25)
        pair = StieltjesPair(z=z, s_under=s, g_under=s)
        r1, r2 = residual_713(pair, mp_config)
        assert r1 < 1e-10 and r2 < 1e-10

    def test_positive_off_solution(self, mp_config):
        z = 3 + 0.5j
        s = mp_companion_transform(z, 0.25)
        pair = StieltjesPair(z=z, s_under=s + 1e-3, g_under=s)
        r1, r2 = residual_713(pair, mp_config)
        assert r1 > 1e-6 and r2 > 0

    def test_pole_raises(self):
        cfg = ModelConfig(JointSpectrum.from_atoms([(1.0, 1.0, 1.0)]), 0.25)
        pair = StieltjesPair(z=1 + 1j, s_under=-0.5 + 0j, g_under=-0.5 + 0j)
        with pytest.raises(PoleError):
            residual_713(pair, cfg)


class TestTransforms:
    def test_y_one_collapses_s(self):
        z, s, g = 1.3 + 0.8j, -0.4 + 0.6j, -0.2 + 0.1j
        pair = to_companion(s, g, z, 1.0)
        assert pair.s_under == pytest.approx(s)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3))
            s = complex(rng.uniform(-2, 2), rng.uniform(0.01, 2))
            g = complex(rng.uniform(-2, 2), rng.uniform(0.01, 2))
            y = float(rng.uniform(0.05, 1.0))
            s2, g2 = from_companion(to_companion(s, g, z, y), y)
            assert abs(s2 - s) < 1e-12
            assert abs(g2 - g) < 1e-12

    def test_small_y_limit(self):
        z = 2.0 + 1.0j
        s, g = -0.4 + 0.3j, -0.5 + 0.2j
        for y in (1e-6, 1e-9):
            pair = to_companion(s, g, z, y)
            assert abs(pair.s_under + 1.0 / z) < 2 * y * abs(s)
            assert abs(pair.g_under + 1.0 / z) < 2 * y * (abs(g) + 1) / abs(z)


class TestSolveAt:
    def test_requires_upper_half_plane(self, mp_config):
        with pytest.raises(ValueError):
            solve_at(2.0 + 0.0j, mp_config)

    def test_small_y_approaches_minus_one_over_z(self, two_atom_spectrum):
        cfg = ModelConfig(two_atom_spectrum, 1e-4)
        z = 5 + 0.01j
        pair = solve_at(z, cfg)
        assert abs(pair.s_under + 1.0 / z) < 1e-3
        assert abs(pair.g_under + 1.0 / z) < 1e-3

    def test_matches_companion_quadratic(self, mp_config):
        z = 1 + 1j
        pair = solve_at(z, mp_config)
        oracle = mp_companion_transform(z, 0.25)
        assert oracle.imag > 0
        assert abs(pair.s_under - oracle) < 1e-9
        assert abs(pair.g_under - oracle) < 1e-9

    def test_decay_at_large_z(self, mp_config):
        z = 1e6 + 1e3j
        pair = solve_at(z, mp_config)
        assert abs(pair.s_under + 1.0 / z) < 1e-8

    def test_total_mass_from_imaginary_axis(self, two_atom_config):
        # s(iv)*iv -> -1 as v grows: total mass one
        for v in (1e3, 1e6):
            pair = solve_at(complex(0.0, v), two_atom_config)
            assert abs(pair.s_under * complex(0.0, v) + 1.0) < 10.0 / v


class TestResidual712:
    def test_round_trip_from_companion(self, two_atom_config):
        z = 2.5 + 0.7j
        pair = solve_at(z, two_atom_config)
        s, g = from_companion(pair, two_atom_config.y)
        r1, r2 = residual_712(s, g, z, two_atom_config)
        assert r1 < 1e-9 and r2 < 1e-9

    def test_perturbation_detected(self, two_atom_config):
        z = 2.5 + 0.7j
        pair = solve_at(z, two_atom_config)
        s, g = from_companion(pair, two_atom_config.y)
        r1, _ = residual_712(s + 1e-3, g, z, two_atom_config)
        assert r1 > 1e-6

    def test_mp_closed_form(self, mp_config):
        z = 3 + 0.5j
        s = mp_transform(z, 0.25)
        # for the point mass, the t-weighted trace equals s itself
        r1, r2 = residual_712(s, s, z, mp_config)
        assert r1 < 1e-10 and r2 < 1e-10


class TestBoundaryValue:
    def test_density_inside_bulk(self, mp_config):
        pair = boundary_value(1.0, mp_config)
        f = pair.s_under.imag / (0.25 * np.pi)
        assert abs(f - mp_density(1.0, 0.25)) < 1e-6

    def test_real_outside_support(self, mp_config):
        pair = boundary_value(3.0, mp_config)
        assert abs(pair.s_under.imag) < 1e-7
        assert pair.s_under.real < 0
        oracle = mp_boundary_companion(3.0, 0.25)
        assert abs(pair.s_under.real - oracle.real) < 1e-9

    def test_s_equals_g_for_signal_free_spectrum(self, mp_config):
        pair = boundary_value(3.0, mp_config)
        assert abs(pair.s_under - pair.g_under) < 1e-9

    @pytest.mark.parametrize("x", [1e5, 1e6])
    def test_real_far_outside_support(self, mp_config, x):
        # the residual floor 1e-14*|x| exceeds tol = 1e-10 here; the ladder
        # used to reject Newton's pair at v = 1e-3 (x = 1e5) or 0.1 (x = 1e6)
        pair = boundary_value(x, mp_config)
        assert pair.z == complex(x, 0.0)
        assert pair.s_under.imag == 0.0
        assert pair.s_under.real == pytest.approx(mp_boundary_companion(x, 0.25).real, rel=1e-9)
        assert pair.s_under.real == pytest.approx(-1.0 / x, rel=1e-5)

    def test_rejects_zero(self, mp_config):
        with pytest.raises(ValueError):
            boundary_value(0.0, mp_config)

    def test_continuation_contract_at_v_min(self, mp_config):
        # the continued pair must satisfy the system at z = x + i*V_MIN
        x = 1.4
        pair = boundary_value(x, mp_config)
        oracle = mp_companion_transform(complex(x, V_MIN), 0.25)
        assert abs(pair.s_under - oracle) < 1e-4
        r1, r2 = residual_713(pair, mp_config)
        assert r1 < TOL and r2 < TOL

    def test_ladder_is_three_decades_per_rung(self):
        assert LADDER == (1.0, 0.001, 1e-06, 1e-08)
        assert V_MIN == LADDER[-1]

    def test_rejected_rung_above_axis_raises(self, mp_config, monkeypatch):
        # Newton never moves: the cold top rung keeps the fixed point's pair,
        # and the first Newton rung, at v = 1e-3, is rejected
        def no_newton(z, u, t, w, y, s0, g0, tol, max_iter):
            return s0, g0, np.inf, np.inf, 0, K.NO_CONVERGE

        monkeypatch.setattr(K, "newton_pair", no_newton)
        with pytest.raises(ContinuationError) as info:
            boundary_value(1.0, mp_config)
        assert info.value.x == 1.0
        assert info.value.v == 1e-3

    def test_rejected_axis_rung_returns_v_min_pair(self, mp_config, monkeypatch):
        heights = []
        real_newton = K.newton_pair

        def no_newton_on_axis(z, u, t, w, y, s0, g0, tol, max_iter):
            heights.append(z.imag)
            if z.imag == 0.0:
                return s0, g0, np.inf, np.inf, 0, K.NO_CONVERGE
            return real_newton(z, u, t, w, y, s0, g0, tol, max_iter)

        monkeypatch.setattr(K, "newton_pair", no_newton_on_axis)
        pair = boundary_value(1.0, mp_config)
        # the cold top rung's polish, one Newton rung per three decades
        # clamped to V_MIN, the axis
        assert heights == [1.0, 1e-3, 1e-6, 1e-8, 0.0]
        assert pair.z == complex(1.0, V_MIN)
        oracle = mp_companion_transform(pair.z, 0.25)
        assert abs(pair.s_under - oracle) < 1e-9
        assert abs(pair.g_under - oracle) < 1e-9

    def test_continuation_reaches_the_axis_just_above_the_lowest_edge(self):
        # s_under tends to 0 next to this edge, where the inverted system has
        # a pole; Newton on it stalled at v = 1e-5 and raised ContinuationError
        cfg = ModelConfig(
            JointSpectrum.from_atoms([(2.460203074985227, 0.28214932290242284, 0.5),
                                      (7.178562002415245, 1.4208890122955642, 0.5)]),
            0.3040239640492571,
        )
        edge = 1.7240942580707719  # b of find_gaps' lowest gap on this model
        pair = boundary_value(edge * (1.0 + 1e-7), cfg)
        r1, r2 = residual_713(pair, cfg)
        assert r1 < TOL and r2 < TOL

    def test_restart_keeps_the_complex_pair_next_to_an_edge(self):
        # 1e-8 relative inside the support: a full Newton step from the real
        # parts of the axis pair lands on another real root, s = -0.39606,
        # which the restart must not take
        atoms = [(2.8847645328862583, 1.6772293411886203, 0.9343778502418449),
                 (1.6551555556722852, 0.6717943504053682, 0.06562214975815507)]
        y = 0.1563597045482053
        x = 2.272164941200283 * (1.0 + 1e-8)
        pair = boundary_value(x, ModelConfig(JointSpectrum.from_atoms(atoms), y))
        assert pair.z == complex(x, 0.0)
        assert pair.s_under.imag > 0.0 and pair.g_under.imag > 0.0
        s, g = cleared_root(x, atoms, y, pair.s_under, pair.g_under)
        assert s.imag > 0.0
        assert abs(pair.s_under - s) <= 1e-9 * abs(s)
        assert abs(pair.g_under - g) <= 1e-9 * abs(g)

    def test_restart_inside_the_support_stops_within_its_budget(self, monkeypatch):
        # a near-edge point of LADDER_CORPUS.json, 1e-6 relative inside the
        # support: the real-part restart has no real root nearby, and
        # uncapped it ran Newton's whole budget before the guard rejected it
        atoms = [(1.337796328562325, 0.8730061565048988, 1.0)]
        y = 0.08245962756644058
        x = 1.3007181163741348
        steps = []
        real = K.newton_pair

        def counted(z, u, t, w, y, s0, g0, tol, max_iter):
            result = real(z, u, t, w, y, s0, g0, tol, max_iter)
            steps.append((z.imag == 0.0 and s0.imag == 0.0 and g0.imag == 0.0, result[4]))
            return result

        monkeypatch.setattr(K, "newton_pair", counted)
        pair = boundary_value(x, ModelConfig(JointSpectrum.from_atoms(atoms), y))
        restarts = [it for from_real, it in steps if from_real]
        assert len(restarts) == 1
        assert restarts[0] <= RESTART_MAX_ITER < NEWTON_MAX_ITER
        assert pair.z == complex(x, 0.0)
        assert pair.s_under.imag > 0.0 and pair.g_under.imag > 0.0

    def test_three_decade_rungs_reach_the_axis_next_to_an_edge(self):
        # 1e-4 relative below an edge; Newton on the inverted system, with its
        # residual-decrease line search, stalls on the rung from 1 to 1e-3
        atoms = [(6.913999656943246, 3.5040007649222145, 1.0)]
        y = 0.6863224745578402
        x = 1.0874280562838077 * (1.0 - 1e-4)
        cfg = ModelConfig(JointSpectrum.from_atoms(atoms), y)
        pair = boundary_value(x, cfg)
        assert pair.z == complex(x, 0.0)
        r1, r2 = residual_713(pair, cfg)
        assert r1 < TOL and r2 < TOL
        s, g = cleared_root(x, atoms, y, pair.s_under, pair.g_under)
        assert abs(pair.s_under - s) <= 1e-10 * abs(s)
        assert abs(pair.g_under - g) <= 1e-10 * abs(g)

    @pytest.mark.parametrize("edge", mp_edges(0.25))
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_matches_closed_form_mp_next_to_both_edges(self, mp_config, edge, side):
        for k in range(2, 11):
            x = edge * (1.0 + side * 10.0**-k)
            pair = boundary_value(x, mp_config)
            exact = mp_boundary_exact(x, 0.25)
            assert abs(pair.s_under - exact) <= 1e-9 * abs(exact), x

    def test_matches_a_50_digit_solve_next_to_an_edge(self):
        # accepting a pair on residuals below tol left s = -14.4164 off by
        # 1.2e-8 relative here, where the Jacobian is nearly singular
        atoms = [(0.0, 0.6475063434939468, 1.0)]
        y = 0.797219982920943
        x = 0.007431080281877526
        pair = boundary_value(x, ModelConfig(JointSpectrum.from_atoms(atoms), y))
        assert pair.s_under.imag >= 0.0 and pair.g_under.imag >= 0.0
        s, g = cleared_root(x, atoms, y, pair.s_under, pair.g_under)
        assert s.imag >= 0.0 and g.imag >= 0.0
        assert abs(pair.s_under - s) <= 1e-10 * abs(s)
        assert abs(pair.g_under - g) <= 1e-10 * abs(g)

    def test_cold_solve_keeps_the_fixed_point_pair_when_the_polish_fails(
        self, mp_config, monkeypatch
    ):
        # a full Newton step can end worse than its start
        def worse_newton(z, u, t, w, y, s0, g0, tol, max_iter):
            return s0 + 1.0, g0 + 1.0, 1.0, 1.0, max_iter, K.NO_CONVERGE

        monkeypatch.setattr(K, "newton_pair", worse_newton)
        z = 1.0 + 1.0j
        pair = solve_at(z, mp_config)
        oracle = mp_companion_transform(z, 0.25)
        assert abs(pair.s_under - oracle) < 1e-8
        assert abs(pair.g_under - oracle) < 1e-8

    def test_failed_fixed_point_raises(self, mp_config, monkeypatch):
        def no_fixed_point(z, u, t, w, y, s0, g0, tol, max_iter, damping):
            return s0, g0, 1.0, 1.0, max_iter, K.NO_CONVERGE

        monkeypatch.setattr(K, "fixed_point", no_fixed_point)
        with pytest.raises(ConvergenceError) as info:
            solve_at(1.0 + 1.0j, mp_config)
        assert info.value.z == 1.0 + 1.0j
        with pytest.raises(ContinuationError) as info:
            boundary_value(1.0, mp_config)
        assert info.value.v == LADDER[0]
        assert isinstance(info.value.__cause__, ConvergenceError)

    def test_kernels_get_the_atoms_as_python_floats(self, two_atom_config, monkeypatch):
        # an np.float64 atom value sends every atom term through numpy's
        # scalar arithmetic; np.float64 and np.complex128 subclass float and
        # complex, so the types are compared exactly
        atom_types = set()

        def recording(real):
            def wrapper(z, u, t, w, *args):
                atom_types.update(type(v) for column in (u, t, w) for v in column)
                return real(z, u, t, w, *args)
            return wrapper

        for name in ("fixed_point", "newton_pair"):
            monkeypatch.setattr(K, name, recording(getattr(K, name)))
        boundary_value(3.0, two_atom_config)
        density(two_atom_config, [0.5, 3.0, 9.0])
        assert atom_types == {float}
        # in the support, in a gap (the real pair) and in the upper band
        for x in (1.0, 3.0, 9.0):
            pair = boundary_value(x, two_atom_config)
            assert type(pair.s_under) is complex and type(pair.g_under) is complex


class TestInvariantBattery:
    """Herglotz, constraint, transformation consistency, boundedness, decay."""

    def test_random_instances(self):
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            cfg = random_model(rng)
            z = complex(rng.uniform(-5.0, 15.0), rng.uniform(1e-3, 10.0))
            pair = solve_at(z, cfg)

            assert pair.s_under.imag > 0
            assert pair.g_under.imag > 0

            r1, r2 = residual_713(pair, cfg)
            assert r1 < TOL and r2 < TOL

            assert constraint_residual(pair, cfg) < 10 * TOL

            s, g = from_companion(pair, cfg.y)
            q1, q2 = residual_712(s, g, z, cfg)
            assert q1 < 10 * TOL and q2 < 10 * TOL

            u = np.array([a.u for a in cfg.spectrum.atoms])
            t = np.array([a.t for a in cfg.spectrum.atoms])
            w = np.array([a.weight for a in cfg.spectrum.atoms])
            den2 = np.abs(1.0 + u * pair.g_under + t * pair.s_under) ** 2
            for moment in (u / den2, u * t / den2, t / den2, t * t / den2):
                assert np.isfinite(np.sum(w * moment))
