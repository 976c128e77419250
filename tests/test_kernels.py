from __future__ import annotations

import numpy as np

from specsep import _kernels as K
from specsep import JointSpectrum, ModelConfig, boundary_value, find_gaps, x_of_g
from specsep.spectrum import spectrum_arrays
from specsep.support import DEFAULT_G_BOUND, DEFAULT_G_INNER, DEFAULT_N_GRID

from oracles import two_atom_dx_dg, two_atom_s_of_g
from test_support import DECLINE_MODELS, GAP_MODELS, INWARD_WALK_MODELS


def test_status_codes_are_distinct():
    codes = {K.OK, K.NO_CONVERGE, K.POLE, K.NO_BRACKET, K.SINGULAR}
    assert len(codes) == 5


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(K, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(K, name, counting)
    return calls


def test_nested_kernel_calls_go_through_module_globals(two_atom_config, monkeypatch):
    # the benchmark's trace and the stall test wrap kernels by setting module
    # attributes; a kernel that bound another one locally would bypass them
    u, t, w = spectrum_arrays(two_atom_config.spectrum)
    y = two_atom_config.y
    gs = -np.geomspace(0.05, 0.5, 7)
    plain = K.sweep(gs, u, t, w, y)

    names = ("real_roots", "phi", "branch_terms", "branch", "solve_s")
    calls = _count_calls(monkeypatch, names)
    wrapped = K.sweep(gs, u, t, w, y)
    # one vectorised pass: no point is solved by scalar Newton; phi runs once
    # per polish step and once more for the residuals of the admitted roots
    assert calls == {
        "real_roots": 1,
        "phi": K.POLISH_STEPS + 1,
        "branch_terms": K.POLISH_STEPS + 1,
        "branch": 0,
        "solve_s": 0,
    }
    for a, b in zip(plain, wrapped):
        np.testing.assert_array_equal(a, b)

    calls.update(dict.fromkeys(names, 0))
    point = x_of_g(-0.3, two_atom_config)
    assert calls["branch"] == calls["solve_s"] == calls["branch_terms"] == 1
    assert calls["phi"] >= 1 and calls["real_roots"] == 0
    assert np.isfinite(point.x)


def _grid(sign):
    return np.sort(sign * np.geomspace(DEFAULT_G_INNER, DEFAULT_G_BOUND, DEFAULT_N_GRID))


def _closed_form_dx_dg(g, y):
    try:
        return two_atom_dx_dg(g, y)
    except ValueError:  # no real root: inside the support
        return np.nan


def test_sweep_points_match_closed_form_branch(two_atom_config):
    u, t, w = spectrum_arrays(two_atom_config.spectrum)
    columns = two_atom_config.spectrum.columns
    y = two_atom_config.y
    for sign in (-1.0, 1.0):
        gs = _grid(sign)
        result = K.sweep(gs, u, t, w, y)
        s, _x, d, status, _den = result
        ok = status == K.OK
        # the atoms as tuples of Python floats give the same bits as arrays
        for a, b in zip(result, K.sweep(gs, *columns, y)):
            np.testing.assert_array_equal(a, b)
        for g in gs[ok][::97]:
            g = float(g)
            assert K.solve_s(g, *columns, y, g) == K.solve_s(g, u, t, w, y, g)
            assert K.branch(g, *columns, y, g) == K.branch(g, u, t, w, y, g)
        # the admissible points are exactly those where the branch through
        # s = g has dx/dg > 0; only points inside the support fail
        closed = np.array([_closed_form_dx_dg(g, y) for g in gs])
        np.testing.assert_array_equal(ok, closed > 0.0)
        assert np.count_nonzero(ok) >= len(gs) - 150
        ref = np.array([two_atom_s_of_g(g, y) for g in gs[ok]])
        np.testing.assert_allclose(s[ok], ref, rtol=1e-12, atol=0.0)
        assert np.all(d[ok] > 0.0) and np.all(np.isnan(s[~ok]))


def test_strided_sweep_solves_at_most_a_quarter_of_the_points(two_atom_config, monkeypatch):
    # on the full default grid the sweep solves no point by scalar Newton,
    # well inside the quarter of the points that a strided walk may solve,
    # and its vectorised phi calls do not grow with the grid
    u, t, w = spectrum_arrays(two_atom_config.spectrum)
    calls = _count_calls(monkeypatch, ("branch", "solve_s", "phi"))
    for sign in (-1.0, 1.0):
        calls.update(dict.fromkeys(calls, 0))
        status = K.sweep(_grid(sign), u, t, w, two_atom_config.y)[3]
        assert calls["branch"] + calls["solve_s"] <= DEFAULT_N_GRID // 4
        assert calls["branch"] == calls["solve_s"] == 0
        assert calls["phi"] == K.POLISH_STEPS + 1
        assert np.count_nonzero(status == K.OK) >= DEFAULT_N_GRID * 3 // 4


def test_find_gaps_makes_few_phi_calls_per_sweep_point(two_atom_config, monkeypatch):
    calls = _count_calls(monkeypatch, ("phi",))
    points = []
    real_sweep = K.sweep

    def sweep(gs, *args):
        points.append(len(gs))
        return real_sweep(gs, *args)

    monkeypatch.setattr(K, "sweep", sweep)
    find_gaps(two_atom_config)
    # one sweep over both halves of the grid
    assert points == [2 * DEFAULT_N_GRID]
    assert calls["phi"] <= 5 * sum(points)


def test_signal_free_sweep_costs_one_phi_call_per_point(mp_config, monkeypatch):
    # u = 0: phi(g, s) = s - g, the only root is s = g exactly and the
    # polish leaves it there; each polish step is one vectorised phi call,
    # and one more gives the residuals, so every point costs one phi
    # evaluation per step and one for its residual
    u, t, w = spectrum_arrays(mp_config.spectrum)
    y = mp_config.y
    gs = _grid(-1.0)
    calls = _count_calls(monkeypatch, ("phi", "branch"))
    s, _x, d, status, _den = K.sweep(gs, u, t, w, y)
    assert calls == {"phi": K.POLISH_STEPS + 1, "branch": 0}
    ok = status == K.OK
    # the closed-form dx/dg on s = g
    np.testing.assert_array_equal(ok, 1.0 / gs**2 - y / (1.0 + gs) ** 2 > 0.0)
    assert np.all(status[~ok] == K.NO_BRACKET)
    np.testing.assert_array_equal(s[ok], gs[ok])
    assert np.all(d[ok] > 0.0)


def test_sweep_returns_the_converged_copy_of_a_root():
    # defect C's two atoms share t = 2, so near g = -1e-6 their poles nearly
    # coincide; an eigenvalue placed between them is polished only to within
    # |phi| ~ 1e-6 of the root s ~ g, passes the four tests and agrees with
    # the root in x to 1e-12, and the sweep used to return it
    atoms, y, _n = GAP_MODELS["defect-C"]
    u, t, w = spectrum_arrays(JointSpectrum.from_atoms(atoms))
    gs = _grid(-1.0)
    _s, _x, _d, admissible = K.real_roots(gs, u, t, w, y)
    twice = np.flatnonzero(np.count_nonzero(admissible, axis=1) > 1)
    assert len(twice) == 5 and np.all((-1.084e-6 <= gs[twice]) & (gs[twice] <= -1e-6))
    s, _x, _d, status, _den = K.sweep(gs[twice], u, t, w, y)
    assert np.all(status == K.OK)
    residual = np.abs(K.phi(gs[twice], s, u, t, w, y))
    assert np.all(residual <= 1e-18)
    np.testing.assert_allclose(s, gs[twice], rtol=1e-5)


def _companion_roots(coef):
    # every root of each coefficient row (highest power first) from one
    # batched eigenvalue call on the companion matrices
    degree = coef.shape[1] - 1
    companion = np.zeros((coef.shape[0], degree, degree))
    companion[:, 0, :] = -coef[:, 1:] / coef[:, :1]
    companion[:, range(1, degree), range(degree - 1)] = 1.0
    return np.linalg.eigvals(companion)


def test_closed_form_roots_match_companion_eigenvalues():
    e = 2.0**-20
    cases = {
        "linear": ([[2.0, -3.0], [1.0, 0.0], [0.5, 7.0]], [[1.5], [0.0], [-14.0]]),
        "real pair": ([[1.0, 2.0, -3.0], [-2.0, 4.0, 6.0]], [[-3.0, 1.0], [-1.0, 3.0]]),
        "complex pair": ([[1.0, 2.0, 5.0], [-1.0, 2.0, -5.0]], [[-1 - 2j, -1 + 2j], [1 - 2j, 1 + 2j]]),
        # the roots 1 and 1 + 2^-20; every coefficient and disc = 2^-40 are exact
        "near-double": ([[1.0, -(2.0 + e), 1.0 + e]], [[1.0, 1.0 + e]]),
        "b = 0": ([[1.0, 0.0, -4.0], [2.0, 0.0, 8.0]], [[-2.0, 2.0], [-2j, 2j]]),
        "q = 0": ([[3.0, 0.0, 0.0]], [[0.0, 0.0]]),
    }
    for name, (coef, exact) in cases.items():
        coef = np.array(coef)
        got = np.sort_complex(K._closed_form_roots(coef))
        np.testing.assert_allclose(got, np.sort_complex(_companion_roots(coef)), rtol=1e-12, atol=0.0, err_msg=name)
        np.testing.assert_allclose(got, exact, rtol=1e-15, atol=0.0, err_msg=name)

    # s^2 - 1e8*s + 1: the small root comes from c/q, with no cancellation
    small = K._closed_form_roots(np.array([[1.0, -1e8, 1.0]]))[0, 1]
    assert small.imag == 0.0 and abs(small.real - 1e-8) <= 1e-15 * 1e-8


def _reference_real_roots(gs, u, t, w, y):
    # real_roots with the companion eigenvalues at every degree
    u, t, w = (np.asarray(a, dtype=np.float64) for a in (u, t, w))
    active = w * u != 0.0
    lin = 1.0 + np.outer(gs, u[active])
    prod = np.ones((gs.shape[0], 1))
    pole_sum = np.zeros((gs.shape[0], 0))
    for j, (t_j, wu_j) in enumerate(zip(t[active], (w * u)[active])):
        pole_sum = K._times_linear(pole_sum, t_j, lin[:, j:j + 1]) + wu_j * prod
        prod = K._times_linear(prod, t_j, lin[:, j:j + 1])
    g = gs[:, None]
    coef = K._times_linear(prod, 1.0, -g)
    coef[:, 2:] += y * g * g * pole_sum
    r = _companion_roots(coef)
    s = np.where(np.abs(r.imag) <= K.ROOT_RTOL * (1.0 + np.abs(r)), r.real, np.nan)
    with np.errstate(all="ignore"):
        for _ in range(K.POLISH_STEPS):
            s = s - K.phi(g, s, u, t, w, y) / K.branch_terms(g, s, u, t, w, y)[3]
        x, dx_dg, s_prime, _phi_s = K.branch_terms(g, s, u, t, w, y)
        admitted = K.admissible(g, s, dx_dg, s_prime)
    return s, x, dx_dg, admitted


def test_real_roots_and_sweep_match_the_companion_reference(mp_config, two_atom_config, monkeypatch):
    # degree 1 (MP), 2 (two-atom, one atom with signal) and 3 or 4
    # (GAP_MODELS); rows are compared with their roots in ascending order
    configs = {"mp": mp_config, "two-atom": two_atom_config}
    configs.update({name: ModelConfig(JointSpectrum.from_atoms(atoms), y)
                    for name, (atoms, y, _n) in GAP_MODELS.items()})
    gs = np.concatenate([_grid(-1.0), _grid(1.0)])
    degrees = set()
    for name, cfg in configs.items():
        u, t, w = spectrum_arrays(cfg.spectrum)
        got = K.real_roots(gs, u, t, w, cfg.y)
        ref = _reference_real_roots(gs, u, t, w, cfg.y)
        degrees.add(got[0].shape[1])
        order_got = np.argsort(got[0], axis=1)
        order_ref = np.argsort(ref[0], axis=1)
        got = [np.take_along_axis(a, order_got, axis=1) for a in got]
        ref = [np.take_along_axis(a, order_ref, axis=1) for a in ref]
        for a, b in zip(got[:3], ref[:3]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)
        np.testing.assert_array_equal(got[3], ref[3], err_msg=name)

        swept = K.sweep(gs, u, t, w, cfg.y)
        with monkeypatch.context() as m:
            m.setattr(K, "real_roots", _reference_real_roots)
            ref_swept = K.sweep(gs, u, t, w, cfg.y)
        np.testing.assert_array_equal(swept[3], ref_swept[3], err_msg=name)
        for a, b in zip(swept, ref_swept):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0, err_msg=name)
    assert {1, 2, 3} <= degrees


def _is_boundary_pair(g, s, x, cfg):
    pair = boundary_value(float(x), cfg)
    return (
        abs(pair.s_under.imag) < 1e-6
        and abs(pair.g_under - g) < 1e-6 * (1.0 + abs(g))
        and abs(pair.s_under - s) < 1e-6 * (1.0 + abs(s))
    )


def test_sweep_admits_only_boundary_pairs_on_the_decline_model():
    # past the fold at g ~ -0.172 Newton from s = g converges to roots of
    # other branches with dx/dg > 0; walking on from them used to follow a
    # root with s -> +inf out to g = -1e4 and lose the lowest gap
    cfg = ModelConfig(
        JointSpectrum.from_atoms([(8.045, 0.927, 0.5), (3.166, 1.6, 0.5)]), 0.7686733024976289
    )
    u, t, w = spectrum_arrays(cfg.spectrum)
    gs = _grid(-1.0)
    s, x, _d, status, _den = K.sweep(gs, u, t, w, cfg.y)

    # both ends hold the branch; the far end is the lowest gap
    assert status[0] == K.OK and status[-1] == K.OK
    assert 0.0 < s[0] / gs[0] < 1.0 and 0.0 < x[0] < 1e-3

    # admitted points are the boundary pair at their x
    ok = np.flatnonzero((status == K.OK) & (x < 1e3))
    for i in ok[:: len(ok) // 20]:
        assert _is_boundary_pair(gs[i], s[i], x[i], cfg), gs[i]

    # roots with dx/dg > 0 that the other tests refuse lie on other branches
    roots, rx, rd, admissible = K.real_roots(gs, u, t, w, cfg.y)
    refused = np.argwhere((rd > 0.0) & ~admissible & (rx > 0.0) & (rx < 1e3))
    assert len(refused) > 20
    for i, j in refused[:: len(refused) // 20]:
        assert not _is_boundary_pair(gs[i], roots[i, j], rx[i, j], cfg), gs[i]


CORPUS = [
    *((name, atoms, y) for name, (atoms, y, _n) in GAP_MODELS.items()),
    *((f"decline-{k}", atoms, y) for k, (atoms, y, _n) in enumerate(DECLINE_MODELS, 1)),
    *((name, atoms, y) for name, (atoms, y, _b0, _a1) in INWARD_WALK_MODELS.items()),
]


def test_admissible_roots_are_unique_and_are_boundary_pairs():
    # the four tests are necessary conditions for a boundary pair in a gap;
    # on the regression corpus they admit at most one root per g (copies of
    # one root agree in x), and sampled admitted roots are the boundary pair
    for name, atoms, y in CORPUS:
        cfg = ModelConfig(JointSpectrum.from_atoms(atoms), y)
        u, t, w = spectrum_arrays(cfg.spectrum)
        gs = np.concatenate([_grid(-1.0), _grid(1.0)])
        s, x, _d, admissible = K.real_roots(gs, u, t, w, y)
        xs = np.where(admissible, x, np.nan)
        multi = np.count_nonzero(admissible, axis=1) > 1
        spread = np.nanmax(xs[multi], axis=1) - np.nanmin(xs[multi], axis=1)
        assert np.all(spread <= K.ROOT_RTOL * np.nanmin(np.abs(xs[multi]), axis=1)), name

        i_adm, j_adm = np.nonzero(admissible & (np.abs(x) < 1e3))
        for k in range(0, len(i_adm), len(i_adm) // 20):
            i, j = i_adm[k], j_adm[k]
            assert _is_boundary_pair(gs[i], s[i, j], x[i, j], cfg), (name, gs[i])


def _reference_fixed_point(z, u, t, w, y, s0, g0, tol, max_iter, damping):
    # the fixed point as it was before it carried the atom sums from one
    # iterate to the next: atom_sums at the top of each iteration, and
    # residual_pair, which takes them again, at its end
    s = s0
    g = g0
    r1 = np.inf
    r2 = np.inf
    if abs(z) < K.POLE_EPS:
        return s, g, r1, r2, 0, K.POLE
    tol_eff = K.effective_tol(tol, z)
    for it in range(max_iter):
        sum0, sumt, min_ad = K.atom_sums(s, g, u, t, w)
        if min_ad < K.POLE_EPS:
            return s, g, np.inf, np.inf, it, K.POLE
        den = z - y * sumt
        if abs(den) < K.POLE_EPS:
            return s, g, np.inf, np.inf, it, K.POLE
        g_cand = -1.0 / den
        s_cand = -((1.0 - y) + y * sum0) / z
        s = (1.0 - damping) * s + damping * s_cand
        g = (1.0 - damping) * g + damping * g_cand
        if s.imag < 0.0:
            s = complex(s.real, 1e-16)
        if g.imag < 0.0:
            g = complex(g.real, 1e-16)
        r1, r2, status = K.residual_pair(z, s, g, u, t, w, y)
        if status == K.OK and r1 < tol_eff and r2 < tol_eff:
            return s, g, r1, r2, it + 1, K.OK
    return s, g, r1, r2, max_iter, K.NO_CONVERGE


def test_fixed_point_matches_the_loop_that_took_the_sums_twice(mp_config, two_atom_config):
    statuses = set()
    for cfg in (mp_config, two_atom_config):
        u, t, w = cfg.spectrum.columns
        cases = [(z, -1.0 / z, -1.0 / z, 10000) for z in
                 (1.0 + 1.0j, 0.3 + 0.5j, 2.2 + 1e-3j, 7.0 + 0.01j, -1.0 + 0.2j)]
        # a budget that runs out, and a start on atom 0's pole 1 + u*g + t*s = 0
        cases.append((1.0 + 0.1j, -1.0 / (1.0 + 0.1j), -1.0 / (1.0 + 0.1j), 5))
        cases.append((1.0 + 1.0j, complex(-1.0 / t[0]), 0.0j, 10000))
        for z, s0, g0, max_iter in cases:
            args = (z, u, t, w, cfg.y, s0, g0, 1e-10, max_iter, 0.5)
            got = K.fixed_point(*args)
            assert got == _reference_fixed_point(*args), (z, got)
            statuses.add(got[5])
    assert statuses == {K.OK, K.NO_CONVERGE, K.POLE}
