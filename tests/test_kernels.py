from __future__ import annotations

import numpy as np

from specsep import _kernels as K
from specsep import JointSpectrum, ModelConfig, boundary_value, find_gaps, x_of_g
from specsep.spectrum import spectrum_arrays
from specsep.support import DEFAULT_G_BOUND, DEFAULT_G_INNER, DEFAULT_N_GRID

from oracles import two_atom_s_of_g


def test_status_codes_are_distinct():
    codes = {K.OK, K.NO_CONVERGE, K.POLE, K.NO_BRACKET, K.SINGULAR, K.COLD, K.SKIPPED}
    assert len(codes) == 7


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

    calls = _count_calls(monkeypatch, ("phi", "branch"))
    wrapped = K.sweep(gs, u, t, w, y)
    assert calls["branch"] == len(gs)
    assert calls["phi"] >= len(gs)
    for a, b in zip(plain, wrapped):
        np.testing.assert_array_equal(a, b)

    calls["phi"] = calls["branch"] = 0
    point = x_of_g(-0.3, two_atom_config)
    assert calls["branch"] == 1
    assert calls["phi"] >= 1
    assert np.isfinite(point.x)


def _grid(sign):
    return np.sort(sign * np.geomspace(DEFAULT_G_INNER, DEFAULT_G_BOUND, DEFAULT_N_GRID))


def _assert_skips_lie_inside_smooth_stretches(status, d, den):
    # a jump spans one walk's accepted points, so every SKIPPED run sits
    # between two solved points of one status, one sign of dx/dg and one
    # denominator sign pattern: a fold, a decline, a COLD boundary or a
    # sign change is found on the grid's own cells
    skipped = status == K.SKIPPED
    assert not skipped[0] and not skipped[-1]
    edges = np.flatnonzero(np.diff(skipped.astype(np.int8)))
    for first, last in zip(edges[::2] + 1, edges[1::2]):
        before, after = first - 1, last + 1
        assert status[before] == status[after]
        assert status[before] in (K.OK, K.COLD)
        assert (d[before] > 0.0) == (d[after] > 0.0)
        np.testing.assert_array_equal(den[before] > 0.0, den[after] > 0.0)


def test_sweep_points_match_closed_form_branch(two_atom_config, monkeypatch):
    u, t, w = spectrum_arrays(two_atom_config.spectrum)
    y = two_atom_config.y
    for stride in (1, K.STRIDE):
        monkeypatch.setattr(K, "STRIDE", stride)
        for sign in (-1.0, 1.0):
            gs = _grid(sign)
            s, _x, d, status, den = K.sweep(gs, u, t, w, y)
            ok = status == K.OK
            skipped = status == K.SKIPPED
            assert np.any(skipped) == (stride > 1)
            # only the points inside the support (no real root there) fail
            assert np.count_nonzero(ok | skipped) >= len(gs) - 60
            _assert_skips_lie_inside_smooth_stretches(status, d, den)
            ref = np.array([two_atom_s_of_g(g, y) for g in gs[ok]])
            np.testing.assert_allclose(s[ok], ref, rtol=1e-12, atol=0.0)


def test_strided_sweep_solves_at_most_a_quarter_of_the_points(two_atom_config, monkeypatch):
    u, t, w = spectrum_arrays(two_atom_config.spectrum)
    calls = _count_calls(monkeypatch, ("branch",))
    for sign in (-1.0, 1.0):
        calls["branch"] = 0
        status = K.sweep(_grid(sign), u, t, w, two_atom_config.y)[3]
        assert calls["branch"] <= DEFAULT_N_GRID // 4
        assert np.count_nonzero(status == K.SKIPPED) >= DEFAULT_N_GRID * 3 // 4


def test_find_gaps_makes_few_phi_calls_per_sweep_point(two_atom_config, monkeypatch):
    calls = _count_calls(monkeypatch, ("phi",))
    points = []
    real_sweep = K.sweep

    def sweep(gs, *args):
        points.append(len(gs))
        return real_sweep(gs, *args)

    monkeypatch.setattr(K, "sweep", sweep)
    find_gaps(two_atom_config)
    assert sum(points) == 2 * DEFAULT_N_GRID
    assert calls["phi"] <= 5 * sum(points)


def test_signal_free_sweep_costs_one_phi_call_per_point(mp_config, monkeypatch):
    # u = 0: phi(g, s) = s - g, the predictor lands on s = g exactly, also
    # across a jump (g and the point it jumps from are within a factor 2)
    u, t, w = spectrum_arrays(mp_config.spectrum)
    gs = _grid(-1.0)
    calls = _count_calls(monkeypatch, ("phi", "branch"))
    for stride in (1, K.STRIDE):
        monkeypatch.setattr(K, "STRIDE", stride)
        calls["phi"] = calls["branch"] = 0
        s, _x, d, status, den = K.sweep(gs, u, t, w, mp_config.y)
        solved = status != K.SKIPPED
        assert calls["phi"] == calls["branch"]
        if stride == 1:
            assert calls["branch"] == len(gs)
            assert np.all(solved)
        else:
            assert calls["branch"] <= len(gs) // 4
        assert np.all(status[solved] == K.OK)
        _assert_skips_lie_inside_smooth_stretches(status, d, den)
        np.testing.assert_array_equal(s[solved], gs[solved])


def _is_boundary_pair(g, s, x, cfg):
    pair = boundary_value(float(x), cfg)
    return (
        abs(pair.s_under.imag) < 1e-6
        and abs(pair.g_under - g) < 1e-6 * (1.0 + abs(g))
        and abs(pair.s_under - s) < 1e-6 * (1.0 + abs(s))
    )


def test_sweep_anchors_both_ends_and_marks_points_between_folds_cold(monkeypatch):
    # past the fold at g ~ -0.172 Newton converges to roots of other
    # branches; walking on from them used to follow a root with s -> +inf
    # out to g = -1e4 and lose the lowest gap
    cfg = ModelConfig(
        JointSpectrum.from_atoms([(8.045, 0.927, 0.5), (3.166, 1.6, 0.5)]), 0.7686733024976289
    )
    u, t, w = spectrum_arrays(cfg.spectrum)
    gs = _grid(-1.0)
    returned = {}
    real = K.branch

    def recording(g, *args):
        result = real(g, *args)
        returned[g] = result[4]
        return result

    monkeypatch.setattr(K, "branch", recording)
    s, x, d, status, den = K.sweep(gs, u, t, w, cfg.y)
    # every point is solved or jumped over inside a smooth stretch
    assert set(gs[status != K.SKIPPED].tolist()) <= set(returned)
    _assert_skips_lie_inside_smooth_stretches(status, d, den)

    # a root Newton reached far from its prediction is declined
    declined = [
        g for g, st in zip(gs.tolist(), status.tolist())
        if st == K.NO_BRACKET and returned[g] == K.OK
    ]
    assert declined

    # the anchored walks hold both ends; the far end is the lowest gap
    assert status[0] == K.OK and status[-1] == K.OK
    assert 0.0 < s[0] / gs[0] < 1.0 and 0.0 < x[0] < 1e-3
    ok = np.flatnonzero(status == K.OK)
    cold = np.flatnonzero(status == K.COLD)
    assert cold.size and ok[ok < cold.min()].size and ok[ok > cold.max()].size
    assert not np.any((status[cold.min() : cold.max()] == K.OK))

    # anchored points with dx/dg > 0 are the boundary pair at their x; the
    # cold ones on this model lie on other branches
    ok_gap = ok[(d[ok] > 0.0) & (x[ok] < 1e3)]
    for i in ok_gap[:: len(ok_gap) // 20]:
        assert _is_boundary_pair(gs[i], s[i], x[i], cfg), gs[i]
    cold_gap = cold[(d[cold] > 0.0) & (x[cold] > 0.0)]
    assert cold_gap.size
    for i in cold_gap[:: max(1, len(cold_gap) // 20)]:
        assert not _is_boundary_pair(gs[i], s[i], x[i], cfg), gs[i]
