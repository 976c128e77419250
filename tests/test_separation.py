from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from specsep import _kernels as K
from specsep import separation
from specsep import (
    GapStateError,
    JointSpectrum,
    ModelConfig,
    NotInGapError,
    SpectralGap,
    find_gaps,
    h_values,
    materialize_pairs,
    predict_counts,
)
from specsep.spectrum import spectrum_arrays

from test_support import GAP_MODELS

SEPARATION_MODELS = [
    *(pytest.param(atoms, y, id=name) for name, (atoms, y, _n) in GAP_MODELS.items()),
    pytest.param([(0.0, 1.0, 0.5), (8.0, 1.0, 0.5)], 0.1, id="two-atom"),
    pytest.param([(0.0, 1.0, 1.0)], 0.25, id="mp"),
]


class TestHValues:
    def test_mp_above_bulk_all_equal(self, mp_config):
        # on the branch above the bulk, -1/g + y/(1+g) = 2.5 at g = -0.5
        pairs = materialize_pairs(mp_config.spectrum, 6)
        h = h_values(pairs, 2.5, mp_config)
        assert np.allclose(h, -0.5, atol=1e-9)
        assert np.all(h > -1)

    def test_mp_below_bulk_all_below_minus_one(self, mp_config):
        pairs = materialize_pairs(mp_config.spectrum, 6)
        h = h_values(pairs, 0.2, mp_config)
        assert np.all(h < -1)

    def test_small_y_limit_is_pair_sum_over_x(self, two_atom_spectrum):
        cfg = ModelConfig(two_atom_spectrum, 1e-6)
        pairs = [(0.0, 1.0), (8.0, 1.0)]
        x = 5.0
        h = h_values(pairs, x, cfg)
        expected = -np.array([1.0, 9.0]) / x
        assert np.allclose(h, expected, atol=1e-4)

    def test_inside_support_raises(self, mp_config):
        pairs = materialize_pairs(mp_config.spectrum, 4)
        with pytest.raises(NotInGapError):
            h_values(pairs, 1.0, mp_config)


class TestPredictCounts:
    def test_mp_upper_gap(self, mp_config):
        gaps = find_gaps(mp_config)
        upper = gaps[1]
        pairs = materialize_pairs(mp_config.spectrum, 40)
        pred = predict_counts(upper, pairs)
        assert pred.count_h_above == 40
        assert pred.count_h_below == 0
        assert pred.eigencounts("derivation") == (40, 0)

    def test_mp_lower_gap(self, mp_config):
        gaps = find_gaps(mp_config)
        lower = gaps[0]
        pairs = materialize_pairs(mp_config.spectrum, 40)
        pred = predict_counts(lower, pairs)
        assert pred.count_h_below == 40
        assert pred.count_h_above == 0
        assert pred.eigencounts("derivation") == (0, 40)

    def test_two_atom_middle_gap_splits(self, two_atom_spectrum):
        cfg = ModelConfig(two_atom_spectrum, 0.05)
        gaps = find_gaps(cfg)
        middle = [g for g in gaps if not g.unbounded and g.a > 0][0]
        pairs = materialize_pairs(cfg.spectrum, 80)
        pred = predict_counts(middle, pairs)
        assert pred.count_h_below == 40
        assert pred.count_h_above == 40
        assert pred.eigencounts("derivation") == (40, 40)

    @pytest.mark.parametrize("atoms, y", SEPARATION_MODELS)
    def test_h_increases_across_every_gap(self, atoms, y):
        # g and s are real Stieltjes transforms in a gap, so they increase;
        # with u >= 0 and t > 0 each h_j increases too, and its extremes over
        # the stretch between the two ends' branch points are at those ends,
        # where predict_counts reads them. A clamped end is a grid point, at
        # x(-1e4) > 0 for a = 0 and far above a + 10 for b = inf.
        spectrum = JointSpectrum.from_atoms(atoms)
        cfg = ModelConfig(spectrum, y)
        u, t, w = spectrum_arrays(spectrum)
        pairs = [(atom.u, atom.t) for atom in spectrum.atoms]
        for gap in find_gaps(cfg):
            x_lo = max(gap.a, K.branch_terms(*gap.end_a, u, t, w, y)[0])
            x_hi = min(gap.finite_b, K.branch_terms(*gap.end_b, u, t, w, y)[0])
            delta = 1e-3 * (x_hi - x_lo)
            xs = np.linspace(x_lo + delta, x_hi - delta, 5)
            h = np.vstack([h_values(pairs, x, cfg) for x in xs])
            assert np.all(np.diff(h, axis=0) > 0.0), gap
            pred = predict_counts(gap, pairs)
            assert np.all(np.array(pred.h_min) < h[0]), gap
            assert np.all(h[-1] < np.array(pred.h_max)), gap

    def test_no_solve_per_gap(self, two_atom_config, monkeypatch):
        # the ends' branch points are carried on the gap, so predicting
        # makes no boundary_value and no h_values call
        calls = []

        def counted(name):
            def record(*args, **kwargs):
                calls.append(name)
            return record

        pairs = materialize_pairs(two_atom_config.spectrum, 10)
        gaps = find_gaps(two_atom_config)
        monkeypatch.setattr(separation, "boundary_value", counted("boundary_value"))
        monkeypatch.setattr(separation, "h_values", counted("h_values"))
        arr = np.array(pairs)
        for gap in gaps:
            pred = predict_counts(gap, pairs)
            for (g, s), h in ((gap.end_a, pred.h_min), (gap.end_b, pred.h_max)):
                assert h == tuple(arr[:, 0] * g + arr[:, 1] * s)
        assert calls == []

    def test_mp_end_values_are_the_closed_form_edges(self, mp_config):
        # for MP (u = 0, t = 1) h = s, and at the edges (1 -+ sqrt(y))^2 the
        # transform is s = -1/(1 -+ sqrt(y)): the lower edge ends gap 0, the
        # upper one starts gap 1
        root = math.sqrt(mp_config.y)
        low, high = find_gaps(mp_config)
        assert low.end_b[1] == pytest.approx(-1.0 / (1.0 - root), rel=0.0, abs=1e-9)
        assert high.end_a[1] == pytest.approx(-1.0 / (1.0 + root), rel=0.0, abs=1e-9)
        pairs = materialize_pairs(mp_config.spectrum, 4)
        assert predict_counts(low, pairs).h_max == (low.end_b[1],) * 4
        assert predict_counts(high, pairs).h_min == (high.end_a[1],) * 4

    @pytest.mark.parametrize(
        "end_a, end_b",
        [((math.nan, -1.0), (-0.5, -0.5)), ((-2.0, -2.0), (-math.inf, -0.5))],
        ids=["nan", "inf"],
    )
    def test_gap_without_finite_ends_raises(self, mp_config, end_a, end_b):
        gap = dataclasses.replace(find_gaps(mp_config)[1], end_a=end_a, end_b=end_b)
        with pytest.raises(GapStateError):
            predict_counts(gap, materialize_pairs(mp_config.spectrum, 4))

    @pytest.mark.parametrize("atoms, y", SEPARATION_MODELS)
    def test_counts_follow_the_sign_row_of_the_sweep(self, atoms, y):
        # a pair taken from atom k has 1 + h = 1 + u_k*g + t_k*s, atom k's
        # denominator, so the pairs with h > -1 are those of the atoms whose
        # denominator is positive on the gap's stretch of the real branch
        spectrum = JointSpectrum.from_atoms(atoms)
        cfg = ModelConfig(spectrum, y)
        u, t, w = spectrum_arrays(spectrum)
        pairs = materialize_pairs(spectrum, 200)
        multiplicity = np.array([pairs.count((atom.u, atom.t)) for atom in spectrum.atoms])
        for gap in find_gaps(cfg):
            if math.isinf(gap.g_a):
                g = 2.0 * gap.g_b
            elif gap.unbounded:
                g = 0.5 * gap.g_a
            else:
                g = 0.5 * (gap.g_a + gap.g_b)
            _s, _x, _d, status, den = K.sweep(np.array([g]), u, t, w, y)
            assert status[0] == K.OK, (gap, g)
            expected = int(multiplicity[den[0] > 0.0].sum())
            assert predict_counts(gap, pairs).count_h_above == expected, gap

    def test_partition_property(self, two_atom_config):
        pairs = materialize_pairs(two_atom_config.spectrum, 30)
        for gap in find_gaps(two_atom_config):
            pred = predict_counts(gap, pairs)
            assert pred.count_h_below + pred.count_h_above == 30
            # sign constancy surfaced through per-pair extrema
            for lo, hi in zip(pred.h_min, pred.h_max):
                assert (lo > -1) == (hi > -1)

    def test_convention_flip_swaps_counts(self, two_atom_config):
        pairs = materialize_pairs(two_atom_config.spectrum, 30)
        gap = find_gaps(two_atom_config)[0]
        pred = predict_counts(gap, pairs)
        below, above = pred.eigencounts("derivation")
        assert pred.eigencounts("theorem") == (above, below)

    def test_scale_coherence(self):
        # scaling all pair values and the gap by kappa leaves counts unchanged
        kappa = 2.7
        base = JointSpectrum.from_atoms([(0.0, 1.0, 0.5), (8.0, 1.0, 0.5)])
        scaled = JointSpectrum.from_atoms(
            [(0.0, kappa, 0.5), (8.0 * kappa, kappa, 0.5)]
        )
        y = 0.05
        cfg_base = ModelConfig(base, y)
        cfg_scaled = ModelConfig(scaled, y)
        gaps_base = find_gaps(cfg_base)
        gaps_scaled = find_gaps(cfg_scaled)
        assert len(gaps_base) == len(gaps_scaled)
        pairs_base = materialize_pairs(base, 20)
        pairs_scaled = materialize_pairs(scaled, 20)
        for gb, gs in zip(gaps_base, gaps_scaled):
            assert gs.a == pytest.approx(kappa * gb.a, rel=1e-6, abs=1e-9)
            if not gb.unbounded:
                assert gs.b == pytest.approx(kappa * gb.b, rel=1e-6)
            pb = predict_counts(gb, pairs_base)
            ps = predict_counts(gs, pairs_scaled)
            assert pb.eigencounts() == ps.eigencounts()

    def test_rejects_unknown_convention(self, mp_config):
        gap = find_gaps(mp_config)[1]
        pred = predict_counts(gap, materialize_pairs(mp_config.spectrum, 4))
        with pytest.raises(ValueError):
            pred.eigencounts("sideways")

    def test_unbounded_gap_uses_finite_span(self, two_atom_config):
        top = [g for g in find_gaps(two_atom_config) if g.unbounded][0]
        pairs = materialize_pairs(two_atom_config.spectrum, 10)
        pred = predict_counts(top, pairs)
        assert pred.count_h_above == 10
        assert pred.eigencounts("derivation") == (10, 0)
