from __future__ import annotations

import math

import numpy as np
import pytest

from specsep import (
    BracketError,
    GapTrackingError,
    JointSpectrum,
    ModelConfig,
    NotInGapError,
    StieltjesPair,
    boundary_value,
    density,
    find_gaps,
    gap_vs_y,
    solve_s_given_g,
    x_of_g,
)
from specsep import _kernels as K
from specsep import support
from specsep.support import DEFAULT_N_GRID, EDGE_RTOL, GAP_IMAG_TOL
from specsep.solver import LADDER

from oracles import (
    TWO_ATOM_GAPS_Y001,
    TWO_ATOM_GAPS_Y005,
    mp_boundary_exact,
    mp_density,
    mp_edges,
    mp_x_of_g,
    scan_bisect_root,
    scan_gaps,
    two_atom_dx_dg,
    two_atom_gap_sweep,
    two_atom_s_of_g,
    two_atom_x_of_g,
)

# (atoms, y, number of gaps) of models the sweep once got wrong
GAP_MODELS = {
    # the sweep used to accept a root off the branch for g in about
    # (-0.368, -0.311) and report the spurious gap (0.565, 0.871)
    "defect-A": ([(0.0, 1.0, 0.3), (2.0, 0.7, 0.3), (8.0, 1.3, 0.4)], 0.2, 4),
    # an off-branch root near g = -0.26 stretched the lowest gap to
    # (0, 0.82494); the support starts at 0.76553
    "defect-B": ([(0.0, 1.0, 0.2), (3.0, 0.5, 0.5), (9.0, 2.0, 0.3)], 0.05, 4),
    # an off-branch root merged the gaps (4.72561, 6.52308) and
    # (14.98462, inf) into (4.72561, inf), dropping a support piece that
    # holds half the eigenvalues
    "defect-C": ([(1.0, 2.0, 0.5), (8.0, 2.0, 0.5)], 0.25, 3),
    # between the folds the cold walk used to follow one root from a cold
    # start across the whole stretch, past the interior gaps
    # (0.8973, 1.2457) and (4.3646, 4.6744) respectively; solving each point
    # from s = g finds their branch
    "cold-walk-1": (
        [(0.292, 0.326, 1 / 3), (4.52, 2.762, 1 / 3), (3.651, 2.685, 1 / 3)], 0.7447169605244107, 3
    ),
    "cold-walk-2": (
        [(5.78, 1.277, 1 / 3), (0.0, 1.285, 1 / 3), (0.508, 1.948, 1 / 3)], 0.6045830648981424, 3
    ),
    # reported as the single gap (0, inf), which the midpoint check
    # refused; the gaps are (0, 2.2808), (3.9642, 4.4645), (10.954, inf)
    "single-gap": ([(3.0, 0.33, 0.41), (5.0, 2.35, 0.333), (6.0, 0.49, 0.257)], 0.212, 3),
    # Newton from s = g missed the branch root for g in (-1.5366, -1.4590), so
    # the middle gap's lower edge moved with the grid (0.858828 at 2000
    # points); boundary_value is real from 0.85515 up
    "defect-D": (
        [
            (3.0838808415432375, 0.6675315519193086, 1 / 3),
            (6.709045477434573, 1.8880354911835378, 1 / 3),
            (0.08818742016847736, 0.4884449763141761, 1 / 3),
        ],
        0.6842643347141988,
        3,
    ),
    # the cold walk missed the branch for g in (-0.336, -0.273) at every grid
    # from 2000 to 32000 points, and with it the gap (3.0836, 3.1939)
    "defect-E": (
        [
            (1.282596437778598, 1.979277911891984, 0.20025886205323612),
            (7.823281951737205, 1.2718246764687715, 0.7997411379467639),
        ],
        0.852322833894462,
        3,
    ),
    # the stationary edge at g ~ -0.70693 shares a grid cell with a fold; the
    # neighbour's only real root lies on another branch, so Brent seeded on
    # the chord failed and find_gaps raised CoarseGridError at 400, 2000 and
    # 4000 points
    "defect-F": (
        [
            (1.2636862318624642, 0.1250178297859546, 0.01449615245376049),
            (7.962273903844265, 4.562199756119218, 1 - 0.01449615245376049),
        ],
        0.11870409253983466,
        3,
    ),
}

# Random models on which the old branch walk declined a root far from its
# prediction, run on the default grid and on a coarse one. Before that walk
# went inward from g = -1e4, its cold restarts after the fold followed
# another root out to g = -1e4 (s -> +inf), and find_gaps reported (0, inf)
# or (0, b) with b in the support. (atoms, y, number of gaps); the gap counts agree with a scan
# of boundary_value on 3,000 points of (0, 20).
DECLINE_MODELS = [
    ([(2.61, 1.545, 1 / 3), (2.489, 2.859, 1 / 3), (0.71, 1.667, 1 / 3)], 0.16354980189295273, 2),
    ([(8.045, 0.927, 0.5), (3.166, 1.6, 0.5)], 0.7686733024976289, 2),
    ([(0.458, 1.041, 1 / 3), (1.319, 1.082, 1 / 3), (5.663, 0.812, 1 / 3)], 0.3313811393469143, 3),
    ([(7.532, 2.52, 1 / 3), (0.0, 1.232, 1 / 3), (4.452, 1.38, 1 / 3)], 0.6086039933906717, 3),
]

# At the default grid the inward walk of the old branch walk left the branch
# on these models; see test_inward_walk_keeps_the_branch_past_the_lowest_edge.
# name: (atoms, y, lowest gap's upper edge, top gap's lower edge)
INWARD_WALK_MODELS = {
    "two-atom-1": (
        [(6.227896148379183, 0.47266306707213473, 0.5), (7.0103791906256685, 2.586749636642674, 0.5)],
        0.14438485202148937,
        4.810733895411131,
        13.690979818455965,
    ),
    "two-atom-2": (
        [(9.261188851002531, 0.9280819826224467, 0.5), (6.4815065128284575, 1.284872246672546, 0.5)],
        0.6274361286638828,
        2.7824173567763664,
        17.057999647578857,
    ),
}


class TestSolveSGivenG:
    def test_signal_free_spectrum_gives_s_equal_g(self, mp_config):
        for g in (-3.0, -0.4, 0.7, 5.0):
            assert solve_s_given_g(g, mp_config) == pytest.approx(g, abs=1e-14)

    def test_vanishing_y_gives_s_near_g(self):
        cfg = ModelConfig(JointSpectrum.from_atoms([(1.0, 1.0, 1.0)]), 1e-10)
        s = solve_s_given_g(-0.3, cfg)
        assert s == pytest.approx(-0.3, abs=1e-9)

    def test_matches_scan_and_bisect_oracle(self):
        # frozen: scan_bisect_root of the coupling constraint at g=-0.1
        cfg = ModelConfig(JointSpectrum.from_atoms([(1.0, 1.0, 1.0)]), 0.25)
        s = solve_s_given_g(-0.1, cfg)
        assert s == pytest.approx(-0.10313730334031142, abs=1e-11)

    def test_oracle_reproduces_frozen_value(self):
        y, g = 0.25, -0.1

        def constraint(s):
            return y * g * g / (1.0 + g + s) + s - g

        root = scan_bisect_root(constraint, center=g, lo=-0.85, hi=0.85, n_scan=40_000)
        assert root == pytest.approx(-0.10313730334031142, abs=1e-10)

    def test_no_real_root_raises(self):
        # quadratic discriminant negative here: the branch does not exist
        cfg = ModelConfig(JointSpectrum.from_atoms([(1.0, 1.0, 1.0)]), 0.25)
        with pytest.raises(BracketError):
            solve_s_given_g(-0.6, cfg)

    def test_rejects_zero(self, mp_config):
        with pytest.raises(ValueError):
            solve_s_given_g(0.0, mp_config)


class TestXOfG:
    def test_mp_lower_edge(self, mp_config):
        br = x_of_g(-2.0, mp_config)
        assert br.x == pytest.approx(0.25, abs=1e-12)
        assert br.dx_dg == pytest.approx(0.0, abs=1e-12)

    def test_mp_upper_edge(self, mp_config):
        br = x_of_g(-2.0 / 3.0, mp_config)
        assert br.x == pytest.approx(2.25, abs=1e-12)
        assert br.dx_dg == pytest.approx(0.0, abs=1e-12)

    def test_mp_point_in_upper_gap(self, mp_config):
        br = x_of_g(-0.5, mp_config)
        assert br.x == pytest.approx(2.5, abs=1e-12)
        assert br.dx_dg > 0

    def test_mp_closed_form_curve(self, mp_config):
        for g in (-5.0, -2.4, -0.55, -0.1):
            assert x_of_g(g, mp_config).x == pytest.approx(mp_x_of_g(g, 0.25), abs=1e-12)

    def test_cold_solve_declines_root_off_the_branch(self):
        # defect A's model: the branch through s = g folds near g = -0.312;
        # at g = -0.33 the only real root left in the pole-free interval is
        # s ~ 1.227, on another branch
        cfg = ModelConfig(
            JointSpectrum.from_atoms([(0.0, 1.0, 0.3), (2.0, 0.7, 0.3), (8.0, 1.3, 0.4)]), 0.2
        )
        with pytest.raises(BracketError):
            x_of_g(-0.33, cfg)

    @pytest.mark.parametrize("g", [-5.0, -2.4, -0.55, -0.25, -0.08])
    def test_derivative_matches_finite_differences(self, two_atom_config, g):
        h = 1e-6 * max(1.0, abs(g))
        br = x_of_g(g, two_atom_config)
        fd = (x_of_g(g + h, two_atom_config).x - x_of_g(g - h, two_atom_config).x) / (2 * h)
        assert br.dx_dg == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestFindGaps:
    def test_mp_quarter(self, mp_config):
        gaps = find_gaps(mp_config)
        assert len(gaps) == 2
        lo, hi = mp_edges(0.25)
        assert gaps[0].a == 0.0
        assert gaps[0].b == pytest.approx(lo, rel=1e-14, abs=0.0)
        assert gaps[1].a == pytest.approx(hi, rel=1e-14, abs=0.0)
        assert math.isinf(gaps[1].b)
        assert gaps[0].g_b == pytest.approx(-2.0, rel=1e-11, abs=0.0)
        assert gaps[1].g_a == pytest.approx(-2.0 / 3.0, rel=1e-11, abs=0.0)

    def test_mp_y_one_has_single_gap(self):
        cfg = ModelConfig(JointSpectrum.from_atoms([(0.0, 1.0, 1.0)]), 1.0)
        gaps = find_gaps(cfg)
        assert len(gaps) == 1
        assert gaps[0].a == pytest.approx(4.0, abs=1e-8)
        assert math.isinf(gaps[0].b)

    def test_y_one_lowest_gap_starts_at_zero(self):
        # x -> 0+ as g -> -inf on the admissible branch, and the pair is real
        # down to x = 1e-6; the gap's lower edge used to be x(-1e4) = 9e-5
        cfg = ModelConfig(JointSpectrum.from_atoms([(10.0, 1.0, 1.0)]), 1.0)
        gaps = find_gaps(cfg)
        assert len(gaps) == 2
        assert (gaps[0].a, gaps[0].g_a) == (0.0, -math.inf)
        assert gaps[0].b == pytest.approx(3.375, rel=1e-12)
        assert gaps[1].a == pytest.approx(21.6, rel=1e-12)
        assert math.isinf(gaps[1].b)
        assert abs(boundary_value(1e-6, cfg).s_under.imag) < GAP_IMAG_TOL

    def test_two_atom_small_y_matches_brute_force(self, two_atom_spectrum):
        cfg = ModelConfig(two_atom_spectrum, 0.01)
        gaps = find_gaps(cfg)
        assert len(gaps) == 3
        frozen = TWO_ATOM_GAPS_Y001
        assert gaps[0].a == 0.0
        assert gaps[0].b == pytest.approx(frozen["low_b"], abs=1e-6)
        assert gaps[1].a == pytest.approx(frozen["mid"][0], abs=1e-6)
        assert gaps[1].b == pytest.approx(frozen["mid"][1], abs=1e-6)
        assert gaps[1].a < 5.0 < gaps[1].b
        assert gaps[2].a == pytest.approx(frozen["top_a"], abs=1e-6)
        assert math.isinf(gaps[2].b)
        # endpoints near the degenerate values 1 and 9
        assert abs(gaps[1].a - 1.0) < 0.2
        assert abs(gaps[1].b - 9.0) < 0.6

    def test_two_atom_y005_matches_brute_force(self, two_atom_spectrum):
        cfg = ModelConfig(two_atom_spectrum, 0.05)
        gaps = find_gaps(cfg)
        frozen = TWO_ATOM_GAPS_Y005
        assert gaps[0].b == pytest.approx(frozen["low_b"], abs=1e-6)
        assert gaps[1].a == pytest.approx(frozen["mid"][0], abs=1e-6)
        assert gaps[1].b == pytest.approx(frozen["mid"][1], abs=1e-6)
        assert gaps[2].a == pytest.approx(frozen["top_a"], abs=1e-6)

    def test_brute_force_oracle_reproduces_frozen_values(self):
        # acceptance criterion 6 takes its support half-widths from these
        # tables, so every entry is re-derived here
        for y, frozen in ((0.01, TWO_ATOM_GAPS_Y001), (0.05, TWO_ATOM_GAPS_Y005)):
            sweep = two_atom_gap_sweep(y, n_grid=100_000)
            finite = [(a, b) for a, b in sweep if 0 <= a < b < 1e5]
            # the unbounded gap ends at the sweep's last g, where x ~ 1e6
            top = [(a, b) for a, b in sweep if 0 <= a < b and b >= 1e5]
            assert len(finite) == 2 and len(top) == 1
            assert finite[0][1] == pytest.approx(frozen["low_b"], abs=1e-6)
            assert finite[1][0] == pytest.approx(frozen["mid"][0], abs=1e-6)
            assert finite[1][1] == pytest.approx(frozen["mid"][1], abs=1e-6)
            assert top[0][0] == pytest.approx(frozen["top_a"], abs=1e-6)

    def test_rejects_small_grid(self, mp_config):
        with pytest.raises(ValueError):
            find_gaps(mp_config, n_grid=50)

    def test_gap_parameter_interval_properties(self, two_atom_config):
        # along each finite gap's parameter interval: dx/dg > 0, x and s
        # increasing, and atom denominators keep one sign per atom
        u = np.array([a.u for a in two_atom_config.spectrum.atoms])
        t = np.array([a.t for a in two_atom_config.spectrum.atoms])
        for gap in find_gaps(two_atom_config):
            if gap.unbounded or gap.g_a == -math.inf:
                continue
            gs = np.linspace(gap.g_a + 1e-6, gap.g_b - 1e-6, 50)
            branches = [x_of_g(g, two_atom_config) for g in gs]
            xs = np.array([b.x for b in branches])
            ss = np.array([b.s for b in branches])
            assert all(b.dx_dg > 0 for b in branches)
            assert np.all(np.diff(xs) > 0)
            assert np.all(np.diff(ss) > 0)
            dens = np.array([1.0 + u * b.g + t * b.s for b in branches])
            signs = np.sign(dens)
            assert np.all(signs == signs[0:1, :])
            assert np.all(np.abs(dens) > 1e-12)

    def test_cross_validation_against_boundary_values(self, two_atom_config):
        # the real branch at the midpoint of each finite gap agrees with the
        # continued boundary pair there
        from scipy.optimize import brentq

        for gap in find_gaps(two_atom_config):
            if gap.unbounded or gap.g_a == -math.inf:
                continue
            x_mid = 0.5 * (gap.a + gap.b)
            g_mid = brentq(
                lambda g: x_of_g(g, two_atom_config).x - x_mid,
                gap.g_a + 1e-9,
                gap.g_b - 1e-9,
                xtol=1e-13,
            )
            br = x_of_g(g_mid, two_atom_config)
            pair = boundary_value(x_mid, two_atom_config)
            assert abs(pair.s_under.imag) < 1e-7
            assert pair.s_under.real == pytest.approx(br.s, abs=1e-6)
            assert pair.g_under.real == pytest.approx(br.g, abs=1e-6)

    @pytest.mark.parametrize(
        "atoms, y, n_gaps, n_grid",
        [
            *(
                pytest.param(atoms, y, n_gaps, DEFAULT_N_GRID, id=name)
                for name, (atoms, y, n_gaps) in GAP_MODELS.items()
            ),
            *(
                pytest.param(atoms, y, n_gaps, n_grid, id=f"decline-{k}-{n_grid}")
                for k, (atoms, y, n_gaps) in enumerate(DECLINE_MODELS, 1)
                for n_grid in (400, DEFAULT_N_GRID)
            ),
        ],
    )
    def test_three_atom_gaps_hold_real_boundary_values(self, atoms, y, n_gaps, n_grid):
        # the same 9 inset points as test_pairs_inside_gaps_are_exactly_real:
        # defect B's gap midpoint, 0.41, lies in the true gap
        cfg = ModelConfig(JointSpectrum.from_atoms(atoms), y)
        gaps = find_gaps(cfg, n_grid=n_grid)
        assert len(gaps) == n_gaps
        assert all(lo.b < hi.a for lo, hi in zip(gaps, gaps[1:]))
        for gap in gaps:
            b = gap.finite_b
            inset = 0.05 * (b - gap.a)
            for x in np.linspace(gap.a + inset, b - inset, 9):
                pair = boundary_value(float(x), cfg)
                assert abs(pair.s_under.imag) < 1e-6, (gap, x, pair.s_under)

    def test_edges_next_to_a_failed_grid_point_are_refined(self, two_atom_config):
        # at 500 points per side the grid point past each of these edges has
        # no real root (a fold within one cell); they used to be reported at
        # grid accuracy, as 7.1740 and 11.1459
        gaps = find_gaps(two_atom_config, n_grid=500)
        assert len(gaps) == 3
        assert gaps[1].b == pytest.approx(7.28415976954, abs=1e-9)
        assert gaps[2].a == pytest.approx(10.9748208467, abs=1e-9)

    @pytest.mark.parametrize(
        "atoms, y, n_gaps",
        [
            # at 400 points per side the middle gap used to end at 4.860834
            # and the top gap to start at 9.091904, inside the true gaps
            pytest.param(*DECLINE_MODELS[2], id="decline-3"),
            # the branch walk declined g = -0.12238, a point on the branch,
            # and the third gap ended there at 8.725129 instead of 8.742652
            pytest.param(
                [
                    (3.7375954542037046, 1.7045816947671408, 1 / 3),
                    (9.796727231679853, 0.32242174847204014, 1 / 3),
                    (0.0, 1.3396630191583954, 1 / 3),
                ],
                0.6341837804627607,
                4,
                id="seed-11",
            ),
            # a fold shares the cell of the middle gap's lower edge; both
            # grids raised CoarseGridError before that cell went to the
            # bisection when Brent's seeded evaluations failed
            pytest.param(*GAP_MODELS["defect-F"], id="defect-F"),
        ],
    )
    def test_coarse_grid_edges_next_to_folds_match_the_default_grid(self, atoms, y, n_gaps):
        cfg = ModelConfig(JointSpectrum.from_atoms(atoms), y)
        coarse = find_gaps(cfg, n_grid=400)
        fine = find_gaps(cfg)
        assert len(coarse) == len(fine) == n_gaps
        for c, f in zip(coarse, fine):
            assert (c.a, c.b) == pytest.approx((f.a, f.b), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["defect-D", "defect-E", "defect-F"])
    def test_gap_edges_match_the_scan_oracle(self, name):
        # the scan sees the support only through boundary_value, never
        # through the sweep; its 1,250 points resolve features wider than 0.02
        atoms, y, n_gaps = GAP_MODELS[name]
        cfg = ModelConfig(JointSpectrum.from_atoms(atoms), y)
        ref = scan_gaps(
            lambda x: abs(boundary_value(x, cfg).s_under.imag), 25.0, 1250, GAP_IMAG_TOL
        )
        gaps = find_gaps(cfg)
        assert len(ref) == len(gaps) == n_gaps
        for gap, (a, b) in zip(gaps, ref):
            assert (gap.a, gap.b) == pytest.approx((a, b), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("name", list(INWARD_WALK_MODELS))
    def test_inward_walk_keeps_the_branch_past_the_lowest_edge(self, name):
        # n_grid 2000 and 8000 give these gaps (400 too); on two-atom-1 a
        # 2,000-point scan of boundary_value confirms them
        atoms, y, b0, a1 = INWARD_WALK_MODELS[name]
        cfg = ModelConfig(JointSpectrum.from_atoms(atoms), y)
        gaps = find_gaps(cfg)
        assert len(gaps) == 2
        assert gaps[0].a == 0.0
        assert gaps[0].b == pytest.approx(b0, rel=1e-12)
        assert gaps[1].a == pytest.approx(a1, rel=1e-12)
        assert math.isinf(gaps[1].b)

    def test_non_real_gap_midpoint_raises(self, mp_config, monkeypatch):
        calls = []

        def non_real(x, cfg):
            calls.append(x)
            return StieltjesPair(z=complex(x), s_under=complex(-1.0, GAP_IMAG_TOL), g_under=-1.0)

        monkeypatch.setattr(support, "boundary_value", non_real)
        with pytest.raises(NotInGapError):
            find_gaps(mp_config)
        # the gap (0, 0.25) is checked first, at its midpoint
        assert calls == [0.125]


class TestEdges:
    """Refined edges against closed forms, and the kernel calls they cost."""

    def test_two_atom_edges_match_the_closed_form(self, two_atom_config):
        # each interior edge is a stationary point of the closed-form x(g);
        # scipy's brentq on the closed-form dx/dg is the test-only oracle
        from scipy.optimize import brentq

        low, mid, top = find_gaps(two_atom_config)
        for g, x in ((low.g_b, low.b), (mid.g_a, mid.a), (mid.g_b, mid.b), (top.g_a, top.a)):
            g_lo, g_hi = sorted((g * (1.0 - 1e-3), g * (1.0 + 1e-3)))
            g_star = brentq(
                lambda v: two_atom_dx_dg(v, two_atom_config.y), g_lo, g_hi, xtol=1e-15
            )
            assert x == pytest.approx(
                two_atom_x_of_g(g_star, two_atom_config.y), rel=1e-13, abs=0.0
            )

    @pytest.mark.parametrize(
        "atoms, y, n_grid",
        [
            pytest.param([(0.0, 1.0, 0.5), (8.0, 1.0, 0.5)], 0.1, DEFAULT_N_GRID, id="two-atom"),
            # the lower edge of the middle gap shares its cell with a fold
            pytest.param(*GAP_MODELS["defect-F"][:2], 400, id="defect-F-400"),
        ],
    )
    def test_one_sweep_and_a_bisection_of_branch_solves_per_edge(
        self, monkeypatch, atoms, y, n_grid
    ):
        calls = {"real_roots": 0, "branch": 0}
        edges = []
        real_roots, branch, refine = K.real_roots, K.branch, support._refine_edge

        def counted_real_roots(*args):
            calls["real_roots"] += 1
            return real_roots(*args)

        def counted_branch(*args):
            calls["branch"] += 1
            return branch(*args)

        def counted_refine(g_end, s_end, g_next, *args):
            before = calls["branch"]
            result = refine(g_end, s_end, g_next, *args)
            edges.append((abs(g_next - g_end) / abs(g_end), calls["branch"] - before))
            return result

        monkeypatch.setattr(K, "real_roots", counted_real_roots)
        monkeypatch.setattr(K, "branch", counted_branch)
        monkeypatch.setattr(support, "_refine_edge", counted_refine)
        find_gaps(ModelConfig(JointSpectrum.from_atoms(atoms), y), n_grid=n_grid)
        assert calls["real_roots"] == 1
        assert len(edges) == 4
        for cell, n in edges:
            assert 0 < n <= math.ceil(math.log2(cell / EDGE_RTOL)) + 1, (cell, n)


class TestNearEdgeSolve:
    """The continuation ladder near support edges and inside gaps."""

    def test_mp_edge_grid_matches_closed_form_without_stalls(self, mp_config, monkeypatch):
        statuses = []
        real = K.fixed_point

        def counting(*args):
            result = real(*args)
            statuses.append(result[5])
            return result

        monkeypatch.setattr(K, "fixed_point", counting)
        grid = np.linspace(0.2501, 2.2499, 200)
        curve = density(mp_config, grid)
        assert not curve.failed and not curve.vmin_fallbacks
        assert np.max(np.abs(curve.f - mp_density(grid, 0.25))) < 1e-10
        assert statuses
        assert K.NO_CONVERGE not in statuses

    @pytest.mark.parametrize("d", [1e-12, 1e-13])
    def test_density_within_1e_12_of_mp_edges(self, mp_config, d):
        # a real pair's residual there is of order (Im s)^2, below tol, but
        # the complex pair with the closed-form density must be kept
        lo, hi = mp_edges(0.25)
        inside = np.array([hi - d, lo + d])
        curve = density(mp_config, inside)
        ref = mp_density(inside, 0.25)
        assert np.all(ref > 0.0)
        assert np.max(np.abs(curve.f - ref) / ref) <= 1e-2
        for x in (hi + d, lo - d):
            assert boundary_value(x, mp_config).s_under.imag == 0.0

    def test_pairs_inside_gaps_are_exactly_real(self, two_atom_config):
        for gap in find_gaps(two_atom_config):
            b = gap.finite_b
            inset = 0.05 * (b - gap.a)
            for x in np.linspace(gap.a + inset, b - inset, 9):
                pair = boundary_value(float(x), two_atom_config)
                assert pair.z.imag == 0.0
                assert pair.s_under.imag == 0.0, (gap, x, pair)


class TestDensity:
    def test_mp_density_sup_norm(self, mp_config):
        grid = np.linspace(0.3, 2.2, 150)
        curve = density(mp_config, grid)
        assert not curve.failed
        assert np.max(np.abs(curve.f - mp_density(grid, 0.25))) < 1e-6

    def test_zero_inside_gap(self, two_atom_config):
        gaps = find_gaps(two_atom_config)
        mid = gaps[1]
        grid = np.linspace(mid.a + 0.2 * mid.width, mid.b - 0.2 * mid.width, 7)
        curve = density(two_atom_config, grid)
        assert np.all(curve.f < 1e-7)

    def test_mass_near_one(self, mp_config):
        lo, hi = mp_edges(0.25)
        grid = np.linspace(lo + 1e-4, hi - 1e-4, 3000)
        curve = density(mp_config, grid)
        assert abs(curve.mass() - 1.0) < 1e-3

    def test_nonnegative_and_continuous(self, mp_config):
        grid = np.linspace(0.3, 2.2, 200)
        curve = density(mp_config, grid)
        assert np.all(curve.f >= 0)
        # away from edges the curve varies on the grid scale
        assert np.max(np.abs(np.diff(curve.f))) < 0.05

    def test_rejects_zero_grid_point(self, mp_config):
        with pytest.raises(ValueError):
            density(mp_config, [0.0, 1.0])


def mp_far_branch(z: complex, y: float) -> StieltjesPair:
    """The second root of the pure-noise companion quadratic
    z*s^2 + (z + 1 - y)*s + 1 = 0 at z, with g = s: it solves the inverted
    system but lies in the lower half-plane."""
    s = complex(min(np.roots([z, z + 1.0 - y, 1.0]), key=lambda r: r.imag))
    return StieltjesPair(z=z, s_under=s, g_under=s)


class TestDensityContinuation:
    """Each grid point's top rung continues from the previous point's."""

    MP_GRID = np.linspace(0.2501, 2.2499, 200)

    @staticmethod
    def assert_matches_cold(cfg, grid):
        curve = density(cfg, grid)
        assert not curve.failed and not curve.vmin_fallbacks and not curve.cold_starts
        for x, s, g in zip(grid, curve.s_under, curve.g_under):
            cold = boundary_value(float(x), cfg)
            assert abs(s - cold.s_under) <= 1e-13 * abs(cold.s_under), x
            assert abs(g - cold.g_under) <= 1e-13 * abs(cold.g_under), x

    def test_mp_grid_matches_closed_form(self, mp_config):
        curve = density(mp_config, self.MP_GRID)
        for x, s in zip(self.MP_GRID, curve.s_under):
            exact = mp_boundary_exact(float(x), 0.25)
            assert abs(s - exact) <= 1e-12 * abs(exact), x

    def test_mp_grid_matches_cold_solves(self, mp_config):
        self.assert_matches_cold(mp_config, self.MP_GRID)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_two_atom_grid_matches_cold_solves(self, two_atom_config, reverse):
        # through both support pieces and the gaps around them
        grid = np.linspace(0.05, 12.0, 200)
        self.assert_matches_cold(two_atom_config, grid[::-1] if reverse else grid)

    def test_grid_running_into_the_support_matches_cold_solves(self, mp_config):
        # from the real pairs of the gap (0, 0.25) across the lower edge
        self.assert_matches_cold(mp_config, np.linspace(0.05, 1.0, 100))

    def test_one_cold_fixed_point_per_grid(self, mp_config, monkeypatch):
        calls = []
        real = K.fixed_point

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(K, "fixed_point", counted)
        density(mp_config, self.MP_GRID)
        assert calls == [complex(self.MP_GRID[0], 1.0)]

    def test_warm_start_that_does_not_hold_falls_back_to_the_cold_solve(self, mp_config):
        # Newton returns the far branch unchanged, its residuals being at
        # rounding level, and its Im s < 0 rejects it
        x = 1.0
        far = mp_far_branch(complex(x, 1.0), 0.25)
        assert far.s_under.imag < 0.0
        pair = boundary_value(x, mp_config, near=far)
        cold = boundary_value(x, mp_config)
        assert pair == cold
        assert pair.cold_top and pair.top == cold.top
        assert boundary_value(x, mp_config, near=cold.top).cold_top is False

    def test_rejected_warm_start_is_listed(self, mp_config, monkeypatch):
        real = support.boundary_value

        def far_at_third(x, cfg, near):
            if x == grid[2]:
                near = mp_far_branch(complex(x, LADDER[0]), cfg.y)
            return real(x, cfg, near)

        grid = np.linspace(0.5, 2.0, 6)
        monkeypatch.setattr(support, "boundary_value", far_at_third)
        curve = density(mp_config, grid)
        assert curve.cold_starts == (2,)
        assert not curve.failed and not curve.vmin_fallbacks
        # the cold fallback gives the cold value itself
        cold = boundary_value(float(grid[2]), mp_config)
        assert (curve.s_under[2], curve.g_under[2]) == (cold.s_under, cold.g_under)


class TestGapVsY:
    def test_mp_lower_gap_widths(self):
        spectrum = JointSpectrum.from_atoms([(0.0, 1.0, 1.0)])
        tracked = gap_vs_y(spectrum, [0.49, 0.25, 0.09], gap_selector=0)
        widths = [g.width for g in tracked]
        assert widths == pytest.approx([0.09, 0.25, 0.49], abs=1e-8)

    def test_two_atom_middle_gap_grows(self, two_atom_spectrum):
        def middle(gaps):
            finite = [g for g in gaps if not g.unbounded and g.a > 0]
            return finite[0] if finite else None

        tracked = gap_vs_y(two_atom_spectrum, [0.2, 0.1, 0.05], gap_selector=middle)
        widths = [g.width for g in tracked]
        assert widths[0] < widths[1] < widths[2]
        # tracking must agree with direct detection at each ratio
        for y, gap in zip([0.2, 0.1, 0.05], tracked):
            direct = find_gaps(ModelConfig(two_atom_spectrum, y))
            assert any(
                abs(gap.a - d.a) < 1e-10 and abs(gap.b - d.b) < 1e-10 for d in direct
            )

    def test_unbounded_gap_lower_endpoint_decreases(self, two_atom_spectrum):
        def top(gaps):
            unbounded = [g for g in gaps if g.unbounded]
            return unbounded[0] if unbounded else None

        tracked = gap_vs_y(two_atom_spectrum, [0.2, 0.1, 0.05], gap_selector=top)
        assert tracked[0].a > tracked[1].a > tracked[2].a

    def test_small_y_endpoints_approach_pair_sums(self, two_atom_spectrum):
        def middle(gaps):
            finite = [g for g in gaps if not g.unbounded and g.a > 0]
            return finite[0] if finite else None

        tracked = gap_vs_y(two_atom_spectrum, [0.01, 0.001], gap_selector=middle)
        assert abs(tracked[-1].a - 1.0) < 0.1
        assert abs(tracked[-1].b - 9.0) < 0.3

    def test_rejects_non_decreasing_y(self, two_atom_spectrum):
        with pytest.raises(ValueError):
            gap_vs_y(two_atom_spectrum, [0.1, 0.2], gap_selector=0)

    def test_selector_without_match_raises(self, two_atom_spectrum):
        with pytest.raises(GapTrackingError):
            gap_vs_y(two_atom_spectrum, [0.2, 0.1], gap_selector=lambda gaps: None)
