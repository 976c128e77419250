"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. All
tolerances are pinned here, not configurable. Criterion 6 measures its
distance bound against the limiting support from the independent oracle
tables in `oracles.py`; notes/decisions.md derives the bound and its margins.
"""

from __future__ import annotations

import csv
import json
import time

import numpy as np
import pytest

from specsep import (
    JointSpectrum,
    ModelConfig,
    SimConfig,
    constraint_residual,
    eigenvalues,
    extreme_bound_check,
    find_gaps,
    gap_vs_y,
    materialize_pairs,
    perturbation_check,
    predict_counts,
    residual_713,
    run_trials,
    sample_B,
    solve_at,
)
from specsep.cli import main

from oracles import (
    TWO_ATOM_GAPS_Y001,
    TWO_ATOM_GAPS_Y005,
    TWO_ATOM_PAIR_SUMS,
    mp_density,
    mp_edges,
    two_atom_half_widths,
)

MP_ATOMS = [(0.0, 1.0, 1.0)]
TWO_ATOMS = [(0.0, 1.0, 0.5), (8.0, 1.0, 0.5)]

# Criterion 6: allowance on the limiting support half-widths for finite-p
# edge fluctuation. At p = 50 each support piece holds 25 eigenvalues, whose
# outermost one overshoots the limiting edge on the p^(-2/3) edge scale.
DEGENERATION_EPS = 0.2


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


def write_config(path, y, atoms, sim=None):
    doc = {
        "schema": 1,
        "y": y,
        "spectrum": [{"u": u, "t": t, "weight": w} for u, t, w in atoms],
    }
    if sim:
        doc["sim"] = sim
    path.write_text(json.dumps(doc))
    return str(path)


def read_density(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    xs = np.array([float(r["x"]) for r in rows])
    fs = np.array([float(r["f"]) for r in rows])
    return xs, fs


def test_criterion_1_marchenko_pastur_reduction(tmp_path):
    """Gap edges 0.25/2.25 within 1e-6; density sup-norm and mass; < 60 s."""
    t0 = time.time()
    cfg = write_config(tmp_path / "mp.json", 0.25, MP_ATOMS)
    out = str(tmp_path)

    assert main(["gaps", "--config", cfg, "--out", out]) == 0
    gaps = json.loads((tmp_path / "gaps.json").read_text())
    lo, hi = mp_edges(0.25)
    assert abs(gaps[0]["b"] - lo) < 1e-6
    assert abs(gaps[1]["a"] - hi) < 1e-6

    assert main(
        ["density", "--config", cfg, "--out", out,
         "--x-min", "0.35", "--x-max", "2.15", "--points", "200"]
    ) == 0
    xs, fs = read_density(tmp_path / "density.csv")
    sup_inner = float(np.max(np.abs(fs - mp_density(xs, 0.25))))
    assert sup_inner < 1e-6

    assert main(
        ["density", "--config", cfg, "--out", out,
         "--x-min", "0.26", "--x-max", "2.24", "--points", "200"]
    ) == 0
    xs, fs = read_density(tmp_path / "density.csv")
    sup_outer = float(np.max(np.abs(fs - mp_density(xs, 0.25))))
    assert sup_outer < 1e-4

    assert main(
        ["density", "--config", cfg, "--out", out,
         "--x-min", "0.2501", "--x-max", "2.2499", "--points", "3000"]
    ) == 0
    xs, fs = read_density(tmp_path / "density.csv")
    mass = float(np.trapezoid(fs, xs))
    assert abs(mass - 1.0) < 1e-3

    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(
        1, True,
        f"edges within 1e-6, sup-norms {sup_inner:.2e}/{sup_outer:.2e}, "
        f"mass {mass:.6f}, {elapsed:.1f}s",
    )


def test_criterion_2_solver_residual_battery():
    """1000 random instances: residuals < 1e-10, Herglotz, constraint < 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(123456789)
    worst_res = 0.0
    worst_con = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        wts = rng.dirichlet(np.ones(k))
        atoms = [(rng.uniform(0.0, 10.0), rng.uniform(0.1, 5.0), wi) for wi in wts]
        y = float(rng.uniform(0.05, 1.0))
        model = ModelConfig(JointSpectrum.from_atoms(atoms), y)
        z = complex(rng.uniform(-5.0, 15.0), rng.uniform(1e-3, 10.0))
        pair = solve_at(z, model)
        assert pair.s_under.imag > 0
        assert pair.g_under.imag > 0
        res = max(residual_713(pair, model))
        con = constraint_residual(pair, model)
        assert res < 1e-10
        assert con < 1e-9
        worst_res = max(worst_res, res)
        worst_con = max(worst_con, con)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(
        2, True,
        f"1000/1000 converged, worst residual {worst_res:.2e}, "
        f"worst constraint {worst_con:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_gap_monotonicity():
    """Two-atom middle-gap width strictly increases as y drops 0.4 -> 0.05."""
    spectrum = JointSpectrum.from_atoms(TWO_ATOMS)
    y_values = [0.4, 0.3, 0.2, 0.1, 0.05]

    def middle(gaps):
        finite = [g for g in gaps if not g.unbounded and g.a > 0]
        return finite[0] if finite else None

    start = next(
        (i for i, y in enumerate(y_values)
         if middle(find_gaps(ModelConfig(spectrum, y))) is not None),
        None,
    )
    assert start is not None
    tracked = gap_vs_y(spectrum, y_values[start:], gap_selector=middle)
    widths = [g.width for g in tracked]
    assert all(b > a for a, b in zip(widths, widths[1:]))
    report(3, True, f"tracked from y={y_values[start]}, widths {[round(w, 4) for w in widths]}")


def test_criterion_4_no_eigenvalue_property():
    """MP y=0.2, p=400, n=2000, 50 trials per law: empty inset upper gap."""
    t0 = time.time()
    model = ModelConfig(JointSpectrum.from_atoms(MP_ATOMS), 0.2)
    upper = [g for g in find_gaps(model) if g.unbounded]
    assert len(upper) == 1
    pairs = materialize_pairs(model.spectrum, 400)
    preds = [predict_counts(g, pairs) for g in upper]
    freqs = {}
    for law in ("standard_gaussian", "rademacher"):
        sim = SimConfig(
            spectrum=model.spectrum, n=2000, p=400, trials=50, seed=8675309,
            noise_law=law,
        )
        rep = run_trials(sim, upper, preds)
        freqs[law] = rep.per_gap[0].inside_zero_frequency
        assert freqs[law] >= 49 / 50
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(4, True, f"empty-gap frequencies {freqs}, {elapsed:.1f}s")


def test_criterion_5_exact_separation_convention_resolution():
    """Two-atom y=0.1, p=200: derivation convention >= 49/50, flipped <= 1/50."""
    model = ModelConfig(JointSpectrum.from_atoms(TWO_ATOMS), 0.1)
    gaps = find_gaps(model)
    pairs = materialize_pairs(model.spectrum, 200)
    preds = [predict_counts(g, pairs) for g in gaps]

    middle = next(
        i for i, g in enumerate(gaps) if not g.unbounded and g.a > 0
    )
    assert preds[middle].eigencounts("derivation") == (100, 100)

    sim = SimConfig(spectrum=model.spectrum, n=2000, p=200, trials=50, seed=13579)
    rep = run_trials(sim, gaps, preds)
    freq_derivation = rep.all_gaps_match_frequency["derivation"]
    freq_theorem = rep.all_gaps_match_frequency["theorem"]
    # the (100, 100) split itself for the middle gap
    assert rep.per_gap[middle].match_frequency["derivation"] >= 49 / 50
    # convention discrimination uses all gaps jointly: the middle gap's
    # symmetric split cannot tell the conventions apart, the outer gaps can
    assert freq_derivation >= 49 / 50
    assert freq_theorem <= 1 / 50
    report(
        5, True,
        f"derivation matches {freq_derivation:.2f}, flipped {freq_theorem:.2f} "
        f"(both recorded)",
    )


def test_criterion_6_y_to_zero_degeneration():
    """Two-atom y -> 0 (p=50): eigenvalues gather at pair sums; counts split.

    Count half: at y = 0.01 the predicted middle-gap split equals the
    pair-sum side counts. Distance half: as y -> 0 the limiting support
    collapses onto the pair sums c_k = u + t, and the piece around c_k has
    half-width w_k(y) ~ sqrt(y) (largest distance from c_k to an edge of its
    piece, from the oracle tables). At y = 0.05 (n = 1000) and y = 0.01
    (n = 5000) a trial passes when every eigenvalue lies within
    (1 + DEGENERATION_EPS) * w_k(y) of its nearest pair sum c_k. The worst
    deviation must then shrink by at least 1.5 from y = 0.05 to y = 0.01,
    where the square-root law predicts sqrt(5) ~ 2.24. See
    notes/decisions.md.
    """
    spectrum = JointSpectrum.from_atoms(TWO_ATOMS)
    model = ModelConfig(spectrum, 0.01)

    # predicted counts for the middle gap equal the pair-sum side counts
    gaps = find_gaps(model)
    middle = next(g for g in gaps if not g.unbounded and g.a > 0)
    pairs = materialize_pairs(spectrum, 50)
    pred = predict_counts(middle, pairs)
    sums = np.array([u + t for u, t in pairs])
    below, above = pred.eigencounts("derivation")
    count_ok = (
        below == int(np.sum(sums < middle.a)) and above == int(np.sum(sums > middle.b))
    )
    assert count_ok
    report(6, True, f"count sub-check: predicted ({below}, {above}) equals pair-sum sides")

    targets = np.unique(sums)
    assert tuple(targets) == TWO_ATOM_PAIR_SUMS
    worst = {}
    for y, n, table in ((0.05, 1000, TWO_ATOM_GAPS_Y005), (0.01, 5000, TWO_ATOM_GAPS_Y001)):
        half_widths = np.array(two_atom_half_widths(table))
        sim = SimConfig(spectrum=spectrum, n=n, p=50, trials=50, seed=20260810)
        ok_trials = 0
        worst_dev = 0.0
        worst_ratio = 0.0
        for i in range(sim.trials):
            eigs = eigenvalues(sample_B(sim, i))
            dist = np.abs(eigs[:, None] - targets[None, :])
            nearest = np.argmin(dist, axis=1)
            dev = dist[np.arange(len(eigs)), nearest]
            ratio = float(np.max(dev / half_widths[nearest]))
            worst_dev = max(worst_dev, float(np.max(dev)))
            worst_ratio = max(worst_ratio, ratio)
            if ratio <= 1.0 + DEGENERATION_EPS:
                ok_trials += 1
        worst[y] = worst_dev
        passed = ok_trials >= 48
        detail = (
            f"{ok_trials}/50 trials within (1+{DEGENERATION_EPS})*w_k of a pair sum "
            f"at y={y} (w = {half_widths[0]:.4f}, {half_widths[1]:.4f}; worst "
            f"deviation {worst_dev:.3f} = {worst_ratio:.3f}*w_k)"
        )
        report(6, passed, f"distance sub-check: {detail}")
        assert passed, f"fewer than 48/50 trials passed: {detail}"

    shrink = worst[0.05] / worst[0.01]
    passed = shrink >= 1.5
    detail = (
        f"worst deviation {worst[0.05]:.3f} at y=0.05 -> {worst[0.01]:.3f} at "
        f"y=0.01, shrink factor {shrink:.2f} (sqrt(5) = 2.24 predicted, need >= 1.5)"
    )
    report(6, passed, f"degeneration sub-check: {detail}")
    assert passed, f"eigenvalues do not gather at the pair sums as y -> 0: {detail}"


def test_degeneration_sqrt_scale_companion_check():
    """Companion to criterion 6: the degeneration bound in the square-root
    metric (the scale on which the finite-ratio perturbation of the matrix
    factors acts) holds with margin."""
    spectrum = JointSpectrum.from_atoms(TWO_ATOMS)
    sim = SimConfig(spectrum=spectrum, n=5000, p=50, trials=50, seed=20260810)
    targets = np.sqrt(np.array([1.0, 9.0]))
    ok_trials = 0
    worst = 0.0
    for i in range(sim.trials):
        roots = np.sqrt(eigenvalues(sample_B(sim, i)))
        dev = float(np.max(np.min(np.abs(roots[:, None] - targets[None, :]), axis=1)))
        worst = max(worst, dev)
        if dev <= 0.15:
            ok_trials += 1
    assert ok_trials >= 48
    report(
        6, True,
        f"sqrt-scale companion: {ok_trials}/50 trials within 0.15 "
        f"(worst {worst:.3f})",
    )


def test_criterion_7_extreme_eigenvalue_bound():
    """Pure noise, y=0.25, p=1000, 20 trials: extremes within [0.20, 2.30]."""
    t0 = time.time()
    spectrum = JointSpectrum.from_atoms(MP_ATOMS)
    sim = SimConfig(spectrum=spectrum, n=4000, p=1000, trials=20, seed=271828)
    rep = extreme_bound_check(sim, eps=0.05)
    assert rep.passed
    assert rep.min_eigenvalue >= 0.20
    assert rep.max_eigenvalue <= 2.30
    report(
        7, True,
        f"min {rep.min_eigenvalue:.4f} >= 0.20, max {rep.max_eigenvalue:.4f} <= 2.30, "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_8_perturbation_inequality():
    """100 random Hermitian pairs satisfy the eigenvalue-ordering bound."""
    rng = np.random.default_rng(424242)
    worst_slack = np.inf
    for _ in range(100):
        m = int(rng.integers(5, 60))
        a = rng.standard_normal((m, m))
        a = (a + a.T) / 2
        b = a + rng.uniform(0.01, 2.0) * rng.standard_normal((m, m))
        b = (b + b.T) / 2
        rep = perturbation_check(a, b, slack=1e-10)
        assert rep.holds
        worst_slack = min(worst_slack, rep.spectral_norm - rep.max_eigenvalue_gap)
    report(8, True, f"100/100 pairs hold; smallest norm-minus-gap margin {worst_slack:.3e}")


def test_criterion_9_determinism(tmp_path):
    """Two cmd_verify runs with one config produce byte-identical outputs."""
    cfg = write_config(
        tmp_path / "two.json", 0.1, TWO_ATOMS,
        sim={"n": 2000, "trials": 20, "seed": 13579, "noise_law": "standard_gaussian"},
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    same_json = (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
    same_csv = (
        (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()
    )
    assert same_json and same_csv
    report(9, True, "verify.json and eigenvalues.csv byte-identical across reruns")
