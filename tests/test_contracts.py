"""Error-path contracts that cut across modules."""

from __future__ import annotations

import json

import numpy as np
import pytest

from specsep import (
    ContinuationError,
    SignConstancyError,
    SimConfig,
    SpectralGap,
    density,
    eigenvalues,
    find_gaps,
    materialize_pairs,
    predict_counts,
    sample_B,
)
from specsep import solver as solver_mod
from specsep import support as support_mod
from specsep.cli import main


def test_sign_constancy_violation_reported(two_atom_config):
    # an interval stitched across two true gaps is not a gap: the signal-free
    # pair's h crosses -1 between them and is reported with its two end values
    gaps = find_gaps(two_atom_config)
    fake = SpectralGap(
        a=0.3, b=7.0, g_a=np.nan, g_b=np.nan, y=two_atom_config.y,
        end_a=gaps[0].end_a, end_b=gaps[1].end_b,
    )
    assert gaps[0].a < fake.a < gaps[0].b
    assert gaps[1].a < fake.b < gaps[1].b
    pairs = materialize_pairs(two_atom_config.spectrum, 10)
    with pytest.raises(SignConstancyError) as err:
        predict_counts(fake, pairs)
    assert err.value.pair == (0.0, 1.0)
    assert len(err.value.values) == 2


def test_density_flags_failed_points(mp_config, monkeypatch, tmp_path, capsys):
    calls = {"n": 0}
    real = solver_mod.boundary_value
    nears, tops = [], []

    def flaky(x, cfg, near=None):
        calls["n"] += 1
        nears.append(near)
        if calls["n"] == 2:
            raise ContinuationError(x, 1e-6)
        pair = real(x, cfg, near)
        tops.append(pair.top)
        return pair

    monkeypatch.setattr(support_mod, "boundary_value", flaky)
    curve = density(mp_config, [0.8, 1.0, 1.2])
    assert curve.failed == (1,)
    assert np.isnan(curve.f[1])
    assert np.isnan(curve.s_under[1].imag) and np.isnan(curve.g_under[1].imag)
    assert np.isfinite(curve.f[0]) and np.isfinite(curve.f[2])
    # mass skips the flagged point instead of propagating NaN
    assert np.isfinite(curve.mass())
    # the failed point does not break the chain: the point after it starts
    # from the last top-rung pair that held, and that start holds
    assert nears == [None, tops[0], tops[0]]
    assert curve.cold_starts == ()

    # the CLI writes nan for the failed point's f, im_s_under and real parts,
    # and one failed point of three exceeds the 1% budget
    cfg_path = tmp_path / "mp.json"
    cfg_path.write_text(json.dumps({"y": 0.25, "spectrum": [{"u": 0.0, "t": 1.0, "weight": 1.0}]}))
    calls["n"] = 0
    argv = ["density", "--config", str(cfg_path), "--out", str(tmp_path),
            "--x-min", "0.8", "--x-max", "1.2", "--points", "3"]
    assert main(argv) == 3
    assert "1 of 3 points failed" in capsys.readouterr().err
    rows = (tmp_path / "density.csv").read_text().splitlines()
    x, f, im_s, re_s, re_g = rows[2].split(",")
    assert (x, f, im_s, re_s, re_g) == ("1", "nan", "nan", "nan", "nan")
    assert "nan" not in rows[1] + rows[3]


def test_density_flags_vmin_fallbacks(mp_config, monkeypatch, tmp_path, capsys):
    # a pair still at z = x + i*V_MIN is the fallback after a failed
    # real-axis polish: it is kept as a value but listed on the curve and
    # counted on stderr, with the CSV and the exit code unchanged
    calls = {"n": 0}
    real = solver_mod.boundary_value

    def polish_fails(x, cfg, near=None):
        calls["n"] += 1
        if calls["n"] == 2:
            return solver_mod.solve_at(complex(x, solver_mod.V_MIN), cfg)
        return real(x, cfg, near)

    cfg_path = tmp_path / "mp.json"
    cfg_path.write_text(json.dumps({"y": 0.25, "spectrum": [{"u": 0.0, "t": 1.0, "weight": 1.0}]}))
    argv = ["density", "--config", str(cfg_path), "--x-min", "0.8", "--x-max", "1.2", "--points", "3"]

    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()

    monkeypatch.setattr(support_mod, "boundary_value", polish_fails)
    curve = density(mp_config, [0.8, 1.0, 1.2])
    assert curve.vmin_fallbacks == (1,)
    assert curve.failed == ()
    assert np.all(np.isfinite(curve.f))

    calls["n"] = 0
    assert main(argv + ["--out", str(tmp_path / "fallback")]) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "1 of 3 points" in err and "v_min" in err
    plain = (tmp_path / "plain" / "density.csv").read_text().splitlines()
    fallback = (tmp_path / "fallback" / "density.csv").read_text().splitlines()
    assert len(fallback) == len(plain) == 4
    assert [fallback[i] for i in (0, 1, 3)] == [plain[i] for i in (0, 1, 3)]


def test_complex_entries_pipeline(two_atom_spectrum):
    sim = SimConfig(
        spectrum=two_atom_spectrum, n=400, p=40, seed=77, complex_entries=True
    )
    b = sample_B(sim, 0)
    assert np.iscomplexobj(b)
    assert np.allclose(b, b.conj().T)
    eigs = eigenvalues(b)
    assert np.isrealobj(eigs)
    assert eigs[0] >= -1e-12
    # complex noise halves the bulk spread but keeps locations near u+t
    targets = np.array([1.0, 9.0])
    dev = np.min(np.abs(eigs[:, None] - targets[None, :]), axis=1)
    assert np.max(dev) < 2.5
