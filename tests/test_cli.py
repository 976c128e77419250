from __future__ import annotations

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from specsep import SolveSettings, StieltjesPair
from specsep import cli, support
from specsep.cli import load_config, main

from oracles import mp_density, mp_edges


def write_config(path, y, atoms, sim=None, solve=None):
    doc = {
        "schema": 1,
        "y": y,
        "spectrum": [{"u": u, "t": t, "weight": w} for u, t, w in atoms],
    }
    if solve:
        doc["solve"] = solve
    if sim:
        doc["sim"] = sim
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def mp_json(tmp_path):
    return write_config(
        tmp_path / "mp.json",
        0.25,
        [(0.0, 1.0, 1.0)],
        sim={"n": 400, "trials": 5, "seed": 7, "noise_law": "standard_gaussian"},
    )


@pytest.fixture()
def two_atom_json(tmp_path):
    return write_config(
        tmp_path / "two.json",
        0.05,
        [(0.0, 1.0, 0.5), (8.0, 1.0, 0.5)],
        sim={"n": 400, "trials": 5, "seed": 7},
    )


def read_csv_rows(path):
    with open(path) as fh:
        reader = csv.DictReader(fh)
        return list(reader)


class TestDensityCommand:
    def test_mp_density_csv(self, mp_json, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["density", "--config", mp_json, "--out", str(out),
             "--x-min", "0.3", "--x-max", "2.2", "--points", "100"]
        )
        assert rc == 0
        rows = read_csv_rows(out / "density.csv")
        assert len(rows) == 100
        xs = np.array([float(r["x"]) for r in rows])
        fs = np.array([float(r["f"]) for r in rows])
        assert np.all(fs > 0)
        assert np.max(np.abs(fs - mp_density(xs, 0.25))) < 1e-6

    def test_two_points(self, mp_json, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["density", "--config", mp_json, "--out", str(out),
             "--x-min", "1.0", "--x-max", "1.5", "--points", "2"]
        )
        assert rc == 0
        assert len(read_csv_rows(out / "density.csv")) == 2

    def test_nonpositive_xmin_is_usage_error(self, mp_json, tmp_path):
        rc = main(
            ["density", "--config", mp_json, "--out", str(tmp_path),
             "--x-min", "0.0", "--x-max", "2.0"]
        )
        assert rc == 2
        rc = main(
            ["density", "--config", mp_json, "--out", str(tmp_path / "inf"),
             "--x-min", "0.3", "--x-max", "inf"]
        )
        assert rc == 2
        assert not (tmp_path / "inf" / "density.csv").exists()


class TestGapsCommand:
    def test_mp_quarter(self, mp_json, tmp_path):
        rc = main(["gaps", "--config", mp_json, "--out", str(tmp_path)])
        assert rc == 0
        gaps = json.loads((tmp_path / "gaps.json").read_text())
        lo, hi = mp_edges(0.25)
        assert len(gaps) == 2
        assert gaps[0]["a"] == 0.0
        assert gaps[0]["b"] == pytest.approx(lo, abs=1e-8)
        assert gaps[1]["a"] == pytest.approx(hi, abs=1e-8)
        assert gaps[1]["b"] is None
        assert gaps[0]["g_a"] is None

    def test_mp_y_one(self, tmp_path):
        cfg = write_config(tmp_path / "y1.json", 1.0, [(0.0, 1.0, 1.0)])
        rc = main(["gaps", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        gaps = json.loads((tmp_path / "gaps.json").read_text())
        assert len(gaps) == 1
        assert gaps[0]["a"] == pytest.approx(4.0, abs=1e-8)
        assert gaps[0]["b"] is None

    def test_two_atom_has_middle_gap(self, two_atom_json, tmp_path):
        rc = main(["gaps", "--config", two_atom_json, "--out", str(tmp_path)])
        assert rc == 0
        gaps = json.loads((tmp_path / "gaps.json").read_text())
        assert len(gaps) == 3
        middle = gaps[1]
        assert middle["a"] < 5.0 < middle["b"]

    def test_non_real_gap_exits_3_without_output(self, mp_json, tmp_path, monkeypatch):
        def non_real(x, cfg, settings=None):
            return StieltjesPair(z=complex(x), s_under=complex(-1.0, 0.1), g_under=-1.0)

        monkeypatch.setattr(support, "boundary_value", non_real)
        out = tmp_path / "out"
        rc = main(["gaps", "--config", mp_json, "--out", str(out)])
        assert rc == 3
        assert not (out / "gaps.json").exists()


class TestSeparateCommand:
    def test_counts_and_roundtrip(self, two_atom_json, tmp_path):
        rc = main(["gaps", "--config", two_atom_json, "--out", str(tmp_path)])
        assert rc == 0
        rc = main(["separate", "--config", two_atom_json, "--out", str(tmp_path)])
        assert rc == 0
        first = (tmp_path / "separation.json").read_text()
        payload = json.loads(first)
        assert len(payload) == 3
        mid = payload[1]
        # y = 0.05, n = 400 -> p = 20, split 10/10
        assert mid["count_h_below"] == 10
        assert mid["count_h_above"] == 10
        assert mid["predicted_below"] == 10
        assert mid["predicted_above"] == 10
        assert payload[0]["predicted_above"] == 20
        assert payload[2]["predicted_below"] == 20

        # re-running against the emitted gaps.json reproduces the counts
        rc = main(
            ["separate", "--config", two_atom_json, "--out", str(tmp_path),
             "--gaps-file", str(tmp_path / "gaps.json")]
        )
        assert rc == 0
        assert (tmp_path / "separation.json").read_text() == first

    def test_requires_sim_section(self, tmp_path):
        cfg = write_config(tmp_path / "nosim.json", 0.25, [(0.0, 1.0, 1.0)])
        rc = main(["separate", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize(
        "content", [None, "nope", '[{"a": 0.3}]'], ids=["missing", "not-json", "no-b"]
    )
    def test_bad_gaps_file_is_config_error(self, two_atom_json, tmp_path, capsys, content):
        path = tmp_path / "gaps.json"
        if content is not None:
            path.write_text(content)
        rc = main(
            ["separate", "--config", two_atom_json, "--out", str(tmp_path),
             "--gaps-file", str(path)]
        )
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "separation.json").exists()


class TestVerifyCommand:
    def test_passes_with_derivation_convention(self, two_atom_json, tmp_path):
        rc = main(["verify", "--config", two_atom_json, "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is True
        assert report["all_gaps_match_frequency"]["derivation"] == 1.0
        assert report["all_gaps_match_frequency"]["theorem"] == 0.0
        assert (tmp_path / "eigenvalues.csv").exists()
        rows = (tmp_path / "eigenvalues.csv").read_text().strip().split("\n")
        assert len(rows) == 5  # one per trial
        assert all(len(r.split(",")) == 20 for r in rows)  # p eigenvalues

    def test_flipped_convention_fails(self, two_atom_json, tmp_path):
        rc = main(
            ["verify", "--config", two_atom_json, "--out", str(tmp_path),
             "--convention", "theorem"]
        )
        assert rc == 4
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["passed"] is False
        assert report["all_gaps_match_frequency"]["theorem"] < 0.05

    @pytest.mark.parametrize("threshold", ["nan", "inf", "1.5", "-0.1"])
    def test_threshold_outside_unit_interval_is_usage_error(
        self, two_atom_json, tmp_path, capsys, monkeypatch, threshold
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        rc = main(
            ["verify", "--config", two_atom_json, "--out", str(tmp_path),
             "--threshold", threshold]
        )
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "verify.json").exists()

    def test_byte_identical_reruns(self, two_atom_json, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["verify", "--config", two_atom_json, "--out", str(out1)]) == 0
        assert main(["verify", "--config", two_atom_json, "--out", str(out2)]) == 0
        assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
        assert (out1 / "eigenvalues.csv").read_bytes() == (out2 / "eigenvalues.csv").read_bytes()


class TestConfigHandling:
    def test_missing_file(self, tmp_path):
        rc = main(["gaps", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert rc == 2

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps({"y": 0.25}).encode("utf-16-le"))
        assert main(["gaps", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "y": 0.25, "spectrum": []}))
        assert main(["gaps", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_invalid_spectrum(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"y": 0.25, "spectrum": [{"u": 0.0, "t": 0.0, "weight": 1.0}]})
        )
        assert main(["gaps", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "change",
        [
            {"solve": None},
            {"solve": [1e-9]},
            {"y": "abc"},
            {"spectrum": [{"u": "abc", "t": 1.0, "weight": 1.0}]},
            {"spectrum": [{"u": None, "t": 1.0, "weight": 1.0}]},
            {"solve": {"max_iter": float("inf")}},
            {"sim": {"n": float("inf")}},
            {"output_dir": 5},
        ],
        ids=["solve-null", "solve-list", "y-text", "u-text", "u-null", "max-iter-inf", "sim-n-inf",
             "output-dir-number"],
    )
    def test_malformed_values_are_config_errors(self, tmp_path, capsys, change):
        doc = {"y": 0.25, "spectrum": [{"u": 0.0, "t": 1.0, "weight": 1.0}], **change}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["gaps", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_solve_defaults_come_from_solve_settings(self, tmp_path):
        atoms = [(0.0, 1.0, 1.0)]
        path = write_config(tmp_path / "cfg.json", 0.25, atoms)
        assert load_config(path).solve == SolveSettings()
        path = write_config(tmp_path / "cfg.json", 0.25, atoms, solve={"tol": 1e-9, "v_min": 1e-6})
        assert load_config(path).solve == dataclasses.replace(SolveSettings(), tol=1e-9, v_min=1e-6)

    def test_p_derived_from_y_and_n(self, tmp_path):
        # p = round(y*n), keeping |p/n - y| <= 1/n by construction
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "y": 0.25,
                    "spectrum": [{"u": 0.0, "t": 1.0, "weight": 1.0}],
                    "sim": {"n": 120, "trials": 1, "seed": 0},
                }
            )
        )
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["p"] == 30
        assert abs(report["p"] / report["n"] - 0.25) <= 1.0 / report["n"]


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves only as a test oracle
    src = os.path.dirname(os.path.dirname(os.path.abspath(support.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, specsep, specsep.cli; "
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert proc.stdout.strip() == "[]"
