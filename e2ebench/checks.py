"""Output checks for the benchmark's commands.

Each expected value comes from ``oracles`` (closed forms that do not use
specsep) or from a property the method must have; nothing is compared with
a saved copy of earlier output. A check raises ``CheckError`` on a wrong
output; ``selftest.py`` shows that each one does.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles
from workloads import MP_ATOMS, TWO_ATOMS, Workload

# Gap edges from find_gaps and from the closed forms agree to ~1e-15.
GAP_TOL = 1e-9
# Closed-form density and transform against the package's boundary values.
DENSITY_TOL = 1e-9
# The trapezoid rule on the near-edge MP grid loses 2.0e-3 of the mass.
MASS_TOL = 5e-3
# Share of trials whose counts must match the derivation convention, and
# the most the flipped convention may match (verify's default threshold).
MATCH_MIN = 0.95
FLIPPED_MAX = 0.05
# Smallest Im s counted as inside the support for the two-atom roots.
SUPPORT_IM = 1e-12

DENSITY_HEADER = ["x", "f", "im_s_under", "re_s_under", "re_g_under"]
OUTPUT_FILES = ("gaps.json", "separation.json", "density.csv", "verify.json", "eigenvalues.csv")


class CheckError(Exception):
    """A command's output disagrees with its independent reference."""


@dataclass(frozen=True)
class Expected:
    """Reference values for one workload, computed before any timing."""

    gaps: tuple[tuple[float, float], ...]
    counts: tuple[tuple[int, int], ...]
    density_f: np.ndarray
    density_s: np.ndarray
    sim_seed: int


def _pair_sum_counts(wl: Workload, gaps) -> tuple[tuple[int, int], ...]:
    """(below, above) per gap: each atom's p*w eigenvalues sit on the side
    of the gap holding its pair sum u + t, the support piece around it."""
    per_atom = [wl.p * w for _u, _t, w in wl.atoms]
    if any(c != int(c) for c in per_atom):
        raise ValueError(f"{wl.name}: p * weight must be whole for every atom")
    counts = []
    for a, _b in gaps:
        below = sum(int(c) for (u, t, _w), c in zip(wl.atoms, per_atom) if u + t < a)
        counts.append((below, wl.p - below))
    return tuple(counts)


def expected_for(wl: Workload, seed: int) -> Expected:
    grid = np.linspace(wl.x_min, wl.x_max, wl.points)
    if wl.atoms == MP_ATOMS:
        lo, hi = oracles.mp_edges(wl.y)
        gaps = ((0.0, lo), (hi, math.inf))
        f = oracles.mp_density(grid, wl.y)
        s = np.full(grid.shape, np.nan, dtype=complex)
    elif wl.atoms == TWO_ATOMS:
        gaps = tuple(oracles.two_atom_gaps(wl.y))
        s = np.array([oracles.two_atom_companion(x, wl.y, SUPPORT_IM) for x in grid])
        f = np.where(np.isnan(s), 0.0, s.imag / (wl.y * math.pi))
    else:
        raise ValueError(f"{wl.name}: no closed form for atoms {wl.atoms}")
    return Expected(gaps=gaps, counts=_pair_sum_counts(wl, gaps), density_f=f, density_s=s,
                    sim_seed=wl.sim_seed(seed))


def _fail(msg: str):
    raise CheckError(msg)


def _close(what: str, got, ref: float, tol: float) -> None:
    if math.isinf(ref):
        if got is not None:
            _fail(f"{what}: expected null (infinite), got {got!r}")
        return
    if got is None or not abs(float(got) - ref) <= tol * max(1.0, abs(ref)):
        _fail(f"{what}: got {got!r}, expected {ref!r} within {tol:g}")


def _read_json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_gap_edges(what: str, got: dict, ref: tuple[float, float]) -> None:
    _close(f"{what} a", got["a"], ref[0], GAP_TOL)
    _close(f"{what} b", got["b"], ref[1], GAP_TOL)


def check_gaps(out_dir: str, wl: Workload, exp: Expected) -> None:
    """gaps.json lists the closed-form gaps, in order, to GAP_TOL."""
    doc = _read_json(out_dir, "gaps.json")
    if len(doc) != len(exp.gaps):
        _fail(f"gaps: {len(doc)} gaps, expected {len(exp.gaps)}")
    for i, (got, ref) in enumerate(zip(doc, exp.gaps)):
        _check_gap_edges(f"gap {i}", got, ref)
        if got["y"] != wl.y:
            _fail(f"gap {i}: y {got['y']!r}, expected {wl.y!r}")


def check_separation(out_dir: str, wl: Workload, exp: Expected) -> None:
    """separation.json predicts the pair-sum split of p for every gap."""
    doc = _read_json(out_dir, "separation.json")
    if len(doc) != len(exp.gaps):
        _fail(f"separation: {len(doc)} gaps, expected {len(exp.gaps)}")
    for i, (entry, ref, counts) in enumerate(zip(doc, exp.gaps, exp.counts)):
        _check_gap_edges(f"separation gap {i}", entry["gap"], ref)
        if entry["convention"] != "derivation":
            _fail(f"separation gap {i}: convention {entry['convention']!r}")
        below, above = entry["predicted_below"], entry["predicted_above"]
        if below + above != wl.p or entry["count_h_below"] + entry["count_h_above"] != wl.p:
            _fail(f"separation gap {i}: counts do not add up to p = {wl.p}")
        if (below, above) != counts:
            _fail(f"separation gap {i}: predicted {(below, above)}, expected {counts}")


def read_density(out_dir: str) -> tuple[list[str], np.ndarray]:
    with open(os.path.join(out_dir, "density.csv"), "r", encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        _fail("density: empty file")
    body = rows[1:]
    if any(len(r) != len(DENSITY_HEADER) for r in body):
        _fail("density: a row does not have five columns")
    return rows[0], np.array(body, dtype=float).reshape(len(body), len(DENSITY_HEADER))


def check_density(out_dir: str, wl: Workload, exp: Expected) -> None:
    """density.csv on the workload grid matches the closed-form density
    (and, for the two-atom model, the closed-form transform) at every point."""
    header, table = read_density(out_dir)
    if header != DENSITY_HEADER:
        _fail(f"density: header {header}")
    if table.shape[0] != wl.points:
        _fail(f"density: {table.shape[0]} rows, expected {wl.points}")
    x, f, im_s, re_s = table[:, 0], table[:, 1], table[:, 2], table[:, 3]
    grid = np.linspace(wl.x_min, wl.x_max, wl.points)
    if not np.allclose(x, grid, rtol=0.0, atol=1e-12):
        _fail("density: x column is not the requested grid")
    if not np.all(np.isfinite(f)):
        _fail(f"density: {int(np.sum(~np.isfinite(f)))} failed points")
    err = np.abs(f - exp.density_f)
    if not err.max() <= DENSITY_TOL:
        i = int(np.argmax(err))
        _fail(f"density: f({float(x[i])!r}) = {float(f[i])!r}, closed form {float(exp.density_f[i])!r}")
    inside = ~np.isnan(exp.density_s)
    if inside.any():
        s_ref = exp.density_s[inside]
        s_err = np.abs(re_s[inside] + 1j * im_s[inside] - s_ref) / np.maximum(1.0, np.abs(s_ref))
        if not s_err.max() <= DENSITY_TOL:
            _fail(f"density: transform off the closed-form root by {s_err.max():.3e}")
    if "mass" in wl.extra_checks:
        mass = float(np.trapezoid(f, x))
        if not abs(mass - 1.0) <= MASS_TOL:
            _fail(f"density: mass {mass!r} over a grid spanning the support")


def read_eigenvalues(out_dir: str) -> list[np.ndarray]:
    with open(os.path.join(out_dir, "eigenvalues.csv"), "r", encoding="ascii") as fh:
        return [np.array(line.split(","), dtype=float) for line in fh.read().splitlines()]


def check_verify(out_dir: str, wl: Workload, exp: Expected) -> None:
    """verify.json confirms the derivation convention and refutes the flipped
    one; eigenvalues.csv holds one ascending row of p values per trial whose
    counts on each side of every closed-form gap match the prediction."""
    doc = _read_json(out_dir, "verify.json")
    want = {"convention": "derivation", "trials": wl.trials, "seed": exp.sim_seed, "n": wl.n, "p": wl.p}
    for key, value in want.items():
        if doc[key] != value:
            _fail(f"verify: {key} = {doc[key]!r}, expected {value!r}")
    freq = doc["all_gaps_match_frequency"]
    if not freq["derivation"] >= MATCH_MIN:
        _fail(f"verify: derivation match {freq['derivation']!r} below {MATCH_MIN}")
    if not freq["theorem"] <= FLIPPED_MAX:
        _fail(f"verify: flipped convention match {freq['theorem']!r} above {FLIPPED_MAX}")
    if doc["passed"] is not True:
        _fail("verify: passed is not true")
    if len(doc["per_gap"]) != len(exp.gaps):
        _fail(f"verify: {len(doc['per_gap'])} gaps, expected {len(exp.gaps)}")
    for i, (entry, ref, counts) in enumerate(zip(doc["per_gap"], exp.gaps, exp.counts)):
        _check_gap_edges(f"verify gap {i}", entry["gap"], ref)
        got = entry["predicted"]["derivation"]
        if (got["below"], got["above"]) != counts:
            _fail(f"verify gap {i}: predicted {got}, expected {counts}")

    rows = read_eigenvalues(out_dir)
    if len(rows) != wl.trials:
        _fail(f"eigenvalues: {len(rows)} rows, expected {wl.trials}")
    # split every gap at its midpoint (the unbounded one at a + 1)
    cuts = [a + 1.0 if math.isinf(b) else 0.5 * (a + b) for a, b in exp.gaps]
    matched = 0
    for k, eigs in enumerate(rows):
        if eigs.shape != (wl.p,) or not np.all(np.isfinite(eigs)):
            _fail(f"eigenvalues: row {k} does not hold {wl.p} finite values")
        if np.any(np.diff(eigs) < 0.0):
            _fail(f"eigenvalues: row {k} is not ascending")
        below = np.searchsorted(eigs, cuts)
        matched += all(int(nb) == c[0] for nb, c in zip(below, exp.counts))
    if not matched >= MATCH_MIN * wl.trials:
        _fail(f"eigenvalues: {matched} of {wl.trials} trials split as predicted")


CHECKS = {
    "gaps": check_gaps,
    "separate": check_separation,
    "density": check_density,
    "verify": check_verify,
}


def read_outputs(out_dir: str) -> dict[str, bytes]:
    outputs = {}
    for name in OUTPUT_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


def check_repeat(first: dict[str, bytes], again: dict[str, bytes]) -> None:
    """Every output file of a repeated analysis is byte-identical."""
    for name, data in first.items():
        if again[name] != data:
            _fail(f"{name} differs between two analyses of the same inputs")
