"""Command-line interface: density, gaps, separate, verify.

One JSON config document describes a run; commands write machine-readable
CSV/JSON reports into an output directory. Exit codes: 0 success, 2 usage
or config error, 3 solver failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import SolverError, SpecsepError, SpectrumError
from .separation import CONVENTIONS, predict_counts
from .simulate import SimConfig, run_trials, write_eigenvalue_csv
from .solver import DEFAULT_SETTINGS, SolveSettings
from .spectrum import JointSpectrum, ModelConfig, materialize_pairs
from .support import SpectralGap, density, find_gaps

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

SCHEMA_VERSION = 1


class ConfigError(SpecsepError, ValueError):
    """Malformed run configuration."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    solve: SolveSettings
    sim: SimConfig | None
    output_dir: str


def load_config(path: str) -> RunConfig:
    """Parse and validate the JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema!r}")
    try:
        y = float(raw["y"])
        atoms = [(a["u"], a["t"], a["weight"]) for a in raw["spectrum"]]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"config missing required field: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad y: {exc}") from exc
    try:
        spectrum = JointSpectrum.from_atoms(atoms)
        model = ModelConfig(spectrum=spectrum, y=y)
    except (SpectrumError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    solve_raw = raw.get("solve", {})
    if not isinstance(solve_raw, dict):
        raise ConfigError("solve must be a JSON object")
    try:
        solve = SolveSettings(
            tol=float(solve_raw.get("tol", DEFAULT_SETTINGS.tol)),
            max_iter=int(solve_raw.get("max_iter", DEFAULT_SETTINGS.max_iter)),
            damping=float(solve_raw.get("damping", DEFAULT_SETTINGS.damping)),
            v_start=float(solve_raw.get("v_start", DEFAULT_SETTINGS.v_start)),
            v_min=float(solve_raw.get("v_min", DEFAULT_SETTINGS.v_min)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad solve settings: {exc}") from exc

    sim = None
    if "sim" in raw and raw["sim"] is not None:
        sim_raw = raw["sim"]
        try:
            n = int(sim_raw["n"])
            p = int(round(y * n))
            sim = SimConfig(
                spectrum=spectrum,
                n=n,
                p=p,
                noise_law=sim_raw.get("noise_law", "standard_gaussian"),
                trials=int(sim_raw.get("trials", 1)),
                seed=int(sim_raw.get("seed", 0)),
                complex_entries=bool(sim_raw.get("complex", False)),
            )
        except (KeyError, TypeError, ValueError, OverflowError, SpectrumError) as exc:
            raise ConfigError(f"bad sim settings: {exc}") from exc

    output_dir = raw.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    return RunConfig(model=model, solve=solve, sim=sim, output_dir=output_dir)


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _json_float(value):
    if value is None or math.isnan(value) or math.isinf(value):
        return None
    return float(value)


def _gap_to_json(gap: SpectralGap) -> dict:
    return {
        "a": _json_float(gap.a),
        "b": _json_float(gap.b),
        "g_a": _json_float(gap.g_a),
        "g_b": _json_float(gap.g_b),
        "y": gap.y,
    }


def _gap_from_json(obj: dict) -> SpectralGap:
    def back(v, sign):
        return sign * math.inf if v is None else float(v)

    return SpectralGap(
        a=back(obj["a"], -1.0),
        b=back(obj["b"], 1.0),
        g_a=back(obj["g_a"], -1.0),
        g_b=back(obj["g_b"], 1.0),
        y=float(obj["y"]),
    )


def _read_gaps(path: str) -> list[SpectralGap]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [_gap_from_json(obj) for obj in json.load(fh)]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read gaps file {path}: {exc!r}") from exc


def _write_json(payload, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def cmd_density(config: RunConfig, x_min: float, x_max: float, points: int, out_dir: str) -> int:
    """Write density.csv over a uniform grid; NaN rows for failed points."""
    if not (0.0 < x_min < x_max < math.inf):
        print("density: need finite 0 < x-min < x-max", file=sys.stderr)
        return EXIT_USAGE
    if points < 2:
        print("density: need at least 2 points", file=sys.stderr)
        return EXIT_USAGE
    grid = np.linspace(x_min, x_max, points)
    curve = density(config.model, grid, config.solve)
    path = os.path.join(out_dir, "density.csv")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("x,f,im_s_under,re_s_under,re_g_under\n")
        for i, x in enumerate(curve.grid):
            fh.write(
                ",".join(
                    (
                        _fmt(x),
                        _fmt(curve.f[i]),
                        _fmt(curve.s_under[i].imag),
                        _fmt(curve.s_under[i].real),
                        _fmt(curve.g_under[i].real),
                    )
                )
                + "\n"
            )
    if curve.vmin_fallbacks:
        print(
            f"density: {len(curve.vmin_fallbacks)} of {points} points kept their "
            f"v_min pair (real-axis polish failed)",
            file=sys.stderr,
        )
    if len(curve.failed) > 0.01 * points:
        print(f"density: {len(curve.failed)} of {points} points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_gaps(config: RunConfig, out_dir: str) -> int:
    """Write gaps.json: array of {a, b (null for inf), g_a, g_b, y}."""
    gaps = find_gaps(config.model)
    _write_json([_gap_to_json(g) for g in gaps], os.path.join(out_dir, "gaps.json"))
    return EXIT_OK


def _require_sim(config: RunConfig, command: str) -> SimConfig:
    if config.sim is None:
        raise ConfigError(f"{command} needs a 'sim' section (for n and the pair count p)")
    return config.sim


def _predictions(config: RunConfig, gaps, convention: str):
    sim = config.sim
    pairs = materialize_pairs(config.model.spectrum, sim.p)
    return [
        predict_counts(gap, pairs, config.model, config.solve, convention=convention)
        for gap in gaps
    ]


def _separation_payload(predictions) -> list:
    payload = []
    for pred in predictions:
        profile = {}
        for (u, t), lo, hi in zip(pred.pairs, pred.h_min, pred.h_max):
            key = (u, t)
            if key not in profile:
                profile[key] = {"u": u, "t": t, "multiplicity": 0, "h_min": lo, "h_max": hi}
            entry = profile[key]
            entry["multiplicity"] += 1
            entry["h_min"] = min(entry["h_min"], lo)
            entry["h_max"] = max(entry["h_max"], hi)
        below, above = pred.eigencounts()
        payload.append(
            {
                "gap": _gap_to_json(pred.gap),
                "count_h_below": pred.count_h_below,
                "count_h_above": pred.count_h_above,
                "predicted_below": below,
                "predicted_above": above,
                "convention": pred.convention,
                "h_profile": sorted(profile.values(), key=lambda e: (e["u"], e["t"])),
            }
        )
    return payload


def cmd_separate(config: RunConfig, out_dir: str, convention: str, gaps_file: str | None = None) -> int:
    """Write separation.json with per-gap side counts of the h functions."""
    _require_sim(config, "separate")
    gaps = find_gaps(config.model) if gaps_file is None else _read_gaps(gaps_file)
    predictions = _predictions(config, gaps, convention)
    _write_json(_separation_payload(predictions), os.path.join(out_dir, "separation.json"))
    return EXIT_OK


def cmd_verify(config: RunConfig, out_dir: str, convention: str, threshold: float) -> int:
    """Run seeded trials against predictions; write verify.json and the
    per-trial eigenvalue CSV. Exit 0 iff the active convention's all-gaps
    match frequency reaches the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"--threshold must lie in [0, 1], got {threshold}")
    sim = _require_sim(config, "verify")
    gaps = find_gaps(config.model)
    predictions = _predictions(config, gaps, convention)
    report = run_trials(sim, gaps, predictions, convention=convention)

    per_gap = []
    for stats in report.per_gap:
        per_gap.append(
            {
                "gap": _gap_to_json(stats.gap),
                "counting_interval": [stats.interval[0], stats.interval[1]],
                "no_eigenvalue_frequency": stats.inside_zero_frequency,
                "match_frequency": stats.match_frequency,
                "predicted": {
                    conv: {"below": counts[0], "above": counts[1]}
                    for conv, counts in stats.predicted.items()
                },
            }
        )
    passed = report.active_match_frequency >= threshold
    payload = {
        "convention": convention,
        "threshold": threshold,
        "trials": sim.trials,
        "seed": sim.seed,
        "noise_law": sim.noise_law,
        "n": sim.n,
        "p": sim.p,
        "per_gap": per_gap,
        "all_gaps_match_frequency": report.all_gaps_match_frequency,
        "passed": passed,
    }
    _write_json(payload, os.path.join(out_dir, "verify.json"))
    write_eigenvalue_csv(report.eigenvalues, os.path.join(out_dir, "eigenvalues.csv"))
    if not passed:
        print(
            f"verify: match frequency {report.active_match_frequency:.3f} "
            f"below threshold {threshold} (convention {convention})",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsep",
        description="Spectral support, density, and exact-separation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory (default: config output_dir)")

    p_density = sub.add_parser("density", help="tabulate the limiting density")
    add_common(p_density)
    p_density.add_argument("--x-min", type=float, required=True)
    p_density.add_argument("--x-max", type=float, required=True)
    p_density.add_argument("--points", type=int, default=200)

    p_gaps = sub.add_parser("gaps", help="locate support gaps")
    add_common(p_gaps)

    p_sep = sub.add_parser("separate", help="predict eigenvalue counts per gap")
    add_common(p_sep)
    p_sep.add_argument("--convention", choices=CONVENTIONS, default="derivation")
    p_sep.add_argument("--gaps-file", default=None, help="reuse a gaps.json instead of recomputing")

    p_verify = sub.add_parser("verify", help="Monte Carlo verification of predictions")
    add_common(p_verify)
    p_verify.add_argument("--convention", choices=CONVENTIONS, default="derivation")
    p_verify.add_argument("--threshold", type=float, default=0.95)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = args.out if args.out is not None else config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.command == "density":
            return cmd_density(config, args.x_min, args.x_max, args.points, out_dir)
        if args.command == "gaps":
            return cmd_gaps(config, out_dir)
        if args.command == "separate":
            return cmd_separate(config, out_dir, args.convention, args.gaps_file)
        if args.command == "verify":
            return cmd_verify(config, out_dir, args.convention, args.threshold)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SpecsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
