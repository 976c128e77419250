"""The benchmark's two workloads: one model each, driven through all four
CLI commands.

A workload's inputs are a config document (model, solve defaults and the
Monte Carlo section) and a density grid. The Monte Carlo seed is the
workload's base seed plus the run's ``--seed``; the model and the grid do
not depend on the seed, so every seed does the same numerical work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

MP_ATOMS = ((0.0, 1.0, 1.0),)
TWO_ATOMS = ((0.0, 1.0, 0.5), (8.0, 1.0, 0.5))


@dataclass(frozen=True)
class Workload:
    name: str
    atoms: tuple[tuple[float, float, float], ...]
    y: float
    n: int
    trials: int
    seed_base: int
    x_min: float
    x_max: float
    points: int
    # "mass": the grid spans the support, so the density integrates to ~1.
    extra_checks: frozenset[str] = frozenset()
    # The commands of one timing round, in order. Commands of 0.1-0.4 s run
    # several times per round, spread between the long ones: the host's
    # speed drifts over seconds, so a few short samples taken in one burst
    # give a median that jumps with it.
    plan: tuple[str, ...] = ("gaps", "separate", "density", "verify")

    @property
    def p(self) -> int:
        return round(self.y * self.n)

    def sim_seed(self, seed: int) -> int:
        return self.seed_base + seed


WORKLOADS = {
    # Near-edge MP density: boundary_value's continuation ladder does
    # almost all the work; with u = 0 solve_s returns at its pin, so the
    # gap sweep is nearly free. n = 2000 rather than 400: at p = 100 the
    # smallest eigenvalue falls into the 5% inset of the gap (0, 0.25) in
    # about one trial in 50, so verify would fail on some seeds; 20 trials
    # let verify's 0.95 threshold absorb one stray trial.
    "mp-edge": Workload(
        name="mp-edge", atoms=MP_ATOMS, y=0.25, n=2000, trials=20,
        seed_base=20260810, x_min=0.2501, x_max=2.2499, points=100,
        extra_checks=frozenset({"mass"}),
        plan=("gaps", "separate") * 3 + ("density",) + ("gaps", "separate") * 3 + ("verify",),
    ),
    # The paper's exact-separation case (acceptance criterion 5 at seed 0):
    # the find_gaps sweep dominates and runs in both gaps and verify; the
    # solver runs off the support in predict_counts; many small trials.
    "two-atom-separation": Workload(
        name="two-atom-separation", atoms=TWO_ATOMS, y=0.1, n=2000, trials=50,
        seed_base=13579, x_min=0.05, x_max=12.0, points=100,
        plan=("gaps", "separate", "separate", "density", "separate", "separate", "verify"),
    ),
    # Acceptance criterion 7's large pure-noise trials (n = 4000, p = 1000)
    # are not a workload: within the benchmark's time limit a third
    # workload would cut every run by about a third, and the host's drift
    # between shorter runs swamps the times. mp-edge's 20 trials at p = 500
    # take the same Monte Carlo path.
}


def config_document(wl: Workload, seed: int) -> dict:
    return {
        "schema": 1,
        "y": wl.y,
        "spectrum": [{"u": u, "t": t, "weight": w} for u, t, w in wl.atoms],
        "sim": {
            "n": wl.n,
            "trials": wl.trials,
            "seed": wl.sim_seed(seed),
            "noise_law": "standard_gaussian",
        },
    }


def write_config(wl: Workload, seed: int, out_dir: str) -> str:
    """Write the workload's config document; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_document(wl, seed), fh, indent=2, sort_keys=True)
    return path


def commands(wl: Workload, config_path: str, out_dir: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of the four commands of one analysis, in order."""
    common = ["--config", config_path, "--out", out_dir]
    return [
        ("gaps", ["gaps", *common]),
        ("separate", ["separate", *common, "--gaps-file", os.path.join(out_dir, "gaps.json")]),
        ("density", ["density", *common, "--x-min", repr(wl.x_min), "--x-max", repr(wl.x_max),
                     "--points", str(wl.points)]),
        ("verify", ["verify", *common]),
    ]
