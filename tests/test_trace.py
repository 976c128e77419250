"""The benchmark's trace (e2ebench/tracing.py) against the package.

The trace wraps module attributes by name; a renamed or bypassed name would
otherwise show only when the benchmark runs.
"""

from __future__ import annotations

import importlib.util
import os

from specsep import _kernels as K
from specsep import cli, separation, simulate, support
from specsep.support import DEFAULT_N_GRID

from test_cli import write_config

# loaded by path: e2ebench/ also holds an oracles module, which must not
# shadow tests/oracles.py
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TRACING = os.path.join(_ROOT, "e2ebench", "tracing.py")
_spec = importlib.util.spec_from_file_location("e2ebench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

MODULES = (K, cli, support, separation, simulate)
TRACED = {
    (K, name) for name in ("fixed_point", "newton_pair", "sweep", "solve_s", "phi", "branch")
} | {
    (cli, name) for name in ("main", "find_gaps", "density", "predict_counts", "run_trials")
} | {
    (support, "boundary_value"), (separation, "boundary_value"), (separation, "h_values"),
} | {
    (simulate, name)
    for name in ("sample_B", "build_deterministic", "sample_noise", "eigenvalues")
}


def test_traced_gaps_run_counts_one_sweep_and_restores_every_name(tmp_path):
    cfg = write_config(tmp_path / "two.json", 0.1, [(0.0, 1.0, 0.5), (8.0, 1.0, 0.5)])
    before = {module: dict(vars(module)) for module in MODULES}
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        patched = {
            (module, name)
            for module in MODULES
            for name, value in vars(module).items()
            if value is not before[module].get(name)
        }
        assert cli.main(["gaps", "--config", cfg, "--out", str(tmp_path)]) == 0
    finally:
        restore()
    assert patched == TRACED
    assert tracer.counts["support.find_gaps.calls"] == 1
    assert tracer.counts["kernels.sweep.points"] == 2 * DEFAULT_N_GRID
    # the names under find_gaps are called through, so the trace sees them
    for counter in ("kernels.phi.calls", "kernels.solve_s.calls", "support.refine.branch_calls",
                    "solver.boundary_value.calls"):
        assert tracer.counts[counter] > 0, counter
    for module in MODULES:
        for name, value in before[module].items():
            assert getattr(module, name) is value, (module.__name__, name)


def test_traced_verify_run_sees_every_trial_and_restores_every_name(tmp_path):
    trials = 3
    cfg = write_config(tmp_path / "mp.json", 0.25, [(0.0, 1.0, 1.0)],
                       sim={"n": 200, "trials": trials, "seed": 0})
    before = {module: dict(vars(module)) for module in MODULES}
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    finally:
        restore()
    counts = tracer.counts
    assert counts["simulate.run_trials.calls"] == 1
    # the trial loop calls both names through simulate's globals
    assert counts["simulate.sample_B.calls"] == counts["simulate.eigenvalues.calls"] == trials
    for module in MODULES:
        for name, value in before[module].items():
            assert getattr(module, name) is value, (module.__name__, name)
