"""Outside-in trace of specsep: wrappers around module attributes.

Each wrapper replaces the attribute that callers look up at call time, for
example ``specsep.cli.find_gaps`` (the name cli imported) or
``specsep._kernels.phi`` (kernels call each other through their module's
globals, so on the interpreted path this catches kernel-to-kernel calls as
well). With numba enabled the compiled kernels call each other directly and
only the outermost calls would be seen.

Timed wrappers record a span (id, parent id, name, start, end) and the
span's self time, which is its duration minus the time of the wrapped calls
made inside it. ``phi`` runs about a million times per sweep, ``branch``
and ``solve_s`` thousands of times, so these three are counted but not
timed.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

PER_LAYER = {
    "solver.boundary_value.calls": "count",
    "solver.boundary_value.s": "s",
    "solver.boundary_value.vmin_fallbacks": "count",
    "solver.boundary_value.continuation_errors": "count",
    "kernels.fixed_point.calls": "count",
    "kernels.fixed_point.iters": "count",
    "kernels.fixed_point.s": "s",
    "kernels.fixed_point.budget_exhausted": "count",
    "kernels.fixed_point.iters_per_point": "iters/point",
    "kernels.newton_pair.calls": "count",
    "kernels.newton_pair.iters": "count",
    "kernels.newton_pair.s": "s",
    "support.find_gaps.calls": "count",
    "support.find_gaps.s": "s",
    "kernels.sweep.points": "count",
    "kernels.sweep.s": "s",
    "kernels.solve_s.calls": "count",
    "kernels.solve_s.no_bracket": "count",
    "kernels.phi.calls": "count",
    "kernels.phi.per_solve": "calls/solve",
    "support.refine.branch_calls": "count",
    "support.density.s": "s",
    "support.density.points": "count",
    "support.density.failed_points": "count",
    "separation.predict_counts.s": "s",
    "separation.h_values.calls": "count",
    "simulate.run_trials.s": "s",
    "simulate.trials": "count",
    "simulate.build_deterministic.s": "s",
    "simulate.sample_noise.s": "s",
    "simulate.gram.s": "s",
    "simulate.eigenvalues.s": "s",
    "simulate.gram.gflop_computed": "GFLOP",
    "simulate.bytes_per_trial_computed": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer values that are timings; the rest are counts, which must repeat
# exactly from one analysis to the next.
TIMED = frozenset(name for name, unit in PER_LAYER.items() if unit == "s")


class Tracer:
    """Spans and counters of one analysis (four commands)."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.active: Counter = Counter()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []
        self._ids = itertools.count()

    def enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [next(self._ids), parent, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self.active[name] += 1
        self.counts[name + ".calls"] += 1
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child = frame
        self.active[name] -= 1
        duration = end - start
        self.seconds[name] += duration
        self.self_seconds[name] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, parent, name, start, end))


def _timed(tracer: Tracer, name: str, fn, on_result=None, on_error=None):
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.leave(frame)
            if on_error is not None:
                on_error(exc)
            raise
        tracer.leave(frame)
        if on_result is not None:
            on_result(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(fn, on_call):
    def wrapper(*args):
        result = fn(*args)
        on_call(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Wrap specsep's layer boundaries; return a function that undoes it."""
    from specsep import _kernels as K
    from specsep import cli, separation, simulate, support
    from specsep.exceptions import ContinuationError

    c = tracer.counts
    patched = []

    def patch(module, attr, wrapper):
        patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def timed(name, targets, on_result=None, on_error=None):
        for module, attr in targets:
            patch(module, attr, _timed(tracer, name, getattr(module, attr), on_result, on_error))

    def density_done(args, curve):
        c["support.density.points"] += len(curve.grid)
        c["support.density.failed_points"] += len(curve.failed)

    def boundary_done(args, pair):
        if pair.z.imag > 0.0:
            c["solver.boundary_value.vmin_fallbacks"] += 1

    def boundary_error(exc):
        if isinstance(exc, ContinuationError):
            c["solver.boundary_value.continuation_errors"] += 1

    def fixed_point_done(args, result):
        iters, status = result[4], result[5]
        c["kernels.fixed_point.iters"] += iters
        c["kernels.fixed_point.budget_exhausted"] += status == K.NO_CONVERGE
        if tracer.active["support.density"]:
            c["density.fixed_point_iters"] += iters

    def newton_done(args, result):
        c["kernels.newton_pair.iters"] += result[4]

    def sweep_done(args, result):
        c["kernels.sweep.points"] += len(args[0])

    def solve_s_done(args, result):
        c["kernels.solve_s.calls"] += 1
        c["kernels.solve_s.no_bracket"] += result[2] == K.NO_BRACKET

    def phi_done(args, result):
        c["kernels.phi.calls"] += 1

    def branch_done(args, result):
        if not tracer.active["kernels.sweep"]:
            c["support.refine.branch_calls"] += 1

    timed("cli.main", [(cli, "main")])
    timed("support.find_gaps", [(cli, "find_gaps")])
    timed("support.density", [(cli, "density")], density_done)
    timed("separation.predict_counts", [(cli, "predict_counts")])
    timed("simulate.run_trials", [(cli, "run_trials")])
    timed("solver.boundary_value", [(support, "boundary_value"), (separation, "boundary_value")],
          boundary_done, boundary_error)
    timed("separation.h_values", [(separation, "h_values")])
    timed("kernels.fixed_point", [(K, "fixed_point")], fixed_point_done)
    timed("kernels.newton_pair", [(K, "newton_pair")], newton_done)
    timed("kernels.sweep", [(K, "sweep")], sweep_done)
    timed("simulate.sample_B", [(simulate, "sample_B")])
    timed("simulate.build_deterministic", [(simulate, "build_deterministic")])
    timed("simulate.sample_noise", [(simulate, "sample_noise")])
    timed("simulate.eigenvalues", [(simulate, "eigenvalues")])
    patch(K, "solve_s", _counted(K.solve_s, solve_s_done))
    patch(K, "phi", _counted(K.phi, phi_done))
    patch(K, "branch", _counted(K.branch, branch_done))

    def restore():
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return restore


def layer_metrics(tracer: Tracer, p: int, n: int) -> dict[str, float]:
    """Per-layer values of one traced analysis (all but trace.overhead_s)."""
    c, s = tracer.counts, tracer.seconds
    trials = c["simulate.sample_B.calls"]
    solves = c["kernels.solve_s.calls"]
    points = c["support.density.points"]
    m = {
        "solver.boundary_value.calls": c["solver.boundary_value.calls"],
        "solver.boundary_value.s": s["solver.boundary_value"],
        "solver.boundary_value.vmin_fallbacks": c["solver.boundary_value.vmin_fallbacks"],
        "solver.boundary_value.continuation_errors": c["solver.boundary_value.continuation_errors"],
        "kernels.fixed_point.calls": c["kernels.fixed_point.calls"],
        "kernels.fixed_point.iters": c["kernels.fixed_point.iters"],
        "kernels.fixed_point.s": s["kernels.fixed_point"],
        "kernels.fixed_point.budget_exhausted": c["kernels.fixed_point.budget_exhausted"],
        "kernels.fixed_point.iters_per_point": c["density.fixed_point_iters"] / points if points else 0.0,
        "kernels.newton_pair.calls": c["kernels.newton_pair.calls"],
        "kernels.newton_pair.iters": c["kernels.newton_pair.iters"],
        "kernels.newton_pair.s": s["kernels.newton_pair"],
        "support.find_gaps.calls": c["support.find_gaps.calls"],
        "support.find_gaps.s": s["support.find_gaps"],
        "kernels.sweep.points": c["kernels.sweep.points"],
        "kernels.sweep.s": s["kernels.sweep"],
        "kernels.solve_s.calls": solves,
        "kernels.solve_s.no_bracket": c["kernels.solve_s.no_bracket"],
        "kernels.phi.calls": c["kernels.phi.calls"],
        "kernels.phi.per_solve": c["kernels.phi.calls"] / solves if solves else 0.0,
        "support.refine.branch_calls": c["support.refine.branch_calls"],
        "support.density.s": s["support.density"],
        "support.density.points": points,
        "support.density.failed_points": c["support.density.failed_points"],
        "separation.predict_counts.s": s["separation.predict_counts"],
        "separation.h_values.calls": c["separation.h_values.calls"],
        "simulate.run_trials.s": s["simulate.run_trials"],
        "simulate.trials": trials,
        "simulate.build_deterministic.s": s["simulate.build_deterministic"],
        "simulate.sample_noise.s": s["simulate.sample_noise"],
        "simulate.gram.s": tracer.self_seconds["simulate.sample_B"],
        "simulate.eigenvalues.s": s["simulate.eigenvalues"],
        # B = Y Y* with Y p x n costs 2 p^2 n flops per trial
        "simulate.gram.gflop_computed": 2.0 * p * p * n * trials / 1e9,
        # dense R, the noise X and Y, 8 p n bytes each
        "simulate.bytes_per_trial_computed": 3 * 8 * p * n if trials else 0,
        "cli.self_s": tracer.self_seconds["cli.main"],
    }
    return {k: float(v) if isinstance(v, float) else int(v) for k, v in m.items()}


def same_counts(a: dict, b: dict) -> bool:
    """Whether two analyses agree on every count (not on timings)."""
    return all(a[k] == b[k] for k in a if k not in TIMED)
