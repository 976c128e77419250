"""End-to-end benchmark of the specsep CLI.

One run drives one workload's model through all four commands (gaps,
separate --gaps-file, density, verify) by calling ``specsep.cli.main`` in
this process, in whole rounds for at most ``--seconds``, and checks every
output against ``checks``. The last line on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every time a timing run reports is scaled to a fixed host speed: a
reference loop is timed after each command and each set-up probe, and the
run's times are multiplied by REF_S over the median of those timings. The
raw durations and the reference timings go to times.json.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced analyses alternate and the metrics are the per-layer
ones of ``tracing.PER_LAYER``. Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload two-atom-separation --seed 0 --seconds 55 --trace 0

Outputs, durations (times.json) and spans (trace.json) go to
``.e2ebench-out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".e2ebench-out")
sys.path[:0] = [SRC, HERE]

# checks, tracing and specsep import numpy, so they are imported only after
# configure_environment() has set the BLAS thread count.
from workloads import WORKLOADS, commands, write_config  # noqa: E402

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5
# Host speed. The shared host's speed drifts by up to 40% over minutes,
# which no statistic within a run removes. So a fixed pure-Python reference
# loop is timed between the timed steps, and the run's times are scaled to
# the speed at which that loop takes REF_S (its typical time on the machine
# the README's figures come from); the drift both share cancels in the ratio.
REF_LOOPS = 100_000
REF_S = 0.0125
# Rounds per untraced run, at least. The first one in a process also pays
# page faults on fresh arrays and BLAS thread start-up (about 1.2 s of
# mp-edge's verify); the median of three or more leaves it out.
MIN_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "gaps_s": "s",
    "separate_s": "s",
    "density_s": "s",
    "verify_s": "s",
    "analysis_s": "s",
    "peak_rss_mb": "MB",
}
COMMANDS = ("gaps", "separate", "density", "verify")


def configure_environment() -> None:
    """The default, interpreted code path; BLAS on at most nproc threads."""
    os.environ.pop("SPECSEP_THREADS", None)
    os.environ.pop("SPECSEP_NUMBA", None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reference_time() -> float:
    """The shortest of three timings of the reference loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REF_LOOPS):
            acc += (i * 0.5) / (1.0 + i)
        best = min(best, time.perf_counter() - t0)
    return best


def setup_seconds(workload: str, seed: int, out_dir: str, refs: list[float]) -> list[float]:
    """Set-up times of SETUP_PROBES fresh interpreters; a reference timing
    after each goes to refs."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(out_dir, f"setup-{k}")
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), probe_dir],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
        refs.append(reference_time())
    return samples


class Analysis:
    """One pass of the four commands with their checks."""

    def __init__(self, wl, config_path, out_dir, expected, refs):
        self.wl = wl
        self.refs = refs  # a reference timing after each command
        self.out_dir = out_dir
        self.expected = expected
        self.argvs = dict(commands(wl, config_path, out_dir))
        self.first_outputs = None
        self.failures: list[str] = []  # commands that did not exit 0
        self.errors: list[str] = []  # outputs that failed a check
        self.attempted = 0

    def run(self, plan=COMMANDS) -> dict[str, list[float]]:
        """Run the commands named in plan, in order, checking every output;
        return each command's durations."""
        import checks
        import specsep.cli

        times: dict[str, list[float]] = {name: [] for name in COMMANDS}
        ok = True
        for name in plan:
            self.attempted += 1
            # every command starts from a collected heap, as in a fresh CLI process
            gc.collect()
            t0 = time.perf_counter()
            try:
                # looked up on the module so a traced analysis sees the wrapper
                code = specsep.cli.main(self.argvs[name])
            except Exception as exc:  # a crash is a failed operation, not a dead run
                code = f"{type(exc).__name__}: {exc}"
            times[name].append(time.perf_counter() - t0)
            self.refs.append(reference_time())
            if code != 0:
                ok = False
                self.failures.append(f"{name} failed: {code}")
                continue
            try:
                checks.CHECKS[name](self.out_dir, self.wl, self.expected)
            except (checks.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
                ok = False
                self.errors.append(f"{name} output wrong: {exc}")
        if ok:
            outputs = checks.read_outputs(self.out_dir)
            if self.first_outputs is None:
                self.first_outputs = outputs
            else:
                try:
                    checks.check_repeat(self.first_outputs, outputs)
                except checks.CheckError as exc:
                    self.errors.append(str(exc))
        return times


def command_medians(analyses: list[dict[str, list[float]]]) -> dict[str, float]:
    """Median duration of each command over every invocation, and their sum."""
    medians = {c: statistics.median(t for a in analyses for t in a[c]) for c in COMMANDS}
    medians["analysis"] = sum(medians.values())
    return medians


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "specsep", "__init__.py")):
        print(f"e2ebench: no specsep sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    configure_environment()
    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(OUT_ROOT, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    refs: list[float] = []
    setup = [] if args.trace else setup_seconds(wl.name, args.seed, run_dir, refs)

    import checks
    import specsep
    import tracing

    if os.path.dirname(os.path.dirname(os.path.abspath(specsep.__file__))) != SRC:
        print(f"e2ebench: specsep imported from {specsep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.join(run_dir, "out")
    config_path = write_config(wl, args.seed, run_dir)
    expected = checks.expected_for(wl, args.seed)
    analysis = Analysis(wl, config_path, out_dir, expected, refs)

    untraced: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    spans = []
    start = time.perf_counter()
    # A timing run repeats the workload's round plan; a traced run alternates
    # plain and traced analyses of one invocation each, at least one pair, so
    # per-layer counts are those of one analysis. With so few pairs the first
    # analysis's start-up cost would land in trace.overhead_s, so a traced run
    # starts with an analysis it does not time. A round starts only if it
    # should end within --seconds, judged by the previous one, so every run
    # attempts whole rounds and ends on time.
    plan = COMMANDS if args.trace else wl.plan
    if args.trace:
        analysis.run()
    min_rounds = 1 if args.trace else MIN_ROUNDS
    last = 0.0
    while len(untraced) < min_rounds or time.perf_counter() - start + last < args.seconds:
        round_start = time.perf_counter()
        untraced.append(analysis.run(plan))
        if args.trace:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                traced.append(analysis.run())
            finally:
                restore()
            layers.append(tracing.layer_metrics(tracer, wl.p, wl.n))
            spans.append(tracer.spans)
        last = time.perf_counter() - round_start
        print(f"e2ebench: {wl.name} round {len(untraced)}: "
              + " ".join(f"{c}=" + ",".join(f"{t:.3f}" for t in ts) for c, ts in untraced[-1].items()),
              file=sys.stderr)

    if args.trace:
        if any(not tracing.same_counts(layers[0], m) for m in layers[1:]):
            analysis.errors.append("per-layer counts differ between traced analyses")
        values = {k: statistics.median(m[k] for m in layers) if k in tracing.TIMED else layers[0][k]
                  for k in layers[0]}
        values["trace.overhead_s"] = (command_medians(traced)["analysis"]
                                      - command_medians(untraced)["analysis"])
        units = tracing.PER_LAYER
        with open(os.path.join(run_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"span_fields": ["id", "parent", "name", "start", "end"],
                       "analyses": spans, "per_layer": layers}, fh)
    else:
        scale = REF_S / statistics.median(refs)
        plain = command_medians(untraced)
        values = {
            "setup_s": statistics.median(setup) * scale,
            **{f"{c}_s": plain[c] * scale for c in COMMANDS},
            "analysis_s": plain["analysis"] * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    with open(os.path.join(run_dir, "times.json"), "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup, "analyses": untraced, "traced_analyses": traced,
                   "reference_s": refs, "ref_s": REF_S}, fh)

    for msg in analysis.failures + analysis.errors:
        print(f"e2ebench: {msg}", file=sys.stderr)
    result = {
        "correct": not analysis.errors,
        "attempted": analysis.attempted,
        "failed": len(analysis.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
