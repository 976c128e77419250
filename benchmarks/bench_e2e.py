"""Paired end-to-end benchmark of a baseline checkout against this one.

For every workload in BENCHMARK.json this runs ``e2ebench/run.py`` of both
checkouts: PAIRS untraced pairs (``--trace 0``), alternating which side
runs first, then one traced run per side (``--trace 1``). It writes
one JSON file holding, per workload,

- for each end-to-end metric: both sides' median, quartiles and per-run
  values, and the number of pairs the change won (lower is better for all
  of them);
- for each per-layer metric: both sides' traced value (the counts repeat
  exactly between runs; the times do not);
- whether every run was correct, and its failed-operation count;
- in ``host``, a two-thread probe taken before and after the pairs: the
  speedup of two threads over one on a fixed numpy workload, so that a
  claim about threading can be read against the cores the host had free.

Usage, from the root of this checkout, with the baseline checked out
elsewhere (``git archive <commit> | tar -x -C <dir>``):

    python3 benchmarks/bench_e2e.py --baseline <dir> --seed 777 --out BENCH_<n>.json

Each run lasts about ``run_seconds`` from BENCHMARK.json (55 s), so ten
pairs on two workloads take about 45 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Alternating untraced pairs per workload: a claimed gain must win at least
# nine of ten.
PAIRS = 10
# The probe: PROBE_TRIES timings of 2 * PROBE_REPS np.sin passes over
# PROBE_SIZE doubles, on one thread and then split between two.
PROBE_TRIES, PROBE_REPS, PROBE_SIZE = 5, 200, 1 << 16


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One e2ebench run of a checkout; returns its result line as a dict."""
    cmd = [
        sys.executable, os.path.join(checkout, "e2ebench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def two_thread_speedup() -> float:
    """Median over PROBE_TRIES of (time on one thread) / (time on two).

    np.sin releases the interpreter lock on arrays this size, so two free
    cores give about 2 and one free core about 1.
    """
    arrays = [np.linspace(0.0, 1.0, PROBE_SIZE) for _ in range(2)]
    outs = [np.empty(PROBE_SIZE) for _ in range(2)]

    def work(k: int, reps: int) -> None:
        for _ in range(reps):
            np.sin(arrays[k], out=outs[k])

    work(0, PROBE_REPS // 10)
    ratios = []
    for _ in range(PROBE_TRIES):
        start = time.perf_counter()
        work(0, 2 * PROBE_REPS)
        one = time.perf_counter() - start
        threads = [threading.Thread(target=work, args=(k, PROBE_REPS)) for k in range(2)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ratios.append(one / (time.perf_counter() - start))
    return statistics.median(ratios)


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def bench_workload(baseline: str, workload: str, seed: int, seconds: float) -> dict:
    sides = {"baseline": baseline, "change": ROOT}
    runs = {"baseline": [], "change": []}
    for i in range(PAIRS):
        order = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
        for side in order:
            result = run_once(sides[side], workload, seed, seconds, trace=0)
            runs[side].append(result)
            print(f"bench_e2e: {workload} pair {i + 1}/{PAIRS} {side} done", file=sys.stderr)

    end_to_end = {}
    for name, entry in runs["change"][0]["metrics"].items():
        base = [r["metrics"][name]["value"] for r in runs["baseline"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        end_to_end[name] = {
            "unit": entry["unit"],
            "baseline": summary(base),
            "change": summary(change),
            "change_wins": sum(c < b for b, c in zip(base, change)),
            "pairs": PAIRS,
        }

    traced = {side: run_once(path, workload, seed, seconds, trace=1) for side, path in sides.items()}
    per_layer = {
        name: {
            "unit": entry["unit"],
            "baseline": traced["baseline"]["metrics"][name]["value"],
            "change": entry["value"],
        }
        for name, entry in traced["change"]["metrics"].items()
    }
    all_runs = {side: runs[side] + [traced[side]] for side in sides}
    return {
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "correct": {side: all(r["correct"] for r in rs) for side, rs in all_runs.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in all_runs.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="root of the baseline checkout")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    probe_before = two_thread_speedup()
    report = {
        "command": f"python3 e2ebench/run.py --workload <w> --seed {args.seed} "
        f"--seconds {seconds} --trace <0|1>",
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "host": {
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "two_thread_speedup": {"before": probe_before},
        },
        "workloads": {
            w["name"]: bench_workload(
                os.path.abspath(args.baseline), w["name"], args.seed, seconds
            )
            for w in bench["workloads"]
        },
    }
    report["host"]["two_thread_speedup"]["after"] = two_thread_speedup()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
