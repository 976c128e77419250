"""Self-test of the benchmark's output checks.

Runs the four commands of every workload once (seed 0), requires every
check to pass on those outputs, then breaks one output at a time and
requires the matching check to reject it. It also requires BENCHMARK.json
to list exactly the workloads and metrics the benchmark produces.

    python3 e2ebench/selftest.py

Exits 0 when every check accepts the real outputs and rejects every broken
one; prints one line per case.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402

run.configure_environment()  # before numpy starts BLAS

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, commands, write_config  # noqa: E402

OUT = os.path.join(run.OUT_ROOT, "selftest")


def _edit_json(name):
    def wrap(fn):
        def mutate(out_dir):
            path = os.path.join(out_dir, name)
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            fn(doc)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        return mutate
    return wrap


def _edit_lines(name):
    def wrap(fn):
        def mutate(out_dir):
            path = os.path.join(out_dir, name)
            with open(path, encoding="ascii") as fh:
                lines = fh.read().splitlines()
            lines = fn(lines)
            with open(path, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
        return mutate
    return wrap


def _edit_density(fn):
    """Apply fn to the density table (rows x 5 columns) and write it back."""
    @_edit_lines("density.csv")
    def mutate(lines):
        table = np.array([line.split(",") for line in lines[1:]], dtype=float)
        table = fn(table)
        return lines[:1] + [",".join(format(v, ".17g") for v in row) for row in table]
    return mutate


def _edit_eigenvalues(fn):
    @_edit_lines("eigenvalues.csv")
    def mutate(lines):
        rows = [np.array(line.split(","), dtype=float) for line in lines]
        return [",".join(format(v, ".17g") for v in row) for row in fn(rows)]
    return mutate


def _set(table, row, col, delta):
    table = table.copy()
    table[row, col] += delta
    return table


def _swap_counts(doc):
    for entry in doc:
        entry["predicted_below"], entry["predicted_above"] = (
            entry["predicted_above"], entry["predicted_below"])


def _swap_conventions(doc):
    freq = doc["all_gaps_match_frequency"]
    freq["derivation"], freq["theorem"] = freq["theorem"], freq["derivation"]


def cases(wl, exp):
    """(command, what, mutate, expected) of the broken outputs for a workload."""
    last = len(exp.gaps) - 1
    inside = int(np.flatnonzero(exp.density_f > 0)[len(np.flatnonzero(exp.density_f > 0)) // 2])
    out = [
        ("gaps", "a gap edge moved by 1e-4",
         _edit_json("gaps.json")(lambda d: d[last].update(a=d[last]["a"] + 1e-4)), exp),
        ("gaps", "the last gap dropped", _edit_json("gaps.json")(lambda d: d.pop()), exp),
        ("gaps", "the unbounded gap given a finite end",
         _edit_json("gaps.json")(lambda d: d[last].update(b=100.0)), exp),
        ("separate", "below and above swapped (flipped convention)",
         _edit_json("separation.json")(_swap_counts), exp),
        ("separate", "a prediction one short of p",
         _edit_json("separation.json")(lambda d: d[0].update(predicted_above=d[0]["predicted_above"] - 1)),
         exp),
        ("separate", "convention label flipped",
         _edit_json("separation.json")(lambda d: d[0].update(convention="theorem")), exp),
        ("density", "one density value off by 1e-6",
         _edit_density(lambda t: _set(t, inside, 1, 1e-6)), exp),
        ("density", "a failed (NaN) point",
         _edit_density(lambda t: _set(t, inside, 1, np.nan)), exp),
        ("density", "a grid point moved by 1e-6",
         _edit_density(lambda t: _set(t, 0, 0, 1e-6)), exp),
        ("density", "the last row missing", _edit_density(lambda t: t[:-1]), exp),
        ("verify", "derivation and flipped match rates swapped",
         _edit_json("verify.json")(_swap_conventions), exp),
        ("verify", "passed set to false", _edit_json("verify.json")(lambda d: d.update(passed=False)), exp),
        ("verify", "another Monte Carlo seed", _edit_json("verify.json")(lambda d: d.update(seed=d["seed"] + 1)),
         exp),
        ("verify", "an eigenvalue row truncated",
         _edit_eigenvalues(lambda rows: [rows[0][:-1]] + rows[1:]), exp),
        ("verify", "a trial row missing", _edit_eigenvalues(lambda rows: rows[:-1]), exp),
        ("verify", "a row out of order",
         _edit_eigenvalues(lambda rows: [rows[0][::-1]] + rows[1:]), exp),
        ("verify", "every trial's smallest eigenvalue moved into the lowest gap",
         _edit_eigenvalues(lambda rows: [np.sort(np.r_[0.4 * exp.gaps[0][1], r[1:]]) for r in rows]), exp),
    ]
    if not np.all(np.isnan(exp.density_s)):
        out.append(("density", "the transform's real part off by 1e-6",
                    _edit_density(lambda t: _set(t, inside, 3, 1e-6)), exp))
    if "mass" in wl.extra_checks:
        # the pointwise reference shares the error, so only the mass check is left to catch it
        scaled = dataclasses.replace(exp, density_f=exp.density_f * 1.01)
        out.append(("density", "density scaled by 1.01 (pointwise reference scaled too)",
                    _edit_density(lambda t: t * np.array([1.0, 1.01, 1.0, 1.0, 1.0])), scaled))
    return out


def run_commands(wl, out_dir):
    import specsep.cli

    config_path = write_config(wl, 0, out_dir)
    for name, argv in commands(wl, config_path, out_dir):
        code = specsep.cli.main(argv)
        if code != 0:
            raise SystemExit(f"{wl.name}: {name} exited {code}")


def check_benchmark_file() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != units:
            problems.append(f"{key} metrics or units differ from what run.py reports")
    return problems


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    failures = 0
    for wl in WORKLOADS.values():
        good = os.path.join(OUT, wl.name, "good")
        run_commands(wl, good)
        exp = checks.expected_for(wl, 0)
        for name in run.COMMANDS:
            try:
                checks.CHECKS[name](good, wl, exp)
                print(f"ok      {wl.name:20s} {name:8s} real output accepted")
            except checks.CheckError as exc:
                failures += 1
                print(f"FAILED  {wl.name:20s} {name:8s} real output rejected: {exc}")
        for k, (name, what, mutate, reference) in enumerate(cases(wl, exp)):
            bad = os.path.join(OUT, wl.name, f"bad-{k}")
            shutil.copytree(good, bad)
            mutate(bad)
            try:
                checks.CHECKS[name](bad, wl, reference)
            except checks.CheckError as exc:
                print(f"ok      {wl.name:20s} {name:8s} rejects {what}: {exc}")
            else:
                failures += 1
                print(f"FAILED  {wl.name:20s} {name:8s} accepts {what}")
        first = checks.read_outputs(good)
        again = dict(first)
        changed = bytearray(first["eigenvalues.csv"])
        changed[0] ^= 1  # a digit becomes its neighbour
        again["eigenvalues.csv"] = bytes(changed)
        try:
            checks.check_repeat(first, again)
        except checks.CheckError as exc:
            print(f"ok      {wl.name:20s} repeat   rejects one changed byte: {exc}")
        else:
            failures += 1
            print(f"FAILED  {wl.name:20s} repeat   accepts one changed byte")
    for problem in check_benchmark_file():
        failures += 1
        print(f"FAILED  BENCHMARK.json: {problem}")
    print("selftest:", "all checks accept real outputs and reject broken ones" if not failures
          else f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
