"""Support gaps on a seeded corpus of models, against a baseline checkout.

The corpus has four classes of models, each run by ``find_gaps`` on
GRIDS points per side:

- ``random``: RANDOM_MODELS models for each seed in RANDOM_SEEDS, drawn by
  ``ladder_corpus``'s generator (criterion 2's: u on [0, 10], t on
  [0.1, 5], Dirichlet weights, one to three atoms) with y on [0.05, 1];
- ``gap_models``, ``decline_models`` and ``inward_walk_models``: the
  regression models of ``tests/test_support.py`` (GAP_MODELS,
  DECLINE_MODELS and INWARD_WALK_MODELS).

With ``--baseline`` a second checkout, in a child process, runs the same
models. The JSON record holds, per class and grid, the number of runs, the
errors by type, the ``K.real_roots`` and ``K.branch`` calls and the total
wall time of the ``find_gaps`` calls (``find_gaps_s``, with the call
counters in place) on each side, and against the baseline the runs whose
gap count or exception differs, and for the edges in x (a, b) and in g
(g_a, g_b) apart: how many were compared, how many are bitwise equal, and
the worst relative move, with the model it occurs on.

Usage, from the root of this checkout, with the baseline checked out
elsewhere (``git archive <commit> | tar -x -C <dir>``):

    python3 benchmarks/gap_corpus.py --baseline <dir> --out GAP_CORPUS.json

With a baseline it takes about a minute on one core.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

from ladder_corpus import ROOT, _import_specsep, _model, parse_args, run_baseline, serve_child

RANDOM_SEEDS = (11, 12, 13, 14)
RANDOM_MODELS = 150
GRIDS = (400, 4000)


def build_corpus() -> list[dict]:
    """Every model of the corpus as {"cls", "atoms", "y"}."""
    models = []
    for seed in RANDOM_SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(RANDOM_MODELS):
            atoms, y = _model(rng, 1.0)
            models.append({"cls": "random", "atoms": atoms, "y": y})
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import test_support as ts

    named = {
        "gap_models": list(ts.GAP_MODELS.values()),
        "decline_models": ts.DECLINE_MODELS,
        "inward_walk_models": list(ts.INWARD_WALK_MODELS.values()),
    }
    for cls, entries in named.items():
        models.extend({"cls": cls, "atoms": entry[0], "y": entry[1]} for entry in entries)
    return models


def evaluate(src: str, models: list[dict]) -> list[dict]:
    """find_gaps of the checkout whose package lives in src on every model
    and grid: the gaps as [a, b, g_a, g_b] or the error's type, with the
    K.real_roots and K.branch calls the run made and its seconds."""
    specsep, K = _import_specsep(src)
    kernels = {"real_roots": K.real_roots, "branch": K.branch}
    count = dict.fromkeys(kernels, 0)

    def counted(name):
        def wrapper(*args):
            count[name] += 1
            return kernels[name](*args)
        return wrapper

    def run(model, n_grid):
        for name in kernels:
            count[name] = 0
        cfg = specsep.ModelConfig(specsep.JointSpectrum.from_atoms(model["atoms"]), model["y"])
        start = time.perf_counter()
        try:
            gaps = specsep.find_gaps(cfg, n_grid=n_grid)
            rec = {"gaps": [[g.a, g.b, g.g_a, g.g_b] for g in gaps]}
        except specsep.SpecsepError as exc:
            rec = {"error": type(exc).__name__}
        rec["seconds"] = time.perf_counter() - start
        rec.update({name + "_calls": n for name, n in count.items()})
        return rec

    for name in kernels:
        setattr(K, name, counted(name))
    try:
        return [run(model, n) for model in models for n in GRIDS]
    finally:
        for name, fn in kernels.items():
            setattr(K, name, fn)


def _rel(c: float, b: float) -> float:
    if c == b:
        return 0.0
    return abs(c - b) / abs(b) if b != 0.0 and math.isfinite(b) else math.inf


def _tally(results: list[dict]) -> dict:
    errors = {}
    for r in results:
        if "error" in r:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    return {
        "errors": errors,
        "real_roots_calls": sum(r["real_roots_calls"] for r in results),
        "branch_calls": sum(r["branch_calls"] for r in results),
        "find_gaps_s": round(sum(r["seconds"] for r in results), 4),
    }


def _compare(models: list[dict], change: list[dict], base: list[dict]) -> dict:
    """Mismatches and the worst edge moves of change against base."""
    out = {"count_mismatch": 0, "exception_mismatch": 0}
    for key in ("x", "g"):
        out[key] = {"compared": 0, "identical": 0, "worst": {"rel": 0.0}}
    for model, c, b in zip(models, change, base):
        if c.get("error") != b.get("error"):
            out["exception_mismatch"] += 1
            continue
        if "error" in c:
            continue
        if len(c["gaps"]) != len(b["gaps"]):
            out["count_mismatch"] += 1
            continue
        for gc, gb in zip(c["gaps"], b["gaps"]):
            for key, vc, vb in zip(("x", "x", "g", "g"), gc, gb):
                out[key]["compared"] += 1
                out[key]["identical"] += vc == vb
                rel = _rel(vc, vb)
                worst = out[key]["worst"]
                if rel > worst["rel"]:
                    worst.update(rel=rel, atoms=model["atoms"], y=model["y"], value=vc, baseline=vb)
    return out


def report(models: list[dict], change: list[dict], base: list[dict] | None) -> dict:
    classes = {}
    for cls in dict.fromkeys(m["cls"] for m in models):
        for j, n_grid in enumerate(GRIDS):
            idx = [i * len(GRIDS) + j for i, m in enumerate(models) if m["cls"] == cls]
            entry = {"runs": len(idx), "change": _tally([change[i] for i in idx])}
            if base is not None:
                entry["baseline"] = _tally([base[i] for i in idx])
                entry.update(_compare(
                    [models[i // len(GRIDS)] for i in idx],
                    [change[i] for i in idx],
                    [base[i] for i in idx],
                ))
            classes[f"{cls}/{n_grid}"] = entry
    return {
        "command": "python3 benchmarks/gap_corpus.py --baseline <dir> --out <file>",
        "random_seeds": list(RANDOM_SEEDS),
        "random_models_per_seed": RANDOM_MODELS,
        "grids": list(GRIDS),
        "classes": classes,
    }


def main(argv=None) -> int:
    args = parse_args(__doc__, argv)
    if serve_child(args, evaluate):
        return 0
    src = os.path.join(ROOT, "src")
    _import_specsep(src)  # before the test module imports specsep
    models = build_corpus()
    change = evaluate(src, models)
    base = run_baseline(__file__, args.baseline, models) if args.baseline else None
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report(models, change, base), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
