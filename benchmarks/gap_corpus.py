"""Support gaps on a seeded corpus of models, against a baseline checkout.

The corpus has four classes of models, each run by ``find_gaps`` on
GRIDS points per side:

- ``random``: RANDOM_MODELS models for each seed in RANDOM_SEEDS, drawn by
  ``ladder_corpus``'s generator (criterion 2's: u on [0, 10], t on
  [0.1, 5], Dirichlet weights, one to three atoms) with y on [0.05, 1];
- ``gap_models``, ``decline_models`` and ``inward_walk_models``: the
  regression models of ``tests/test_support.py`` (GAP_MODELS,
  DECLINE_MODELS and INWARD_WALK_MODELS).

Every gap found is also passed to ``predict_counts`` with PAIRS pairs of
its model, and its (below, above) h-side counts, or the type of the error
it raised, are kept.

With ``--baseline`` a second checkout, in a child process, runs the same
models. The JSON record holds, per class and grid, the number of runs, the
errors by type, the ``K.real_roots`` and ``K.branch`` calls and the total
wall time of the ``find_gaps`` calls (``find_gaps_s``, with the call
counters in place) on each side, and the ``predict_counts`` errors by type
and their total wall time (``predict_counts_s``). Against the baseline it
holds the runs whose gap count or exception differs; for the edges in x
(a, b) and in g (g_a, g_b) apart: how many were compared, how many are
bitwise equal, and the worst relative move, with the model it occurs on;
and for the predictions of the runs whose gaps agree in number: how many
gaps were compared and on how many the counts, or the exception, differ.

Usage, from the root of this checkout, with the baseline checked out
elsewhere (``git archive <commit> | tar -x -C <dir>``):

    python3 benchmarks/gap_corpus.py --baseline <dir> --out GAP_CORPUS.json

With a baseline it takes about a minute on one core.
"""

from __future__ import annotations

import inspect
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
# pairs per prediction
PAIRS = 200


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
    K.real_roots and K.branch calls the run made and its seconds; then per
    gap the predict_counts [below, above] counts or the error's type, and
    the seconds of those calls."""
    specsep, K = _import_specsep(src)
    kernels = {"real_roots": K.real_roots, "branch": K.branch}
    count = dict.fromkeys(kernels, 0)

    def counted(name):
        def wrapper(*args):
            count[name] += 1
            return kernels[name](*args)
        return wrapper

    # predict_counts(gap, pairs) takes no model; a baseline checkout from
    # before that signature is called with the model as a third argument
    takes_model = len(inspect.signature(specsep.predict_counts).parameters) > 2

    def predict(gap, pairs, cfg):
        try:
            pred = specsep.predict_counts(gap, pairs, *((cfg,) if takes_model else ()))
        except specsep.SpecsepError as exc:
            return type(exc).__name__
        return [pred.count_h_below, pred.count_h_above]

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
        if "gaps" in rec:
            pairs = specsep.materialize_pairs(cfg.spectrum, PAIRS)
            start = time.perf_counter()
            rec["counts"] = [predict(gap, pairs, cfg) for gap in gaps]
            rec["predict_seconds"] = time.perf_counter() - start
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
    predict_errors = {}
    for r in results:
        if "error" in r:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
        for c in r.get("counts", []):
            if isinstance(c, str):
                predict_errors[c] = predict_errors.get(c, 0) + 1
    return {
        "errors": errors,
        "real_roots_calls": sum(r["real_roots_calls"] for r in results),
        "branch_calls": sum(r["branch_calls"] for r in results),
        "find_gaps_s": round(sum(r["seconds"] for r in results), 4),
        "predict_errors": predict_errors,
        "predict_counts_s": round(sum(r.get("predict_seconds", 0.0) for r in results), 4),
    }


def _compare(models: list[dict], change: list[dict], base: list[dict]) -> dict:
    """Mismatches and the worst edge moves of change against base."""
    out = {"count_mismatch": 0, "exception_mismatch": 0}
    for key in ("x", "g"):
        out[key] = {"compared": 0, "identical": 0, "worst": {"rel": 0.0}}
    pred = out["predictions"] = {"compared": 0, "count_mismatch": 0, "exception_mismatch": 0}
    for model, c, b in zip(models, change, base):
        if c.get("error") != b.get("error"):
            out["exception_mismatch"] += 1
            continue
        if "error" in c:
            continue
        if len(c["gaps"]) != len(b["gaps"]):
            out["count_mismatch"] += 1
            continue
        for pc, pb in zip(c["counts"], b["counts"]):
            pred["compared"] += 1
            if isinstance(pc, str) or isinstance(pb, str):
                pred["exception_mismatch"] += pc != pb
            else:
                pred["count_mismatch"] += pc != pb
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
