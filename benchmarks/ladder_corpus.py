"""Boundary values on a seeded corpus of random and near-edge points and grids.

The corpus has three classes, on models drawn as in acceptance criterion 2
(u uniform on [0, 10], t on [0.1, 5], Dirichlet weights) with one to three
atoms:

- ``random``: ``default_rng(20261019)``, RANDOM_MODELS models with y on
  [0.05, 1] and RANDOM_X points per model with x uniform on (0.01, 15);
- ``near_edge``: ``default_rng(777)``, EDGE_MODELS models with y on
  [0.05, 0.8]; every finite positive edge e of ``find_gaps`` gives the points
  e*(1 - d) and e*(1 + d) for each d in EDGE_OFFSETS;
- ``grid``: the ``random`` class's models, each on evenly spaced grids of
  every size in GRID_POINTS over [GRID_LO, GRID_HI].

Every ``random`` and ``near_edge`` point is solved by ``boundary_value`` of
this checkout, and every grid by its ``density``, which continues each
point's top rung from the previous point's. With ``--baseline`` a second
checkout, in a child process, solves the same points and grids. The JSON
record holds, per class, the number of points, the errors by type, the
``v_min`` fallbacks, the ``K.fixed_point`` and ``K.newton_pair`` calls and
iterations, and the worst relative disagreement in (s, g) with the baseline
(for ``near_edge`` also per d, from the largest d down). The ``grid`` class
also counts failed points and ``cold_starts``; a point whose outcome (solved,
failed, ``v_min`` fallback) differs between the sides counts in
``outcome_differs``.

Usage, from the root of this checkout, with the baseline checked out
elsewhere (``git archive <commit> | tar -x -C <dir>``):

    python3 benchmarks/ladder_corpus.py --baseline <dir> --out LADDER_CORPUS.json

With a baseline it takes about 45 seconds in all on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RANDOM_SEED = 20261019
RANDOM_MODELS = 400
RANDOM_X = 5
EDGE_SEED = 777
EDGE_MODELS = 60
EDGE_OFFSETS = (1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12)
GRID_POINTS = (20, 200)
GRID_LO = 0.01
GRID_HI = 15.0


def _import_specsep(src: str):
    sys.path.insert(0, src)
    import specsep
    from specsep import _kernels

    return specsep, _kernels


def _model(rng, y_hi):
    k = int(rng.integers(1, 4))
    w = rng.dirichlet(np.ones(k))
    atoms = [(float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.1, 5.0)), float(wi)) for wi in w]
    return atoms, float(rng.uniform(0.05, y_hi))


def build_corpus(specsep) -> tuple[list[dict], list[dict], int]:
    """The corpus points, the grids, and the number of near-edge models
    whose ``find_gaps`` raised (they give no points)."""
    points = []
    grids = []
    rng = np.random.default_rng(RANDOM_SEED)
    for _ in range(RANDOM_MODELS):
        atoms, y = _model(rng, 1.0)
        for x in rng.uniform(0.01, 15.0, RANDOM_X):
            points.append({"cls": "random", "atoms": atoms, "y": y, "x": float(x), "d": None})
        grids.extend({"atoms": atoms, "y": y, "n": n} for n in GRID_POINTS)
    rng = np.random.default_rng(EDGE_SEED)
    skipped = 0
    for _ in range(EDGE_MODELS):
        atoms, y = _model(rng, 0.8)
        cfg = specsep.ModelConfig(specsep.JointSpectrum.from_atoms(atoms), y)
        try:
            gaps = specsep.find_gaps(cfg)
        except specsep.SpecsepError:
            skipped += 1
            continue
        edges = [e for gap in gaps for e in (gap.a, gap.b) if 0.0 < e < np.inf]
        for e in edges:
            for d in EDGE_OFFSETS:
                for x in (e * (1.0 - d), e * (1.0 + d)):
                    points.append({"cls": "near_edge", "atoms": atoms, "y": y, "x": x, "d": d})
    return points, grids, skipped


def grid_of(entry) -> np.ndarray:
    return np.linspace(GRID_LO, GRID_HI, entry["n"])


def evaluate(src: str, points: list[dict], grids: list[dict]) -> dict:
    """boundary_value of the checkout whose package lives in src at every
    point, and its density on every grid, each with the K.fixed_point and
    K.newton_pair calls and iterations it made."""
    specsep, K = _import_specsep(src)
    kernels = {"fixed_point": K.fixed_point, "newton_pair": K.newton_pair}
    count = {}

    def counted(name):
        def wrapper(*args):
            result = kernels[name](*args)
            count[name + "_calls"] += 1
            count[name + "_iters"] += result[4]
            return result
        return wrapper

    def solve(fn, item):
        for name in kernels:
            count[name + "_calls"] = count[name + "_iters"] = 0
        cfg = specsep.ModelConfig(specsep.JointSpectrum.from_atoms(item["atoms"]), item["y"])
        try:
            rec = fn(item, cfg)
        except specsep.SpecsepError as exc:
            rec = {"error": type(exc).__name__}
        rec.update(count)
        return rec

    def point(pt, cfg):
        pair = specsep.boundary_value(pt["x"], cfg)
        return {
            "s": [pair.s_under.real, pair.s_under.imag],
            "g": [pair.g_under.real, pair.g_under.imag],
            "vmin": pair.z.imag != 0.0,
        }

    def grid(entry, cfg):
        curve = specsep.density(cfg, grid_of(entry))
        return {
            "s": [[v.real, v.imag] for v in curve.s_under.tolist()],
            "g": [[v.real, v.imag] for v in curve.g_under.tolist()],
            "failed": list(curve.failed),
            "vmin": list(curve.vmin_fallbacks),
            # the baseline may predate continuation along the grid
            "cold_starts": len(getattr(curve, "cold_starts", ())),
        }

    for name in kernels:
        setattr(K, name, counted(name))
    try:
        return {
            "points": [solve(point, pt) for pt in points],
            "grids": [solve(grid, entry) for entry in grids],
        }
    finally:
        for name, fn in kernels.items():
            setattr(K, name, fn)


def _rel(a, b):
    a = complex(*a)
    b = complex(*b)
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def _tally(results):
    errors = {}
    for r in results:
        if "error" in r:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    counts = {
        key: sum(r[key] for r in results)
        for key in ("fixed_point_calls", "fixed_point_iters", "newton_pair_calls", "newton_pair_iters")
    }
    return {
        "errors": errors,
        "vmin_fallbacks": sum(1 for r in results if r.get("vmin")),
        **counts,
    }


def _grid_tally(results):
    tally = _tally(results)
    tally["vmin_fallbacks"] = sum(len(r.get("vmin", ())) for r in results)
    tally["failed_points"] = sum(len(r.get("failed", ())) for r in results)
    tally["cold_starts"] = sum(r.get("cold_starts", 0) for r in results)
    return tally


def _worst(points, change, base):
    """Largest relative disagreement in s or g over the points both sides
    solved, with the point it occurs at."""
    worst = {"rel": 0.0, "x": None, "outcome_differs": 0}
    for pt, c, b in zip(points, change, base):
        if ("error" in c) != ("error" in b) or c.get("vmin") != b.get("vmin"):
            worst["outcome_differs"] += 1
            continue
        if "error" in c:
            continue
        rel = max(_rel(c["s"], b["s"]), _rel(c["g"], b["g"]))
        if rel > worst["rel"]:
            worst.update(rel=rel, x=pt["x"], atoms=pt["atoms"], y=pt["y"])
    return worst


def _grid_points(grids, results):
    """The grids as single points: (x, atoms, y) and a point record in
    ``evaluate``'s format, holding the outcome at that point only. A grid
    that raised gives its error at every point."""
    pts, recs = [], []
    for entry, r in zip(grids, results):
        failed = set(r.get("failed", ()))
        vmin = set(r.get("vmin", ()))
        for i, x in enumerate(grid_of(entry).tolist()):
            pts.append({"x": x, "atoms": entry["atoms"], "y": entry["y"]})
            if "error" in r:
                recs.append({"error": r["error"]})
            elif i in failed:
                recs.append({"error": "ContinuationError"})
            else:
                recs.append({"s": r["s"][i], "g": r["g"][i], "vmin": i in vmin})
    return pts, recs


def report(points, grids, change, base, skipped):
    classes = {}
    change_pts = change["points"]
    base_pts = base["points"] if base is not None else None
    for cls in ("random", "near_edge"):
        idx = [i for i, pt in enumerate(points) if pt["cls"] == cls]
        pts = [points[i] for i in idx]
        entry = {"points": len(idx), "change": _tally([change_pts[i] for i in idx])}
        if base is not None:
            entry["baseline"] = _tally([base_pts[i] for i in idx])
            entry["worst_disagreement"] = _worst(
                pts, [change_pts[i] for i in idx], [base_pts[i] for i in idx]
            )
            if cls == "near_edge":
                entry["worst_disagreement_by_d"] = {
                    repr(d): _worst(
                        [points[i] for i in idx if points[i]["d"] == d],
                        [change_pts[i] for i in idx if points[i]["d"] == d],
                        [base_pts[i] for i in idx if points[i]["d"] == d],
                    )["rel"]
                    for d in EDGE_OFFSETS
                }
        classes[cls] = entry
    pts, change_recs = _grid_points(grids, change["grids"])
    entry = {"grids": len(grids), "points": len(pts), "change": _grid_tally(change["grids"])}
    if base is not None:
        entry["baseline"] = _grid_tally(base["grids"])
        entry["worst_disagreement"] = _worst(pts, change_recs, _grid_points(grids, base["grids"])[1])
    classes["grid"] = entry
    return {
        "command": "python3 benchmarks/ladder_corpus.py --baseline <dir> --out <file>",
        "seeds": {"random": RANDOM_SEED, "near_edge": EDGE_SEED, "grid": RANDOM_SEED},
        "models": {"random": RANDOM_MODELS, "near_edge": EDGE_MODELS,
                   "near_edge_find_gaps_raised": skipped},
        "edge_offsets": list(EDGE_OFFSETS),
        "grid_points": list(GRID_POINTS),
        "grid_range": [GRID_LO, GRID_HI],
        "classes": classes,
    }


def parse_args(doc: str, argv=None) -> argparse.Namespace:
    """--baseline and --out, and the hidden --points and --src of child mode."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--baseline", help="root of the baseline checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--points", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def serve_child(args, evaluate) -> bool:
    """In child mode (--points given), write ``evaluate(src, corpus)`` of the
    corpus in the --points file, with the package under --src, to --out.
    Returns whether it ran."""
    if not args.points:
        return False
    with open(args.points, encoding="utf-8") as fh:
        corpus = json.load(fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(evaluate(args.src, corpus), fh)
    return True


def run_baseline(script: str, baseline: str, corpus) -> dict:
    """The result of script's child mode on corpus, run in a child process
    with the package of the baseline checkout (a second copy of the package
    cannot share this process)."""
    with tempfile.TemporaryDirectory() as tmp:
        pts_file = os.path.join(tmp, "points.json")
        res_file = os.path.join(tmp, "results.json")
        with open(pts_file, "w", encoding="utf-8") as fh:
            json.dump(corpus, fh)
        subprocess.run(
            [sys.executable, os.path.abspath(script), "--points", pts_file,
             "--src", os.path.join(os.path.abspath(baseline), "src"),
             "--out", res_file],
            check=True,
        )
        with open(res_file, encoding="utf-8") as fh:
            return json.load(fh)


def main(argv=None) -> int:
    args = parse_args(__doc__, argv)
    if serve_child(args, lambda src, c: evaluate(src, c["points"], c["grids"])):
        return 0

    src = os.path.join(ROOT, "src")
    specsep, _K = _import_specsep(src)
    points, grids, skipped = build_corpus(specsep)
    change = evaluate(src, points, grids)
    base = None
    if args.baseline:
        base = run_baseline(__file__, args.baseline, {"points": points, "grids": grids})
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report(points, grids, change, base, skipped), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
