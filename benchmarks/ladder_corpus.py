"""Boundary values on a seeded corpus of random and near-edge points.

The corpus has two classes of points, on models drawn as in acceptance
criterion 2 (u uniform on [0, 10], t on [0.1, 5], Dirichlet weights) with
one to three atoms:

- ``random``: ``default_rng(20261019)``, RANDOM_MODELS models with y on
  [0.05, 1] and RANDOM_X points per model with x uniform on (0.01, 15);
- ``near_edge``: ``default_rng(777)``, EDGE_MODELS models with y on
  [0.05, 0.8]; every finite positive edge e of ``find_gaps`` gives the points
  e*(1 - d) and e*(1 + d) for each d in EDGE_OFFSETS.

Every point is solved by ``boundary_value`` of this checkout, and, with
``--baseline``, by that of a second checkout in a child process fed the same
points. The JSON record holds, per class, the number of points, the errors
by type, the ``v_min`` fallbacks, the ``K.newton_pair`` calls and
iterations, and the worst relative disagreement in (s, g) with the baseline
(for ``near_edge`` also per d, from the largest d down).

Usage, from the root of this checkout, with the baseline checked out
elsewhere (``git archive <commit> | tar -x -C <dir>``):

    python3 benchmarks/ladder_corpus.py --baseline <dir> --out LADDER_CORPUS.json

With a baseline it takes about ten seconds in all on one core.
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


def build_corpus(specsep) -> tuple[list[dict], int]:
    """The corpus points, and the number of near-edge models whose
    ``find_gaps`` raised (they give no points)."""
    points = []
    rng = np.random.default_rng(RANDOM_SEED)
    for _ in range(RANDOM_MODELS):
        atoms, y = _model(rng, 1.0)
        for x in rng.uniform(0.01, 15.0, RANDOM_X):
            points.append({"cls": "random", "atoms": atoms, "y": y, "x": float(x), "d": None})
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
    return points, skipped


def evaluate(src: str, points: list[dict]) -> list[dict]:
    """boundary_value of the checkout whose package lives in src, at every
    point, with the K.newton_pair calls and iterations each one made."""
    specsep, K = _import_specsep(src)
    real_newton = K.newton_pair
    count = {"calls": 0, "iters": 0}

    def counted(*args):
        result = real_newton(*args)
        count["calls"] += 1
        count["iters"] += result[4]
        return result

    K.newton_pair = counted
    out = []
    for pt in points:
        count["calls"] = count["iters"] = 0
        cfg = specsep.ModelConfig(specsep.JointSpectrum.from_atoms(pt["atoms"]), pt["y"])
        rec = {}
        try:
            pair = specsep.boundary_value(pt["x"], cfg)
        except specsep.SpecsepError as exc:
            rec["error"] = type(exc).__name__
        else:
            rec["s"] = [pair.s_under.real, pair.s_under.imag]
            rec["g"] = [pair.g_under.real, pair.g_under.imag]
            rec["vmin"] = pair.z.imag != 0.0
        rec["calls"] = count["calls"]
        rec["iters"] = count["iters"]
        out.append(rec)
    K.newton_pair = real_newton
    return out


def _rel(a, b):
    a = complex(*a)
    b = complex(*b)
    return abs(a - b) / abs(b) if b != 0 else abs(a - b)


def _tally(results):
    errors = {}
    for r in results:
        if "error" in r:
            errors[r["error"]] = errors.get(r["error"], 0) + 1
    return {
        "errors": errors,
        "vmin_fallbacks": sum(1 for r in results if r.get("vmin")),
        "newton_pair_calls": sum(r["calls"] for r in results),
        "newton_pair_iters": sum(r["iters"] for r in results),
    }


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


def report(points, change, base, skipped):
    classes = {}
    for cls in ("random", "near_edge"):
        idx = [i for i, pt in enumerate(points) if pt["cls"] == cls]
        pts = [points[i] for i in idx]
        entry = {"points": len(idx), "change": _tally([change[i] for i in idx])}
        if base is not None:
            entry["baseline"] = _tally([base[i] for i in idx])
            entry["worst_disagreement"] = _worst(pts, [change[i] for i in idx], [base[i] for i in idx])
            if cls == "near_edge":
                entry["worst_disagreement_by_d"] = {
                    repr(d): _worst(
                        [points[i] for i in idx if points[i]["d"] == d],
                        [change[i] for i in idx if points[i]["d"] == d],
                        [base[i] for i in idx if points[i]["d"] == d],
                    )["rel"]
                    for d in EDGE_OFFSETS
                }
        classes[cls] = entry
    return {
        "command": "python3 benchmarks/ladder_corpus.py --baseline <dir> --out <file>",
        "seeds": {"random": RANDOM_SEED, "near_edge": EDGE_SEED},
        "models": {"random": RANDOM_MODELS, "near_edge": EDGE_MODELS,
                   "near_edge_find_gaps_raised": skipped},
        "edge_offsets": list(EDGE_OFFSETS),
        "classes": classes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="root of the baseline checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--points", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.points:
        # child mode: solve the given points with the package under --src
        with open(args.points, encoding="utf-8") as fh:
            points = json.load(fh)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(evaluate(args.src, points), fh)
        return 0

    src = os.path.join(ROOT, "src")
    specsep, _K = _import_specsep(src)
    points, skipped = build_corpus(specsep)
    change = evaluate(src, points)
    base = None
    if args.baseline:
        with tempfile.TemporaryDirectory() as tmp:
            pts_file = os.path.join(tmp, "points.json")
            res_file = os.path.join(tmp, "results.json")
            with open(pts_file, "w", encoding="utf-8") as fh:
                json.dump(points, fh)
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--points", pts_file,
                 "--src", os.path.join(os.path.abspath(args.baseline), "src"),
                 "--out", res_file],
                check=True,
            )
            with open(res_file, encoding="utf-8") as fh:
                base = json.load(fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report(points, change, base, skipped), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
