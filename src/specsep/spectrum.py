"""Model inputs: the joint atom spectrum, aspect ratio, and finite pairings."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import SpectrumError

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumAtom:
    """One atom (u, t, weight) of the joint eigenvalue distribution.

    u is an eigenvalue of the normalized signal Gram matrix (u >= 0), t the
    paired eigenvalue of the noise-shaping matrix (t > 0; t = 0 would make
    the inverse-moment of t diverge), weight the probability mass.
    """

    u: float
    t: float
    weight: float


@dataclass(frozen=True)
class JointSpectrum:
    """Finite discrete joint distribution of paired (u, t) eigenvalues.

    ``columns`` holds (u, t, weight) as three tuples of Python floats in atom
    order, built once here. The scalar kernels loop over them: an atom value
    taken from a numpy array is an ``np.float64``, which sends every atom
    term through numpy's scalar arithmetic, several times slower than
    Python's (notes/decisions.md, "Atoms as Python floats").
    """

    atoms: tuple[SpectrumAtom, ...]
    columns: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        columns = tuple(
            tuple(float(getattr(a, name)) for a in self.atoms) for name in ("u", "t", "weight")
        )
        object.__setattr__(self, "columns", columns)

    @classmethod
    def from_atoms(cls, atoms) -> "JointSpectrum":
        """Build and validate from an iterable of (u, t, weight) triples."""
        return validate(cls(tuple(SpectrumAtom(float(u), float(t), float(w)) for u, t, w in atoms)))


def validate(spectrum: JointSpectrum) -> JointSpectrum:
    """Check all invariants and return the spectrum unchanged.

    Rejects empty atom lists, u < 0, t <= 0, non-positive weights, duplicate
    (u, t) pairs, and weights not summing to 1 within 1e-12.
    """
    atoms = spectrum.atoms
    if len(atoms) == 0:
        raise SpectrumError("spectrum must contain at least one atom")
    seen = set()
    total = 0.0
    for i, atom in enumerate(atoms):
        if not np.isfinite(atom.u) or atom.u < 0:
            raise SpectrumError(f"atom {i}: u must be finite and >= 0, got {atom.u}")
        if not np.isfinite(atom.t) or atom.t <= 0:
            raise SpectrumError(f"atom {i}: t must be finite and > 0, got {atom.t}")
        if not np.isfinite(atom.weight) or atom.weight <= 0:
            raise SpectrumError(f"atom {i}: weight must be finite and > 0, got {atom.weight}")
        key = (atom.u, atom.t)
        if key in seen:
            raise SpectrumError(f"duplicate atom (u, t) = {key}")
        seen.add(key)
        total += atom.weight
    if abs(total - 1.0) > WEIGHT_TOL:
        raise SpectrumError(f"weights must sum to 1 within {WEIGHT_TOL}, got {total!r}")
    return spectrum


@dataclass(frozen=True)
class ModelConfig:
    """A validated spectrum together with the aspect ratio y = p/n in (0, 1]."""

    spectrum: JointSpectrum
    y: float

    def __post_init__(self):
        validate(self.spectrum)
        if not (0.0 < self.y <= 1.0):
            raise SpectrumError(f"aspect ratio y must lie in (0, 1], got {self.y}")


def spectrum_arrays(spectrum: JointSpectrum):
    """(u, t, weight) as float64 arrays in atom order."""
    return tuple(np.array(column, dtype=np.float64) for column in spectrum.columns)


def moments(spectrum: JointSpectrum, i: int, j: int) -> float:
    """Mixed moment sum_k w_k * u_k^i * t_k^j (j may be negative since t > 0)."""
    u, t, w = spectrum_arrays(spectrum)
    with np.errstate(divide="ignore"):
        ui = np.ones_like(u) if i == 0 else u**i
    return float(np.sum(w * ui * t**j))


def materialize_pairs(spectrum: JointSpectrum, p: int) -> list[tuple[float, float]]:
    """p paired eigenvalues with largest-remainder multiplicities.

    Atom k receives floor(w_k * p) copies, then the remaining slots go to
    the largest fractional remainders (ties broken by atom order). The
    resulting empirical weights deviate from w_k by at most 1/p each.
    """
    if p < 1:
        raise SpectrumError(f"p must be >= 1, got {p}")
    atoms = spectrum.atoms
    quotas = [a.weight * p for a in atoms]
    counts = [int(np.floor(q)) for q in quotas]
    remainder = p - sum(counts)
    order = sorted(range(len(atoms)), key=lambda k: (-(quotas[k] - counts[k]), k))
    for k in order[:remainder]:
        counts[k] += 1
    pairs: list[tuple[float, float]] = []
    for atom, m in zip(atoms, counts):
        pairs.extend([(atom.u, atom.t)] * m)
    return pairs
