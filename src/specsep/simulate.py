"""Finite-matrix realizations, eigenvalue counts, and verification trials.

The trials' one result is a (trials x p) table of ascending eigenvalues;
``run_trials`` counts it into ``counts[trial, gap, (below, inside, above)]``
and reads every frequency of its report off that integer table.

The trial loop is a two-stage pipeline: the calling thread draws trial i's
matrix while one helper thread takes the eigenvalues of trial i - 1, with
OpenBLAS pinned to half the cores so the two stages split them. Trial i's
Gram product is split in two row blocks that cost the same; the helper
computes the leading one once it is done with trial i - 1, unless the
calling thread, done with its own block first, takes it back. No reference
to a trial's noise outlives ``sample_B``, so one noise array is live at a
time.
"""

from __future__ import annotations

import collections
import ctypes
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .exceptions import SpectrumError
from .separation import CONVENTIONS
from .spectrum import JointSpectrum, materialize_pairs, validate
from .support import SpectralGap

NOISE_LAWS = ("standard_gaussian", "rademacher", "uniform_standardized")

INSET_FRACTION = 0.05
HERMITIAN_TOL = 1e-12
# Smallest p whose Gram product is split between the pipeline's threads.
# Handing a block to the idle helper and waiting for it costs 20-30 us; on
# one core the leading block takes about 24 us at p = 64, n = 4p, no more
# than that, and 130 us at p = 128 (notes/decisions.md, "Trial pipeline").
SPLIT_MIN_P = 128


@dataclass(frozen=True)
class SimConfig:
    """Inputs for seeded trials of the finite random matrix."""

    spectrum: JointSpectrum
    n: int
    p: int
    noise_law: str = "standard_gaussian"
    trials: int = 1
    seed: int = 0
    complex_entries: bool = False

    def __post_init__(self):
        validate(self.spectrum)
        if not (1 <= self.p <= self.n):
            raise SpectrumError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")
        if self.trials < 1:
            raise SpectrumError(f"trials must be >= 1, got {self.trials}")
        if self.noise_law not in NOISE_LAWS:
            raise SpectrumError(f"unknown noise law {self.noise_law!r}")


def build_deterministic(spectrum: JointSpectrum, n: int, p: int):
    """Diagonals (r_diag, t_diag, pairs) of the deterministic factors.

    R = [diag(r_diag) | 0] is p x n with r_diag[j] = sqrt(n * u_j), so that
    (1/n) R R* = diag(u), and T = diag(t_diag) with t_diag[j] = t_j; both are
    diagonal in the same basis, hence commute. Only the diagonals are built.
    """
    if p > n:
        raise SpectrumError(f"need p <= n, got p={p}, n={n}")
    pairs = materialize_pairs(spectrum, p)
    ut = np.array(pairs, dtype=np.float64).reshape(p, 2)
    return np.sqrt(n * ut[:, 0]), ut[:, 1].copy(), pairs


def _trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    # counter-based substream: child (trial_index,) of the root seed
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial_index,)))


def _draw_noise(rng: np.random.Generator, shape, law: str) -> np.ndarray:
    if law == "standard_gaussian":
        return rng.standard_normal(shape)
    if law == "rademacher":
        x = rng.integers(0, 2, size=shape).astype(np.float64)
        x *= 2.0
        x -= 1.0
        return x
    if law == "uniform_standardized":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)
    raise SpectrumError(f"unknown noise law {law!r}")


def sample_noise(rng: np.random.Generator, shape, law: str, complex_entries: bool) -> np.ndarray:
    """Standardized noise matrix; complex entries are (xi + i*eta)/sqrt(2).

    The complex matrix is filled in place, one part at a time, so that at
    most one real draw lives beside it.
    """
    if not complex_entries:
        return _draw_noise(rng, shape, law)
    x = np.empty(shape, dtype=np.complex128)
    x.real = _draw_noise(rng, shape, law)
    x.imag = _draw_noise(rng, shape, law)
    x /= math.sqrt(2.0)
    return x


class _Job:
    """A call that runs once, on whichever thread claims it first."""

    def __init__(self, fn, *args):
        self._call = (fn, args)
        self._claim = threading.Lock()
        self._done = threading.Event()
        self._result = self._error = None

    def run(self) -> None:
        """Run the call on this thread, unless another thread claimed it."""
        with self._claim:
            call, self._call = self._call, None
        if call is None:
            return
        try:
            self._result = call[0](*call[1])
        except BaseException as exc:  # raised again on the thread that reads it
            self._error = exc
        # drop the arguments before the reader wakes: they may hold a noise array
        call = None
        self._done.set()

    def result(self):
        """Wait for the call to finish; return its value or raise its error."""
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._result


class _Helper:
    """One worker thread that runs submitted jobs in submission order."""

    def __init__(self):
        self._queue = collections.deque()
        self._queued = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._work, daemon=True)
        self._thread.start()

    def _work(self) -> None:
        while True:
            self._queued.acquire()
            job = self._queue.popleft()
            if job is None:
                return
            job.run()

    def submit(self, job: _Job) -> _Job:
        self._queue.append(job)
        self._queued.release()
        return job

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        # the jobs already submitted run first, as ThreadPoolExecutor's exit does
        self.submit(None)
        self._thread.join()


def _split_point(p: int) -> int:
    """Rows of the leading block of B, the one the pipeline's helper may take.

    B[:h, :h] costs h^2 / 2 multiply-adds per noise column (a syrk), and the
    trailing rows B[h:, :] cost (p^2 - h^2) / 2, so h = p / sqrt(2) balances
    them. Below SPLIT_MIN_P the block is too small to pay for its handoff,
    and h = p: B is one product.
    """
    return p if p < SPLIT_MIN_P else round(p / math.sqrt(2.0))


def sample_B(simcfg: SimConfig, trial_index: int, helper: _Helper | None = None) -> np.ndarray:
    """One realization of the p x p noncentral covariance matrix.

    The noise stream is derived deterministically from (seed, trial_index);
    identical configurations replay bit-identical matrices.

    With D = R / sqrt(n) = [diag(d) | 0], d = sqrt(u), and the noise scaled
    in place to S = T^{1/2} X / sqrt(n), the signal is folded into the noise
    array, Y = D + S (d_j added to S[j, j]), and B = Y Y* is the one Gram
    product. The noise is the one p x n array made for real entries. A pass
    that would multiply every entry by 1 (all t = 1) changes no bit and is
    skipped.

    The product is split in rows at h = _split_point(p): B[:h, :h] goes to
    ``helper`` (a trial pipeline's thread) when one is given and h < p, and
    the calling thread computes B[h:, :] and mirrors B[h:, :h] into
    B[:h, h:]. If the helper has not started its block by then, the calling
    thread runs it too. Every block is written in place, and the result is
    bitwise the same with or without a helper.
    """
    rng = _trial_rng(simcfg.seed, trial_index)
    n, p = simcfg.n, simcfg.p
    r_diag, t_diag, _pairs = build_deterministic(simcfg.spectrum, n, p)
    y = sample_noise(rng, (p, n), simcfg.noise_law, simcfg.complex_entries)
    # two passes, so that S rounds as (R + T^{1/2} X) / sqrt(n) does off R's
    # diagonal: below SPLIT_MIN_P pure-noise models give the dense product's
    # B bit for bit
    if np.any(t_diag != 1.0):
        y *= np.sqrt(t_diag)[:, None]
    y /= math.sqrt(n)
    # y's diagonal as a strided view: y[j, j] is flat element j * (n + 1)
    y.reshape(-1)[:: n + 1] += r_diag / math.sqrt(n)
    # one conjugate, shared by the blocks (y itself for real entries); with
    # yc[:h] the same memory as y[:h], numpy's matmul takes syrk, so real
    # diagonal blocks are exactly symmetric
    yc = y.conj()
    h = _split_point(p)
    b = np.empty((p, p), dtype=y.dtype)
    # matmul's third argument is its out
    lead = _Job(np.matmul, y[:h], yc[:h].T, b[:h, :h])
    if helper is not None and h < p:
        helper.submit(lead)
    np.matmul(y[h:], yc[:h].T, b[h:, :h])
    np.matmul(y[h:], yc[h:].T, b[h:, h:])
    lead.run()
    lead.result()
    # the noise goes first: the mirror and the Hermitian pass use buffers
    del y, yc, lead
    np.conjugate(b[h:, :h].T, b[:h, h:])
    if np.iscomplexobj(b):
        # complex diagonal blocks are general products, Hermitian only to
        # rounding; the mirrored blocks pass unchanged
        b += b.conj().T
        b /= 2.0
    return b


def _max_abs(a: np.ndarray) -> float:
    # for real entries max |a_ij| is exact from the extremes, with no |a| array
    if np.iscomplexobj(a):
        return float(np.max(np.abs(a)))
    return float(max(a.max(), -a.min()))


def eigenvalues(b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (checked to 1e-12 relative)."""
    # an exactly Hermitian matrix, as sample_B makes, passes without a p x p
    # difference array; it is one the tolerance test would accept too
    if not np.array_equal(b, b.conj().T):
        scale = max(1.0, _max_abs(b))
        if _max_abs(b - b.conj().T) > HERMITIAN_TOL * scale:
            raise ValueError("matrix is not Hermitian within 1e-12")
    return np.linalg.eigvalsh(b)


@contextmanager
def _blas_threads(count: int):
    """Run the block with numpy's OpenBLAS on ``count`` threads, then restore.

    Leaves BLAS as it is when numpy's OpenBLAS does not export its thread
    count under the scipy-openblas names.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    before = get()
    set_(count)
    try:
        yield
    finally:
        set_(before)


def _trial_eigenvalues(simcfg: SimConfig) -> np.ndarray:
    """(trials x p) table: row i holds the ascending eigenvalues of trial i.

    While the calling thread runs ``sample_B`` for trial i, one helper thread
    runs ``eigenvalues`` for trial i - 1 and then the leading block of trial
    i's Gram product, unless ``sample_B`` has taken it back; rows are kept
    in trial order.
    """
    rows = []
    pending = None
    cores = len(os.sched_getaffinity(0))
    with _blas_threads(max(1, cores // 2)), _Helper() as helper:
        for i in range(simcfg.trials):
            # sample_B and eigenvalues are looked up in the module's globals
            # on every call, so a wrapper set on the module sees each trial
            b = sample_B(simcfg, i, helper=helper)
            if pending is not None:
                rows.append(pending.result())
            pending = helper.submit(_Job(eigenvalues, b))
        rows.append(pending.result())
    return np.array(rows)


def count_eigs(eigs: np.ndarray, interval) -> tuple[int, int, int]:
    """(below, inside, above) counts against a closed interval [a, b]."""
    a, b = interval
    if not a < b:
        raise ValueError(f"need a < b, got ({a}, {b})")
    eigs = np.asarray(eigs)
    below = int(np.searchsorted(eigs, a, side="left"))
    above = int(len(eigs) - np.searchsorted(eigs, b, side="right"))
    return below, len(eigs) - below - above, above


def counting_interval(gap: SpectralGap) -> tuple[float, float]:
    """Inset interval used when counting eigenvalues against a gap.

    Finite gaps are inset by 5% of their width on both sides; the
    unbounded gap is cut at a + 10 before insetting, so "above" means
    beyond that finite proxy.
    """
    if gap.unbounded:
        return gap.a + INSET_FRACTION * (gap.finite_b - gap.a), gap.finite_b
    delta = INSET_FRACTION * gap.width
    return gap.a + delta, gap.b - delta


@dataclass(frozen=True)
class GapStats:
    """Aggregates for one gap across trials."""

    gap: SpectralGap
    interval: tuple[float, float]
    inside_zero_frequency: float
    match_frequency: dict
    predicted: dict


@dataclass(frozen=True)
class VerifyReport:
    """Aggregate verification of separation predictions across trials.

    ``eigenvalues`` is the (trials x p) eigenvalue table and ``counts`` the
    integer (trials x gaps x 3) table of (below, inside, above) counts
    against each gap's counting interval.
    """

    simcfg: SimConfig
    eigenvalues: np.ndarray
    counts: np.ndarray
    per_gap: tuple[GapStats, ...]
    all_gaps_match_frequency: dict


def run_trials(simcfg: SimConfig, gaps, predictions) -> VerifyReport:
    """Seeded trials counting eigenvalues against inset gap intervals.

    A trial matches a convention at a gap when its (below, above) counts
    equal that convention's prediction; the all-gaps match frequency of a
    convention counts the trials that match at every gap at once.
    """
    gaps = list(gaps)
    predictions = list(predictions)
    if len(gaps) != len(predictions):
        raise ValueError("need one prediction per gap")
    intervals = [counting_interval(gap) for gap in gaps]
    eigs = _trial_eigenvalues(simcfg)
    counts = np.array(
        [[count_eigs(row, iv) for iv in intervals] for row in eigs], dtype=np.int64
    ).reshape(simcfg.trials, len(gaps), 3)
    wants = {c: np.reshape([pr.eigencounts(c) for pr in predictions], (-1, 2)) for c in CONVENTIONS}
    # matches[c][trial, gap]: below and above both as convention c predicts
    matches = {c: np.all(counts[:, :, ::2] == want, axis=2) for c, want in wants.items()}
    n_match = {c: np.count_nonzero(m, axis=0) for c, m in matches.items()}
    n_empty = np.count_nonzero(counts[:, :, 1] == 0, axis=0)
    per_gap = tuple(
        GapStats(
            gap=gap,
            interval=iv,
            inside_zero_frequency=int(n_empty[gi]) / simcfg.trials,
            match_frequency={c: int(k[gi]) / simcfg.trials for c, k in n_match.items()},
            predicted={c: pred.eigencounts(c) for c in CONVENTIONS},
        )
        for gi, (gap, pred, iv) in enumerate(zip(gaps, predictions, intervals))
    )
    return VerifyReport(
        simcfg=simcfg,
        eigenvalues=eigs,
        counts=counts,
        per_gap=per_gap,
        all_gaps_match_frequency={c: float(np.mean(np.all(m, axis=1))) for c, m in matches.items()},
    )


@dataclass(frozen=True)
class ExtremeBoundReport:
    """Observed extreme eigenvalues against the pure-noise support bounds."""

    passed: bool
    lower_bound: float
    upper_bound: float
    min_eigenvalue: float
    max_eigenvalue: float
    min_margin: float
    max_margin: float


def extreme_bound_check(simcfg: SimConfig, eps: float) -> ExtremeBoundReport:
    """Check pure-noise extreme eigenvalues against sigma^2*(1 +/- sqrt(y))^2.

    Requires a pure-noise configuration: every atom has u = 0 and a common
    t = sigma^2.
    """
    u_vals = {a.u for a in simcfg.spectrum.atoms}
    t_vals = {a.t for a in simcfg.spectrum.atoms}
    if u_vals != {0.0} or len(t_vals) != 1:
        raise SpectrumError("extreme bound check needs u = 0 and a single t value")
    sigma2 = t_vals.pop()
    y = simcfg.p / simcfg.n
    lower = sigma2 * (1.0 - math.sqrt(y)) ** 2
    upper = sigma2 * (1.0 + math.sqrt(y)) ** 2

    eigs = _trial_eigenvalues(simcfg)
    min_eig = float(eigs[:, 0].min())
    max_eig = float(eigs[:, -1].max())
    passed = min_eig >= lower - eps and max_eig <= upper + eps
    return ExtremeBoundReport(
        passed=passed,
        lower_bound=lower,
        upper_bound=upper,
        min_eigenvalue=min_eig,
        max_eigenvalue=max_eig,
        min_margin=min_eig - lower,
        max_margin=upper - max_eig,
    )


@dataclass(frozen=True)
class PerturbationReport:
    max_eigenvalue_gap: float
    spectral_norm: float
    holds: bool


def perturbation_check(a: np.ndarray, b: np.ndarray, slack: float = 1e-10) -> PerturbationReport:
    """Check max_k |lambda_k(A) - lambda_k(B)| <= ||A - B|| + slack."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    ea = eigenvalues(a)
    eb = eigenvalues(b)
    gap = float(np.max(np.abs(ea - eb)))
    norm = float(np.linalg.norm(a - b, 2))
    return PerturbationReport(
        max_eigenvalue_gap=gap, spectral_norm=norm, holds=gap <= norm + slack
    )


def write_eigenvalue_csv(table, path) -> None:
    """One CSV row per row of the eigenvalue table, 17 significant digits."""
    # one %-format per row gives the same digits as format(v, ".17g") per value
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        for row in table:
            fh.write(line % tuple(row.tolist()))
