from __future__ import annotations

import ctypes
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from specsep import (
    JointSpectrum,
    ModelConfig,
    SimConfig,
    build_deterministic,
    count_eigs,
    density,
    eigenvalues,
    extreme_bound_check,
    find_gaps,
    materialize_pairs,
    perturbation_check,
    predict_counts,
    run_trials,
    sample_B,
)
from specsep import simulate
from specsep.separation import CONVENTIONS
from specsep.simulate import counting_interval, sample_noise


class TestBuildDeterministic:
    def test_pure_noise_gives_zero_signal(self):
        spec = JointSpectrum.from_atoms([(0.0, 1.0, 1.0)])
        r_diag, t_diag, pairs = build_deterministic(spec, 8, 4)
        assert r_diag.shape == t_diag.shape == (4,)
        assert np.all(r_diag == 0)
        assert np.all(t_diag == 1.0)
        assert pairs == [(0.0, 1.0)] * 4

    def test_diagonal_scaling(self, two_atom_spectrum):
        r_diag, _, _ = build_deterministic(JointSpectrum.from_atoms([(4.0, 1.0, 1.0)]), 4, 2)
        assert r_diag.shape == (2,)
        assert np.all(r_diag == 4.0)  # sqrt(n*u) = sqrt(16)
        n, p = 40, 10
        r_diag, t_diag, pairs = build_deterministic(two_atom_spectrum, n, p)
        assert r_diag.shape == t_diag.shape == (p,)
        for j, (u, t) in enumerate(pairs):
            assert r_diag[j] == math.sqrt(n * u)
            assert t_diag[j] == t

    def test_normalized_gram_eigenvalues_match_pairs(self, two_atom_spectrum):
        # R = [diag(r_diag) | 0], so (1/n) R R* has eigenvalues r_diag^2 / n
        n, p = 40, 10
        r_diag, _, pairs = build_deterministic(two_atom_spectrum, n, p)
        eigs = np.sort(r_diag**2 / n)
        expected = np.sort([u for u, _ in pairs])
        assert np.allclose(eigs, expected, atol=1e-12)


def _dense_reference(cfg: SimConfig, trial_index: int) -> np.ndarray:
    """(R + T^{1/2} X)(R + T^{1/2} X)* / n with a dense p x n R, from the trial's stream."""
    pairs = materialize_pairs(cfg.spectrum, cfg.p)
    r = np.zeros((cfg.p, cfg.n))
    for j, (u, _t) in enumerate(pairs):
        r[j, j] = math.sqrt(cfg.n * u)
    t_half = np.sqrt([t for _u, t in pairs])
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(trial_index,)))
    x = sample_noise(rng, (cfg.p, cfg.n), cfg.noise_law, cfg.complex_entries)
    y = (r + t_half[:, None] * x) / math.sqrt(cfg.n)
    return y @ y.conj().T


DENSE_REFERENCE_MODELS = {
    "pure-noise": [(0.0, 1.0, 1.0)],
    "signal": [(0.0, 2.0, 0.5), (8.0, 0.5, 0.5)],
}


class TestSampleB:
    def test_noise_moments(self):
        rng = np.random.default_rng(5)
        for law in ("standard_gaussian", "rademacher", "uniform_standardized"):
            x = sample_noise(rng, (200, 200), law, complex_entries=False)
            assert abs(x.mean()) < 3.0 / np.sqrt(200 * 200)
            assert abs(x.var() - 1.0) < 0.05

    def test_complex_entries_standardized(self):
        rng = np.random.default_rng(6)
        x = sample_noise(rng, (200, 200), "standard_gaussian", complex_entries=True)
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 0.05
        # second moment (not absolute) vanishes for complex entries
        assert abs(np.mean(x**2)) < 0.01

    def test_pure_noise_reduces_to_sample_covariance(self):
        spec = JointSpectrum.from_atoms([(0.0, 1.0, 1.0)])
        cfg = SimConfig(spectrum=spec, n=30, p=10, seed=9)
        b = sample_B(cfg, 0)
        rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(0,)))
        x = rng.standard_normal((10, 30))
        expected = x @ x.T / 30
        expected = (expected + expected.T) / 2
        assert np.allclose(b, expected, atol=1e-12)

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("law", ["standard_gaussian", "rademacher", "uniform_standardized"])
    @pytest.mark.parametrize("model", list(DENSE_REFERENCE_MODELS))
    def test_matches_dense_reference(self, model, law, complex_entries):
        spec = JointSpectrum.from_atoms(DENSE_REFERENCE_MODELS[model])
        cfg = SimConfig(
            spectrum=spec, n=90, p=30, seed=17, noise_law=law, complex_entries=complex_entries
        )
        b = sample_B(cfg, 2)
        expected = _dense_reference(cfg, 2)
        assert np.max(np.abs(b - expected)) <= 1e-12 * np.max(np.abs(expected))
        if not complex_entries:
            assert np.array_equal(b, b.T)
            if model == "pure-noise":
                assert np.array_equal(b, expected)

    def test_one_trial_holds_one_noise_sized_array(self, two_atom_spectrum):
        # a dense R and the temporaries of Y took over three p x n arrays
        n, p = 2000, 200
        cfg = SimConfig(spectrum=two_atom_spectrum, n=n, p=p, seed=3)
        tracemalloc.start()
        try:
            sample_B(cfg, 0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * p * n

    @pytest.mark.parametrize("law", ["standard_gaussian", "rademacher", "uniform_standardized"])
    def test_complex_noise_is_the_quotient_of_its_parts_bitwise(self, law):
        # filled in place, the matrix holds the same bits as (re + i*im)/sqrt(2)
        shape = (30, 70)
        got = sample_noise(np.random.default_rng(21), shape, law, complex_entries=True)
        rng = np.random.default_rng(21)
        re = simulate._draw_noise(rng, shape, law)
        im = simulate._draw_noise(rng, shape, law)
        expected = (re + 1j * im) / math.sqrt(2.0)
        assert np.array_equal(got.view(np.float64), expected.view(np.float64))
        real = sample_noise(np.random.default_rng(21), shape, law, complex_entries=False)
        assert np.array_equal(real.view(np.float64), re.view(np.float64))

    def test_complex_noise_holds_one_real_draw_beside_it(self):
        # the complex result (two p x n float arrays) and one real draw; the
        # sum of the two draws and its quotient by sqrt(2) took about four
        n, p = 2000, 200
        tracemalloc.start()
        try:
            sample_noise(np.random.default_rng(4), (p, n), "standard_gaussian", complex_entries=True)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * 8 * p * n

    def test_complex_trial_peak_shares_one_conjugate(self, two_atom_spectrum):
        # the noise and its one conjugate, 2 * 8pn bytes each, and B, 0.2 * 8pn;
        # a conjugate per block would add 1.4 * 8pn
        n, p = 2000, 200
        cfg = SimConfig(spectrum=two_atom_spectrum, n=n, p=p, seed=3, complex_entries=True)
        tracemalloc.start()
        try:
            sample_B(cfg, 0)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.21 * 8 * p * n

    def test_fixed_seed_replays_bit_identical(self, two_atom_spectrum):
        cfg = SimConfig(spectrum=two_atom_spectrum, n=50, p=10, seed=1234)
        b1 = sample_B(cfg, 3)
        b2 = sample_B(cfg, 3)
        assert np.array_equal(b1, b2)

    def test_trials_use_distinct_streams(self, two_atom_spectrum):
        cfg = SimConfig(spectrum=two_atom_spectrum, n=50, p=10, seed=1234)
        assert not np.array_equal(sample_B(cfg, 0), sample_B(cfg, 1))


class TestSplitGram:
    """Above SPLIT_MIN_P the Gram product is two row blocks, B[:h, :h] and B[h:, :]."""

    # the two-atom workload's shape; rademacher noise under the u = 8 signal
    # differs most, up to 8.5e-15 relative here (the split reorders sums of
    # n equal-magnitude terms after the folded d^2)
    P, N = 200, 2000

    def _config(self, model, law, complex_entries):
        spec = JointSpectrum.from_atoms(DENSE_REFERENCE_MODELS[model])
        return SimConfig(spectrum=spec, n=self.N, p=self.P, seed=19, noise_law=law,
                         complex_entries=complex_entries)

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("law", ["standard_gaussian", "rademacher", "uniform_standardized"])
    @pytest.mark.parametrize("model", list(DENSE_REFERENCE_MODELS))
    def test_split_matches_one_product(self, model, law, complex_entries, monkeypatch):
        cfg = self._config(model, law, complex_entries)
        assert simulate.SPLIT_MIN_P <= cfg.p
        split = sample_B(cfg, 4)
        # below the minimum, the split point is p: one product
        monkeypatch.setattr(simulate, "SPLIT_MIN_P", cfg.p + 1)
        one = sample_B(cfg, 4)
        assert np.max(np.abs(split - one)) <= 1e-14 * np.max(np.abs(one))
        # the mirrored block and syrk's diagonal blocks: exactly symmetric
        # (Hermitian) either way
        assert np.array_equal(split, split.conj().T)
        assert np.array_equal(one, one.conj().T)
        if complex_entries:
            assert np.all(np.diag(split).imag == 0.0)

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("law", ["standard_gaussian", "rademacher", "uniform_standardized"])
    def test_helper_changes_no_bit(self, law, complex_entries):
        cfg = self._config("signal", law, complex_entries)
        alone = sample_B(cfg, 2)
        release = threading.Event()
        with simulate._Helper() as helper:
            idle = sample_B(cfg, 2, helper=helper)
            # a busy helper: sample_B takes the leading block back and runs it
            blocker = helper.submit(simulate._Job(release.wait, 30.0))
            busy = sample_B(cfg, 2, helper=helper)
            release.set()
            assert blocker.result() is True
        assert np.array_equal(alone, idle)
        assert np.array_equal(alone, busy)

    def test_helper_hands_an_error_to_its_reader_and_joins(self):
        threads_before = threading.active_count()
        failure = ValueError("job failed")

        def fail():
            raise failure

        with simulate._Helper() as helper:
            job = helper.submit(simulate._Job(fail))
            with pytest.raises(ValueError) as info:
                job.result()
            assert helper.submit(simulate._Job(int, "7")).result() == 7
        assert info.value is failure
        assert threading.active_count() == threads_before


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_two_by_two(self):
        assert np.allclose(eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [1, 3])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["real", "complex"])
    def test_tolerance_is_relative_to_the_largest_entry(self, dtype):
        # -4 is the largest |entry|, so the tolerance is 4e-12
        b = np.array([[1.0, 2.0], [2.0, -4.0]], dtype=dtype)
        near = b.copy()
        near[0, 1] += 3e-12
        assert np.allclose(eigenvalues(near), eigenvalues(b))
        far = b.copy()
        far[0, 1] += 5e-12
        with pytest.raises(ValueError):
            eigenvalues(far)

    def test_small_ratio_eigenvalues_near_pair_sums(self, two_atom_spectrum):
        # square-root scale perturbation bound: deviations are O(sqrt(y))
        cfg = SimConfig(spectrum=two_atom_spectrum, n=4000, p=20, seed=77)
        eigs = eigenvalues(sample_B(cfg, 0))
        targets = np.sqrt([1.0, 9.0])
        dev = np.min(np.abs(np.sqrt(eigs)[:, None] - targets[None, :]), axis=1)
        assert np.max(dev) < 0.15


class TestCountEigs:
    def test_examples(self):
        eigs = np.array([1.0, 2.0, 3.0])
        assert count_eigs(eigs, (1.5, 2.5)) == (1, 1, 1)
        assert count_eigs(eigs, (0.0, 0.5)) == (0, 0, 3)
        assert count_eigs(eigs, (1.0, 3.0)) == (0, 3, 0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            count_eigs(np.array([1.0]), (2.0, 2.0))


class TestRunTrials:
    def test_mp_gap_emptiness_and_matching(self, mp_config):
        cfg = ModelConfig(mp_config.spectrum, 0.2)
        gaps = find_gaps(cfg)
        pairs = materialize_pairs(cfg.spectrum, 100)
        preds = [predict_counts(g, pairs) for g in gaps]
        sim = SimConfig(spectrum=cfg.spectrum, n=500, p=100, trials=10, seed=4242)
        report = run_trials(sim, gaps, preds)
        assert report.all_gaps_match_frequency["derivation"] >= 0.9
        for stats in report.per_gap:
            assert stats.inside_zero_frequency >= 0.9

    def test_law_independence_of_matches(self, two_atom_spectrum):
        cfg = ModelConfig(two_atom_spectrum, 0.1)
        gaps = find_gaps(cfg)
        pairs = materialize_pairs(cfg.spectrum, 100)
        preds = [predict_counts(g, pairs) for g in gaps]
        freqs = {}
        for law in ("standard_gaussian", "rademacher"):
            sim = SimConfig(
                spectrum=cfg.spectrum, n=1000, p=100, trials=10, seed=99, noise_law=law
            )
            freqs[law] = run_trials(sim, gaps, preds).all_gaps_match_frequency["derivation"]
        assert freqs["standard_gaussian"] == freqs["rademacher"] == 1.0

    def test_deterministic_reports(self, two_atom_spectrum):
        cfg = ModelConfig(two_atom_spectrum, 0.1)
        gaps = find_gaps(cfg)
        pairs = materialize_pairs(cfg.spectrum, 50)
        preds = [predict_counts(g, pairs) for g in gaps]
        sim = SimConfig(spectrum=cfg.spectrum, n=500, p=50, trials=4, seed=11)
        r1 = run_trials(sim, gaps, preds)
        r2 = run_trials(sim, gaps, preds)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert r1.all_gaps_match_frequency == r2.all_gaps_match_frequency

    @pytest.mark.parametrize(
        "atoms, y, n",
        [([(0.0, 1.0, 0.5), (8.0, 1.0, 0.5)], 0.1, 60), ([(0.0, 1.0, 1.0)], 0.2, 50)],
        ids=["two-atom", "pure-noise"],
    )
    def test_tables_and_frequencies_match_a_per_trial_loop(self, atoms, y, n):
        spectrum = JointSpectrum.from_atoms(atoms)
        cfg = ModelConfig(spectrum, y)
        p = round(y * n)
        gaps = find_gaps(cfg)
        preds = [predict_counts(g, materialize_pairs(spectrum, p)) for g in gaps]
        sim = SimConfig(spectrum=spectrum, n=n, p=p, trials=8, seed=5)
        report = run_trials(sim, gaps, preds)

        rows = [eigenvalues(sample_B(sim, i)) for i in range(sim.trials)]
        counts = []
        for row in rows:
            trial = []
            for gap in gaps:
                a, b = counting_interval(gap)
                below, above = int(np.sum(row < a)), int(np.sum(row > b))
                trial.append((below, len(row) - below - above, above))
            counts.append(trial)
        assert np.array_equal(report.eigenvalues, np.array(rows))
        assert report.counts.dtype.kind == "i"
        assert report.counts.tolist() == [[list(c) for c in trial] for trial in counts]

        all_match = {conv: [True] * sim.trials for conv in CONVENTIONS}
        for gi, (gap, pred, stats) in enumerate(zip(gaps, preds, report.per_gap)):
            assert stats.gap == gap
            assert stats.interval == counting_interval(gap)
            assert stats.predicted == {conv: pred.eigencounts(conv) for conv in CONVENTIONS}
            empty = sum(1 for trial in counts if trial[gi][1] == 0)
            assert stats.inside_zero_frequency == empty / sim.trials
            for conv in CONVENTIONS:
                hits = 0
                for ti, trial in enumerate(counts):
                    below, _inside, above = trial[gi]
                    if (below, above) == pred.eigencounts(conv):
                        hits += 1
                    else:
                        all_match[conv][ti] = False
                assert stats.match_frequency[conv] == hits / sim.trials
        assert report.all_gaps_match_frequency == {
            conv: sum(flags) / sim.trials for conv, flags in all_match.items()
        }
        # a model small enough that some trials miss, so both outcomes are counted
        assert 0.0 < report.all_gaps_match_frequency["derivation"] < 1.0

    def test_esd_matches_density_in_kolmogorov_distance(self, mp_config):
        sim = SimConfig(spectrum=mp_config.spectrum, n=4000, p=1000, seed=31415)
        eigs = eigenvalues(sample_B(sim, 0))
        grid = np.linspace(0.2501, 2.2499, 2000)
        curve = density(mp_config, grid)
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (curve.f[1:] + curve.f[:-1]))])
        emp = np.searchsorted(np.sort(eigs), grid, side="right") / len(eigs)
        assert np.max(np.abs(emp - cdf)) <= 0.03


def _blas_thread_count() -> int:
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return lib.scipy_openblas_get_num_threads64_()
    except (AttributeError, OSError):
        pytest.skip("numpy's OpenBLAS does not export its thread count")


class TestTrialPipeline:
    """The trial loop draws trial i while a helper thread solves trial i - 1."""

    def test_table_matches_a_sequential_loop_bitwise(self, two_atom_spectrum):
        # p = 200 splits each Gram product between the pipeline's threads
        for n, p in [(90, 30), (800, 200)]:
            sim = SimConfig(spectrum=two_atom_spectrum, n=n, p=p, trials=7, seed=21)
            table = simulate._trial_eigenvalues(sim)
            # BLAS on as many threads as the pipeline pins: the split blocks'
            # last bits may depend on the thread count
            with simulate._blas_threads(max(1, len(os.sched_getaffinity(0)) // 2)):
                expected = np.array([eigenvalues(sample_B(sim, i)) for i in range(sim.trials)])
            assert table.shape == (sim.trials, sim.p)
            assert np.array_equal(table, expected)

    def test_blas_and_threads_restored_after_a_failed_trial(self, two_atom_config, monkeypatch):
        gaps = find_gaps(two_atom_config)
        pairs = materialize_pairs(two_atom_config.spectrum, 30)
        preds = [predict_counts(g, pairs) for g in gaps]
        sim = SimConfig(spectrum=two_atom_config.spectrum, n=300, p=30, trials=6, seed=8)
        blas_before, threads_before = _blas_thread_count(), threading.active_count()
        pinned = max(1, len(os.sched_getaffinity(0)) // 2)
        seen = []
        failure = RuntimeError("trial 3 failed")
        original = simulate.sample_B

        def sample_B_failing_at_3(simcfg, trial_index, **kwargs):
            seen.append(_blas_thread_count())
            if trial_index == 3:
                raise failure
            return original(simcfg, trial_index, **kwargs)

        monkeypatch.setattr(simulate, "sample_B", sample_B_failing_at_3)
        with pytest.raises(RuntimeError) as info:
            run_trials(sim, gaps, preds)
        assert info.value is failure
        assert seen == [pinned] * 4
        assert _blas_thread_count() == blas_before
        assert threading.active_count() == threads_before

        monkeypatch.setattr(simulate, "sample_B", original)
        report = run_trials(sim, gaps, preds)
        assert report.eigenvalues.shape == (sim.trials, sim.p)
        assert _blas_thread_count() == blas_before
        assert threading.active_count() == threads_before

    def test_one_noise_array_live_at_a_time(self, two_atom_config):
        # the helper holds only a p x p matrix; a second trial's noise would
        # take the peak past two p x n arrays
        n, p = 2000, 200
        gaps = find_gaps(two_atom_config)
        pairs = materialize_pairs(two_atom_config.spectrum, p)
        preds = [predict_counts(g, pairs) for g in gaps]
        sim = SimConfig(spectrum=two_atom_config.spectrum, n=n, p=p, trials=6, seed=3)
        tracemalloc.start()
        try:
            run_trials(sim, gaps, preds)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * p * n


def test_eigenvalue_csv_matches_per_value_formatting(tmp_path):
    table = np.array([
        [0.0, 5e-324, 1e20, -1e-300],
        [-3.5e-7, -0.0, 2.2250738585072014e-308, 1.0 / 3.0],
        [-2.5e-310, 7.0, -1e-17, 123456789.123456789],
    ])
    path = tmp_path / "eigenvalues.csv"
    simulate.write_eigenvalue_csv(table, path)
    expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table)
    assert path.read_bytes() == expected.encode("ascii")


class TestExtremeBounds:
    def test_unit_variance(self):
        spec = JointSpectrum.from_atoms([(0.0, 1.0, 1.0)])
        sim = SimConfig(spectrum=spec, n=1200, p=300, trials=3, seed=2024)
        report = extreme_bound_check(sim, eps=0.1)
        assert report.passed
        assert report.lower_bound == pytest.approx(0.25)
        assert report.upper_bound == pytest.approx(2.25)

    def test_variance_scaling(self):
        spec = JointSpectrum.from_atoms([(0.0, 4.0, 1.0)])
        sim = SimConfig(spectrum=spec, n=1200, p=300, trials=3, seed=2024)
        report = extreme_bound_check(sim, eps=0.4)
        assert report.passed
        assert report.lower_bound == pytest.approx(1.0)
        assert report.upper_bound == pytest.approx(9.0)

    def test_rejects_signal_spectra(self, two_atom_spectrum):
        sim = SimConfig(spectrum=two_atom_spectrum, n=100, p=10, trials=1, seed=1)
        with pytest.raises(Exception):
            extreme_bound_check(sim, eps=0.1)


class TestPerturbation:
    def test_identical_matrices(self):
        a = np.diag([1.0, 2.0])
        report = perturbation_check(a, a)
        assert report.holds and report.max_eigenvalue_gap == 0.0

    def test_shift_is_tight(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((20, 20))
        a = (a + a.T) / 2
        eps = 0.37
        report = perturbation_check(a, a + eps * np.eye(20))
        assert report.holds
        assert report.max_eigenvalue_gap == pytest.approx(eps, abs=1e-10)
        assert report.spectral_norm == pytest.approx(eps, abs=1e-10)

    def test_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.standard_normal((50, 50))
            a = (a + a.T) / 2
            b = a + 0.3 * rng.standard_normal((50, 50))
            b = (b + b.T) / 2
            assert perturbation_check(a, b).holds

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            perturbation_check(np.eye(3), np.eye(4))
