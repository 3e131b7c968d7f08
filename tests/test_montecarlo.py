import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import decilab
from decilab import montecarlo
from decilab.kernels import TimeKernel
from decilab.moments import a_term, b_term, case_constant, cov_exact, cov_of_square_sums, gamma_limit, limit_cross_cov
from decilab.montecarlo import convergence_sweep, empirical_cov, normality_report, replicate_sums
from decilab.simulate import NoiseSpec, mix_seed, simulate_decimated, simulate_linear_process
from decilab.specdens import leakage_integral
from decilab.windows import bspline_value, make_bspline_window

GAUSS = NoiseSpec("gaussian")


class TestNormalityReport:
    @pytest.mark.parametrize("n", [2, 7, 250, 1000])
    def test_ks_distance_matches_scipy_kstest(self, rng, n):
        x = 1.3 * rng.standard_normal(n) + 0.2
        rep = normality_report(x)
        z = (x - np.mean(x)) / np.std(x)
        assert rep.ks_distance == pytest.approx(stats.kstest(z, "norm").statistic, rel=0, abs=1e-15)


def test_import_loads_neither_scipy_stats_nor_signal():
    # each costs set-up time on every run; scipy.special waits for the first Gaussian draw or KS distance
    src = str(Path(decilab.__file__).resolve().parents[1])
    code = ("import sys, decilab, decilab.cli; "
            "print([m for m in ('scipy.special', 'scipy.stats', 'scipy.signal') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_first_gaussian_draw_from_pool_threads():
    # the in-process tests import scipy.special up front; here three threads race to import it first
    src = str(Path(decilab.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        "import decilab",
        "sys.setswitchinterval(1e-6)",
        "fam = decilab.two_frequency_demo_family(decilab.make_bspline_window(4), [16, 32])",
        "noise = decilab.NoiseSpec('gaussian')",
        "loaded = 'scipy.special' in sys.modules",
        "threaded = decilab.replicate_sums(fam, 1, 20, noise, 150, 77, workers=3)",
        "serial = decilab.replicate_sums(fam, 1, 20, noise, 150, 77, workers=1)",
        "print(loaded, threaded.tobytes() == serial.tobytes())",
    ])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False True"


def test_package_exports_no_test_oracles():
    # test-only oracles live in tests/oracles.py; the bias predictor and kernel writer are gone
    src = str(Path(decilab.__file__).resolve().parents[1])
    names = ("fold", "m_n_functional", "folded_window_response", "predict_bias", "write_kernel")
    code = f"import decilab; print([n for n in {names!r} if hasattr(decilab, n)])"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def two_freq():
    return decilab.two_frequency_demo_family(decilab.make_bspline_window(4), [16, 32])


class TestReplicateRunner:
    def test_worker_count_invariance(self, two_freq):
        # 301 replicates split unevenly over 2 and over 3 threads
        runs = [replicate_sums(two_freq, 1, 20, GAUSS, 301, 77, workers=w) for w in (1, 2, 3)]
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()

    @pytest.mark.parametrize("workers", [0, -3, 2.5, 1.9, True])  # not truncated to 2, 1, 1
    def test_rejects_workers_below_one(self, two_freq, workers):
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {workers}$"):
            replicate_sums(two_freq, 1, 5, GAUSS, 100, 3, workers=workers)

    def test_threads_capped_by_replicates(self, two_freq, monkeypatch):
        serial = replicate_sums(two_freq, 1, 5, GAUSS, 100, 3, workers=1)
        pool_sizes = []

        class InlineExecutor:
            """Runs tasks in the calling thread and records the requested pool size."""

            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlineExecutor)
        capped = replicate_sums(two_freq, 1, 5, GAUSS, 100, 3, workers=10_000)
        assert pool_sizes and all(size <= 100 for size in pool_sizes)
        assert capped.tobytes() == serial.tobytes()

    def test_rows_are_centered_by_the_exact_expectation(self, two_freq):
        # row r is n**-0.5 * (sum_k Z_k**2 - n * E Z**2) of the replicate drawn at mix_seed(seed, r)
        n, seed = 20, 77
        samples = replicate_sums(two_freq, 1, n, GAUSS, 100, seed)
        centers = np.array([cov_exact(two_freq, 1, i, i, 0, 0) for i in range(two_freq.n_branches)])
        expected = np.array([
            (np.sum(simulate_decimated(two_freq, 1, n, GAUSS, mix_seed(seed, r)) ** 2, axis=1) - n * centers)
            * (1.0 / np.sqrt(n)) for r in range(100)])
        assert isinstance(samples, np.ndarray) and samples.shape == (100, 2)
        assert samples.tobytes() == expected.tobytes()

    def test_jackknife_se_matches_brute_force(self, rng):
        x = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 3))
        r = x.shape[0]
        loo = np.array([np.cov(np.delete(x, k, axis=0), rowvar=False) for k in range(r)])
        brute = np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
        rep = empirical_cov(x)
        assert np.allclose(rep.matrix, np.cov(x, rowvar=False), rtol=0, atol=1e-12)
        assert np.allclose(rep.se, brute, rtol=0, atol=1e-12)

    def test_sweep_empirical_agrees_with_exact(self, two_freq):
        rows = convergence_sweep(two_freq, [0], 30, GAUSS, 400, 5, workers=1)
        assert len(rows) == 3  # (1,1), (1,2), (2,2)
        for row in rows:
            assert row.se > 0.0
            assert abs(row.empirical - row.analytic_n) <= 5.0 * row.se


# every library entry that takes a level, called at level j of a family
LEVEL_ENTRIES = {
    "simulate_decimated": lambda fam, j: simulate_decimated(fam, j, 4, GAUSS, 3),
    "cov_exact": lambda fam, j: cov_exact(fam, j, 0, 1, 0, 1),
    "a_term": lambda fam, j: a_term(fam, j, 0, 1, 4),
    "b_term": lambda fam, j: b_term(fam, j, 0, 1, 4),
    "cov_of_square_sums": lambda fam, j: cov_of_square_sums(fam, j, 0, 1, 4, GAUSS),
    "replicate_sums": lambda fam, j: replicate_sums(fam, j, 4, GAUSS, 100, 3),
    "convergence_sweep": lambda fam, j: convergence_sweep(fam, [0, j], 4, GAUSS, 100, 3),
    "leakage_integral": lambda fam, j: leakage_integral(fam, j, 0.1),
}


@pytest.mark.parametrize("level", [-1, 2, 0.5])
@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRIES))
def test_level_outside_the_ladder_is_rejected(two_freq, entry, level):
    # level -1 is not read as the last level, and 0.5 raises ValueError, not TypeError
    with pytest.raises(ValueError, match=rf"^level {level} is not in 0\.\.1$"):
        LEVEL_ENTRIES[entry](two_freq, level)


# every library entry that takes a count n, called with n on a family
COUNT_ENTRIES = {
    "simulate_decimated": lambda fam, n: simulate_decimated(fam, 0, n, GAUSS, 3),
    "simulate_linear_process": lambda fam, n: simulate_linear_process(TimeKernel(0, np.ones(3)), n, GAUSS, 3),
    "a_term": lambda fam, n: a_term(fam, 0, 0, 1, n),
    "b_term": lambda fam, n: b_term(fam, 0, 0, 1, n),
    "cov_of_square_sums": lambda fam, n: cov_of_square_sums(fam, 0, 0, 0, n, GAUSS),
    "replicate_sums": lambda fam, n: replicate_sums(fam, 0, n, GAUSS, 100, 3),
    "convergence_sweep": lambda fam, n: convergence_sweep(fam, [0], n, GAUSS, 100, 3),
}


@pytest.mark.parametrize("n", [0, 2.5, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_count_outside_its_range_is_rejected(two_freq, entry, n):
    # n = NaN gave a_term and cov_of_square_sums 0.0, n = 2.5 gave them a value, and simulate_decimated a TypeError
    with pytest.raises(ValueError, match=rf"^n {n} is not in 1\.\.$"):
        COUNT_ENTRIES[entry](two_freq, n)


@pytest.mark.parametrize("call, message", [
    (lambda fam: replicate_sums(fam, 0, 4, GAUSS, 100.5, 3), r"^n_replicates 100\.5 is not in 100\.\.$"),
    (lambda fam: cov_exact(fam, 0, 0, 0, 0, 5.5), r"^lag 5\.5 is not in \.\.$"),
    (lambda fam: cov_exact(fam, 0, 0, 0, 0, 0.5), r"^lag 0\.5 is not in \.\.$"),
    (lambda fam: make_bspline_window(3.5), r"^order 3\.5 is not in 3\.\.$"),
    (lambda fam: bspline_value(2.5, 0.5), r"^order 2\.5 is not in 1\.\.$"),
], ids=["n_replicates", "lag_5.5", "lag_0.5", "window_order", "bspline_order"])
def test_integer_outside_its_range_is_rejected(two_freq, call, message):
    # replicate_sums raised TypeError, a lag of 5.5 gave 0.0 and 0.5 a TypeError, and order 3.5 built bspline3
    with pytest.raises(ValueError, match=message):
        call(two_freq)


# every library entry that takes a branch, called with branch i of a family
BRANCH_ENTRIES = {
    "cov_exact": lambda fam, i: cov_exact(fam, 0, i, i, 0, 0),
    "a_term": lambda fam, i: a_term(fam, 0, 0, i, 4),
    "b_term": lambda fam, i: b_term(fam, 0, i, 0, 4),
    "cov_of_square_sums": lambda fam, i: cov_of_square_sums(fam, 0, i, i, 4, GAUSS),
    "case_constant": lambda fam, i: case_constant(fam, i, 0),
    "limit_cross_cov": lambda fam, i: limit_cross_cov(fam, 0, i, 0),
    "gamma_limit": lambda fam, i: gamma_limit(fam, i, i),
}


@pytest.mark.parametrize("branch", [-1, 2, 0.5])
@pytest.mark.parametrize("entry", sorted(BRANCH_ENTRIES))
def test_branch_outside_the_family_is_rejected(two_freq, entry, branch):
    # branch -1 is not read as the last branch, branch 2 raises ValueError, not IndexError, and 0.5 not TypeError
    with pytest.raises(ValueError, match=rf"^branch {branch} is not in 0\.\.1$"):
        BRANCH_ENTRIES[entry](two_freq, branch)


def test_integral_float_level_and_branch_are_their_integers(two_freq):
    assert cov_exact(two_freq, 1.0, 1.0, 0, 0, 1) == cov_exact(two_freq, 1, 1, 0, 0, 1)
    z = simulate_decimated(two_freq, 1, 4, GAUSS, 3)
    assert simulate_decimated(two_freq, 1.0, 4, GAUSS, 3).tobytes() == z.tobytes()


def test_sweep_checks_every_level_before_its_first_replicate(two_freq, monkeypatch):
    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(montecarlo, "replicate_sums", no_replicates)
    with pytest.raises(ValueError, match="level 2 is not in 0..1"):
        convergence_sweep(two_freq, [0, 1, 2], 4, GAUSS, 100, 3)
