import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import decilab
from decilab import montecarlo
from decilab.montecarlo import convergence_sweep, empirical_cov, normality_report, replicate_sums
from decilab.simulate import NoiseSpec

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
        "threaded = decilab.replicate_sums(fam, 1, 20, noise, 150, 77, workers=3).samples",
        "serial = decilab.replicate_sums(fam, 1, 20, noise, 150, 77, workers=1).samples",
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
        runs = [replicate_sums(two_freq, 1, 20, GAUSS, 301, 77, workers=w).samples for w in (1, 2, 3)]
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()

    @pytest.mark.parametrize("workers", [0, -3, 2.5, 1.9, True])  # not truncated to 2, 1, 1
    def test_rejects_workers_below_one(self, two_freq, workers):
        with pytest.raises(ValueError, match=f"workers must be an integer >= 1, got {workers}$"):
            replicate_sums(two_freq, 1, 5, GAUSS, 100, 3, workers=workers)

    def test_threads_capped_by_replicates(self, two_freq, monkeypatch):
        serial = replicate_sums(two_freq, 1, 5, GAUSS, 100, 3, workers=1).samples
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

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", InlineExecutor)
        capped = replicate_sums(two_freq, 1, 5, GAUSS, 100, 3, workers=10_000).samples
        assert pool_sizes and all(size <= 100 for size in pool_sizes)
        assert capped.tobytes() == serial.tobytes()

    def test_limit_centers_are_the_limit_variance(self):
        # order 5 puts the first zero of sinc^5 at 10*pi, past any cutoff that
        # ignores the envelope constant
        fam = decilab.make_scaled_window_family(decilab.make_bspline_window(5), [8, 16])
        rs = replicate_sums(fam, 0, 10, GAUSS, 100, 3, centering="limit")
        assert abs(rs.centers[0] - 1.0 / (2.0 * np.pi)) <= 1e-10

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
