import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import decilab
from decilab.montecarlo import CHUNK, convergence_sweep, empirical_cov, normality_report, replicate_sums
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
    # each costs set-up time on every run; decilab needs only scipy.special
    src = str(Path(decilab.__file__).resolve().parents[1])
    code = "import sys, decilab; print([m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def two_freq():
    return decilab.two_frequency_demo_family(decilab.make_bspline_window(4), [16, 32])


class TestReplicateRunner:
    def test_worker_count_invariance(self, two_freq):
        reps = 2 * CHUNK + 44  # three chunks, so both workers take some
        runs = [replicate_sums(two_freq, 1, 20, GAUSS, reps, 77, workers=w).samples for w in (1, 2)]
        assert np.array_equal(runs[0], runs[1])

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
