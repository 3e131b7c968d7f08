import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import decilab
from decilab.montecarlo import normality_report


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
