import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import decilab
from decilab import cli
from decilab.kernels import make_scaled_window_family
from decilab.moments import cov_exact, gamma_limit
from decilab.quadrature import gauss_legendre_panels
from decilab.simulate import NoiseSpec, mix_seed, noise_values, simulate_decimated
from decilab.specdens import (
    asymptotic_sigma2,
    check_rate_condition,
    estimate_f0,
    leakage_integral,
)
from decilab.windows import Window, bspline_l2_norm_sq, bspline_value, make_bspline_window

from oracles import bspline_recursive, folded_window_response, validate_window

TWO_PI = 2.0 * math.pi
GAUSS = NoiseSpec("gaussian")


def white_noise_expectation(window, gamma):
    """Analytic E[Z_0^2] of the windowed white-noise pipeline.

    Equals the exact lag-zero covariance of the equivalent one-branch
    family, i.e. the squared-coefficient sum of the sampled window kernel.
    """
    fam = make_scaled_window_family(window, [gamma])
    return cov_exact(fam, 0, 0, 0, 0, 0)


def exact_bspline_norm_sq(order):
    """int B_m(s)^2 ds as a Fraction: each piece of B_m on [j, j + 1] from its truncated powers, squared and
    integrated term by term."""
    m, total = order, Fraction(0)
    for j in range(m):
        piece = [Fraction(0)] * m  # coefficients of x**0 .. x**(m-1) of (m - 1)! * B_m(x) on [j, j + 1]
        for k in range(j + 1):
            for i in range(m):
                piece[i] += (-1) ** k * math.comb(m, k) * math.comb(m - 1, i) * (-k) ** (m - 1 - i)
        square = [sum(piece[a] * piece[d - a] for a in range(max(0, d - m + 1), min(d, m - 1) + 1))
                  for d in range(2 * m - 1)]
        total += sum(c * ((j + 1) ** (d + 1) - j ** (d + 1)) / (d + 1) for d, c in enumerate(square))
    return total / math.factorial(m - 1) ** 2


class TestBsplineWindow:
    def test_cubic_l2_norm_matches_exact_fraction(self):
        assert bspline_l2_norm_sq(4) == pytest.approx(151.0 / 315.0, abs=1e-12)

    def test_exact_norm_oracle_at_low_orders(self):
        assert [exact_bspline_norm_sq(m) for m in (1, 2, 3, 4)] == [1, Fraction(2, 3), Fraction(11, 20),
                                                                     Fraction(151, 315)]

    @pytest.mark.parametrize("order", range(1, 13))
    def test_l2_norm_is_the_exact_rational_rounded_once(self, order):
        assert bspline_l2_norm_sq(order) == float(exact_bspline_norm_sq(order))

    @pytest.mark.parametrize("order", range(1, 13))
    def test_values_match_recursion_bitwise(self, order):
        x = np.linspace(-1.0, 13.0, 40000)
        assert np.array_equal(bspline_value(order, x), bspline_recursive(order, x))
        assert bspline_value(order, 1.7) == bspline_recursive(order, 1.7)

    def test_high_order_window_builds_quickly(self):
        # 2**39 recursive calls at order 40 would never finish
        code = "from decilab.windows import make_bspline_window; make_bspline_window(40)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20,
                              env={**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])})
        assert proc.returncode == 0, proc.stderr

    def test_partition_of_unity(self):
        x = np.linspace(2.0, 3.0, 7)
        total = sum(bspline_value(4, x - k) for k in range(-4, 5))
        assert np.allclose(total, 1.0, atol=1e-12)

    def test_transform_normalized(self):
        for order in (3, 4, 6):
            w = make_bspline_window(order)
            checks = validate_window(w, norm_tol=1e-8)
            assert abs(checks["l2_norm"] - 1.0) < 1e-8

    def test_scaling_constant_from_exact_norm(self):
        # 2*pi*int W^2 = 1 with int W^2 = scale^2 * (151/315) / 4
        w = make_bspline_window(4)
        scale = w.evaluate(np.array([-0.5]))[0] / bspline_value(4, np.array([2.0]))[0]
        assert TWO_PI * scale ** 2 * (151.0 / 315.0) / 4.0 == pytest.approx(1.0, abs=1e-12)

    def test_support(self):
        w = make_bspline_window(4)
        assert np.all(w.evaluate(np.array([-1.001, 0.001])) == 0.0)
        assert w.evaluate(np.array([-0.5]))[0] > 0.0

    def test_time_domain_matches_transform_quadrature(self):
        # What(xi) = int W e^{-i xi t} dt, checked at a few frequencies
        w = make_bspline_window(4)
        x, wts = gauss_legendre_panels(-1.0, 0.0, panels=32, nodes=8)
        for xi in (0.0, 1.3, -4.0, 11.0):
            direct = np.sum(wts * w.evaluate(x) * np.exp(-1j * xi * x))
            assert abs(direct - w.transform(np.array([xi]))[0]) < 1e-10

    def test_low_orders_rejected(self):
        with pytest.raises(ValueError):
            make_bspline_window(2)


class TestFoldedWindowResponse:
    def test_periodicity(self):
        # the argument is wrapped to the base period, so lam and lam + 2*pi
        # agree to rounding of the wrap itself
        w = make_bspline_window(4)
        lam = np.array([0.3, -1.2, 2.9])
        a = folded_window_response(w, 8, lam)
        b = folded_window_response(w, 8, lam + TWO_PI)
        assert np.allclose(a, b, rtol=0.0, atol=1e-12)

    def test_dominant_term_bound(self):
        # |B(lam) - sqrt(gamma) What(gamma lam)| <= C gamma**(0.5-beta).
        # The alias-sum envelope gives the closed-form
        # C = (scale/m) (2m/pi)^m * 2 * sum_p (2p-1)^-m; the constant fitted
        # on the coarsest level also bounds the finer levels once allowance
        # is made for how the sine factors of the aliases land per level
        # (the fitted constant is observed to wobble by up to ~2x).
        w = make_bspline_window(4)
        m = 4
        scale = w.evaluate(np.array([-0.5]))[0] / bspline_value(4, np.array([2.0]))[0]
        c_closed = (scale / m) * (2.0 * m / math.pi) ** m * 2.0 * sum(
            (2 * p - 1) ** -m for p in range(1, 200)
        )
        lam = np.linspace(-math.pi, math.pi, 401)

        def residual(gamma):
            alias = folded_window_response(w, gamma, lam)
            main = math.sqrt(gamma) * w.transform(gamma * lam)
            return np.max(np.abs(alias - main))

        c_fit = residual(8) / 8.0 ** (0.5 - w.decay)
        assert c_fit <= c_closed
        for gamma in (16, 32):
            r = residual(gamma)
            assert r <= c_closed * gamma ** (0.5 - w.decay)
            assert r <= 3.0 * c_fit * gamma ** (0.5 - w.decay)

    def test_decay_at_fixed_frequency(self):
        # |B(1.0)| is dominated by the closed-form envelope of gamma^0.5 What(gamma)
        w = make_bspline_window(4)
        scale = w.evaluate(np.array([-0.5]))[0] / bspline_value(4, np.array([2.0]))[0]
        envelope_c = (scale / 4.0) * 8.0 ** 4.0
        vals = []
        for gamma in (8, 16, 32, 64):
            val = abs(folded_window_response(w, gamma, 1.0))
            vals.append(val)
            envelope = math.sqrt(gamma) * envelope_c * gamma ** -4.0
            assert val <= 1.1 * envelope * (1.0 + 2.0 ** (0.5 - 4.0))  # alias slack
        assert vals[-1] < vals[0]

    def test_rejects_odd_gamma(self):
        with pytest.raises(ValueError):
            folded_window_response(make_bspline_window(4), 7, 0.0)


class TestEstimator:
    def test_zero_series(self):
        w = make_bspline_window(4)
        est = estimate_f0(np.zeros(64), w, 8)
        assert est.f0_hat == 0.0 and est.sigma2 == 0.0 and est.se == 0.0

    def test_too_short_series_rejected(self):
        w = make_bspline_window(4)
        with pytest.raises(ValueError):
            estimate_f0(np.ones(6), w, 8)

    def test_white_noise_smoke(self):
        w = make_bspline_window(4)
        x = noise_values(GAUSS, 2024, 0, 8192)
        est = estimate_f0(x, w, 16)
        assert est.n_j == 512
        assert abs(est.f0_hat - 1.0 / TWO_PI) < 4.0 * est.se
        assert est.rate_ok and not est.degenerate

    def test_estimate_is_nonnegative(self, rng):
        w = make_bspline_window(4)
        x = rng.standard_normal(512)
        assert estimate_f0(x, w, 8).f0_hat >= 0.0

    def test_low_decay_window_rejected(self):
        # the rate rules live in check_rate_condition, which the estimator calls before it builds the window
        # family: a decay of 0.4 or NaN got the family's "need decay > 1/2"
        w = make_bspline_window(4)
        for decay in (2.0, 0.4, math.nan):
            low = Window(name="low", evaluate=w.evaluate, transform=w.transform, decay=decay, knots=w.knots,
                         degree=w.degree)
            with pytest.raises(ValueError, match="need window decay > 2"):
                estimate_f0(np.ones(64), low, 8)

    def test_nan_decay_rejected(self):
        # NaN compares false both ways, so only a `not beta > 2` gate rejects it
        with pytest.raises(ValueError, match="need window decay > 2"):
            check_rate_condition(100, 16, math.nan)

    def test_degenerate_flag(self):
        w = make_bspline_window(4)
        est = estimate_f0(np.ones(8), w, 8)
        assert est.n_j == 1 and est.degenerate and not est.rate_ok

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_sigma2_is_the_closed_form(self, rng, order):
        # 2*f0^2 holds exactly for every admissible window; asymptotic_sigma2
        # computes it as a finite sum (TestSigma2)
        est = estimate_f0(rng.standard_normal(2048), make_bspline_window(order), 16)
        assert est.sigma2 == 2 * est.f0_hat ** 2
        assert est.se == math.sqrt(est.sigma2 / est.n_j)


class TestSigma2:
    def test_zero_level(self):
        assert asymptotic_sigma2(make_bspline_window(4), 0.0) == 0.0

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_sigma2(make_bspline_window(4), -1.0)

    def test_lower_bound_and_sharpness(self):
        # Cauchy-Schwarz with the unit normalization gives sigma2 >= f0^2;
        # windows supported on an interval of length one achieve 2*f0^2
        f0 = 1.0 / TWO_PI
        for order in (3, 4, 5):
            s2 = asymptotic_sigma2(make_bspline_window(order), f0)
            assert s2 >= f0 * f0
            assert s2 == pytest.approx(2.0 * f0 * f0, rel=1e-6)

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_closed_form_within_tolerance(self, order):
        assert abs(asymptotic_sigma2(make_bspline_window(order), 1.0) / 2.0 - 1.0) <= 1e-10

    def test_matches_limiting_covariance_entry(self):
        # consistency of the estimator variance with the square-sum CLT
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8, 16])
        gamma11 = gamma_limit(fam, 0, 0).value
        s2 = asymptotic_sigma2(w, 1.0 / TWO_PI)
        assert abs(s2 - gamma11) < 1e-6


class TestRateCondition:
    def test_pass_example(self):
        assert check_rate_condition(2 ** 20, 2 ** 6, 4.0) == pytest.approx(2.0 ** -35)

    def test_fail_example(self):
        assert check_rate_condition(2 ** 20, 2, 4.0) == pytest.approx(2.0 ** 2.5)

    def test_degenerate_gamma_equals_n(self):
        n = 4096
        assert check_rate_condition(n, n, 4.0) < 1.0  # n**(1-2*beta) is tiny

    def test_beta_gate(self):
        with pytest.raises(ValueError, match="outside estimator hypotheses"):
            check_rate_condition(1024, 8, 2.0)

    def test_threshold_is_one_tenth(self):
        # estimate_f0 is the one comparison with RATE_THRESHOLD: at decay 4 and
        # gamma 2, sqrt(n) * 2**-7.5 is 0.09990 at n = 327 and 0.10005 at n = 328
        w = make_bspline_window(4)
        assert estimate_f0(np.zeros(327), w, 2).rate_ok
        assert not estimate_f0(np.zeros(328), w, 2).rate_ok


class TestPredictBias:
    def test_analytic_white_noise_bias_decays_at_least_quadratically(self):
        w = make_bspline_window(4)
        gammas = [8, 16, 32, 64]
        biases = [abs(white_noise_expectation(w, g) - 1.0 / TWO_PI) for g in gammas]
        for prev, cur in zip(biases, biases[1:]):
            assert cur <= prev / 4.0 * 1.05


class TestLeakage:
    def test_full_band_gives_zero(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8, 16])
        assert leakage_integral(fam, 0, math.pi + 0.1) == 0.0

    def test_concentrated_response_has_tiny_leakage(self):
        # with the band edge deep in the transform tail the outside mass
        # is negligible against the total energy
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [32, 64])
        assert leakage_integral(fam, 1, 1.5) < 1e-8

    def test_order_gamma_ratio_in_asymptotic_regime(self):
        # I_j = O(gamma**(1-2*beta)): doubling gamma shrinks it by ~2**-7.
        # The per-doubling ratio holds once gamma*epsilon clears the main
        # spectral lobe (first transform zero at gamma*lam = 2*m*pi); below
        # that the band edge cuts through order-one response values and the
        # ratio is far larger (0.22 at the 8 -> 16 step for epsilon = 0.5).
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [64, 128, 256])
        vals = [leakage_integral(fam, j, 0.5) for j in range(3)]
        for prev, cur in zip(vals, vals[1:]):
            assert cur / prev <= 2.0 ** (1.0 - 2.0 * w.decay) * 1.5

    def test_overall_decay_order_from_coarse_levels(self):
        # past the first octave the mean per-doubling decay matches the order
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [16, 32, 64, 128, 256])
        first = leakage_integral(fam, 0, 0.5)
        last = leakage_integral(fam, 4, 0.5)
        mean_ratio = (last / first) ** (1.0 / 4.0)
        assert mean_ratio <= 2.0 ** (1.0 - 2.0 * w.decay) * 1.5

    def test_modulated_band_location(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [32], math.pi / 2)
        inside = leakage_integral(fam, 0, 1.0)  # band around pi/2
        energy = cov_exact(fam, 0, 0, 0, 0, 0)
        assert inside < 1e-4 * energy

    # at gamma 1024 the value is about 1e-15, where a cosine series of the
    # autocorrelation cancels to rounding (2.6% off; negative at gamma 2048)
    @pytest.mark.parametrize("gamma,panels_per_tap,tol", [(16, 8, 1e-14), (64, 8, 1e-14), (1024, 1, 1e-22)])
    def test_matches_direct_quadrature(self, gamma, panels_per_tap, tol):
        fam = make_scaled_window_family(make_bspline_window(4), [gamma])
        kernel = fam.levels[0].kernels[0]
        # baseband target: the band is [0, 0.5], the leakage the rest of [0, pi]
        x, w = gauss_legendre_panels(0.5, math.pi, panels=panels_per_tap * kernel.length, nodes=8)
        # phase-matrix oracle, independent of the blocked evaluator under test
        t = np.arange(kernel.support_start, kernel.support_end + 1)
        oracle = sum(float(np.sum(w[s:s + 512] * np.abs(
            np.exp(-1j * x[s:s + 512, None] * t) @ kernel.coeffs) ** 2))
            for s in range(0, x.size, 512)) / TWO_PI
        assert abs(leakage_integral(fam, 0, 0.5) - oracle) <= tol

    def test_memory_flat_in_gamma(self):
        fam = make_scaled_window_family(make_bspline_window(4), [1024])
        tracemalloc.start()
        try:
            leakage_integral(fam, 0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_epsilon_validation(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8, 16])
        for epsilon in (0.0, -0.5, math.nan):  # NaN would skip both segments: zero leakage
            with pytest.raises(ValueError):
                leakage_integral(fam, 0, epsilon)


class TestExpectationIdentities:
    def test_law_only_white_series_has_the_exact_law(self):
        # specdens' Gaussian white series comes from numpy's standard_normal, not xi_t; over 2000 seeds the mean
        # of f0_hat is within 4 se of the exact E Z^2. A built-in window family's Z_k are i.i.d. over k, so
        # f0_hat is E Z^2 * chi2_{n_j} / n_j, and its sd is E Z^2 * sqrt(2 / n_j)
        w = make_bspline_window(4)
        cfg = {"specdens": {"synth": "white", "n": 4096}, "noise": {"distribution": "gaussian"}}
        f0 = np.array([estimate_f0(cli._series_from_config(cfg, None, seed)[0], w, 16).f0_hat
                       for seed in range(2000)])
        exact = cov_exact(make_scaled_window_family(w, [16]), 0, 0, 0, 0, 0)
        sd = np.std(f0, ddof=1)
        assert abs(np.mean(f0) - exact) < 4.0 * sd / math.sqrt(f0.size)
        assert abs(sd / (exact * math.sqrt(2.0 / 256)) - 1.0) < 4.0 / math.sqrt(2.0 * f0.size)

    def test_analytic_expectation_near_white_level_at_gamma_64(self):
        w = make_bspline_window(4)
        assert abs(white_noise_expectation(w, 64) - 1.0 / TWO_PI) < 1e-2

    def test_coefficient_squares_are_stationary(self):
        # empirical mean of Z_k^2 per index agrees with the analytic value
        w = make_bspline_window(4)
        gamma = 8
        fam = make_scaled_window_family(w, [gamma])
        analytic = cov_exact(fam, 0, 0, 0, 0, 0)
        reps, n = 4000, 8
        acc = np.zeros(n)
        for r in range(reps):
            acc += simulate_decimated(fam, 0, n, GAUSS, mix_seed(31337, r))[0] ** 2
        means = acc / reps
        se = analytic * math.sqrt(2.0 / reps)  # sd of chi-square mean
        assert np.all(np.abs(means - analytic) < 4.0 * se)
