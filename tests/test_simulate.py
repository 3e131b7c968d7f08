import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from decilab.kernels import TimeKernel, make_scaled_window_family
from decilab.moments import cov_exact
from decilab.simulate import (
    NoiseSpec,
    _decimated_convolve,
    ar1_kernel,
    draw_noise,
    mix_seed,
    noise_values,
    simulate_decimated,
    simulate_linear_process,
    windowed_coefficients,
)
from decilab.windows import Window, make_bspline_window

from conftest import single_level_family

GAUSS = NoiseSpec("gaussian")
RADEMACHER = NoiseSpec("rademacher")
UNIFORM = NoiseSpec("scaled_uniform")


class TestNoise:
    def test_kurtosis_excess_values(self):
        assert GAUSS.kurtosis_excess == 0.0
        assert RADEMACHER.kurtosis_excess == -2.0
        assert UNIFORM.kurtosis_excess == -1.2

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy")

    def test_rademacher_support(self):
        x = draw_noise(RADEMACHER, 4096, 11)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_scaled_uniform_support_and_moments(self):
        x = draw_noise(UNIFORM, 200_000, 12)
        assert np.all(np.abs(x) <= math.sqrt(3.0))
        assert abs(np.mean(x)) < 0.01
        assert abs(np.var(x) - 1.0) < 0.01
        # fourth moment 9/5, so excess kurtosis -6/5
        assert abs(np.mean(x ** 4) - 1.8) < 0.02

    def test_gaussian_sample_kurtosis(self):
        x = draw_noise(GAUSS, 1_000_000, 13)
        kurt = np.mean(x ** 4) - 3.0 * np.var(x) ** 2
        assert abs(kurt) < 0.02

    def test_determinism(self):
        a = draw_noise(GAUSS, 1000, 99)
        b = draw_noise(GAUSS, 1000, 99)
        assert np.array_equal(a, b)
        c = draw_noise(GAUSS, 1000, 100)
        assert not np.array_equal(a, c)

    def test_absolute_indexing_is_chunk_stable(self):
        # xi_t depends only on (spec, seed, t): any chunking agrees
        full = noise_values(GAUSS, 7, -50, 70)
        parts = np.concatenate([
            noise_values(GAUSS, 7, -50, -13),
            noise_values(GAUSS, 7, -13, 41),
            noise_values(GAUSS, 7, 41, 70),
        ])
        assert np.array_equal(full, parts)
        window = noise_values(GAUSS, 7, 3, 17)
        assert np.array_equal(full[53:67], window)

    def test_mix_seed_spreads(self):
        seeds = {mix_seed(5, r) for r in range(1000)}
        assert len(seeds) == 1000
        assert mix_seed(5, 1) != mix_seed(6, 1)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            draw_noise(GAUSS, 0, 1)


class TestDecimatedConvolve:
    @settings(max_examples=150, deadline=None)
    @given(
        gamma=st.integers(1, 9),
        start=st.integers(-15, 15),
        coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=40),
        first=st.integers(-5, 5),
        n=st.integers(1, 12),
        slack=st.integers(0, 3),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(gamma=9, start=-4, coeffs=[1.0, -0.5, 0.25], first=0, n=5, slack=0, seed=1)  # L < gamma
    @example(gamma=3, start=2, coeffs=[0.5] * 40, first=1, n=7, slack=0, seed=2)  # L > gamma
    def test_matches_double_loop_oracle(self, gamma, start, coeffs, first, n, slack, seed):
        kern = TimeKernel(start, np.array(coeffs))
        # every index first + gamma*k - s touches, plus slack values either side
        lo = first - kern.support_end - slack
        hi = first + gamma * (n - 1) - kern.support_start + 1 + slack
        xi = np.random.default_rng(seed).standard_normal(hi - lo)
        z = _decimated_convolve(xi, lo, kern, gamma, first, n)
        assert z.shape == (n,)
        for k in range(n):
            acc = 0.0
            for t in range(lo, hi):
                acc += kern.value(first + gamma * k - t) * xi[t - lo]
            assert abs(acc - z[k]) < 1e-12


class TestSimulateDecimated:
    def test_identity_filter_reproduces_noise(self):
        fam = single_level_family([TimeKernel(0, np.array([1.0]))], gamma=1)
        pm = simulate_decimated(fam, 0, 64, GAUSS, 5)
        xi = noise_values(GAUSS, 5, 0, 64)
        assert np.array_equal(pm.values[0], xi)

    def test_shared_noise_identical_branches(self):
        k = TimeKernel(-2, np.array([0.5, 1.0, -0.25]))
        fam = single_level_family([k, k], gamma=4)
        pm = simulate_decimated(fam, 0, 32, GAUSS, 17)
        assert np.array_equal(pm.values[0], pm.values[1])

    def test_matches_bruteforce_convolution(self, rng):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8])
        pm = simulate_decimated(fam, 0, 4, GAUSS, 23)
        k = fam.levels[0].kernels[0]
        lo = -k.support_end
        hi = 8 * 3 - k.support_start + 1
        xi = noise_values(GAUSS, 23, lo, hi)
        for kk in range(4):
            acc = 0.0
            for t in range(lo, hi):
                acc += k.value(8 * kk - t) * xi[t - lo]
            assert abs(acc - pm.values[0, kk]) < 1e-12

    def test_determinism_and_metadata(self):
        k = TimeKernel(0, np.array([1.0, -1.0]))
        fam = single_level_family([k], gamma=2)
        a = simulate_decimated(fam, 0, 16, RADEMACHER, 3)
        b = simulate_decimated(fam, 0, 16, RADEMACHER, 3)
        assert np.array_equal(a.values, b.values)
        assert a.gamma == 2 and a.level == 0 and a.seed == 3

    def test_agrees_with_linear_process_at_gamma_one(self):
        a = ar1_kernel(0.4)
        fam = single_level_family([a], gamma=1)
        z = simulate_decimated(fam, 0, 33, GAUSS, 9).values[0]
        x = simulate_linear_process(a, 32, GAUSS, 9)
        # the linear process starts at u = 1, the decimated grid at k = 0
        assert np.allclose(z[1:], x, atol=0, rtol=0)


class TestLinearProcess:
    def test_impulse_kernel_gives_noise(self):
        k = TimeKernel(0, np.array([1.0]))
        x = simulate_linear_process(k, 50, GAUSS, 21)
        assert np.array_equal(x, noise_values(GAUSS, 21, 1, 51))

    def test_truncated_ar1_close_to_recursive_oracle(self):
        phi = 0.5
        kern = ar1_kernel(phi)
        t_len = kern.length
        n = 20_000
        x = simulate_linear_process(kern, n, GAUSS, 31)
        # recursion y_u = phi*y_{u-1} + xi_u seeded far enough back that the
        # initialization transient is below the truncation error
        lo = 1 - 3 * t_len
        xi = noise_values(GAUSS, 31, lo, n + 1)
        y = signal.lfilter([1.0], [1.0, -phi], xi)[-n:]
        rms = math.sqrt(np.mean((x - y) ** 2))
        bound = phi ** (t_len) / math.sqrt(1.0 - phi * phi)
        assert rms < 4.0 * max(bound, phi ** (3 * t_len - 1))

    def test_paper_scale_memory(self):
        kern = ar1_kernel(0.95)
        n = 1_000_000
        tracemalloc.start()
        try:
            x = simulate_linear_process(kern, n, GAUSS, 41)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (n,)
        assert peak < 64 * 2 ** 20
        # X_u = sum_t a(u - t) xi_t at both ends of the range
        for u in (1, n):
            xi = noise_values(GAUSS, 41, u - kern.support_end, u + 1)
            assert abs(x[u - 1] - np.dot(kern.coeffs[::-1], xi)) < 1e-12

    def test_same_seed_bitwise_identical(self):
        k = ar1_kernel(0.3)
        assert np.array_equal(
            simulate_linear_process(k, 100, UNIFORM, 77),
            simulate_linear_process(k, 100, UNIFORM, 77),
        )


class TestWindowedCoefficients:
    def test_coefficient_count(self):
        w = make_bspline_window(4)
        z = windowed_coefficients(np.ones(15), w, 8)
        assert z.size == 2  # floor(16 / 8)

    def test_zero_window_gives_zero(self):
        zero = Window(
            name="zero",
            evaluate=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            transform=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            decay=4.0,
        )
        z = windowed_coefficients(np.arange(1.0, 33.0), zero, 4)
        assert np.all(z == 0.0)

    def test_matches_double_loop_oracle(self, rng):
        w = make_bspline_window(4)
        gamma = 8
        x = rng.standard_normal(40)
        z = windowed_coefficients(x, w, gamma)
        n = x.size
        n_j = (n + 1) // gamma
        for k in range(n_j):
            acc = 0.0
            for u in range(1, n + 1):
                acc += float(w.evaluate(k - u / gamma)) * x[u - 1]
            assert abs(z[k] - acc / math.sqrt(gamma)) < 1e-12

    def test_rejects_odd_gamma(self):
        w = make_bspline_window(4)
        with pytest.raises(ValueError):
            windowed_coefficients(np.ones(30), w, 5)

    def test_rejects_bad_support(self):
        bad = Window(
            name="wide",
            evaluate=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            transform=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            decay=4.0,
            support=(-2.0, 0.0),
        )
        with pytest.raises(ValueError):
            windowed_coefficients(np.ones(30), bad, 4)

    def test_rejects_too_short_series(self):
        w = make_bspline_window(4)
        with pytest.raises(ValueError):
            windowed_coefficients(np.ones(6), w, 8)


class TestSharedNoiseCovariance:
    def test_empirical_cross_covariance_matches_exact_sum(self):
        # two branches, fixed output indices k=0 and k'=1
        k1 = TimeKernel(0, np.array([1.0, 0.5, -0.5]))
        k2 = TimeKernel(-1, np.array([0.75, -0.25, 0.5, 1.0]))
        fam = single_level_family([k1, k2], gamma=2)
        exact = cov_exact(fam, 0, 0, 1, 0, 1)
        reps = 50_000
        prods = np.empty(reps)
        z1 = np.empty(reps)
        z2 = np.empty(reps)
        for r in range(reps):
            pm = simulate_decimated(fam, 0, 2, GAUSS, mix_seed(404, r))
            z1[r], z2[r] = pm.values[0, 0], pm.values[1, 1]
            prods[r] = z1[r] * z2[r]
        emp = np.mean(prods) - np.mean(z1) * np.mean(z2)
        se = np.std(prods) / math.sqrt(reps)
        assert abs(emp - exact) < 4.0 * se
