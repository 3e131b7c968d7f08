import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decilab.kernels import (
    _FFT_MIN_WORK,
    DecimatedFamily,
    FamilyLevel,
    TimeKernel,
    eval_response,
    make_scaled_window_family,
    two_frequency_demo_family,
)
from decilab.moments import (
    GammaMatrix,
    a_term,
    b_term,
    case_constant,
    cov_exact,
    cov_of_square_sums,
    gamma_limit,
    gamma_matrix,
    limit_cross_cov,
)
from decilab.quadrature import gauss_legendre_panels
from decilab.simulate import NoiseSpec, ar1_kernel
from decilab.specdens import asymptotic_sigma2
from decilab.windows import Window, make_bspline_window

from conftest import random_trig_poly, single_level_family
from oracles import (
    direct_decimated_lags,
    fold,
    frequency_gamma_limit,
    frequency_limit_cross_cov,
    frequency_sigma2,
    m_n_functional,
    spectral_cov,
    symmetrized_limit_product,
)

TWO_PI = 2.0 * math.pi
GAUSS = NoiseSpec("gaussian")
RADEMACHER = NoiseSpec("rademacher")
UNIFORM = NoiseSpec("scaled_uniform")


def kernel_dict(kernel):
    return dict(enumerate(kernel.coeffs, kernel.support_start))


def brute_a_term(k1, k2, gamma, n):
    """Independent enumeration oracle over an index superset."""
    d1, d2 = kernel_dict(k1), kernel_dict(k2)
    total = 0.0
    for tau in range(-n + 1, n):
        inner = 0.0
        for u in range(k1.support_start - 1, k1.support_end + 2):
            inner += d1.get(u, 0.0) * d2.get(gamma * tau + u, 0.0)
        total += (1.0 - abs(tau) / n) * inner ** 2
    return total


def brute_b_term(k1, k2, gamma, n):
    d1, d2 = kernel_dict(k1), kernel_dict(k2)
    total = 0.0
    for u in range(k1.support_start - 1, k1.support_end + 2):
        acc = 0.0
        for tau in range(-n + 1, n):
            acc += (1.0 - abs(tau) / n) * d2.get(gamma * tau + u, 0.0) ** 2
        total += d1.get(u, 0.0) ** 2 * acc
    return total


small_kernels = st.builds(
    lambda start, coeffs: TimeKernel(start, np.array(coeffs)),
    st.integers(-6, 6),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9),
)


class TestCovExact:
    def test_unit_impulse_variance(self):
        fam = single_level_family([TimeKernel(0, np.array([1.0]))], gamma=1)
        assert cov_exact(fam, 0, 0, 0, 0, 0) == 1.0

    def test_disjoint_impulses(self):
        fam = single_level_family(
            [TimeKernel(0, np.array([1.0])), TimeKernel(1, np.array([1.0]))], gamma=2
        )
        assert cov_exact(fam, 0, 0, 1, 0, 0) == 0.0

    def test_spectral_integral_crosscheck(self, rng):
        for _ in range(5):
            k1 = TimeKernel(int(rng.integers(-4, 4)), rng.standard_normal(int(rng.integers(1, 10))))
            k2 = TimeKernel(int(rng.integers(-4, 4)), rng.standard_normal(int(rng.integers(1, 10))))
            fam = single_level_family([k1, k2], gamma=3)
            spectral = spectral_cov(fam, 0, 0, 1, 0, 2)
            assert abs(spectral.real - cov_exact(fam, 0, 0, 1, 0, 2)) <= 1e-8 and abs(spectral.imag) <= 1e-8

    @pytest.mark.parametrize("gamma,length,lag", [(64, 65, 20), (8, 200, 1000), (1, 50, 1000)])
    def test_spectral_check_at_long_lags(self, rng, gamma, length, lag):
        # the factor exp(i*gamma*lam*lag) oscillates far faster than the responses
        k = TimeKernel(0, rng.standard_normal(length))
        fam = single_level_family([k, k], gamma=gamma)
        spectral = spectral_cov(fam, 0, 0, 1, 0, lag)
        assert abs(spectral.real - cov_exact(fam, 0, 0, 1, 0, lag)) <= 1e-8 and abs(spectral.imag) <= 1e-8

    def test_lag_symmetry(self, rng):
        k1 = TimeKernel(0, rng.standard_normal(6))
        fam = single_level_family([k1, k1], gamma=2)
        assert cov_exact(fam, 0, 0, 1, 0, 1) == cov_exact(fam, 0, 1, 0, 1, 0)


class TestABTerms:
    def test_impulse_values(self):
        fam = single_level_family([TimeKernel(0, np.array([1.0]))] * 2, gamma=1)
        for n in (1, 3, 10):
            assert a_term(fam, 0, 0, 1, n) == 1.0
            assert b_term(fam, 0, 0, 1, n) == 1.0

    def test_two_tap_hand_oracle(self):
        # {1,1} at indices 0,1; gamma=2, n=2: inner sums (2, 0, 0) -> A = 4,
        # and per-u contributions 1, 1 -> B = 2
        k = TimeKernel(0, np.array([1.0, 1.0]))
        fam = single_level_family([k, k], gamma=2)
        assert a_term(fam, 0, 0, 1, 2) == 4.0
        assert b_term(fam, 0, 0, 1, 2) == 2.0

    @given(k1=small_kernels, k2=small_kernels,
           gamma=st.integers(1, 8), n=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_oracle(self, k1, k2, gamma, n):
        fam = single_level_family([k1, k2], gamma=gamma)
        assert a_term(fam, 0, 0, 1, n) == pytest.approx(brute_a_term(k1, k2, gamma, n), abs=1e-10)
        assert b_term(fam, 0, 0, 1, n) == pytest.approx(brute_b_term(k1, k2, gamma, n), abs=1e-10)

    @pytest.mark.parametrize("gamma", [2, 4, 8, 16])
    @pytest.mark.parametrize("phi,length", [(0.98, 1448), (0.99, 2945)])
    def test_ar1_sums_on_the_fft_path(self, phi, length, gamma):
        # A(n) against its geometric closed form and B(n) against np.correlate, on
        # kernels long enough that the lag correlation is on the FFT path, from one spectrum
        n = 100_000
        kern = ar1_kernel(phi)
        assert kern.length == length and length ** 2 >= _FFT_MIN_WORK
        fam = single_level_family([kern], gamma=gamma)
        tau = np.abs(np.arange(-(n - 1), n))
        closed = np.sum((1.0 - tau / n) * phi ** (2 * gamma * tau)) / (1.0 - phi * phi) ** 2
        assert a_term(fam, 0, 0, 0, n) == pytest.approx(closed, rel=1e-12, abs=0)
        weights, corr = direct_decimated_lags(kern, kern, gamma, n, 2)
        assert b_term(fam, 0, 0, 0, n) == pytest.approx(float(np.dot(weights, corr)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("gamma,n", [(1, 100_000), (3, 40), (16, 500)])
    def test_equal_taps_in_distinct_kernels_take_one_spectrum(self, rng, monkeypatch, gamma, n):
        # branches 0 and 1 hold the same 1500 taps at different support starts, branch 2 other taps:
        # every pair is on the FFT path, one forward transform where the values are equal, two elsewhere
        taps = rng.standard_normal(1500)
        kernels = [TimeKernel(-1500, taps), TimeKernel(-1377, taps.copy()),
                   TimeKernel(-1500, rng.standard_normal(1500))]
        assert kernels[0].length ** 2 >= _FFT_MIN_WORK
        fam = single_level_family(kernels, gamma=gamma)
        rfft, calls = np.fft.rfft, []

        def counted(*args, **kwargs):
            calls.append(1)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counted)
        for i, ip in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 1)):
            ka, kb = fam.levels[0].kernels[i], fam.levels[0].kernels[ip]
            calls.clear()
            weights, corr = direct_decimated_lags(ka, kb, gamma, n, 1)
            assert a_term(fam, 0, i, ip, n) == pytest.approx(float(np.dot(weights, corr * corr)), rel=1e-12, abs=0)
            weights, corr = direct_decimated_lags(ka, kb, gamma, n, 2)
            assert b_term(fam, 0, i, ip, n) == pytest.approx(float(np.dot(weights, corr)), rel=1e-12, abs=0)
            assert len(calls) == (4 if 2 in (i, ip) else 2), (i, ip)  # A and B: one correlation each

    def test_tiny_cross_term_within_rounding_of_the_direct_path(self):
        # the baseband and pi/2 kernels at gamma 1024 nearly cancel: A is about 4.7e-21, where both
        # paths are about 1e-7 off in relative terms, so the comparison is on the rounding scale of A
        fam = two_frequency_demo_family(make_bspline_window(4), [1024])
        k1, k2 = fam.levels[0].kernels
        assert k1.length * k2.length >= _FFT_MIN_WORK
        n = 500
        weights, corr = direct_decimated_lags(k1, k2, 1024, n, 1)
        delta = np.finfo(float).eps * np.linalg.norm(k1.coeffs) * np.linalg.norm(k2.coeffs)
        scale = float(np.sum(weights * (2.0 * np.abs(corr) * delta + delta * delta)))
        a = a_term(fam, 0, 0, 1, n)
        assert 4e-21 < a < 5e-21
        assert abs(a - float(np.dot(weights, corr * corr))) <= scale

    @pytest.mark.parametrize("gamma,n", [(1, 150), (3, 40), (7, 9)])
    def test_long_kernels_truncate_at_n(self, rng, gamma, n):
        # n < L/gamma, so the |tau| < n window cuts off lags where the
        # correlation is still nonzero
        k1 = TimeKernel(-90, rng.standard_normal(200))
        k2 = TimeKernel(-115, rng.standard_normal(210))
        assert n < k1.length / gamma
        fam = single_level_family([k1, k2], gamma=gamma)
        for i, ip, ka, kb in ((0, 1, k1, k2), (1, 0, k2, k1)):
            assert a_term(fam, 0, i, ip, n) == pytest.approx(brute_a_term(ka, kb, gamma, n), rel=1e-12, abs=0)
            assert b_term(fam, 0, i, ip, n) == pytest.approx(brute_b_term(ka, kb, gamma, n), rel=1e-12, abs=0)

    def test_a_equals_m_n_of_folded_product(self, rng):
        # A(n) = M_n(g)^2 with g = sqrt(2*pi)/gamma * fold(v1* conj v2*)
        k1 = TimeKernel(-2, rng.standard_normal(7))
        k2 = TimeKernel(0, rng.standard_normal(5))
        gamma, n = 3, 4
        fam = single_level_family([k1, k2], gamma=gamma)

        def g(lam):
            prod = lambda x: eval_response(k1, x) * np.conj(eval_response(k2, x))
            return math.sqrt(TWO_PI) / gamma * fold(prod, gamma, lam)

        assert m_n_functional(g, n) ** 2 == pytest.approx(a_term(fam, 0, 0, 1, n), abs=1e-10)

    def test_a_spectral_bound(self, rng):
        # A(n) <= 2*pi * int |gamma^-1 fold(v1* conj v2*)|^2
        for _ in range(5):
            k1 = TimeKernel(int(rng.integers(-3, 3)), rng.standard_normal(int(rng.integers(1, 8))))
            k2 = TimeKernel(int(rng.integers(-3, 3)), rng.standard_normal(int(rng.integers(1, 8))))
            gamma = int(rng.integers(1, 6))
            fam = single_level_family([k1, k2], gamma=gamma)
            prod = lambda x: eval_response(k1, x) * np.conj(eval_response(k2, x))
            x, w = gauss_legendre_panels(-math.pi, math.pi, panels=96, nodes=8)
            bound = TWO_PI * np.sum(w * np.abs(fold(prod, gamma, x) / gamma) ** 2)
            for n in (1, 4, 9):
                assert a_term(fam, 0, 0, 1, n) <= bound + 1e-9

    def test_b_spectral_bound(self, rng):
        # B(n) <= int |v1*|^2 * int (gamma^-1 fold(|v2*|))^2
        for _ in range(5):
            k1 = TimeKernel(int(rng.integers(-3, 3)), rng.standard_normal(int(rng.integers(1, 8))))
            k2 = TimeKernel(int(rng.integers(-3, 3)), rng.standard_normal(int(rng.integers(1, 8))))
            gamma = int(rng.integers(1, 6))
            fam = single_level_family([k1, k2], gamma=gamma)
            x, w = gauss_legendre_panels(-math.pi, math.pi, panels=96, nodes=8)
            first = np.sum(w * np.abs(eval_response(k1, x)) ** 2)
            absresp = lambda lam: np.abs(eval_response(k2, lam))
            second = np.sum(w * (np.abs(fold(absresp, gamma, x)) / gamma) ** 2)
            for n in (1, 4, 9):
                assert b_term(fam, 0, 0, 1, n) <= first * second + 1e-9

    def test_b_term_decays_along_ladder(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [16, 32, 64, 128])
        values = [b_term(fam, j, 0, 0, 32) for j in range(4)]
        for prev, cur in zip(values, values[1:]):
            assert cur < 0.7 * prev  # at least 30% drop per doubling


class TestCovOfSquareSums:
    def test_gaussian_impulse_chi_square(self):
        fam = single_level_family([TimeKernel(0, np.array([1.0]))] * 2, gamma=1)
        assert cov_of_square_sums(fam, 0, 0, 1, 1, GAUSS) == 2.0

    def test_rademacher_impulse_degenerate(self):
        fam = single_level_family([TimeKernel(0, np.array([1.0]))] * 2, gamma=1)
        assert cov_of_square_sums(fam, 0, 0, 1, 1, RADEMACHER) == 0.0

    def test_scaled_uniform_impulse(self):
        fam = single_level_family([TimeKernel(0, np.array([1.0]))] * 2, gamma=1)
        assert cov_of_square_sums(fam, 0, 0, 1, 1, UNIFORM) == pytest.approx(0.8)

    @given(k=small_kernels, gamma=st.integers(1, 6), n=st.integers(1, 5),
           dist=st.sampled_from(["gaussian", "rademacher", "scaled_uniform"]))
    @settings(max_examples=40, deadline=None)
    def test_own_variance_nonnegative(self, k, gamma, n, dist):
        fam = single_level_family([k, k], gamma=gamma)
        assert cov_of_square_sums(fam, 0, 0, 1, n, NoiseSpec(dist)) >= -1e-10


class TestMnFunctional:
    def test_constant_function(self):
        g = lambda lam: np.ones_like(np.asarray(lam, dtype=float))
        for n in (1, 5, 100):
            assert m_n_functional(g, n) == pytest.approx(math.sqrt(TWO_PI), abs=1e-12)

    def test_single_oscillation(self):
        g = lambda lam: np.exp(1j * np.asarray(lam))
        assert m_n_functional(g, 1) == pytest.approx(0.0, abs=1e-12)
        assert m_n_functional(g, 4) == pytest.approx(math.sqrt(TWO_PI) * math.sqrt(0.75), abs=1e-12)

    def test_lipschitz_in_l2(self, rng):
        x, w = gauss_legendre_panels(-math.pi, math.pi, panels=64, nodes=8)
        for _ in range(10):
            g1, _ = random_trig_poly(rng)
            g2, _ = random_trig_poly(rng)
            dist = math.sqrt(float(np.sum(w * np.abs(g1(x) - g2(x)) ** 2)))
            for n in (1, 3, 17):
                gap = abs(m_n_functional(g1, n) - m_n_functional(g2, n))
                assert gap <= dist + 1e-10

    def test_increases_to_l2_norm(self, rng):
        g, norm_sq = random_trig_poly(rng)
        norm = math.sqrt(norm_sq)
        values = [m_n_functional(g, n) for n in (4, 16, 64, 512)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] <= norm + 1e-9
        assert norm - values[-1] < norm * 0.05


@pytest.fixture(scope="module")
def ma_family():
    return make_scaled_window_family(make_bspline_window(4), [8, 16, 32, 64])


@pytest.fixture(scope="module")
def two_freq():
    return two_frequency_demo_family(make_bspline_window(4), [8, 16, 32, 64])


class TestLimitQuantities:
    def test_case_constants(self, two_freq):
        assert case_constant(two_freq, 0, 0) == 1
        assert case_constant(two_freq, 1, 1) == 2
        assert case_constant(two_freq, 0, 1) == 0

    def test_cross_branch_limit_is_exact_zero(self, two_freq):
        rep = limit_cross_cov(two_freq, 0, 1, 0)
        assert rep.value == 0.0 and rep.truncation_bound == 0.0

    def test_limit_variance_matches_exact_at_deep_level(self, ma_family):
        lim = limit_cross_cov(ma_family, 0, 0, 0).value
        deep = cov_exact(ma_family, 3, 0, 0, 0, 0)
        assert lim == pytest.approx(1.0 / TWO_PI, abs=1e-4)
        assert abs(lim - deep) < 1e-4

    def test_limit_lag_one_close_to_exact(self, ma_family):
        lim = limit_cross_cov(ma_family, 0, 0, 1).value
        deep = cov_exact(ma_family, 3, 0, 0, 0, 1)
        assert abs(lim - deep) < 5e-3

    def test_modulated_limit_variance(self, two_freq):
        # cosine modulation halves the variance: limit is 1/(4*pi)
        lim = limit_cross_cov(two_freq, 1, 1, 0).value
        deep = cov_exact(two_freq, 3, 1, 1, 0, 0)
        assert lim == pytest.approx(1.0 / (4.0 * math.pi), abs=1e-4)
        assert abs(lim - deep) < 1e-4

    def test_missing_limits_raise(self):
        fam = single_level_family([TimeKernel(0, np.array([1.0]))], gamma=2)
        with pytest.raises(ValueError, match="limit kernels unavailable"):
            limit_cross_cov(fam, 0, 0, 0)
        with pytest.raises(ValueError, match="limit kernels unavailable"):
            gamma_limit(fam, 0, 0)

    def test_gamma_entries(self, two_freq):
        gm = gamma_matrix(two_freq)
        assert gm.entries[0, 1] == 0.0
        assert gm.constants[0, 0] == 1 and gm.constants[1, 1] == 2
        assert gm.entries[0, 0] == pytest.approx(1.0 / (2.0 * math.pi ** 2), rel=1e-14)
        # the +-passband copies double the folded weight: 4*pi*C^2*int gives 1/(8 pi^2)
        assert gm.entries[1, 1] == pytest.approx(1.0 / (8.0 * math.pi ** 2), rel=1e-14)

    def test_gamma_agrees_with_exact_decomposition(self, two_freq):
        # 2A + kappa4*B at gamma=64, n=512 should sit within 1% of Gamma
        gm = gamma_matrix(two_freq)
        for i in (0, 1):
            analytic = cov_of_square_sums(two_freq, 3, i, i, 512, GAUSS)
            assert abs(analytic - gm.entries[i, i]) / gm.entries[i, i] < 0.01

    def test_duplicated_branch_entries_equal(self):
        base = make_scaled_window_family(make_bspline_window(4), [8, 16])
        levels = tuple(
            FamilyLevel(
                gamma=lv.gamma,
                kernels=(lv.kernels[0], lv.kernels[0]),
                center_freqs=np.zeros(2),
            )
            for lv in base.levels
        )
        fam = DecimatedFamily(
            levels=levels,
            limit_freqs=np.zeros(2),
            decay=4.0,
            limit_kernels=(base.limit_kernels[0], base.limit_kernels[0]),
        )
        gm = gamma_matrix(fam)
        assert gm.entries[0, 0] == pytest.approx(gm.entries[0, 1], abs=1e-14)
        assert gm.entries[0, 0] == pytest.approx(gm.entries[1, 1], abs=1e-14)

    def test_phase_invariance(self, two_freq):
        # a limit kernel cannot express a phase rotation of its response, so the
        # rotated responses go through the frequency oracle
        base_entries = gamma_matrix(two_freq).entries
        for theta in (math.pi / 7, math.pi / 2):
            rot = complex(math.cos(theta), math.sin(theta))
            rotated = tuple((lambda lam, f=f: rot * f(lam)) for f in two_freq.limit_responses)
            for i in range(2):
                for ip in range(2):
                    value, bound = frequency_gamma_limit(two_freq, i, ip, rotated)
                    assert abs(value - base_entries[i, ip]) <= bound <= 1e-10

    def test_symmetrized_product_is_conjugate_symmetric(self, two_freq):
        w = symmetrized_limit_product(two_freq, 0, 1)
        lam = np.linspace(-5.0, 5.0, 11)
        vals = w(lam)
        flipped = w(-lam)
        assert np.allclose(vals, np.conj(flipped), atol=1e-14)

    def test_truncation_bounds_reported(self, ma_family):
        rep = gamma_limit(ma_family, 0, 0)
        assert abs(rep.value - 1.0 / (2.0 * math.pi ** 2)) <= rep.truncation_bound <= 1e-10


LIMIT_CASES = pytest.mark.parametrize("modulation,variance,gamma11", [
    (0.0, 1.0 / (2.0 * math.pi), 1.0 / (2.0 * math.pi ** 2)),
    (math.pi / 2, 1.0 / (4.0 * math.pi), 1.0 / (8.0 * math.pi ** 2)),
], ids=["baseband", "modulated"])


@pytest.mark.parametrize("order", [3, 4, 5, 6, 7, 8])
@LIMIT_CASES
def test_limit_quantities_within_reported_bounds(order, modulation, variance, gamma11):
    # the finite sums are exact up to rounding, which the reported bound covers
    window = make_bspline_window(order)
    fam = make_scaled_window_family(window, [16, 32], modulation)
    for rep, exact in ((limit_cross_cov(fam, 0, 0, 0), variance), (gamma_limit(fam, 0, 0), gamma11)):
        assert abs(rep.value - exact) <= min(rep.truncation_bound, 1e-15)
    # sigma^2 at f0 = 1/(2*pi) is the baseband Gamma entry 1/(2*pi^2)
    assert abs(asymptotic_sigma2(window, 1.0 / TWO_PI) - 1.0 / (2.0 * math.pi ** 2)) <= 1e-15


@pytest.mark.parametrize("order", [3, 4, 5, 6, 7, 8])
@LIMIT_CASES
def test_limit_quantities_agree_with_frequency_oracle(order, modulation, variance, gamma11):
    window = make_bspline_window(order)
    fam = make_scaled_window_family(window, [16, 32], modulation)
    for rep, (value, bound) in ((limit_cross_cov(fam, 0, 0, 0), frequency_limit_cross_cov(fam, 0, 0, 0)),
                                (gamma_limit(fam, 0, 0), frequency_gamma_limit(fam, 0, 0))):
        assert abs(rep.value - value) <= bound
    value, bound = frequency_sigma2(window, 1.0 / TWO_PI)
    assert abs(asymptotic_sigma2(window, 1.0 / TWO_PI) - value) <= bound


def stretched_window(window, length):
    """W_L(t) = L**-0.5 * W(t/L) on L times the knots: the same L2 norm, transform L**0.5 * What(L*xi)."""
    return Window(
        name=f"{window.name}x{length}",
        evaluate=lambda t: window.evaluate(np.asarray(t, dtype=float) / length) / math.sqrt(length),
        transform=lambda xi: math.sqrt(length) * window.transform(length * np.asarray(xi, dtype=float)),
        decay=window.decay,
        knots=tuple(length * k for k in window.knots),
        degree=window.degree,
    )


def sampled_family(windows, gammas):
    """Baseband branch i samples windows[i] at each gamma, v(t) = gamma**-0.5 * W(t/gamma); limit kernel (W, 1)."""
    levels = []
    for g in gammas:
        kernels = []
        for w in windows:
            t = np.arange(math.floor(g * w.knots[0]), math.ceil(g * w.knots[-1]) + 1)
            kernels.append(TimeKernel(int(t[0]), w.evaluate(t / g) / math.sqrt(g)))
        levels.append(FamilyLevel(gamma=g, kernels=tuple(kernels), center_freqs=np.zeros(len(windows))))
    return DecimatedFamily(
        levels=tuple(levels),
        limit_freqs=np.zeros(len(windows)),
        decay=min(w.decay for w in windows),
        limit_kernels=tuple((w, 1.0) for w in windows),
    )


class TestSupportTwoWindow:
    """An order-4 window on [-2, 0]: rho(+-1) != 0, so Gamma sums three lags."""

    @pytest.fixture(scope="class")
    def fam(self):
        return sampled_family([stretched_window(make_bspline_window(4), 2)], [16, 32])

    def test_gamma_sums_the_overlapping_lags(self, fam):
        rho = {k: limit_cross_cov(fam, 0, 0, k).value for k in (-1, 0, 1)}
        assert rho[1] == pytest.approx(0.0079050468423127, abs=1e-15)
        assert rho[-1] == pytest.approx(rho[1], abs=1e-17)
        assert rho[0] == pytest.approx(1.0 / TWO_PI, abs=1e-15)
        rep = gamma_limit(fam, 0, 0)
        assert rep.value == pytest.approx(2.0 * sum(r * r for r in rho.values()), abs=1e-17)
        assert rep.value == pytest.approx(0.05091055088348553, abs=1e-15)
        assert rep.truncation_bound < 1e-15

    def test_gamma_agrees_with_frequency_oracle(self, fam):
        rep = gamma_limit(fam, 0, 0)
        value, bound = frequency_gamma_limit(fam, 0, 0)
        assert abs(rep.value - value) <= bound <= 1e-10

    @pytest.mark.parametrize("lag", [-1, 0, 1, 2])
    def test_cross_cov_agrees_with_frequency_oracle(self, fam, lag):
        value, bound = frequency_limit_cross_cov(fam, 0, 0, lag)
        assert abs(limit_cross_cov(fam, 0, 0, lag).value - value) <= bound <= 1e-10

    def test_sigma2_sums_the_overlapping_lags(self, fam):
        window = fam.limit_kernels[0][0]
        value, bound = frequency_sigma2(window, 1.0 / TWO_PI)
        assert abs(asymptotic_sigma2(window, 1.0 / TWO_PI) - value) <= bound
        assert asymptotic_sigma2(window, 1.0 / TWO_PI) == pytest.approx(gamma_limit(fam, 0, 0).value, abs=1e-17)


def test_limit_cross_cov_is_the_limit_of_cov_exact():
    # Two different windows at one limit frequency: rho(lag) pairs W_i(t) with
    # W_i'(t + lag), as Cov(Z_{i,k}, Z_{i',k+lag}) does, and rho(1) != rho(-1).
    fam = sampled_family([stretched_window(make_bspline_window(4), 2), make_bspline_window(3)], [64, 1024])
    for lag in (-1, 0, 1, 2):
        lim = limit_cross_cov(fam, 0, 1, lag).value
        assert abs(cov_exact(fam, 1, 0, 1, 0, lag) - lim) < 1e-9
    assert limit_cross_cov(fam, 0, 1, 1).value > 0.05 and limit_cross_cov(fam, 0, 1, -1).value == 0.0


class TestGammaMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            GammaMatrix(
                entries=np.array([[1.0, 0.2], [0.1, 1.0]]),
                constants=np.ones((2, 2), dtype=int),
            )

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError):
            GammaMatrix(
                entries=np.array([[1.0, 2.0], [2.0, 1.0]]),
                constants=np.ones((2, 2), dtype=int),
            )

    def test_bad_constants_rejected(self):
        with pytest.raises(ValueError):
            GammaMatrix(
                entries=np.eye(2),
                constants=np.full((2, 2), 3),
            )
