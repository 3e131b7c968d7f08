import cmath
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decilab.kernels import (
    DecimatedFamily,
    FamilyLevel,
    TimeKernel,
    check_condition_c,
    eval_response,
    make_scaled_window_family,
    read_kernel,
    snapped_center_freq,
    two_frequency_demo_family,
)
from decilab.quadrature import gauss_legendre_panels
from decilab.simulate import ar1_kernel
from decilab.windows import make_bspline_window

from conftest import random_trig_poly
from oracles import fold, parseval_gap

TWO_PI = 2.0 * math.pi

coeff_lists = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=12
)


def direct_response(kernel, lam):
    """Independent term-by-term complex summation oracle."""
    total = 0.0 + 0.0j
    for t, v in zip(kernel.support, kernel.coeffs):
        total += v * cmath.exp(-1j * lam * t)
    return total / math.sqrt(TWO_PI)


class TestTimeKernel:
    def test_requires_coefficients(self):
        with pytest.raises(ValueError):
            TimeKernel(0, np.array([]))
        with pytest.raises(ValueError):
            TimeKernel(0, np.array([1.0, np.inf]))

    def test_energy_exact(self):
        k = TimeKernel(-2, np.array([1.0, 2.0, -3.0]))
        assert k.energy == 14.0
        assert k.support_end == 0

    def test_value_off_support_is_zero(self):
        k = TimeKernel(1, np.array([5.0]))
        assert k.value(0) == 0.0
        assert k.value(1) == 5.0
        assert k.value(2) == 0.0

    def test_coeffs_immutable(self):
        k = TimeKernel(0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            k.coeffs[0] = 3.0


class TestEvalResponse:
    def test_unit_impulse(self):
        k = TimeKernel(0, np.array([1.0]))
        val = eval_response(k, 1.7)
        assert abs(val - 1.0 / math.sqrt(TWO_PI)) < 1e-15

    def test_two_taps_at_pi(self):
        k = TimeKernel(0, np.array([1.0, 1.0]))
        assert abs(eval_response(k, math.pi)) < 1e-15

    def test_matches_direct_summation_oracle(self, rng):
        k = TimeKernel(-3, rng.standard_normal(8))
        assert abs(eval_response(k, 0.3) - direct_response(k, 0.3)) < 1e-12

    @given(coeffs=coeff_lists, start=st.integers(-8, 8), lam=st.floats(-10.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_conjugate_symmetry(self, coeffs, start, lam):
        k = TimeKernel(start, np.array(coeffs))
        a = eval_response(k, -lam)
        b = eval_response(k, lam).conjugate()
        assert abs(a.real - b.real) < 1e-14 and abs(a.imag - b.imag) < 1e-14

    def test_vectorized_matches_scalar(self, rng):
        k = TimeKernel(0, rng.standard_normal(5))
        lams = np.array([0.0, 0.5, -2.0])
        vec = eval_response(k, lams)
        for lam, v in zip(lams, vec):
            assert abs(v - eval_response(k, float(lam))) < 1e-15

    def test_memory_flat_in_kernel_length(self):
        # a 512 x 1025 phase matrix alone would take 8.4 MB
        k = TimeKernel(-1024, np.ones(1025))
        lam = np.linspace(-20.0, 20.0, 512) / 1024
        tracemalloc.start()
        try:
            eval_response(k, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestParseval:
    def test_random_kernels(self, rng):
        for _ in range(10):
            length = int(rng.integers(1, 24))
            k = TimeKernel(int(rng.integers(-5, 5)), rng.standard_normal(length))
            assert parseval_gap(k) < 1e-8


class TestFold:
    def test_constant(self):
        assert fold(lambda lam: np.ones_like(lam), 4, 0.123) == pytest.approx(4.0)

    def test_oscillation_cancels(self):
        g = lambda lam: np.exp(1j * lam)
        assert abs(fold(g, 2, 0.7)) < 1e-15

    def test_identity_at_gamma_one(self):
        g = lambda lam: np.cos(lam) + 2.0
        for lam in (0.0, 1.0, -2.5):
            assert fold(g, 1, lam) == g(np.asarray(lam))

    def test_integral_exchange_identity(self, rng):
        # int_{-pi}^{pi} g = gamma**-1 int_{-pi}^{pi} fold(g, gamma, .)
        x, w = gauss_legendre_panels(-math.pi, math.pi, panels=64, nodes=8)
        for gamma in (1, 2, 3, 8):
            g, _ = random_trig_poly(rng)
            lhs = np.sum(w * g(x))
            rhs = np.sum(w * fold(g, gamma, x)) / gamma
            assert abs(lhs - rhs) < 1e-9

    def test_periodicity(self, rng):
        g, _ = random_trig_poly(rng)
        gamma = 3
        a = fold(g, gamma, 0.4)
        b = fold(g, gamma, 0.4 + TWO_PI)
        assert abs(a - b) < 1e-12


class TestFamilyValidation:
    def test_gamma_must_increase(self):
        k = TimeKernel(0, np.array([1.0]))
        lv = FamilyLevel(gamma=4, kernels=(k,), center_freqs=np.zeros(1))
        with pytest.raises(ValueError):
            DecimatedFamily(levels=(lv, lv), limit_freqs=np.zeros(1), decay=1.0)

    def test_even_gamma_enforced_beyond_threshold(self):
        k = TimeKernel(0, np.array([1.0]))
        lv = FamilyLevel(gamma=3, kernels=(k,), center_freqs=np.zeros(1))
        with pytest.raises(ValueError):
            DecimatedFamily(levels=(lv,), limit_freqs=np.zeros(1), decay=1.0)
        # threshold beyond the stored levels disables the check
        fam = DecimatedFamily(levels=(lv,), limit_freqs=np.zeros(1), decay=1.0, threshold=1)
        assert fam.n_levels == 1

    def test_integer_condition_enforced(self):
        k = TimeKernel(0, np.array([1.0]))
        lv = FamilyLevel(gamma=8, kernels=(k,), center_freqs=np.array([math.pi / 3]))
        with pytest.raises(ValueError):
            DecimatedFamily(levels=(lv,), limit_freqs=np.array([math.pi / 3]), decay=1.0)

    def test_zero_limit_frequency_forces_zero_centers(self):
        k = TimeKernel(0, np.array([1.0]))
        lv = FamilyLevel(gamma=8, kernels=(k,), center_freqs=np.array([math.pi / 2]))
        with pytest.raises(ValueError):
            DecimatedFamily(levels=(lv,), limit_freqs=np.zeros(1), decay=1.0)

    def test_decay_must_exceed_half(self):
        k = TimeKernel(0, np.array([1.0]))
        lv = FamilyLevel(gamma=2, kernels=(k,), center_freqs=np.zeros(1))
        with pytest.raises(ValueError):
            DecimatedFamily(levels=(lv,), limit_freqs=np.zeros(1), decay=0.5)
        with pytest.raises(ValueError, match="decay"):
            DecimatedFamily(levels=(lv,), limit_freqs=np.zeros(1), decay=math.nan)

    def test_nan_frequencies_rejected(self):
        k = TimeKernel(0, np.array([1.0]))
        with pytest.raises(ValueError, match="center frequencies"):
            FamilyLevel(gamma=2, kernels=(k,), center_freqs=np.array([math.nan]))
        lv = FamilyLevel(gamma=2, kernels=(k,), center_freqs=np.zeros(1))
        with pytest.raises(ValueError, match="limit frequencies"):
            DecimatedFamily(levels=(lv,), limit_freqs=np.array([math.nan]), decay=1.0, strict=False)

    def test_gamma_at_least_one(self):
        k = TimeKernel(0, np.array([1.0]))
        for gamma in (0, -2):
            with pytest.raises(ValueError, match="gamma >= 1"):
                FamilyLevel(gamma=gamma, kernels=(k,), center_freqs=np.zeros(1))


class TestScaledWindowFamily:
    def test_zero_modulation_centers(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8, 16, 32])
        for lv in fam.levels:
            assert lv.center_freqs[0] == 0.0
        assert fam.limit_freqs[0] == 0.0

    def test_half_pi_snaps_exactly(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [16], math.pi / 2)
        assert fam.levels[0].center_freqs[0] == math.pi / 2

    def test_snapping_arithmetic(self):
        # 2*pi*round(10 * 1.0 / (2*pi)) / 10 = 2*pi*2/10
        assert snapped_center_freq(10, 1.0) == pytest.approx(TWO_PI * 2 / 10)
        fam = make_scaled_window_family(make_bspline_window(4), [10], 1.0)
        assert fam.levels[0].center_freqs[0] == pytest.approx(1.2566370614359172)

    def test_modulated_integer_condition_exact(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8, 16, 32], math.pi / 2)
        for lv in fam.levels:
            q = lv.gamma * lv.center_freqs[0] / TWO_PI
            assert abs(q - round(q)) < 1e-12

    def test_rejects_bad_modulation(self):
        w = make_bspline_window(4)
        with pytest.raises(ValueError):
            make_scaled_window_family(w, [8, 16], math.pi)
        with pytest.raises(ValueError):
            make_scaled_window_family(w, [8, 16], -0.1)
        with pytest.raises(ValueError, match="limit frequencies"):
            make_scaled_window_family(w, [8, 16], math.nan)

    @pytest.mark.parametrize("gammas,match", [
        ([0, 16], "gamma >= 1"),
        ([-2, 16], "gamma >= 1"),
        ([7, 16], "even"),
        ([16, 8], "strictly increasing"),
        ([], "at least one level"),
    ])
    def test_rejects_bad_ladder(self, gammas, match):
        # the ladder rules live in FamilyLevel/DecimatedFamily; gamma < 1 is refused before t / gamma
        with pytest.raises(ValueError, match=match):
            make_scaled_window_family(make_bspline_window(4), gammas)

    def test_two_frequency_needs_multiples_of_4(self):
        w = make_bspline_window(4)
        for gammas in ([8, 18], [6, 16]):
            with pytest.raises(ValueError, match="multiples of 4"):
                two_frequency_demo_family(w, gammas)

    def test_two_frequency_branches_are_the_scaled_families(self):
        w = make_bspline_window(5)
        gammas = [8, 16, 32]
        fam = two_frequency_demo_family(w, gammas)
        lam = np.linspace(-30.0, 30.0, 301)
        for branch, freq in enumerate((0.0, math.pi / 2)):
            single = make_scaled_window_family(w, gammas, freq)
            for lv, lv1 in zip(fam.levels, single.levels):
                assert lv.center_freqs[branch] == lv1.center_freqs[0]
                assert np.array_equal(lv.kernels[branch].coeffs, lv1.kernels[0].coeffs)
            assert np.array_equal(fam.limit_responses[branch](lam), single.limit_responses[0](lam))
        assert fam.name == "two-frequency:bspline5"

    def test_kernel_samples_profile(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8])
        k = fam.levels[0].kernels[0]
        t = np.arange(-8, 1)
        expected = w.evaluate(t / 8) / math.sqrt(8)
        assert np.allclose(k.coeffs, expected, atol=0)


class TestConditionChecker:
    def test_needs_two_levels(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8])
        with pytest.raises(ValueError):
            check_condition_c(fam)

    def test_moving_average_family_passes(self):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8, 16, 32])
        report = check_condition_c(fam, grid_size=256)
        assert report.frequency_conditions_ok
        assert report.rescaled_residuals is not None
        assert np.max(report.uniform_stats) < np.inf
        # rescaled responses approach the limit along the ladder
        res = report.rescaled_residuals[:, 0]
        assert res[-1] < res[0]
        assert res[-1] < 0.02

    def test_integer_violation_flagged_at_every_level(self):
        # gamma = 2^j with a fixed center pi/3: 2^j / 6 is never an integer
        w = make_bspline_window(4)
        base = make_scaled_window_family(w, [8, 16, 32])
        levels = tuple(
            FamilyLevel(gamma=lv.gamma, kernels=lv.kernels, center_freqs=np.array([math.pi / 3]))
            for lv in base.levels
        )
        fam = DecimatedFamily(
            levels=levels,
            limit_freqs=np.array([math.pi / 3]),
            decay=4.0,
            strict=False,
        )
        report = check_condition_c(fam, grid_size=64)
        assert "integer" in report.failed
        assert np.all(report.integer_residuals > 1e-9)

    def test_uniform_bound_statistic_saturates_across_levels(self):
        # the statistic climbs toward its supremum with shrinking steps;
        # boundedness of that supremum is the content of the envelope
        # condition (the level-to-level drift reaches ~15% mid-ladder
        # before saturating, so no monotone-decrease assertion is made)
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [16, 32, 64, 128, 256])
        report = check_condition_c(fam, grid_size=512)
        stats = report.uniform_stats[:, 0]
        ratios = stats[1:] / stats[:-1]
        assert np.all(stats < 1000.0)
        assert np.all(ratios < 1.15)
        assert ratios[-1] < 1.06  # drift shrinks as the ladder saturates

    def test_missing_limits_marked_unavailable(self):
        k1 = TimeKernel(0, np.array([1.0, 1.0]))
        k2 = TimeKernel(0, np.array([1.0, -1.0]))
        fam = DecimatedFamily(
            levels=(
                FamilyLevel(gamma=2, kernels=(k1,), center_freqs=np.zeros(1)),
                FamilyLevel(gamma=4, kernels=(k2,), center_freqs=np.zeros(1)),
            ),
            limit_freqs=np.zeros(1),
            decay=1.0,
        )
        report = check_condition_c(fam, grid_size=64)
        assert report.rescaled_residuals is None
        assert report.modulus_residuals is None

    @pytest.mark.parametrize("kernel", [
        TimeKernel(3, np.array([0.7])),
        TimeKernel(-2, np.array([1.0, -0.5, 2.0, 0.25, -1.5])),
        TimeKernel(-400, np.sin(np.arange(1000) / 37.0) / (1.0 + np.arange(1000) / 50.0)),
        ar1_kernel(0.99),  # 2945 taps, more than 2 * grid_size
    ])
    def test_uniform_stats_match_eval_response(self, kernel):
        grid_size = 512
        fam = DecimatedFamily(
            levels=tuple(FamilyLevel(gamma=g, kernels=(kernel,), center_freqs=np.zeros(1)) for g in (2, 4)),
            limit_freqs=np.zeros(1),
            decay=1.5,
        )
        report = check_condition_c(fam, grid_size=grid_size)
        lam = np.linspace(0.0, math.pi, grid_size, endpoint=False)
        for j, g in enumerate((2, 4)):
            direct = np.max(np.abs(eval_response(kernel, lam)) * (1.0 + g * lam) ** 1.5) / math.sqrt(g)
            assert report.uniform_stats[j, 0] == pytest.approx(direct, rel=1e-12, abs=0)

    def test_two_frequency_demo(self):
        w = make_bspline_window(4)
        fam = two_frequency_demo_family(w, [8, 16, 32])
        report = check_condition_c(fam, grid_size=128)
        assert report.frequency_conditions_ok
        assert fam.limit_freqs[1] == math.pi / 2


class TestKernelIO:
    def test_roundtrip(self, tmp_path):
        k = TimeKernel(-3, np.array([0.25, -1.5, 3.75]))
        path = tmp_path / "kernel.txt"
        path.write_text("-3\n0.25\n-1.5\n3.75\n", encoding="utf-8")
        back = read_kernel(path)
        assert back.support_start == -3
        assert np.array_equal(back.coeffs, k.coeffs)

    def test_roundtrip_via_streams(self):
        k = TimeKernel(2, np.array([1.0 / 3.0]))
        back = read_kernel(io.StringIO(f"2\n{float(k.coeffs[0])!r}\n"))
        assert back.support_start == 2
        assert back.coeffs[0] == k.coeffs[0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            read_kernel(io.StringIO("0\n"))
