import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decilab.kernels import (
    _FFT_MIN_SIDE,
    _FFT_MIN_WORK,
    _RESPONSE_TABLE,
    GRID_SIZE,
    DecimatedFamily,
    FamilyLevel,
    TimeKernel,
    _correlate,
    _fft_size,
    _powers,
    check_condition_c,
    eval_response,
    make_scaled_window_family,
    read_kernel,
    snapped_center_freq,
    two_frequency_demo_family,
)
from decilab.quadrature import gauss_legendre_panels
from decilab.simulate import ar1_kernel
from decilab.windows import Window, make_bspline_window

from conftest import random_trig_poly
from oracles import fold, parseval_gap

TWO_PI = 2.0 * math.pi

coeff_lists = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=12
)


@st.composite
def correlation_shapes(draw):
    """(long, short) lengths, neither a power of two, with long * short <= 2**23 so np.correlate stays quick."""
    not_power_of_two = st.integers(3, 1500).filter(lambda v: v & (v - 1))
    short = draw(not_power_of_two)
    long = draw(st.integers(short, max(short, min(200_000, 2 ** 23 // short))).filter(lambda v: v & (v - 1)))
    return long, short


def check_against_np_correlate(x, h, mode, work, short):
    """Bit for bit below the crossover, within 1e-12 * |x| * |h| above it."""
    got, want = _correlate(x, h, mode), np.correlate(x, h, mode)
    assert got.shape == want.shape
    if work < _FFT_MIN_WORK or short < _FFT_MIN_SIDE:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(h)


def direct_response(kernel, lam):
    """Independent term-by-term complex summation oracle."""
    total = 0.0 + 0.0j
    for t, v in enumerate(kernel.coeffs, kernel.support_start):
        total += v * cmath.exp(-1j * lam * t)
    return total / math.sqrt(TWO_PI)


class TestTimeKernel:
    def test_requires_coefficients(self):
        with pytest.raises(ValueError):
            TimeKernel(0, np.array([]))
        with pytest.raises(ValueError):
            TimeKernel(0, np.array([1.0, np.inf]))

    @pytest.mark.parametrize("start", [2.5, math.nan, -math.inf])
    def test_support_start_must_be_an_integer(self, start):
        # int() would truncate 2.5 to 2
        with pytest.raises(ValueError, match=rf"^support start {start} is not in \.\.$"):
            TimeKernel(start, np.array([1.0]))

    def test_length_and_support_end(self):
        k = TimeKernel(-2, np.array([1.0, 2.0, -3.0]))
        assert k.length == 3
        assert k.support_end == 0

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

    @pytest.mark.parametrize("length", [1, 2, 3, 15, 16, 17, 1025, 2945])
    def test_matches_direct_summation_across_chunks(self, rng, length):
        # squares and their neighbours change the block shape; 2945 taps is the AR(1) kernel at phi = 0.99
        k = ar1_kernel(0.99) if length == 2945 else TimeKernel(-(length // 3), rng.standard_normal(length))
        assert k.length == length
        chunk = _RESPONSE_TABLE // (math.isqrt(length - 1) + 1)  # lam values per power table
        lam = np.linspace(-4.0, 4.0, chunk + 2)  # the last two values fall in a second chunk
        picks = np.unique(np.r_[0:chunk:max(1, chunk // 32), chunk - 1, chunk, chunk + 1])
        got = eval_response(k, lam)[picks]
        want = np.array([direct_response(k, x) for x in lam[picks]])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_shapes(self, rng):
        k = TimeKernel(-2, rng.standard_normal(10))
        assert isinstance(eval_response(k, 0.4), complex)
        assert isinstance(eval_response(k, np.float64(0.4)), complex)
        assert isinstance(eval_response(k, np.array(0.4)), complex)
        assert eval_response(k, np.array([0.4])).shape == (1,)
        assert eval_response(k, np.zeros(0)).shape == (0,)
        grid = rng.uniform(-4.0, 4.0, (3, 5))
        values = eval_response(k, grid)
        assert values.shape == (3, 5) and values.dtype == complex
        assert np.array_equal(values.ravel(), eval_response(k, grid.ravel()))

    def test_two_pi_periodic(self, rng):
        k = TimeKernel(5, rng.standard_normal(40))
        lam = np.linspace(-math.pi, math.pi, 101)
        assert np.max(np.abs(eval_response(k, lam + TWO_PI) - eval_response(k, lam))) <= 1e-12

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

    def test_memory_is_one_copy_of_the_taps_at_a_million_taps(self):
        # the padded block copy of the taps, 8 MB, and two 1000 x 8 power tables; an 8 x 10**6 phase
        # matrix would take 128 MB
        k = TimeKernel(0, np.ones(10 ** 6))
        lam = np.linspace(0.1, 3.0, 8)
        tracemalloc.start()
        try:
            values = eval_response(k, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (8,) and np.all(np.isfinite(values))
        assert peak < k.coeffs.nbytes + 2 ** 20


class TestPowers:
    @pytest.mark.parametrize("count", [1, 2, 3, 33, 1025])
    def test_rows_match_exp_within_k_eps(self, count):
        # theta on a grid of 1/64, so k * theta is exact and np.exp rounds only once
        theta = np.arange(-256, 257) / 64.0
        table = _powers(np.exp(-1j * theta), count)
        k = np.arange(count)[:, None]
        assert table.shape == (count, theta.size)
        assert np.all(np.abs(table - np.exp(-1j * k * theta)) <= k * np.finfo(float).eps)


class TestCorrelate:
    @settings(max_examples=60, deadline=None)
    @given(shape=correlation_shapes(), more_outputs=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(100_000, 561), more_outputs=True, seed=1)  # the AR(1) phi = 0.95 series: output blocks
    @example(shape=(60_001, 301), more_outputs=False, seed=2)  # a kernel far longer than the output: tap parts
    @example(shape=(100_000, 127), more_outputs=True, seed=3)  # below the crossover on the short side
    @example(shape=(1021, 1019), more_outputs=True, seed=4)  # below the crossover on the work
    # the least block, _FFT_BLOCK points, where 4 * short is under it
    @example(shape=(100_000, 130), more_outputs=True, seed=8)
    @example(shape=(8418, 297), more_outputs=False, seed=9)
    @example(shape=(50_001, 265), more_outputs=False, seed=10)
    # 561 taps at F = 4096 leave 3536 outputs per block: whole blocks, and one output past them
    @example(shape=(3 * 3536, 561), more_outputs=True, seed=11)
    @example(shape=(3 * 3536 + 1, 561), more_outputs=True, seed=12)
    # at F = 16384 each part holds 12289 taps, so the last of 24579 holds one
    @example(shape=(24_579, 4096), more_outputs=False, seed=13)
    def test_valid_matches_np_correlate(self, shape, more_outputs, seed):
        long, short = shape
        n_out, taps = (long, short) if more_outputs else (short, long)
        rng = np.random.default_rng(seed)
        x, h = rng.standard_normal(n_out + taps - 1), rng.standard_normal(taps)
        check_against_np_correlate(x, h, "valid", n_out * taps, short)

    @pytest.mark.parametrize("n_out,taps,bound", [
        (100_000, 561, 2 * 2 ** 20),  # the output, 0.8 MB, and a few 4096-point blocks
        (4096, 2_000_000, 2 ** 20),  # a few 16384-point blocks; the taps are never copied whole
    ])
    def test_valid_memory_is_the_output_and_a_few_blocks(self, n_out, taps, bound):
        rng = np.random.default_rng(14)
        x, h = rng.standard_normal(n_out + taps - 1), rng.standard_normal(taps)
        tracemalloc.start()
        try:
            _correlate(x, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @settings(max_examples=40, deadline=None)
    @given(shape=correlation_shapes(), swap=st.booleans(), power=st.sampled_from([1, 2]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(shape=(2945, 2945), swap=False, power=2, seed=5)  # AR(1) phi = 0.99, as B(n) correlates it
    @example(shape=(1025, 1025), swap=False, power=1, seed=6)  # the two-frequency kernels at gamma 1024
    @example(shape=(5000, 129), swap=True, power=1, seed=7)
    def test_full_matches_np_correlate(self, shape, swap, power, seed):
        # the two powered kernels of moments._decimated_lags, either one the longer
        rng = np.random.default_rng(seed)
        x, h = (rng.standard_normal(size) ** power for size in (shape[::-1] if swap else shape))
        check_against_np_correlate(x, h, "full", x.size * h.size, min(shape))

    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(1, 3000), power=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1))
    # the AR(1) kernels at phi 0.98 and 0.99, as A(n) and B(n) correlate them on the diagonal
    @example(length=1448, power=1, seed=15)
    @example(length=1448, power=2, seed=16)
    @example(length=2945, power=1, seed=17)
    @example(length=2945, power=2, seed=18)
    def test_autocorrelation_matches_np_correlate(self, length, power, seed):
        # one array for both sides: above the crossover (length >= 1024) one spectrum
        x = np.random.default_rng(seed).standard_normal(length) ** power
        check_against_np_correlate(x, x, "full", length * length, length)

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("length", [1448, 2945])
    def test_autocorrelation_depends_on_values_not_on_the_object(self, length, power):
        # the AR(1) kernels at phi 0.98 and 0.99, above the crossover: one array twice, or a copy
        x = np.random.default_rng(length + power).standard_normal(length) ** power
        assert length ** 2 >= _FFT_MIN_WORK
        assert _correlate(x, x, "full").tobytes() == _correlate(x, x.copy(), "full").tobytes()

    def test_fft_size_is_the_least_5_smooth_length(self):
        limit = 10 ** 4
        smooth = np.array(sorted(2 ** a * 3 ** b * 5 ** c for a in range(16) for b in range(10) for c in range(7)))
        least = smooth[np.searchsorted(smooth, np.arange(1, limit + 1))]
        assert [_fft_size(n) for n in range(1, limit + 1)] == least.tolist()
        assert _fft_size(2 * 2945 - 1) == 6000 and _fft_size(2 * 1448 - 1) == 2916


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
        # odd gammas below the threshold are allowed, one at or past it is not
        at = {g: FamilyLevel(gamma=g, kernels=(k,), center_freqs=np.zeros(1)) for g in (3, 5, 8, 9)}
        fam = DecimatedFamily(levels=(at[3], at[5], at[8]), limit_freqs=np.zeros(1), decay=1.0, threshold=2)
        assert check_condition_c(fam).frequency_conditions_ok
        with pytest.raises(ValueError, match=r"even from level 1 on \(level 2\)"):
            DecimatedFamily(levels=(at[3], at[8], at[9]), limit_freqs=np.zeros(1), decay=1.0, threshold=1)

    @pytest.mark.parametrize("threshold", [-1, 2, 0.5, math.nan])
    def test_threshold_within_the_levels(self, threshold):
        # threshold -1 would check the last level first, and twice in check_condition_c
        k = TimeKernel(0, np.array([1.0]))
        lv = FamilyLevel(gamma=2, kernels=(k,), center_freqs=np.zeros(1))
        with pytest.raises(ValueError, match=rf"^threshold {threshold} is not in 0\.\.1$"):
            DecimatedFamily(levels=(lv,), limit_freqs=np.zeros(1), decay=1.0, threshold=threshold)

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
            DecimatedFamily(levels=(lv,), limit_freqs=np.array([math.nan]), decay=1.0)

    def test_needs_a_branch(self):
        # a files config with empty limit_freqs, kernels.<j> and freqs.<j> describes this family
        lv = FamilyLevel(gamma=2, kernels=(), center_freqs=np.zeros(0))
        with pytest.raises(ValueError, match="at least one branch"):
            DecimatedFamily(levels=(lv,), limit_freqs=np.zeros(0), decay=1.0)

    def test_gamma_at_least_one(self):
        k = TimeKernel(0, np.array([1.0]))
        # a non-integer gamma is rejected, not truncated by int()
        for gamma in (0, -2, 2.7, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"^gamma {gamma} is not in 1\.\.$"):
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
        ([0, 16], r"^gamma 0 is not in 1\.\.$"),
        ([-2, 16], r"^gamma -2 is not in 1\.\.$"),
        ([7, 16], "even"),
        ([16, 8], "strictly increasing"),
        ([], "at least one level"),
        ([16.9, 32], r"^gamma 16\.9 is not in 1\.\.$"),
        ([16, math.nan], r"^gamma nan is not in 1\.\.$"),
        ([16, math.inf], r"^gamma inf is not in 1\.\.$"),
    ])
    def test_rejects_bad_ladder(self, gammas, match):
        # the ladder rules live in FamilyLevel/DecimatedFamily; gamma < 1 is refused before t / gamma
        with pytest.raises(ValueError, match=match):
            make_scaled_window_family(make_bspline_window(4), gammas)

    def test_rejects_window_outside_the_sampled_support(self):
        # the taps cover t/gamma in [-1, 0] only, so a window on [-2, 0] would lose its left half
        w = make_bspline_window(4)
        wide = Window("wide", evaluate=lambda t: w.evaluate(np.asarray(t, dtype=float) / 2.0),
                      transform=w.transform, decay=w.decay, knots=(-2.0, 0.0), degree=w.degree)
        with pytest.raises(ValueError, match=r"window support must be contained in \[-1, 0\]"):
            make_scaled_window_family(wide, [8, 16])

    def test_two_frequency_needs_multiples_of_4(self):
        w = make_bspline_window(4)
        for gammas in ([8, 18], [6, 16], [16.9, 32], [math.nan, 32]):
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
        report = check_condition_c(fam)
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
        with pytest.raises(ValueError, match=r"gamma\*lambda not in 2\*pi\*Z at level 0"):
            DecimatedFamily(levels=levels, limit_freqs=np.array([math.pi / 3]), decay=4.0)
        # a threshold past the last level binds no condition; the residuals are reported all the same
        fam = DecimatedFamily(levels=levels, limit_freqs=np.array([math.pi / 3]), decay=4.0, threshold=3)
        report = check_condition_c(fam)
        assert report.frequency_conditions_ok
        assert np.all(report.integer_residuals > 1e-9)

    def test_uniform_bound_statistic_saturates_across_levels(self):
        # the statistic climbs toward its supremum with shrinking steps;
        # boundedness of that supremum is the content of the envelope
        # condition (the level-to-level drift reaches ~15% mid-ladder
        # before saturating, so no monotone-decrease assertion is made)
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [16, 32, 64, 128, 256])
        report = check_condition_c(fam)
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
        report = check_condition_c(fam)
        assert report.rescaled_residuals is None

    @pytest.mark.parametrize("kernel", [
        TimeKernel(3, np.array([0.7])),
        TimeKernel(-2, np.array([1.0, -0.5, 2.0, 0.25, -1.5])),
        TimeKernel(-400, np.sin(np.arange(1000) / 37.0) / (1.0 + np.arange(1000) / 50.0)),
        ar1_kernel(0.99),  # 2945 taps, more than 2 * GRID_SIZE
    ])
    def test_uniform_stats_match_eval_response(self, kernel):
        fam = DecimatedFamily(
            levels=tuple(FamilyLevel(gamma=g, kernels=(kernel,), center_freqs=np.zeros(1)) for g in (2, 4)),
            limit_freqs=np.zeros(1),
            decay=1.5,
        )
        report = check_condition_c(fam)
        lam = np.linspace(0.0, math.pi, GRID_SIZE, endpoint=False)
        for j, g in enumerate((2, 4)):
            direct = np.max(np.abs(eval_response(kernel, lam)) * (1.0 + g * lam) ** 1.5) / math.sqrt(g)
            assert report.uniform_stats[j, 0] == pytest.approx(direct, rel=1e-12, abs=0)

    def test_two_frequency_demo(self):
        w = make_bspline_window(4)
        fam = two_frequency_demo_family(w, [8, 16, 32])
        report = check_condition_c(fam)
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

    def test_roundtrip_via_streams(self, tmp_path):
        # the shortest repr of a float reads back to the same float
        k = TimeKernel(2, np.array([1.0 / 3.0]))
        path = tmp_path / "kernel.txt"
        path.write_text(f"2\n{float(k.coeffs[0])!r}\n", encoding="utf-8")
        back = read_kernel(path)
        assert back.support_start == 2
        assert back.coeffs[0] == k.coeffs[0]

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "kernel.txt"
        path.write_text("0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_kernel(path)
