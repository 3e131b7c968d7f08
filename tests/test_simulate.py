import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.special import ndtri

import decilab
from decilab import simulate
from decilab.kernels import TimeKernel, make_scaled_window_family, two_frequency_demo_family
from decilab.moments import cov_exact
from decilab.simulate import (
    AR1_TAIL,
    NoiseSpec,
    _decimated_convolve,
    ar1_kernel,
    mix_seed,
    noise_values,
    simulate_decimated,
    simulate_linear_process,
    windowed_coefficients,
)
from decilab.windows import Window, make_bspline_window

from conftest import single_level_family
from oracles import ar1_truncation_loop

GAUSS = NoiseSpec("gaussian")
RADEMACHER = NoiseSpec("rademacher")
UNIFORM = NoiseSpec("scaled_uniform")


def bruteforce_decimated(family, level, n, noise, seed):
    """Z[i, k] = sum_t v_i(gamma*k - t) xi_t as a sum over t of every noise value a branch touches."""
    lv = family.levels[level]
    g = lv.gamma
    z = np.empty((len(lv.kernels), n))
    for i, kern in enumerate(lv.kernels):
        lo = -kern.support_end
        xi = noise_values(noise, seed, lo, g * (n - 1) - kern.support_start + 1)
        for k in range(n):
            acc = []
            for t in range(g * k - kern.support_end, g * k - kern.support_start + 1):
                acc.append(kern.coeffs[g * k - t - kern.support_start] * xi[t - lo])
            z[i, k] = math.fsum(acc)
    return z


_LONG = np.random.default_rng(3).standard_normal(600)
# (family, n) for the block-size test: rows per block 1 .. 3 around the default, n past and below them
BLOCK_CASES = {
    "two_frequency_g4": (two_frequency_demo_family(make_bspline_window(4), [4]), 37),
    "two_frequency_g16": (two_frequency_demo_family(make_bspline_window(4), [16]), 23),
    "two_frequency_g16_n1": (two_frequency_demo_family(make_bspline_window(4), [16]), 1),
    # support ends 1 and 12, lengths 7 and 11, Q = 2 and 3 at gamma 4
    "unequal_branches": (single_level_family([TimeKernel(-5, np.linspace(-1.0, 1.0, 7)),
                                              TimeKernel(2, np.cos(np.arange(11.0)))], gamma=4), 29),
    # L > gamma**2: the full-rate correlation path, below and (at the default block) above its FFT crossover
    "long_kernel": (single_level_family([TimeKernel(-3, _LONG[:40] / np.linalg.norm(_LONG[:40]))], gamma=4), 31),
    "long_kernel_fft": (single_level_family([TimeKernel(5, _LONG / np.linalg.norm(_LONG))], gamma=2), 900),
}


class TestNoise:
    def test_kurtosis_excess_values(self):
        assert GAUSS.kurtosis_excess == 0.0
        assert RADEMACHER.kurtosis_excess == -2.0
        assert UNIFORM.kurtosis_excess == -1.2

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec("cauchy")

    def test_rademacher_support(self):
        x = noise_values(RADEMACHER, 11, 0, 4096)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_scaled_uniform_support_and_moments(self):
        x = noise_values(UNIFORM, 12, 0, 200_000)
        assert np.all(np.abs(x) <= math.sqrt(3.0))
        assert abs(np.mean(x)) < 0.01
        assert abs(np.var(x) - 1.0) < 0.01
        # fourth moment 9/5, so excess kurtosis -6/5
        assert abs(np.mean(x ** 4) - 1.8) < 0.02

    def test_gaussian_sample_kurtosis(self):
        x = noise_values(GAUSS, 13, 0, 1_000_000)
        kurt = np.mean(x ** 4) - 3.0 * np.var(x) ** 2
        assert abs(kurt) < 0.02

    def test_determinism(self):
        a = noise_values(GAUSS, 99, 0, 1000)
        b = noise_values(GAUSS, 99, 0, 1000)
        assert np.array_equal(a, b)
        c = noise_values(GAUSS, 100, 0, 1000)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 5, 2 ** 63 + 7])
    @pytest.mark.parametrize("lo", [-6, -1, 0, 1, 2, 3])
    @pytest.mark.parametrize("count", [1, 100_000])
    def test_stream_is_defined_by_the_raw_philox_word(self, seed, lo, count):
        # xi_t comes from the raw word at position t + 2**62 of the Philox
        # stream keyed by the seed; pins the values should numpy's
        # Generator.random ever stop computing (word >> 11) * 2**-53
        pos = lo + 2 ** 62
        bg = np.random.Philox(key=seed)
        bg.advance(pos // 4)
        raw = bg.random_raw(pos % 4 + count)[pos % 4:]
        u = (raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54
        expected = {
            GAUSS: ndtri(u),
            UNIFORM: math.sqrt(3.0) * (2.0 * u - 1.0),
            RADEMACHER: 2.0 * (raw >> np.uint64(63)).astype(float) - 1.0,
        }
        for spec, values in expected.items():
            assert noise_values(spec, seed, lo, lo + count).tobytes() == values.tobytes()

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

    @pytest.mark.parametrize("spec", [GAUSS, RADEMACHER, UNIFORM], ids=lambda s: s.distribution)
    @pytest.mark.parametrize("size,lo,hi", [(5, 0, 10), (10, 0, 5), (5, 3, 3)], ids=["short", "long", "empty_range"])
    def test_out_of_another_length_is_rejected(self, spec, size, lo, hi):
        out = np.full(size, 7.0)
        with pytest.raises(ValueError, match=f"out holds {size} values, not hi - lo = {hi - lo}"):
            noise_values(spec, 3, lo, hi, out=out)
        assert np.all(out == 7.0)  # rejected before drawing

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # -1 was masked onto the stream of 2**64 - 1
        with pytest.raises(ValueError, match=rf"^seed {seed} is not in 0\.\.{2 ** 64 - 1}$"):
            noise_values(GAUSS, seed, 0, 10)
        with pytest.raises(ValueError, match=rf"^seed {seed} is not in 0\.\.{2 ** 64 - 1}$"):
            mix_seed(seed, 1)

    @pytest.mark.parametrize("seed", [2.5, 1e-3, True, np.True_])
    def test_seed_that_is_not_an_integer_is_rejected(self, seed):
        # 2.5 was truncated onto the stream of seed 2, and a bool read as seed 1
        with pytest.raises(ValueError, match=rf"^seed {seed} is not in 0\.\.{2 ** 64 - 1}$"):
            noise_values(GAUSS, seed, 0, 4)
        with pytest.raises(ValueError, match=rf"^seed {seed} is not in 0\.\.{2 ** 64 - 1}$"):
            mix_seed(seed, 1)

    @pytest.mark.parametrize("index, message", [(1.5, rf"is not in 0\.\.{2 ** 64 - 1}"),
                                                (-1, rf"is not in 0\.\.{2 ** 64 - 1}"),
                                                (2 ** 64, rf"is not in 0\.\.{2 ** 64 - 1}")])
    def test_replicate_index_that_is_not_a_64_bit_integer_is_rejected(self, index, message):
        # mix_seed(2, 1.5) was mix_seed(2, 1), and -1 and 2**64 were masked onto 2**64 - 1 and 0
        with pytest.raises(ValueError, match=f"^replicate index {index} {message}$"):
            mix_seed(2, index)

    def test_integral_float_seed_and_index_are_their_integers(self):
        assert noise_values(GAUSS, 2.0, 0, 4).tobytes() == noise_values(GAUSS, 2, 0, 4).tobytes()
        assert mix_seed(2.0, 1.0) == mix_seed(2, 1)

    @pytest.mark.parametrize("lo, hi", [(0, 2.5), (0.5, 3), (0, float("nan"))])
    def test_bounds_that_are_not_integers_are_rejected(self, lo, hi):
        # (0, 2.5) was truncated to 2 values
        with pytest.raises(ValueError, match=r"^(lo|hi) \S+ is not in "):
            noise_values(GAUSS, 3, lo, hi)

    def test_largest_seed_keys_philox_with_itself(self):
        raw = np.random.Philox(key=2 ** 64 - 1, counter=2 ** 60).random_raw(8)
        assert noise_values(RADEMACHER, 2 ** 64 - 1, 0, 8).tobytes() == (
            2.0 * (raw >> np.uint64(63)).astype(float) - 1.0).tobytes()
        assert 0 <= mix_seed(2 ** 64 - 1, 1) < 2 ** 64

    def test_thread_generator_gives_the_words_of_a_fresh_philox(self):
        # each thread sets the state of its one generator in place of building a keyed Philox per call
        cases = [(seed, lo) for seed in (0, 5, 2 ** 63 + 7, 2 ** 64 - 1) for lo in (-2 ** 62, -6, -1, 0, 3, 2 ** 40 + 1)]
        expected = {}
        for seed, lo in cases:
            i0 = lo + 2 ** 62
            expected[seed, lo] = np.random.Philox(counter=i0 >> 2, key=seed).random_raw(i0 % 4 + 50)[i0 % 4:]
        found = {}

        def draw(tag):
            for seed, lo in cases * 3:  # repeats reuse the thread's generator
                i0 = lo + 2 ** 62
                bg, _ = simulate._philox(i0 >> 2, seed)
                bg.random_raw(i0 % 4)
                found[tag, seed, lo] = bg.random_raw(50)

        threads = [threading.Thread(target=draw, args=(tag,)) for tag in range(3)]  # more threads than cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(found) == 3 * len(cases)
        for (tag, seed, lo), words in found.items():
            assert words.tobytes() == expected[seed, lo].tobytes(), (tag, seed, lo)

    def test_mix_seed_spreads(self):
        seeds = {mix_seed(5, r) for r in range(1000)}
        assert len(seeds) == 1000
        assert mix_seed(5, 1) != mix_seed(6, 1)


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
        q_len = -(-kern.length // gamma)
        # every index first + gamma*k - s touches, plus slack values either side; the view holds the
        # (n + Q - 1)*gamma values _decimated_convolve reads, the last gamma*Q - L of them on zero taps
        lo = first - kern.support_end - slack
        hi = first - kern.support_end + gamma * (n + q_len - 1) + slack
        xi = np.random.default_rng(seed).standard_normal(hi - lo)
        # the view starts at the index v(support_end) weighs in Z_0
        z = _decimated_convolve(xi[first - kern.support_end - lo:], kern, gamma, n)
        assert z.shape == (n,)
        for k in range(n):
            acc = 0.0
            for t in range(lo, hi):
                u = first + gamma * k - t  # the tap index; v(u) is zero off the support
                if kern.support_start <= u <= kern.support_end:
                    acc += kern.coeffs[u - kern.support_start] * xi[t - lo]
            assert abs(acc - z[k]) < 1e-12

    @pytest.mark.parametrize("gamma,length,n", [
        (1, 561, 20_000),  # many more outputs than taps
        (1, 50_001, 300),  # a kernel far longer than the output
        (3, 9_000, 2_000),  # Q = 3000 > gamma: every third output of one full-rate correlation
        (4, 4_097, 1_500),  # gamma does not divide L
    ])
    def test_long_kernels_match_direct_correlation(self, gamma, length, n):
        # above the crossover of kernels._correlate, against one direct correlation sampled every gamma
        rng = np.random.default_rng(length)
        kern = TimeKernel(-7, rng.standard_normal(length))
        xi = rng.standard_normal(gamma * (n - 1) + length + 3)
        want = np.correlate(xi[:gamma * (n - 1) + length], kern.coeffs[::-1], "valid")[::gamma]
        z = _decimated_convolve(xi, kern, gamma, n)
        assert np.max(np.abs(z - want)) <= 1e-12 * np.linalg.norm(xi) * np.linalg.norm(kern.coeffs)


class TestSimulateDecimated:
    def test_identity_filter_reproduces_noise(self):
        fam = single_level_family([TimeKernel(0, np.array([1.0]))], gamma=1)
        z = simulate_decimated(fam, 0, 64, GAUSS, 5)
        xi = noise_values(GAUSS, 5, 0, 64)
        assert np.array_equal(z[0], xi)

    def test_shared_noise_identical_branches(self):
        k = TimeKernel(-2, np.array([0.5, 1.0, -0.25]))
        fam = single_level_family([k, k], gamma=4)
        z = simulate_decimated(fam, 0, 32, GAUSS, 17)
        assert np.array_equal(z[0], z[1])

    def test_matches_bruteforce_convolution(self, rng):
        w = make_bspline_window(4)
        fam = make_scaled_window_family(w, [8])
        z = simulate_decimated(fam, 0, 4, GAUSS, 23)
        assert np.max(np.abs(z - bruteforce_decimated(fam, 0, 4, GAUSS, 23))) < 1e-12

    @pytest.mark.parametrize("spec", [GAUSS, RADEMACHER, UNIFORM], ids=lambda s: s.distribution)
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_block_size_moves_outputs_by_rounding_only(self, monkeypatch, case, spec):
        fam, n = BLOCK_CASES[case]
        g = fam.levels[0].gamma
        default = simulate_decimated(fam, 0, n, spec, 61)
        oracle = bruteforce_decimated(fam, 0, n, spec, 61)
        assert default.shape == (len(fam.levels[0].kernels), n)
        assert np.max(np.abs(default - oracle)) < 1e-12
        for block in (1, g - 1, g, g + 1, 3 * g + 1):
            monkeypatch.setattr(simulate, "_NOISE_BLOCK", block)
            z = simulate_decimated(fam, 0, n, spec, 61)
            # BLAS may sum a row in another order where it falls elsewhere in a block
            assert np.max(np.abs(z - default)) < 1e-12, block
            assert np.max(np.abs(z - oracle)) < 1e-12, block

    def test_paper_scale_memory(self):
        # 4000 * 1024 noise values (33 MB) pass through a buffer of about _NOISE_BLOCK values
        fam = two_frequency_demo_family(make_bspline_window(4), [1024])
        n = 4000
        tracemalloc.start()
        try:
            z = simulate_decimated(fam, 0, n, GAUSS, 43)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.shape == (2, n)
        assert peak < 2 ** 20 + z.nbytes
        for k in (0, n - 1):  # Z[i, k] = sum_t v_i(gamma*k - t) xi_t at both ends of the range
            for i, kern in enumerate(fam.levels[0].kernels):
                xi = noise_values(GAUSS, 43, 1024 * k - kern.support_end, 1024 * k - kern.support_start + 1)
                assert abs(z[i, k] - np.dot(kern.coeffs[::-1], xi)) < 1e-12

    def test_determinism_and_shape(self):
        k = TimeKernel(0, np.array([1.0, -1.0]))
        fam = single_level_family([k], gamma=2)
        a = simulate_decimated(fam, 0, 16, RADEMACHER, 3)
        b = simulate_decimated(fam, 0, 16, RADEMACHER, 3)
        assert np.array_equal(a, b)
        assert a.shape == (1, 16)

    def test_agrees_with_linear_process_at_gamma_one(self):
        a = ar1_kernel(0.4)
        fam = single_level_family([a], gamma=1)
        z = simulate_decimated(fam, 0, 33, RADEMACHER, 9)[0]
        x = simulate_linear_process(a, 32, RADEMACHER, 9)
        # the linear process starts at u = 1, the decimated grid at k = 0
        assert np.allclose(z[1:], x, atol=0, rtol=0)


# simulate_linear_process kernels on the block-product path (L = 1) and the full-rate correlation path (L > gamma = 1)
LINEAR_KERNELS = {"identity": TimeKernel(1, np.array([1.0])), "short": TimeKernel(-2, np.array([0.5, -1.0, 0.25])),
                    "ar1": ar1_kernel(0.95)}


class TestLinearProcess:
    @pytest.mark.parametrize("spec", [RADEMACHER, UNIFORM, GAUSS], ids=lambda s: s.distribution)
    def test_impulse_kernel_gives_noise(self, spec):
        k = TimeKernel(0, np.array([1.0]))
        x = simulate_linear_process(k, 50, spec, 21)
        if spec is GAUSS:  # X_u takes the u-th standard_normal value, u = 1 .. n
            want = simulate._philox(0, 21)[1].standard_normal(50)
        else:
            want = noise_values(spec, 21, 1, 51)
        assert np.array_equal(x, want)

    def test_truncated_ar1_close_to_recursive_oracle(self):
        phi = 0.5
        kern = ar1_kernel(phi)
        t_len = kern.length
        n = 20_000
        x = simulate_linear_process(kern, n, RADEMACHER, 31)
        # recursion y_u = phi*y_{u-1} + xi_u seeded far enough back that the
        # initialization transient is below the truncation error
        lo = 1 - 3 * t_len
        xi = noise_values(RADEMACHER, 31, lo, n + 1)
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
        # X_u = sum_t a(u - t) xi_t at both ends of the range, xi_t the (t + L - 2)-th standard_normal value
        values = simulate._philox(0, 41)[1].standard_normal(n + kern.length - 1)
        for u in (1, n):
            xi = values[u - 1:u - 1 + kern.length]
            assert abs(x[u - 1] - np.dot(kern.coeffs[::-1], xi)) < 1e-12

    @pytest.mark.parametrize("spec", [RADEMACHER, UNIFORM, GAUSS], ids=lambda s: s.distribution)
    def test_same_seed_bitwise_identical(self, spec):
        k = ar1_kernel(0.3)
        assert simulate_linear_process(k, 100, spec, 77).tobytes() == simulate_linear_process(k, 100, spec, 77).tobytes()

    @pytest.mark.parametrize("spec", [RADEMACHER, UNIFORM], ids=lambda s: s.distribution)
    @pytest.mark.parametrize("name", sorted(LINEAR_KERNELS))
    def test_other_noise_convolves_the_stream(self, name, spec):
        k = LINEAR_KERNELS[name]
        xi = noise_values(spec, 17, 1 - k.support_end, 301 - k.support_start)
        assert simulate_linear_process(k, 300, spec, 17).tobytes() == _decimated_convolve(xi, k, 1, 300).tobytes()

    @pytest.mark.parametrize("name", sorted(LINEAR_KERNELS))
    def test_gaussian_convolves_standard_normal(self, name):
        k = LINEAR_KERNELS[name]
        xi = simulate._philox(0, 17)[1].standard_normal(300 + k.length - 1)
        x = simulate_linear_process(k, 300, GAUSS, 17)
        assert x.tobytes() == _decimated_convolve(xi, k, 1, 300).tobytes()
        stream = noise_values(GAUSS, 17, 1 - k.support_end, 301 - k.support_start)
        assert not np.array_equal(x, _decimated_convolve(stream, k, 1, 300))  # not the stream's xi_t

    @pytest.mark.parametrize("spec", [RADEMACHER, UNIFORM, GAUSS], ids=lambda s: s.distribution)
    def test_identity_kernel_reads_xi_0_to_n(self, spec):
        # specdens' white series: X_u = xi_{u-1}, u = 1 .. n
        x = simulate_linear_process(TimeKernel(1, np.array([1.0])), 500, spec, 23)
        if spec is GAUSS:
            want = simulate._philox(0, 23)[1].standard_normal(500)
        else:
            want = noise_values(spec, 23, 0, 500)
        assert x.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2.5])
    def test_gaussian_rejects_a_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match=f"^seed {seed} is not in 0..{2 ** 64 - 1}$"):
            simulate_linear_process(ar1_kernel(0.5), 10, GAUSS, seed)


class TestAr1Truncation:
    @pytest.mark.parametrize("tail", [AR1_TAIL])
    @pytest.mark.parametrize("phi", [sign * p for p in (1e-3, 0.5, 0.95, 0.99, 0.999, 0.9999) for sign in (1, -1)])
    def test_matches_the_loop(self, phi, tail):
        t_max = ar1_truncation_loop(phi, tail)
        kern = ar1_kernel(phi)
        assert kern.length == t_max + 1
        assert kern.coeffs.tobytes() == (phi ** np.arange(t_max + 1)).tobytes()

    def test_long_kernel_builds_quickly(self):
        # 34 192 186 taps; stepping t up from 0 takes about 25 s
        code = "from decilab.simulate import ar1_kernel; print(ar1_kernel(0.999999).length)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
                              env={**os.environ, "PYTHONPATH": str(Path(decilab.__file__).resolve().parents[1])})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "34192186"  # the loop's count


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
            knots=(-1.0, 0.0),
            degree=0,
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
        with pytest.raises(ValueError, match=r"^gamma 4\.5 is not in 1\.\.$"):  # not truncated to 4
            windowed_coefficients(np.ones(30), w, 4.5)

    def test_rejects_bad_support(self):
        bad = Window(
            name="wide",
            evaluate=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            transform=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            decay=4.0,
            knots=(-2.0, 0.0),
            degree=0,
        )
        with pytest.raises(ValueError, match=r"contained in \[-1, 0\]"):
            windowed_coefficients(np.ones(30), bad, 4)

    @pytest.mark.parametrize("gamma", [8, 16, 64])
    @pytest.mark.parametrize("spec", [GAUSS, RADEMACHER], ids=lambda s: s.distribution)
    def test_is_the_window_family_applied_to_the_series(self, spec, gamma):
        # x_u = xi_u for u = 1 .. n; rows 0 and n_j - 1 may read the zero padding in place of xi_0, xi_{n+1}
        w = make_bspline_window(4)
        n_j = 12
        n = n_j * gamma - 1
        z = simulate_decimated(make_scaled_window_family(w, [gamma]), 0, n_j, spec, 41)[0]
        coeffs = windowed_coefficients(noise_values(spec, 41, 1, n + 1), w, gamma)
        assert coeffs.size == n_j
        assert coeffs[1:-1].tobytes() == z[1:-1].tobytes()

    def test_rejects_too_short_series(self):
        w = make_bspline_window(4)
        with pytest.raises(ValueError):
            windowed_coefficients(np.ones(6), w, 8)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_series(self, bad):
        x = np.ones(30)
        x[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            windowed_coefficients(x, make_bspline_window(4), 4)


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
            z = simulate_decimated(fam, 0, 2, GAUSS, mix_seed(404, r))
            z1[r], z2[r] = z[0, 0], z[1, 1]
            prods[r] = z1[r] * z2[r]
        emp = np.mean(prods) - np.mean(z1) * np.mean(z2)
        se = np.std(prods) / math.sqrt(reps)
        assert abs(emp - exact) < 4.0 * se


# (family, level) whose Gaussian level is a reduction: r < gamma nonzero polyphase rows
_FILES_RNG = np.random.default_rng(11)


def _unit_taps(length):
    taps = _FILES_RNG.standard_normal(length)
    return taps / np.linalg.norm(taps)


def driven_by_standard_normal(lv, n, seed):
    """Outputs 0 .. n-1 of a level fed, in stream order, by standard_normal of a fresh Philox keyed by the seed."""
    _, offsets, reach = lv._stream_layout()
    xi = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n - 1) * lv.gamma + reach)
    return np.array([_decimated_convolve(xi[o:], k, lv.gamma, n) for o, k in zip(offsets, lv.kernels)])


def standard_normal_fill(seed):
    """A _level_outputs fill writing the next standard_normal values of the thread's Philox keyed by the seed."""
    gen = simulate._philox(0, seed)[1]
    return lambda lo, out: gen.standard_normal(out=out)


REDUCED_CASES = {
    **{f"two_frequency_g{g}": (two_frequency_demo_family(make_bspline_window(4), [g]), 0)
       for g in (8, 16, 64, 256, 1024)},
    "bspline_ma_modulated": (make_scaled_window_family(make_bspline_window(3), [32, 128], 1.0), 1),
    # files-style kernels: different support starts and lengths, two and three branches
    "files_two_branches": (single_level_family([TimeKernel(-7, _unit_taps(19)),
                                                TimeKernel(3, _unit_taps(40))], gamma=32), 0),
    "files_three_branches": (single_level_family([TimeKernel(0, _unit_taps(5)),
                                                  TimeKernel(-60, _unit_taps(70)),
                                                  TimeKernel(-20, _unit_taps(33))], gamma=24), 0),
}
# 2 dense branches at gamma 2: N*Q = 6 nonzero rows, so no reduction
DENSE_GAMMA2 = single_level_family([TimeKernel(-1, _unit_taps(5)), TimeKernel(2, _unit_taps(4))], gamma=2)


class TestGaussianLevel:
    @pytest.mark.parametrize("case", sorted(REDUCED_CASES))
    def test_every_lag_covariance_is_the_original(self, case):
        fam, j = REDUCED_CASES[case]
        lv = fam.levels[j]
        red = lv.gaussian_level
        assert red.gamma < lv.gamma
        assert red.gaussian_level is red and lv.gaussian_level is red  # computed once per level object
        reduced = single_level_family(red.kernels, red.gamma)
        q_len = -(-lv._stream_layout()[2] // lv.gamma)
        for i in range(fam.n_branches):
            for ip in range(fam.n_branches):
                for lag in range(1 - q_len, q_len):
                    exact = cov_exact(fam, j, i, ip, 0, lag)
                    assert cov_exact(reduced, 0, i, ip, 0, lag) == pytest.approx(exact, rel=0, abs=1e-14)

    def test_draws_r_values_per_output(self):
        w = make_bspline_window(4)
        assert [lv.gaussian_level.gamma for lv in two_frequency_demo_family(w, [8, 64, 1024]).levels] == [2, 2, 2]
        assert [lv.gaussian_level.gamma for lv in make_scaled_window_family(w, [8, 64, 1024]).levels] == [1, 1, 1]

    def test_level_with_gamma_nonzero_rows_is_its_own(self):
        # not reduced, but still fed the standard_normal values
        lv = DENSE_GAMMA2.levels[0]
        assert lv.gaussian_level is lv
        z = simulate._level_outputs(lv, 40, standard_normal_fill(9))
        assert z.tobytes() == driven_by_standard_normal(lv, 40, 9).tobytes()

    def test_all_zero_level_is_its_own(self):
        fam = single_level_family([TimeKernel(0, np.zeros(9))], gamma=4)
        assert fam.levels[0].gaussian_level is fam.levels[0]

    def test_law_only_draws_from_the_reduced_level(self):
        fam, _ = REDUCED_CASES["two_frequency_g256"]
        z = simulate._level_outputs(fam.levels[0].gaussian_level, 30, standard_normal_fill(4))
        assert z.tobytes() == driven_by_standard_normal(fam.levels[0].gaussian_level, 30, 4).tobytes()
        assert not np.array_equal(z, simulate_decimated(fam, 0, 30, GAUSS, 4))

    @pytest.mark.parametrize("fam, j", [REDUCED_CASES["two_frequency_g256"], REDUCED_CASES["files_three_branches"],
                                        (DENSE_GAMMA2, 0)], ids=["two_frequency_g256", "files_three_branches", "dense"])
    def test_law_only_is_the_same_for_any_block_size(self, monkeypatch, fam, j):
        # every block size feeds the same ordered values; BLAS may sum a row in another order where it falls
        # elsewhere in a block, so outputs match the one-block oracle to rounding
        want = driven_by_standard_normal(fam.levels[j].gaussian_level, 300, 13)
        for block in (7, 64, 1 << 15):
            monkeypatch.setattr(simulate, "_NOISE_BLOCK", block)
            z = simulate._level_outputs(fam.levels[j].gaussian_level, 300, standard_normal_fill(13))
            assert np.max(np.abs(z - want)) < 1e-12, block
