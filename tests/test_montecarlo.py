import concurrent.futures
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import chdtr

import decilab
from decilab import montecarlo, simulate
from decilab.kernels import TimeKernel, make_scaled_window_family, snapped_center_freq
from decilab.moments import a_term, b_term, case_constant, cov_exact, cov_of_square_sums, gamma_limit, limit_cross_cov
from decilab.montecarlo import KS_99, convergence_sweep, empirical_cov, normality_report, replicate_sums
from decilab.simulate import NoiseSpec, mix_seed, simulate_decimated, simulate_linear_process
from decilab.specdens import check_rate_condition, leakage_integral
from decilab.windows import bspline_value, make_bspline_window

from conftest import single_level_family

GAUSS = NoiseSpec("gaussian")
RADEMACHER = NoiseSpec("rademacher")


class TestNormalityReport:
    @pytest.mark.parametrize("n", [2, 7, 250, 1000])
    def test_ks_distance_matches_scipy_kstest(self, rng, n):
        x = 1.3 * rng.standard_normal(n) + 0.2
        rep = normality_report(x)
        z = (x - np.mean(x)) / np.std(x)
        assert rep.ks_distance == pytest.approx(stats.kstest(z, "norm").statistic, rel=0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_looks_normal_separates_normal_from_exponential(self, seed):
        # at 2000 samples the KS band KS_99/sqrt(n) is 0.036; an exponential sample sits near 0.16
        gen = np.random.default_rng(seed)
        assert normality_report(gen.standard_normal(2000)).looks_normal
        assert not normality_report(gen.exponential(size=2000)).looks_normal

    def test_constant_sample_does_not_look_normal(self):
        rep = normality_report(np.full(2000, 3.0))
        assert rep.degenerate and not rep.looks_normal


def test_import_loads_neither_scipy_stats_nor_signal():
    # each costs set-up time on every run; scipy.special waits for the first Gaussian draw or KS distance
    src = str(Path(decilab.__file__).resolve().parents[1])
    code = ("import sys, decilab, decilab.cli; "
            "print([m for m in ('scipy.special', 'scipy.stats', 'scipy.signal') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_first_gaussian_draw_from_pool_threads():
    # three threads race to import numpy.random and key their first Philox: 150 replicates at n 2100 of one
    # 6-tap kernel over Q = 3 blocks of gamma 2 (not reduced under Gaussian noise) are 10 chunks of 15; law-only draws
    # never import scipy.special
    src = str(Path(decilab.__file__).resolve().parents[1])
    code = "\n".join([
        "import sys",
        "import decilab",
        "sys.setswitchinterval(1e-6)",
        "level = decilab.FamilyLevel(2, [decilab.TimeKernel(0, [6 ** -0.5] * 6)], [0.0])",
        "fam = decilab.DecimatedFamily([level], [0.0], 1.0, threshold=1)",
        "noise = decilab.NoiseSpec('gaussian')",
        "loaded = 'numpy.random' in sys.modules",
        "threaded = decilab.replicate_sums(fam, 0, 2100, noise, 150, 77, workers=3)",
        "serial = decilab.replicate_sums(fam, 0, 2100, noise, 150, 77, workers=1)",
        "print(loaded, threaded.tobytes() == serial.tobytes(), 'scipy.special' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False True False"


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


# one kernel over Q = 3 blocks of gamma 2, not reduced under Gaussian noise: Gaussian replicates of it are drawn
# by the chunked pool, not by the Wishart draw
LONG_KERNEL = single_level_family([TimeKernel(0, np.full(6, 6 ** -0.5))], gamma=2)


def chunk_draw(family, level, n, noise, seed):
    """The (N, n) outputs of one replicate_sums chunk: the realization of xi_t, or under Gaussian noise the
    level's _gaussian_blocks fed the standard_normal values of a Philox keyed by the seed."""
    if noise is not GAUSS:
        return simulate_decimated(family, level, n, noise, seed)
    gen = simulate._philox(0, seed)
    blocks = family.level(level)._gaussian_blocks
    return simulate._level_outputs(blocks, n, lambda lo, out: gen.standard_normal(out=out))


def chunked_sums(family, level, n, noise, seed, stride, sizes):
    """replicate_sums rebuilt chunk by chunk: row b of chunk c is n**-0.5 * (sum_k Z_k**2 - n * E Z**2) over the
    outputs b*stride .. b*stride + n - 1 of one chunk_draw at mix_seed(seed, c), chunk c holding sizes[c] rows."""
    centers = np.array([cov_exact(family, level, i, i, 0, 0) for i in range(family.n_branches)])
    rows = []
    for c, size in enumerate(sizes):
        z = chunk_draw(family, level, (size - 1) * stride + n, noise, mix_seed(seed, c))
        rows += [(np.sum(z[:, b * stride:b * stride + n] ** 2, axis=1) - n * centers) * (1.0 / np.sqrt(n))
                 for b in range(size)]
    return np.array(rows)


class TestReplicateRunner:
    def test_worker_count_invariance(self, monkeypatch):
        # 301 replicates of 44 values (a stride of 22 outputs of gamma 2 at n 20) in 7 chunks of at most 50,
        # split unevenly over 2 and over 3 threads
        monkeypatch.setattr(montecarlo, "_CHUNK", 50 * 44)
        runs = [replicate_sums(LONG_KERNEL, 0, 20, GAUSS, 301, 77, workers=w) for w in (1, 2, 3)]
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes()

    @pytest.mark.parametrize("workers", [0, -3, 2.5, 1.9, True, np.True_])  # not truncated to 2, 1, 1, 1
    def test_rejects_workers_below_one(self, two_freq, workers):
        # checked although these Gaussian replicates are one Wishart draw on the calling thread
        message = rf"^workers {re.escape(str(workers))} is not in 1\.\.$"
        with pytest.raises(ValueError, match=message):
            replicate_sums(two_freq, 1, 5, GAUSS, 100, 3, workers=workers)
        with pytest.raises(ValueError, match=message):
            convergence_sweep(two_freq, [0, 1], 5, GAUSS, 100, 3, workers=workers)

    def test_library_does_not_read_the_thread_variable(self, monkeypatch):
        # DECILAB_THREADS is the CLI's setting: the library runs its default of one thread whatever it holds
        serial = replicate_sums(LONG_KERNEL, 0, 5, GAUSS, 100, 3)
        monkeypatch.setenv("DECILAB_THREADS", "abc")
        assert replicate_sums(LONG_KERNEL, 0, 5, GAUSS, 100, 3).tobytes() == serial.tobytes()
        assert len(convergence_sweep(LONG_KERNEL, [0], 5, GAUSS, 100, 3)) == 1

    def test_threads_capped_by_replicates(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 1)  # one replicate a chunk
        serial = replicate_sums(LONG_KERNEL, 0, 5, GAUSS, 100, 3, workers=1)
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
        capped = replicate_sums(LONG_KERNEL, 0, 5, GAUSS, 100, 3, workers=10_000)
        assert pool_sizes == [100]
        assert capped.tobytes() == serial.tobytes()

    @pytest.mark.parametrize("noise", [GAUSS, RADEMACHER], ids=["gaussian_reduced_level", "rademacher_stream"])
    def test_rows_are_centered_by_the_exact_expectation(self, two_freq, noise, monkeypatch):
        # chunked_sums with stride = n + Q - 1 on the array drawn; 30 replicates a chunk
        n, seed = 20, 77
        fam, level = (LONG_KERNEL, 0) if noise is GAUSS else (two_freq, 1)
        blocks = fam.level(level)._gaussian_blocks if noise is GAUSS else fam.level(level)._blocks[1]
        stride = n - 1 + blocks.shape[1]
        assert (blocks.shape[2], stride) == ((2, 22) if noise is GAUSS else (32, 21))  # Q = 3 blocks of 2, 2 of 32
        monkeypatch.setattr(montecarlo, "_CHUNK", 30 * stride * blocks.shape[2])
        samples = replicate_sums(fam, level, n, noise, 100, seed)
        assert isinstance(samples, np.ndarray) and samples.shape == (100, fam.n_branches)
        assert samples.tobytes() == chunked_sums(fam, level, n, noise, seed, stride, [30, 30, 30, 10]).tobytes()

    @pytest.mark.parametrize("noise", [GAUSS, RADEMACHER], ids=lambda s: s.distribution)
    def test_costly_gap_draws_each_replicate_alone(self, noise):
        # a kernel over Q = 256 blocks of gamma 4: the 255 dropped outputs of a chunked replicate would cost
        # 255 * 1024 > _GAP multiply-adds, so replicate r is one n-output draw at mix_seed(seed, r)
        fam = single_level_family([TimeKernel(-5, np.linspace(1.0, 2.0, 1024))], gamma=4)
        n, seed = 10, 5
        samples = replicate_sums(fam, 0, n, noise, 100, seed)
        center = cov_exact(fam, 0, 0, 0, 0, 0)
        expected = [(np.sum(chunk_draw(fam, 0, n, noise, mix_seed(seed, r)) ** 2, axis=1)
                     - n * center) * (1.0 / np.sqrt(n)) for r in range(100)]
        assert samples.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("noise", [GAUSS, RADEMACHER], ids=lambda s: s.distribution)
    def test_gap_is_priced_at_the_nonzero_entries_of_the_array(self, noise):
        # taps on 0..3 and -1003..-1000 at gamma 4: 8 nonzero taps in an array of 252 blocks, and a Gaussian
        # reduction of 252 blocks of 3 with 9 nonzero entries. The 251 dropped outputs cost 251 * 8 and 251 * 9
        # multiply-adds, under _GAP, so 100 replicates at n 10 come in 2 chunks; priced at the 2 * 252 * 3
        # entries of the reduction they would cost more and draw each Gaussian replicate alone
        fam = single_level_family([TimeKernel(0, [1.0, 0.5, -0.25, 0.75]), TimeKernel(-1003, [0.3, -0.6, 0.2, 0.9])],
                                  gamma=4)
        lv = fam.level(0)
        assert lv._blocks[1].shape == (2, 252, 4) and np.count_nonzero(lv._blocks[1]) == 8
        assert lv._gaussian_blocks.shape == (2, 252, 3) and np.count_nonzero(lv._gaussian_blocks) == 9
        assert 251 * 9 <= montecarlo._GAP < 251 * lv._gaussian_blocks.size
        n, seed, stride = 10, 5, 261
        sizes = [83, 17] if noise is GAUSS else [62, 38]  # _CHUNK // (stride * 3) and // (stride * 4) a chunk
        samples = replicate_sums(fam, 0, n, noise, 100, seed)
        assert samples.tobytes() == chunked_sums(fam, 0, n, noise, seed, stride, sizes).tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("noise", [GAUSS, RADEMACHER], ids=lambda s: s.distribution)
    def test_consecutive_replicates_are_uncorrelated(self, noise, n):
        # one kernel over Q = 3 blocks of gamma 2 (not reduced under Gaussian noise), so 2 dropped outputs between
        # replicates of a chunk; without them neighbours would share noise values and their rows correlate
        r = 20_000
        x = replicate_sums(LONG_KERNEL, 0, n, noise, r, 12)[:, 0]
        assert abs(np.corrcoef(x[:-1], x[1:])[0, 1]) < 4 / np.sqrt(r)

    def test_jackknife_se_matches_brute_force(self, rng):
        # the same data shifted far from 0: a mean large against the spread must cost the SE no digits
        base = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 3))
        r = base.shape[0]
        for shift, rtol, atol in ((0.0, 0, 1e-12), (1e4, 1e-9, 0), (1e6, 1e-9, 0)):
            x = base + shift
            loo = np.array([np.cov(np.delete(x, k, axis=0), rowvar=False) for k in range(r)])
            brute = np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
            rep = empirical_cov(x)
            assert np.allclose(rep.matrix, np.cov(x, rowvar=False), rtol=0, atol=1e-12)
            assert np.allclose(rep.se, brute, rtol=rtol, atol=atol), shift

    @pytest.mark.parametrize("shape", [(40,), (40, 3, 2), (1, 3)])
    def test_empirical_cov_takes_an_r_by_n_array(self, shape):
        # a 1-d array raised IndexError and a 3-d one numpy's matmul message
        with pytest.raises(ValueError, match=r"^need an \(R, N\) sample array with R >= 2 replicates"):
            empirical_cov(np.ones(shape))

    def test_sweep_empirical_agrees_with_exact(self, two_freq):
        rows = convergence_sweep(two_freq, [0], 30, GAUSS, 400, 5, workers=1)
        assert len(rows) == 3  # (1,1), (1,2), (2,2)
        for row in rows:
            assert row.se > 0.0
            assert abs(row.empirical - row.analytic_n) <= 5.0 * row.se

    def test_gaussian_sweep_at_paper_scale_agrees_with_exact(self):
        # gamma up to 1024 through the reduced levels: every entry within 4 se of the exact n-term value
        fam = decilab.two_frequency_demo_family(decilab.make_bspline_window(4), [16, 64, 256, 1024])
        rows = convergence_sweep(fam, range(4), 200, GAUSS, 400, 8, workers=2)
        assert len(rows) == 12
        for row in rows:
            assert row.se > 0.0
            assert abs(row.empirical - row.analytic_n) <= 4.0 * row.se, row


# three branches in one block of gamma 4 with independent taps: a Gaussian reduction of r = 3 read in Q = 1 block,
# whose branches share noise, so their square sums covary
THREE_IN_ONE_BLOCK = single_level_family([TimeKernel(-3, [0.5, 1.0, -0.25, 0.75]), TimeKernel(-2, [1.0, 0.5, 0.5]),
                                          TimeKernel(-3, [0.3, -0.6, 0.2, 0.9])], gamma=4)
# (family, level, r): Gaussian replicates of these are one Wishart draw
ONE_BLOCK_CASES = {
    "two_frequency": (decilab.two_frequency_demo_family(make_bspline_window(4), [16, 32]), 1, 2),
    "bspline_ma": (make_scaled_window_family(make_bspline_window(4), [16, 32]), 1, 1),
    "three_in_one_block": (THREE_IN_ONE_BLOCK, 0, 3),
}


def bartlett_recipe(d, n, count, seed):
    """The (count, N) square sums of montecarlo._bartlett_sums of the (N, r) block d, rebuilt entry by entry from
    its docstring."""
    r, m = d.shape[1], min(n, d.shape[1])
    gen = np.random.Generator(np.random.Philox(key=seed))
    chi2 = gen.chisquare(n - np.arange(m, dtype=float), (count, m))
    below = [(j, col) for j in range(r) for col in range(min(j, m))]
    normals = gen.standard_normal((count, len(below)))
    a = np.zeros((count, r, m))
    for b in range(count):
        for j in range(m):
            a[b, j, j] = np.sqrt(chi2[b, j])
        for (j, col), value in zip(below, normals[b]):
            a[b, j, col] = value
    return np.sum((d @ a) ** 2, axis=2)


class TestBartlettSums:
    @pytest.mark.parametrize("n", [1, 2, 7, 500])
    @pytest.mark.parametrize("case", sorted(ONE_BLOCK_CASES))
    def test_draw_layout_is_the_docstring_recipe(self, case, n):
        fam, level, r = ONE_BLOCK_CASES[case]
        blocks = fam.level(level)._gaussian_blocks
        assert blocks.shape == (fam.n_branches, 1, r)  # Q = 1 block of r
        samples = replicate_sums(fam, level, n, GAUSS, 100, 21)
        centers = np.array([cov_exact(fam, level, i, i, 0, 0) for i in range(fam.n_branches)])
        expected = (bartlett_recipe(blocks[:, 0], n, 100, 21) - n * centers) * (1.0 / np.sqrt(n))
        assert samples.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 30])
    @pytest.mark.parametrize("case", ["bspline_ma", "two_frequency"])
    def test_each_coordinate_is_a_scaled_chi_square(self, case, n):
        # a built-in family's Z_{i,k} are i.i.d. N(0, c_ii) over k, so S_i / c_ii ~ chi2_n; n = 1 is below r = 2
        # on two_frequency. The KS distance of each coordinate stays in the 99 % band
        fam, level, _ = ONE_BLOCK_CASES[case]
        count = 20_000
        samples = replicate_sums(fam, level, n, GAUSS, count, 4)
        k = np.arange(1, count + 1)
        for i in range(fam.n_branches):
            c = cov_exact(fam, level, i, i, 0, 0)
            cdf = np.sort(chdtr(n, (np.sqrt(n) * samples[:, i] + n * c) / c))
            assert max(np.max(k / count - cdf), np.max(cdf - (k - 1) / count)) < KS_99 / np.sqrt(count), i

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("case", sorted(ONE_BLOCK_CASES))
    def test_covariance_is_the_exact_finite_n_one(self, case, n):
        # every mean within 4 se of 0 and every covariance entry within 4 se of cov_of_square_sums, also at
        # n < r; the branches of three_in_one_block covary
        fam, level, _ = ONE_BLOCK_CASES[case]
        count = 20_000
        samples = replicate_sums(fam, level, n, GAUSS, count, 6)
        assert np.all(np.abs(samples.mean(axis=0)) <= 4.0 * samples.std(axis=0) / np.sqrt(count))
        emp = empirical_cov(samples)
        for i in range(fam.n_branches):
            for ip in range(i, fam.n_branches):
                exact = cov_of_square_sums(fam, level, i, ip, n, GAUSS)
                assert abs(emp.matrix[i, ip] - exact) <= 4.0 * emp.se[i, ip], (i, ip)

    @pytest.mark.parametrize("case", sorted(ONE_BLOCK_CASES))
    def test_same_for_any_worker_count_without_the_pool(self, case, monkeypatch):
        # one draw on the calling thread: no simulate_decimated call and no thread pool, whatever workers is
        fam, level, _ = ONE_BLOCK_CASES[case]
        runs = [replicate_sums(fam, level, 40, GAUSS, 301, 77, workers=w) for w in (1, 2, 3)]

        def refuse(*args, **kwargs):
            raise AssertionError("the chunked pool ran")

        monkeypatch.setattr(montecarlo, "simulate_decimated", refuse)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        runs.append(replicate_sums(fam, level, 40, GAUSS, 301, 77, workers=3))
        assert runs[0].tobytes() == runs[1].tobytes() == runs[2].tobytes() == runs[3].tobytes()


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


@pytest.mark.parametrize("level", [-1, 2, 0.5, True, np.True_])
@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRIES))
def test_level_outside_the_ladder_is_rejected(two_freq, entry, level):
    # level -1 is not read as the last level, 0.5 raises ValueError, not TypeError, and a bool is not level 1
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
    "check_rate_condition": lambda fam, n: check_rate_condition(n, 16, 4.0),
}


@pytest.mark.parametrize("n", [0, 2.5, math.nan, math.inf, True, np.True_])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_count_outside_its_range_is_rejected(two_freq, entry, n):
    # n = NaN gave a_term, cov_of_square_sums and check_rate_condition 0.0 or NaN, n = 2.5 gave them a value,
    # simulate_decimated a TypeError, and a bool ran as n = 1
    with pytest.raises(ValueError, match=rf"^n {n} is not in 1\.\.$"):
        COUNT_ENTRIES[entry](two_freq, n)


@pytest.mark.parametrize("call, message", [
    (lambda fam: replicate_sums(fam, 0, 4, GAUSS, 100.5, 3), r"^n_replicates 100\.5 is not in 100\.\.$"),
    (lambda fam: cov_exact(fam, 0, 0, 0, 0, 5.5), r"^lag 5\.5 is not in \.\.$"),
    (lambda fam: cov_exact(fam, 0, 0, 0, 0, 0.5), r"^lag 0\.5 is not in \.\.$"),
    (lambda fam: make_bspline_window(3.5), r"^order 3\.5 is not in 3\.\.$"),
    (lambda fam: bspline_value(2.5, 0.5), r"^order 2\.5 is not in 1\.\.$"),
    (lambda fam: check_rate_condition(1024, 0, 4.0), r"^gamma 0 is not in 1\.\.$"),
    (lambda fam: check_rate_condition(1024, 16.5, 4.0), r"^gamma 16\.5 is not in 1\.\.$"),
    (lambda fam: check_rate_condition(1024, math.nan, 4.0), r"^gamma nan is not in 1\.\.$"),
    (lambda fam: snapped_center_freq(0, 1.0), r"^gamma 0 is not in 1\.\.$"),
    (lambda fam: snapped_center_freq(2.5, 1.0), r"^gamma 2\.5 is not in 1\.\.$"),
    (lambda fam: snapped_center_freq(math.nan, 1.0), r"^gamma nan is not in 1\.\.$"),
    (lambda fam: cov_exact(fam, 0, 0, 0, 0.5, 1.5), r"^k 0\.5 is not in \.\.$"),
    (lambda fam: limit_cross_cov(fam, 0, 0, 0.5), r"^lag 0\.5 is not in \.\.$"),
    (lambda fam: limit_cross_cov(fam, 0, 0, math.nan), r"^lag nan is not in \.\.$"),
    (lambda fam: limit_cross_cov(fam, 0, 1, 0.5), r"^lag 0\.5 is not in \.\.$"),
    (lambda fam: limit_cross_cov(fam, 0, 1, math.nan), r"^lag nan is not in \.\.$"),
], ids=["n_replicates", "lag_5.5", "lag_0.5", "window_order", "bspline_order", "rate_gamma_0", "rate_gamma_16.5",
        "rate_gamma_nan", "snapped_gamma_0", "snapped_gamma_2.5", "snapped_gamma_nan", "cov_exact_k_0.5",
        "limit_lag_0.5", "limit_lag_nan", "limit_c0_lag_0.5", "limit_c0_lag_nan"])
def test_integer_outside_its_range_is_rejected(two_freq, call, message):
    # replicate_sums raised TypeError, a lag of 5.5 gave 0.0 and 0.5 a TypeError, order 3.5 built bspline3,
    # a rate or snapping gamma of 0 raised ZeroDivisionError, and 2.5, 16.5 or NaN gave a value; cov_exact
    # at k = 0.5, k' = 1.5 gave c(gamma), and a limit lag of 0.5 or NaN gave 0.0 with a bound of 0.0,
    # also on the pair (0, 1), whose case constant is 0
    with pytest.raises(ValueError, match=message):
        call(two_freq)


def test_integral_float_limit_lag_is_its_integer(two_freq):
    for lag in (0, 1):
        assert limit_cross_cov(two_freq, 0, 0, float(lag)) == limit_cross_cov(two_freq, 0, 0, lag)
    assert limit_cross_cov(two_freq, 0, 0, 0.0).value > 0.0


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


@pytest.mark.parametrize("branch", [-1, 2, 0.5, True, np.True_])
@pytest.mark.parametrize("entry", sorted(BRANCH_ENTRIES))
def test_branch_outside_the_family_is_rejected(two_freq, entry, branch):
    # branch -1 is not read as the last branch, 2 raises ValueError, not IndexError, 0.5 not TypeError, True not 1
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
