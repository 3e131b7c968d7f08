"""Seeded replication harness for the distributional claims.

A replicate centers each square-sum by its exact expectation at the level,
as the paper's CLTs do (replicate_sums).

Every report here is a function of the law of the replicates, so Gaussian
replicates are drawn from the law, not from the xi_t simulate_decimated
reads: numpy's ziggurat standard_normal on the thread's Philox keyed by the
seed, from counter 0, drives the level's gaussian_level, r <= N*Q values
per output with exactly the joint law of the sums. Where that level reads
Q = 1 block per output, as on every built-in family, a replicate's square
sums are the diagonal of one Wishart draw (_bartlett_sums): O(r**2) values,
whatever n is. Otherwise chunk c of replicates is one draw at the seed
mix(base_seed, c), simulate._level_outputs on those values (or
simulate_decimated for other noise), laid out by n, the level and R only,
so results are identical for any worker count or scheduling. Thread j of
w = min(workers, chunks) runs the chunks j, j + w, j + 2w, ..., and the
heavy numpy kernels release the GIL.

The thread pool (concurrent.futures, which loads logging) is imported on
the first chunked replicate_sums call, and the KS distance of
normality_report uses scipy.special.ndtr, imported on its first call:
neither loads with this module.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import _integer
from .moments import cov_exact, cov_of_square_sums, gamma_matrix
from .simulate import _MASK64, _level_outputs, _philox, mix_seed, simulate_decimated

KS_99 = 1.63  # ~99% quantile scale of the one-sample KS statistic
_CHUNK = 1 << 16  # noise values one replicate_sums chunk draws, at most, unless it holds one replicate
_GAP = 1 << 17  # multiply-adds a chunked replicate's dropped outputs may cost; chunks timed slower from 5e5 on


def _bartlett_sums(lv, n, n_replicates, seed):
    """The (R, N) Gaussian square sums S_i = sum_{k<n} Z_{i,k}^2 of a level that reads one block per output.

    Such a level (Q = 1, so every offset is 0) has Z_{., k} = D x_k, with D
    the (N, r) reversed taps, r = lv.gamma, and x_k i.i.d. N(0, I_r). So
    S_i = D_i W D_i^T with W ~ Wishart_r(I, n), and Bartlett's decomposition
    W = A A^T draws it exactly in law (Bartlett 1933; Odell & Feiveson 1966):
    A is (r, m), m = min(n, r), with A_jj = sqrt(chi2_{n-j}) for j < m,
    A_jl ~ N(0, 1) for l < min(j, m) and zeros elsewhere, so n < r needs no
    special case. Recipe: the thread's Philox keyed by the seed, from counter
    0, draws chisquare(n - j), j < m, as an (R, m) array, row b the diagonal
    of replicate b's A, then standard_normal as an (R, P) array, row b its P
    entries below the diagonal in row-major order; S_i = ||D_i A||^2.
    """
    r, m = lv.gamma, min(n, lv.gamma)
    d = np.array([np.pad(k.coeffs[::-1], (0, r - k.length)) for k in lv.kernels])
    gen = _philox(0, seed)[1]
    a = np.zeros((n_replicates, r, m))
    j = np.arange(m)
    a[:, j, j] = np.sqrt(gen.chisquare(n - j.astype(float), (n_replicates, m)))
    below = np.tril_indices(r, -1, m)
    a[:, below[0], below[1]] = gen.standard_normal((n_replicates, below[0].size))
    return np.sum((d @ a) ** 2, axis=2)


def replicate_sums(family, level, n, noise, n_replicates, base_seed, workers=1):
    """The (R, N) array of R replicates of n**-0.5 * sum_{k<n} (Z_{i,k}^2 - E Z_{i,k}^2).

    E Z_{i,k}^2 is the exact level expectation, cov_exact(family, level, i, i, 0, 0).
    The level drawn (the gaussian_level for Gaussian noise) reads Q blocks of
    its factor per output. n, R, the seed and workers (the thread count,
    default 1, which no output depends on) are checked first. A Gaussian
    level with Q = 1 draws all R replicates on the calling thread as one
    _bartlett_sums keyed by base_seed. Otherwise chunk c is one draw at
    mix_seed(base_seed, c) (module docstring): B strides of n + Q - 1
    outputs, the last cut to n, and replicate b is the first n of stride b;
    no two share a noise value. B = 1 if (Q - 1) * sum(L) > _GAP, else the
    most whose strides fit in _CHUNK values.
    """
    n_replicates, n = _integer(n_replicates, "n_replicates", 100), _integer(n, "n", 1)
    workers, base_seed = _integer(workers, "workers", 1), _integer(base_seed, "seed", 0, _MASK64)
    centers = np.array([cov_exact(family, level, i, i, 0, 0) for i in range(family.n_branches)])
    gaussian = noise.distribution == "gaussian"
    lv = family.level(level).gaussian_level if gaussian else family.level(level)
    gap = -(-lv._stream_layout()[2] // lv.gamma) - 1  # Q - 1 outputs share noise with the next n
    if gaussian and not gap:
        return (_bartlett_sums(lv, n, n_replicates, base_seed) - n * centers) * (1.0 / np.sqrt(n))
    samples = np.empty((n_replicates, family.n_branches))
    stride, gap_work = n + gap, gap * sum(k.length for k in lv.kernels)
    per_chunk = 1 if gap_work > _GAP else max(1, _CHUNK // (stride * lv.gamma))
    n_chunks = -(-n_replicates // per_chunk)

    n_workers = min(workers, n_chunks)
    from concurrent.futures import ThreadPoolExecutor  # loaded on the first chunked replicate run

    def run_share(first):
        for c in range(first, n_chunks, n_workers):
            lo, hi = c * per_chunk, min(n_replicates, (c + 1) * per_chunk)
            size, seed = (hi - lo - 1) * stride + n, mix_seed(base_seed, c)
            if gaussian:
                gen = _philox(0, seed)[1]
                z = _level_outputs(lv, size, lambda _, out: gen.standard_normal(out=out))
            else:
                z = simulate_decimated(family, level, size, noise, seed)
            z = np.lib.stride_tricks.sliding_window_view(z, n, axis=1)[:, ::stride]
            samples[lo:hi] = (np.sum(z ** 2, axis=2).T - n * centers) * (1.0 / np.sqrt(n))

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        list(pool.map(run_share, range(n_workers)))
    return samples


@dataclass(frozen=True)
class CovarianceReport:
    matrix: np.ndarray
    se: np.ndarray


def empirical_cov(samples):
    """Unbiased covariance of (R, N) samples with leave-one-out jackknife standard errors.

    Jackknife SEs need at least three replicates; below that they are NaN.
    """
    x = np.asarray(samples)
    r = x.shape[0]
    if r < 2:
        raise ValueError("need at least 2 replicates")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (r - 1)
    if r < 3:
        return CovarianceReport(cov, np.full_like(cov, np.nan))

    s2 = np.einsum("ri,rj->ij", x, x)
    mu = (x.sum(axis=0)[None, :] - x) / (r - 1)  # leave-one-out means
    loo = (
        s2[None, :, :]
        - x[:, :, None] * x[:, None, :]
        - (r - 1) * mu[:, :, None] * mu[:, None, :]
    ) / (r - 2)
    se = np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
    return CovarianceReport(cov, se)


@dataclass(frozen=True)
class NormalityReport:
    skewness: float
    excess_kurtosis: float
    ks_distance: float
    n_samples: int
    degenerate: bool

    @property
    def looks_normal(self):
        """Advisory: KS distance below the ~99% band for truly normal samples."""
        return (not self.degenerate) and self.ks_distance < KS_99 / np.sqrt(self.n_samples)


def _ks_normal_distance(z):
    """One-sample Kolmogorov-Smirnov statistic of z against the standard normal.

    D = max_i max(i/n - Phi(z_(i)), Phi(z_(i)) - (i-1)/n) over the order
    statistics z_(1) <= ... <= z_(n).
    """
    from scipy.special import ndtr  # loaded on the first KS distance
    cdf = ndtr(np.sort(z))
    i = np.arange(1, cdf.size + 1)
    return float(max(np.max(i / cdf.size - cdf), np.max(cdf - (i - 1) / cdf.size)))


def normality_report(samples):
    """Moment and Kolmogorov-Smirnov diagnostics of a 1-d sample against a matched normal.

    Moments are standardized by the sample std; the KS distance is against
    the normal with matched mean and variance. Degenerate (constant) input
    is flagged, not failed.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("need a 1-d sample")
    std = float(np.std(x))
    if std == 0.0:
        return NormalityReport(float("nan"), float("nan"), float("nan"), x.size, True)
    z = (x - np.mean(x)) / std
    skew = float(np.mean(z ** 3))
    kurt = float(np.mean(z ** 4) - 3.0)
    ks = _ks_normal_distance(z)
    return NormalityReport(skew, kurt, ks, x.size, False)


@dataclass(frozen=True)
class SweepRow:
    gamma: int
    n: int
    branch_i: int  # 1-based in reports
    branch_ip: int
    empirical: float
    analytic_n: float
    gamma_limit: float
    se: float


def convergence_sweep(family, levels, n, noise, n_replicates, base_seed, workers=1):
    """Per level and branch pair: empirical covariance vs exact and limiting values.

    The same n is used at every level. gamma_limit columns are NaN when the
    family carries no limit kernels. Replicates run on workers threads
    (default 1), as in replicate_sums.
    """
    workers = _integer(workers, "workers", 1)
    gammas = [family.level(level).gamma for level in levels]  # every level is checked before the first replicate
    have_limits = family.limit_kernels is not None
    gm = gamma_matrix(family) if have_limits else None
    rows = []
    for level, gamma in zip(levels, gammas):
        samples = replicate_sums(family, level, n, noise, n_replicates, mix_seed(base_seed, 1000 + level), workers)
        emp = empirical_cov(samples)
        for i in range(family.n_branches):
            for ip in range(i, family.n_branches):
                rows.append(SweepRow(
                    gamma=gamma,
                    n=int(n),
                    branch_i=i + 1,
                    branch_ip=ip + 1,
                    empirical=float(emp.matrix[i, ip]),
                    analytic_n=cov_of_square_sums(family, level, i, ip, n, noise),
                    gamma_limit=float(gm.entries[i, ip]) if have_limits else float("nan"),
                    se=float(emp.se[i, ip]),
                ))
    return rows
