"""Seeded replication harness for the distributional claims.

A replicate centers each square-sum by its exact expectation at the level,
as the paper's CLTs do (replicate_sums).

Replicate r always uses the seed mix(base_seed, r), and replicates are
assembled by index, so results are identical for any worker count or
scheduling. Parallelism is thread-based: with w = min(workers, R) threads,
thread j runs the replicates j, j + w, j + 2w, ..., so the threads' shares
differ by at most one replicate. The heavy numpy kernels release the GIL.

The thread pool (concurrent.futures, which loads logging) is imported on
the first replicate_sums call, and the KS distance of normality_report
uses scipy.special.ndtr, imported on its first call: neither loads with
this module.
"""

import os
from dataclasses import dataclass

import numpy as np

from .kernels import _integer
from .moments import cov_exact, cov_of_square_sums, gamma_matrix
from .simulate import mix_seed, simulate_decimated

KS_99 = 1.63  # ~99% quantile scale of the one-sample KS statistic


def _worker_count(workers):
    if workers is None:
        source, value = "DECILAB_THREADS", os.environ.get("DECILAB_THREADS", "1")
    else:
        source, value = "workers", workers
    try:
        count = int(value)  # the text of DECILAB_THREADS, or a number whose int must equal it
        if count < 1 or isinstance(value, bool) or (workers is not None and count != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{source} must be an integer >= 1, got {value!r}") from None
    return count


def replicate_sums(family, level, n, noise, n_replicates, base_seed, workers=None):
    """The (R, N) array of R replicates of n**-0.5 * sum_{k<n} (Z_{i,k}^2 - E Z_{i,k}^2).

    E Z_{i,k}^2 is the exact level expectation, cov_exact(family, level, i, i, 0, 0).
    """
    n_replicates, n = _integer(n_replicates, "n_replicates", 100), _integer(n, "n", 1)
    centers = np.array([cov_exact(family, level, i, i, 0, 0) for i in range(family.n_branches)])
    samples = np.empty((n_replicates, family.n_branches))
    scale = 1.0 / np.sqrt(n)

    n_workers = min(_worker_count(workers), n_replicates)
    from concurrent.futures import ThreadPoolExecutor  # loaded on the first replicate run

    def run_share(first):
        for r in range(first, n_replicates, n_workers):
            z = simulate_decimated(family, level, n, noise, mix_seed(base_seed, r))
            samples[r] = (np.sum(z ** 2, axis=1) - n * centers) * scale

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


def convergence_sweep(family, levels, n, noise, n_replicates, base_seed, workers=None):
    """Per level and branch pair: empirical covariance vs exact and limiting values.

    The same n is used at every level. gamma_limit columns are NaN when the
    family carries no limit kernels.
    """
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
