"""Seeded replication harness for the distributional claims.

Replicate r always uses the seed mix(base_seed, r), and replicates are
assembled by index, so results are identical for any worker count or
scheduling. Parallelism is thread-based over fixed-size chunks of the
replicate range; the heavy numpy kernels release the GIL.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .moments import cov_exact, cov_of_square_sums, gamma_matrix, limit_cross_cov
from .simulate import mix_seed, simulate_decimated

CHUNK = 128  # replicates per task; fixed so scheduling cannot shift results
KS_99 = 1.63  # ~99% quantile scale of the one-sample KS statistic


def _worker_count(workers):
    if workers is not None:
        return max(1, int(workers))
    return max(1, int(os.environ.get("DECILAB_THREADS", "1")))


@dataclass(frozen=True)
class ReplicateSet:
    """Normalized centered square-sum vectors, one row per replicate."""

    samples: np.ndarray  # shape (R, N)
    family_name: str
    level: int
    gamma: int
    n: int
    noise: str
    base_seed: int
    centering: str
    centers: np.ndarray

    @property
    def n_replicates(self):
        return self.samples.shape[0]

    @property
    def n_branches(self):
        return self.samples.shape[1]


def _centers(family, level, centering):
    n_branches = family.n_branches
    centers = np.empty(n_branches)
    if centering == "exact":
        for i in range(n_branches):
            centers[i] = cov_exact(family, level, i, i, 0, 0)
    elif centering == "limit":
        for i in range(n_branches):
            centers[i] = limit_cross_cov(family, i, i, 0).value
    else:
        raise ValueError("centering must be 'exact' or 'limit'")
    return centers


def replicate_sums(family, level, n, noise, n_replicates, base_seed,
                   centering="exact", workers=None):
    """R replicates of n**-0.5 * sum_{k<n} (Z_{i,k}^2 - center_i).

    Centering is the exact level expectation of Z^2 (per-branch, lag zero)
    or its level limit; the mode and the centers used are recorded.
    """
    if n_replicates < 100:
        raise ValueError("need at least 100 replicates")
    centers = _centers(family, level, centering)
    samples = np.empty((n_replicates, family.n_branches))
    scale = 1.0 / np.sqrt(n)

    def run_chunk(r0):
        r1 = min(r0 + CHUNK, n_replicates)
        for r in range(r0, r1):
            pm = simulate_decimated(family, level, n, noise, mix_seed(base_seed, r))
            samples[r] = (np.sum(pm.values ** 2, axis=1) - n * centers) * scale

    starts = range(0, n_replicates, CHUNK)
    nworkers = _worker_count(workers)
    if nworkers == 1:
        for r0 in starts:
            run_chunk(r0)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run_chunk, starts))

    return ReplicateSet(
        samples=samples,
        family_name=family.name,
        level=int(level),
        gamma=family.levels[level].gamma,
        n=int(n),
        noise=noise.distribution,
        base_seed=int(base_seed),
        centering=centering,
        centers=centers,
    )


@dataclass(frozen=True)
class CovarianceReport:
    matrix: np.ndarray
    se: np.ndarray
    degenerate: np.ndarray  # per-coordinate zero-variance flags


def empirical_cov(replicate_set):
    """Unbiased sample covariance with leave-one-out jackknife standard errors.

    Zero-variance coordinates are flagged, not failed. Jackknife SEs need at
    least three replicates; below that they are NaN.
    """
    x = replicate_set.samples if isinstance(replicate_set, ReplicateSet) else np.asarray(replicate_set)
    if x.ndim == 1:
        x = x[:, None]
    r = x.shape[0]
    if r < 2:
        raise ValueError("need at least 2 replicates")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (r - 1)
    degenerate = np.array([np.all(x[:, i] == x[0, i]) for i in range(x.shape[1])])
    if r < 3:
        return CovarianceReport(cov, np.full_like(cov, np.nan), degenerate)

    s2 = np.einsum("ri,rj->ij", x, x)
    mu = (x.sum(axis=0)[None, :] - x) / (r - 1)  # leave-one-out means
    loo = (
        s2[None, :, :]
        - x[:, :, None] * x[:, None, :]
        - (r - 1) * mu[:, :, None] * mu[:, None, :]
    ) / (r - 2)
    se = np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
    return CovarianceReport(cov, se, degenerate)


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
    cdf = ndtr(np.sort(z))
    i = np.arange(1, cdf.size + 1)
    return float(max(np.max(i / cdf.size - cdf), np.max(cdf - (i - 1) / cdf.size)))


def normality_report(samples, coordinate=None):
    """Moment and Kolmogorov-Smirnov diagnostics against a matched normal.

    samples is a ReplicateSet (with a coordinate when multivariate) or a
    plain 1-d array. Moments are standardized by the sample std; the KS
    distance is against the normal with matched mean and variance.
    Degenerate (constant) input is flagged, not failed.
    """
    if isinstance(samples, ReplicateSet):
        if samples.n_branches > 1 and coordinate is None:
            raise ValueError("coordinate required for a multivariate replicate set")
        x = samples.samples[:, coordinate or 0]
    else:
        x = np.asarray(samples, dtype=float)
        if coordinate is not None and x.ndim > 1:
            x = x[:, coordinate]
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


def convergence_sweep(family, levels, n, noise, n_replicates, base_seed,
                      centering="exact", workers=None):
    """Per level and branch pair: empirical covariance vs exact and limiting values.

    n may be a single count or one count per level. gamma_limit columns are
    NaN when the family carries no limit responses.
    """
    levels = list(levels)
    ns = [int(n)] * len(levels) if np.isscalar(n) else [int(v) for v in n]
    if len(ns) != len(levels):
        raise ValueError("need one n per level")
    have_limits = family.limit_responses is not None
    gm = gamma_matrix(family) if have_limits else None
    rows = []
    for level, n_level in zip(levels, ns):
        rs = replicate_sums(family, level, n_level, noise, n_replicates,
                            mix_seed(base_seed, 1000 + level), centering, workers)
        emp = empirical_cov(rs)
        for i in range(family.n_branches):
            for ip in range(i, family.n_branches):
                rows.append(SweepRow(
                    gamma=family.levels[level].gamma,
                    n=n_level,
                    branch_i=i + 1,
                    branch_ip=ip + 1,
                    empirical=float(emp.matrix[i, ip]),
                    analytic_n=cov_of_square_sums(family, level, i, ip, n_level, noise),
                    gamma_limit=float(gm.entries[i, ip]) if have_limits else float("nan"),
                    se=float(emp.se[i, ip]),
                ))
    return rows
