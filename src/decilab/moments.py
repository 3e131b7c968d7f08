"""Exact and limiting second/fourth-order moments of decimated arrays.

Exact quantities (cross-covariances, the triangular-weighted sums entering
the covariance of square-sums) are finite sums over kernel supports and are
computed without quadrature. A(n) and B(n) are triangular-weighted samples,
at the lags that are multiples of gamma, of one full cross-correlation: of
the two kernels for A (squared after sampling), of their squares for B. It
is np.correlate for short kernels and an rfft product for long ones
(kernels._correlate), within rounding.

The covariance identity at the center of the module: for branches i, i' at
one level,

    (1/n) Cov(sum_k Z_i^2, sum_k Z_i'^2) = 2*A(n) + kurtosis_excess * B(n)

with A, B the exact sums implemented by a_term and b_term. As the level
grows, B vanishes and 2*A approaches the limiting covariance entry

    Gamma[i, i'] = 4*pi * C^2 * int_{-pi}^{pi} |sum_p w(lam + 2*pi*p)|^2 dlam
                 = 2 * C^2 * sum_k rho(k)^2,  rho(k) = w_i w_i' int W_i(t) W_i'(t + k) dt

where w is the product of the limit responses, (W_i, w_i) the limit kernels
and C the 0/1/2 case constant of the limit frequencies (entering squared:
the +-passband copies double the folded sum for a positive shared
frequency). The second form is Poisson summation and Parseval; its sum runs
over the integer lags where the kernels overlap, each rho(k) exact by
per-knot Gauss-Legendre. The limit of E Z^2 is C * rho(0), and each limit
value comes with the rounding bound of its finite sum.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import _as_readonly, _correlate, _integer
from .kernels import eval_response  # noqa: F401 (bench/selftest.py traces it here)
from .windows import EPS, _correlations

PSD_TOL = 1e-8


@dataclass(frozen=True)
class MomentReport:
    """A limiting-moment value with the rounding bound of its finite sum; nothing is truncated.

    rho(k) over K Gauss-Legendre nodes is within K*eps*sum|terms|; gamma_limit carries that through the square.
    """

    value: float
    truncation_bound: float


@dataclass(frozen=True)
class GammaMatrix:
    """Limiting covariance of normalized centered square-sums."""

    entries: np.ndarray
    constants: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_readonly(self.entries))
        object.__setattr__(self, "constants", _as_readonly(self.constants, int))
        if not np.allclose(self.entries, self.entries.T, atol=0.0):
            raise ValueError("limiting covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(self.entries)) < -PSD_TOL:
            raise ValueError("limiting covariance must be positive semidefinite")
        if not np.all(np.isin(self.constants, (0, 1, 2))):
            raise ValueError("case constants must be 0, 1 or 2")


def _corr_sum(k1, k2, shift):
    """sum_u v1(u) * v2(u + shift), exact over the overlapping support."""
    lo = max(k1.support_start, k2.support_start - shift)
    hi = min(k1.support_end, k2.support_end - shift)
    if hi < lo:
        return 0.0
    a = k1.coeffs[lo - k1.support_start: hi - k1.support_start + 1]
    b = k2.coeffs[lo + shift - k2.support_start: hi + shift - k2.support_start + 1]
    return float(np.dot(a, b))


def cov_exact(family, level, i, ip, k, kp):
    """Cov(Z_{i,k}, Z_{i',k'}) at one level: sum_t v_i(gamma*k - t) v_i'(gamma*k' - t), exact."""
    lv = family.level(level)
    return _corr_sum(lv.kernels[family.branch(i)], lv.kernels[family.branch(ip)], lv.gamma * _integer(kp - k, "lag"))


def case_constant(family, i, ip):
    """The 0/1/2 constant for a branch pair, from exact limit-frequency equality."""
    fi = family.limit_freqs[family.branch(i)]
    fip = family.limit_freqs[family.branch(ip)]
    if fi != fip:
        return 0
    return 1 if fi == 0.0 else 2


def _require_limits(family):
    if family.limit_kernels is None:
        raise ValueError("limit kernels unavailable for this family")


def _limit_correlations(family, i, ip):
    """{k: (rho(k), its rounding bound)} for the limit kernels of branches i and i'."""
    (w1, wt1), (w2, wt2) = family.limit_kernels[i], family.limit_kernels[ip]
    return {k: (wt1 * wt2 * r, abs(wt1 * wt2) * b) for k, (r, b) in _correlations(w1, w2).items()}


def limit_cross_cov(family, i, ip, lag):
    """Limit of Cov(Z_{i,k}, Z_{i',k+lag}) along the level ladder: C * rho(lag).

    rho(lag) = w_i * w_i' * int W_i(t) W_i'(t + lag) dt by per-knot
    Gauss-Legendre, exact up to the reported rounding bound; zero when the
    case constant C is or when the limit kernels do not overlap at this lag.
    """
    _require_limits(family)
    const = case_constant(family, i, ip)
    if const == 0:
        return MomentReport(0.0, 0.0)
    rho, bound = _limit_correlations(family, i, ip).get(lag, (0.0, 0.0))
    return MomentReport(const * rho, const * bound)


def _decimated_lags(family, level, i, ip, n, power):
    """Triangular weights 1 - |tau|/n and samples c(gamma*tau), |tau| < n, for branches i, i' at one level.

    c(d) = sum_u v1(u)**power * v2(u + d)**power is one full correlation of
    the (powered) coefficients, whose entry j is the lag
    k2.support_start - k1.support_end + j; every gamma-th entry is kept.
    Above the crossover of kernels._correlate the correlation is one rfft
    product, O((L1 + L2) log) instead of L1*L2 multiply-adds, and each
    entry moves by rounding only: about eps * |v1**power| * |v2**power|.
    """
    n = _integer(n, "n", 1)
    lv = family.level(level)
    k1, k2, gamma = lv.kernels[family.branch(i)], lv.kernels[family.branch(ip)], lv.gamma
    corr = _correlate(k2.coeffs ** power, k1.coeffs ** power, "full")
    lag0 = k2.support_start - k1.support_end
    j0 = (-lag0) % gamma
    sampled = corr[j0::gamma]
    tau = (lag0 + j0) // gamma + np.arange(sampled.size)
    keep = np.abs(tau) < n
    return 1.0 - np.abs(tau[keep]) / n, sampled[keep]


def a_term(family, level, i, ip, n):
    """Triangular-weighted sum of squared lagged correlations, exact.

    A(n) = sum_{|tau| < n} (1 - |tau|/n) * c(gamma*tau)^2 with
    c(d) = sum_u v_i(u) v_i'(u + d), the cross-correlation of the two
    kernels sampled at multiples of gamma.
    """
    weights, corr = _decimated_lags(family, level, i, ip, n, 1)
    return float(np.dot(weights, corr * corr))


def b_term(family, level, i, ip, n):
    """Fourth-cumulant weight, exact.

    B(n) = sum_u v_i(u)^2 * sum_{|tau| < n} (1 - |tau|/n) v_i'(gamma*tau+u)^2,
    i.e. the triangular-weighted sum of the cross-correlation of the squared
    kernels sampled at multiples of gamma.
    """
    weights, corr = _decimated_lags(family, level, i, ip, n, 2)
    return float(np.dot(weights, corr))


def cov_of_square_sums(family, level, i, ip, n, noise):
    """n**-1 * Cov(sum_k Z_i^2, sum_k Z_i'^2) = 2*A(n) + kappa4*B(n), exact."""
    return 2.0 * a_term(family, level, i, ip, n) + noise.kurtosis_excess * b_term(
        family, level, i, ip, n
    )


def gamma_limit(family, i, ip):
    """One entry of the limiting covariance of centered square-sum vectors.

    Gamma[i, i'] = 2 * C**2 * sum_k rho(k)**2 over the lags k where the two
    limit kernels overlap. With delta_k the rounding bound of rho(k), the
    reported bound is 2 * C**2 * sum_k (2*|rho(k)| + delta_k) * delta_k plus
    (lags + 2) * eps * Gamma for the sum of squares.
    """
    _require_limits(family)
    const = case_constant(family, i, ip)
    if const == 0:
        return MomentReport(0.0, 0.0)
    rho, delta = np.array(list(_limit_correlations(family, i, ip).values())).reshape(-1, 2).T
    value = 2.0 * const ** 2 * float(np.sum(rho * rho))
    bound = 2.0 * const ** 2 * float(np.sum((2.0 * np.abs(rho) + delta) * delta)) + (rho.size + 2) * EPS * value
    return MomentReport(value, bound)


def gamma_matrix(family):
    """The full limiting covariance with its case constants."""
    n = family.n_branches
    entries = np.zeros((n, n))
    constants = np.zeros((n, n), dtype=int)
    for i in range(n):
        for ip in range(i, n):
            entries[i, ip] = entries[ip, i] = gamma_limit(family, i, ip).value
            constants[i, ip] = constants[ip, i] = case_constant(family, i, ip)
    return GammaMatrix(entries=entries, constants=constants)
