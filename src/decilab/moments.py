"""Exact and limiting second/fourth-order moments of decimated arrays.

Exact quantities (cross-covariances, the triangular-weighted sums entering
the covariance of square-sums) are finite sums over the level's polyphase
array A (FamilyLevel._blocks), Q blocks of gamma taps per branch, computed
without quadrature. The lag-tau covariance is sum_q A[i, q+tau] . A[i', q],
zero for |tau| >= Q. A(n) and B(n) are triangular-weighted sums of these
lags for the rows A[i] and A[i'] (squared after correlating), and for their
squares: each sign of tau is one decimated correlation (kernels._correlate),
block products for Q <= gamma and overlap-save rfft products for more
rows, within rounding.

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


def _positive_definite(a):
    """Whether the symmetric a has a Cholesky factor: every pivot of the outer-product elimination is positive."""
    a = np.array(a, dtype=float)
    for j in range(a.shape[0]):
        if not a[j, j] > 0.0:  # NaN fails too
            return False
        col = a[j + 1:, j] / np.sqrt(a[j, j])
        a[j + 1:, j + 1:] -= np.outer(col, col)
    return True


@dataclass(frozen=True)
class GammaMatrix:
    """Limiting covariance of normalized centered square-sums.

    entries must equal their transpose exactly and be positive semidefinite
    within PSD_TOL: entries + PSD_TOL*I must have a Cholesky factor, found by
    a numpy elimination over the N branches rather than LAPACK's eigensolver.
    constants hold one integer or float 0, 1 or 2 per entry; 1.0 is its int, 1.5 or a bool is rejected, not cast.
    """

    entries: np.ndarray
    constants: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_readonly(self.entries))
        square = self.entries.ndim == 2 and self.entries.shape[0] == self.entries.shape[1]
        if not square or not np.array_equal(self.entries, self.entries.T):
            raise ValueError("limiting covariance must be a symmetric matrix")
        if not _positive_definite(self.entries + PSD_TOL * np.eye(len(self.entries))):
            raise ValueError("limiting covariance must be positive semidefinite")
        constants = np.asarray(self.constants)
        if constants.shape != self.entries.shape or constants.dtype.kind not in "iuf" or not np.isin(constants, (0, 1, 2)).all():
            raise ValueError("case constants must be 0, 1 or 2, one per entry")
        object.__setattr__(self, "constants", _as_readonly(constants, int))


def cov_exact(family, level, i, ip, k, kp):
    """Cov(Z_{i,k}, Z_{i',k'}) at one level, k and k' - k integers: sum_t v_i(gamma*k - t) v_i'(gamma*k' - t), exact.

    It is the block sum sum_q A[i, q + tau] . A[i', q], tau = k' - k, over the level's polyphase array, 0.0 for |tau| >= Q.
    """
    blocks = family.level(level)._blocks[1]
    a, b = blocks[family.branch(i)], blocks[family.branch(ip)]
    tau = _integer(kp - _integer(k, "k"), "lag")
    rows = max(a.shape[0] - abs(tau), 0)  # the blocks that overlap at this lag
    return float(np.vdot(a[max(tau, 0):][:rows], b[max(-tau, 0):][:rows]))


def case_constant(family, i, ip):
    """The 0/1/2 constant for a branch pair, from exact limit-frequency equality."""
    fi = family.limit_freqs[family.branch(i)]
    fip = family.limit_freqs[family.branch(ip)]
    if fi != fip:
        return 0
    return 1 if fi == 0.0 else 2


def _limit_correlations(family, i, ip):
    """(C, {k: (rho(k), its rounding bound)}) for the limit kernels of branches i and i'.

    The one home of two rules: a family without limit kernels raises, and C = 0 (different
    limit frequencies) gives (0, {}) without correlating, so every limit value and bound is 0.0.
    """
    if family.limit_kernels is None:
        raise ValueError("limit kernels unavailable for this family")
    const = case_constant(family, i, ip)
    if const == 0:
        return 0, {}
    (w1, wt1), (w2, wt2) = family.limit_kernels[family.branch(i)], family.limit_kernels[family.branch(ip)]
    return const, {k: (wt1 * wt2 * r, abs(wt1 * wt2) * b) for k, (r, b) in _correlations(w1, w2).items()}


def limit_cross_cov(family, i, ip, lag):
    """Limit of Cov(Z_{i,k}, Z_{i',k+lag}) along the level ladder: C * rho(lag).

    rho(lag) = w_i * w_i' * int W_i(t) W_i'(t + lag) dt by per-knot
    Gauss-Legendre, exact up to the reported rounding bound; zero when the case
    constant C is 0 or the limit kernels do not overlap at this integer lag.
    """
    const, rhos = _limit_correlations(family, i, ip)
    rho, bound = rhos.get(_integer(lag, "lag"), (0.0, 0.0))
    return MomentReport(const * rho, const * bound)


def _decimated_lags(family, level, i, ip, n, power):
    """Triangular weights 1 - |tau|/n and lags c(gamma*tau), |tau| < n, for branches i, i' at one level.

    c(gamma*tau) = sum_q a[q + tau] . b[q] for the polyphase rows a = A[i]**power
    and b = A[i']**power, zero for |tau| >= Q. The lags tau = 0 .. Q - 1 are
    one valid-mode kernels._correlate of a, with Q - 1 zero rows appended,
    against b; tau < 0 are the swapped pair's, as c_{i,i'}(-tau) = c_{i',i}(tau),
    and for i = i' the same call. For Q > gamma rows kernels._correlate
    takes rfft products, O(Q*gamma log) instead of Q**2*gamma multiply-adds,
    and each lag moves by rounding only: about eps * |a| * |b|.
    """
    n = _integer(n, "n", 1)
    blocks = family.level(level)._blocks[1]
    i, ip = family.branch(i), family.branch(ip)
    a, b = blocks[i] ** power, blocks[ip] ** power
    pad = np.zeros((a.shape[0] - 1, a.shape[1]))
    ahead = _correlate(np.concatenate((a, pad)), b)
    behind = ahead if i == ip else _correlate(np.concatenate((b, pad)), a)
    tau = np.abs(np.arange(1 - ahead.size, ahead.size))
    keep = tau < n
    return 1.0 - tau[keep] / n, np.concatenate((behind[:0:-1], ahead))[keep]


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
    const, rhos = _limit_correlations(family, i, ip)
    rho, delta = np.array(list(rhos.values())).reshape(-1, 2).T
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
