"""Exact and limiting second/fourth-order moments of decimated arrays.

Exact quantities (cross-covariances, the triangular-weighted sums entering
the covariance of square-sums) are finite sums over kernel supports and are
computed without quadrature. A(n) and B(n) are triangular-weighted samples,
at the lags that are multiples of gamma, of one full cross-correlation: of
the two kernels for A (squared after sampling), of their squares for B. Limiting quantities integrate the limit
responses over the truncated real line or fold them over aliases of
(-pi, pi); every such value is returned with the truncation bound used.

The covariance identity at the center of the module: for branches i, i' at
one level,

    (1/n) Cov(sum_k Z_i^2, sum_k Z_i'^2) = 2*A(n) + kurtosis_excess * B(n)

with A, B the exact sums implemented by a_term and b_term. As the level
grows, B vanishes and 2*A approaches the limiting covariance entry

    Gamma[i, i'] = 4*pi * C^2 * int_{-pi}^{pi} |sum_p w(lam + 2*pi*p)|^2 dlam

where w is the symmetrized product of limit responses and C the 0/1/2 case
constant of the limit frequencies. (The case constant enters squared: the
unfolded +-passband copies double the folded sum for a positive shared
frequency, which quadruples the integral.)
"""

from dataclasses import dataclass

import numpy as np

from .kernels import eval_response
from .quadrature import TWO_PI, decay_cutoff, folding_cutoff, gauss_legendre_panels

IMAG_TOL = 1e-8
PSD_TOL = 1e-8


@dataclass(frozen=True)
class MomentReport:
    """A limiting-moment value with its truncation-error bound."""

    value: float
    truncation_bound: float


@dataclass(frozen=True)
class GammaMatrix:
    """Limiting covariance of normalized centered square-sums."""

    entries: np.ndarray
    constants: np.ndarray
    truncation_bounds: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        constants = np.array(self.constants, dtype=int)
        bounds = np.array(self.truncation_bounds, dtype=float)
        for arr in (entries, constants, bounds):
            arr.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "truncation_bounds", bounds)
        if not np.allclose(entries, entries.T, atol=0.0):
            raise ValueError("limiting covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(entries)) < -PSD_TOL:
            raise ValueError("limiting covariance must be positive semidefinite")
        if not np.all(np.isin(constants, (0, 1, 2))):
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


def cov_exact(family, level, i, ip, k, kp, spectral_check=False, tol=1e-8):
    """Cov(Z_{i,k}, Z_{i',k'}) at one level, as the exact time-domain sum.

    Equals sum_t v_i(gamma*k - t) v_i'(gamma*k' - t). With spectral_check the
    same value is recomputed as int conj(v*_i) v*_i' exp(i*gamma*lam*(k'-k))
    over (-pi, pi) and the two are asserted to agree within tol.
    """
    lv = family.levels[level]
    value = _corr_sum(lv.kernels[i], lv.kernels[ip], lv.gamma * (kp - k))
    if spectral_check:
        length = lv.kernels[i].length + lv.kernels[ip].length
        x, w = gauss_legendre_panels(-np.pi, np.pi, panels=max(64, 2 * length), nodes=8)
        integrand = (
            np.conj(eval_response(lv.kernels[i], x))
            * eval_response(lv.kernels[ip], x)
            * np.exp(1j * lv.gamma * x * (kp - k))
        )
        spectral = np.sum(w * integrand)
        if abs(spectral.real - value) > tol or abs(spectral.imag) > tol:
            raise AssertionError(
                f"spectral integral {spectral} disagrees with time-domain sum {value}"
            )
    return value


def case_constant(family, i, ip):
    """The 0/1/2 constant for a branch pair, from exact limit-frequency equality."""
    fi = family.limit_freqs[i]
    fip = family.limit_freqs[ip]
    if fi != fip:
        return 0
    return 1 if fi == 0.0 else 2


def _require_limits(family):
    if family.limit_responses is None:
        raise ValueError("limit responses unavailable for this family")


def symmetrized_limit_product(family, i, ip):
    """The real-line weight w(lam) pairing two limiting responses.

    w(lam) = 0.5 * [ conj(v_i(-lam)) v_i'(-lam) + v_i(lam) conj(v_i'(lam)) ].
    """
    _require_limits(family)
    ri = family.limit_responses[i]
    rip = family.limit_responses[ip]

    def w(lam):
        lam = np.asarray(lam, dtype=float)
        return 0.5 * (
            np.conj(ri(-lam)) * rip(-lam) + ri(lam) * np.conj(rip(lam))
        )

    return w


def limit_cross_cov(family, i, ip, lag, tol=1e-10):
    """Limit of Cov(Z_{i,k}, Z_{i',k+lag}) along the level ladder.

    C * int_R w(lam) exp(i*lam*lag) dlam with the integral truncated where
    the (1+|lam|)**(-2*decay) envelope makes the tail negligible. The
    symmetrization makes the integral real; the quadrature's imaginary
    residue is asserted below 1e-8 and the real part returned.
    """
    _require_limits(family)
    const = case_constant(family, i, ip)
    cutoff, bound = decay_cutoff(2.0 * family.decay, tol)
    if const == 0:
        return MomentReport(0.0, 0.0)
    w = symmetrized_limit_product(family, i, ip)
    x, wts = gauss_legendre_panels(-cutoff, cutoff, panels=max(64, int(4 * cutoff)), nodes=8)
    total = const * np.sum(wts * w(x) * np.exp(1j * x * lag))
    if abs(total.imag) > IMAG_TOL:
        raise AssertionError(f"imaginary residue {total.imag:.3e} exceeds {IMAG_TOL:g}")
    return MomentReport(float(total.real), const * bound)


def _decimated_lags(k1, k2, gamma, n, power):
    """Triangular weights 1 - |tau|/n and samples c(gamma*tau), |tau| < n.

    c(d) = sum_u v1(u)**power * v2(u + d)**power is one full correlation of
    the (powered) coefficients, whose entry j is the lag
    k2.support_start - k1.support_end + j; every gamma-th entry is kept.
    """
    corr = np.correlate(k2.coeffs ** power, k1.coeffs ** power, "full")
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
    if n < 1:
        raise ValueError("need n >= 1")
    lv = family.levels[level]
    k1, k2 = lv.kernels[i], lv.kernels[ip]
    weights, corr = _decimated_lags(k1, k2, lv.gamma, n, 1)
    return float(np.dot(weights, corr * corr))


def b_term(family, level, i, ip, n):
    """Fourth-cumulant weight, exact.

    B(n) = sum_u v_i(u)^2 * sum_{|tau| < n} (1 - |tau|/n) v_i'(gamma*tau+u)^2,
    i.e. the triangular-weighted sum of the cross-correlation of the squared
    kernels sampled at multiples of gamma.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lv = family.levels[level]
    k1, k2 = lv.kernels[i], lv.kernels[ip]
    weights, corr = _decimated_lags(k1, k2, lv.gamma, n, 2)
    return float(np.dot(weights, corr))


def cov_of_square_sums(family, level, i, ip, n, noise):
    """n**-1 * Cov(sum_k Z_i^2, sum_k Z_i'^2) = 2*A(n) + kappa4*B(n), exact."""
    return 2.0 * a_term(family, level, i, ip, n) + noise.kurtosis_excess * b_term(
        family, level, i, ip, n
    )


def m_n_functional(g, n, n_coeffs=None, nodes=None):
    """Triangular-weighted l2 norm of the Fourier coefficients of g.

    M_n(g) = sqrt( sum_{|k| < n} (1 - |k|/n) |c_k|^2 ) with
    c_k = (2*pi)**-0.5 * int_{-pi}^{pi} g(lam) exp(i*k*lam) dlam. This is
    Lipschitz with constant 1 for the L2(-pi, pi) norm and increases to that
    norm as n grows. Coefficients come from a trapezoid rule on the periodic
    interval (spectrally accurate for smooth g); the node count is at least
    2048 and always exceeds twice the largest coefficient index to keep the
    needed coefficients alias-free.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n_coeffs is not None and n_coeffs < n:
        raise ValueError("need n_coeffs >= n")
    k_max = n - 1
    if nodes is None:
        nodes = 2048
        while nodes < 2 * (k_max + 1):
            nodes *= 2
    lam = -np.pi + TWO_PI * np.arange(nodes) / nodes
    vals = np.asarray(g(lam), dtype=complex)
    spec = np.fft.ifft(vals)  # spec[k] = (1/M) sum_m g_m exp(+2i*pi*k*m/M)
    k = np.arange(-k_max, k_max + 1)
    c = np.sqrt(TWO_PI) * (-1.0) ** np.abs(k) * spec[np.mod(k, nodes)]
    weights = 1.0 - np.abs(k) / n
    return float(np.sqrt(np.sum(weights * np.abs(c) ** 2)))


def folded_limit_weight(family, i, ip, tol=1e-10):
    """Callable lam -> sum_{|p| <= P} w(lam + 2*pi*p) with its tail bound."""
    _require_limits(family)
    w = symmetrized_limit_product(family, i, ip)
    n_alias, bound = folding_cutoff(2.0 * family.decay, tol)
    p = np.arange(-n_alias, n_alias + 1, dtype=float)

    def folded(lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        pts = lam[None, :] + TWO_PI * p[:, None]
        return w(pts.ravel()).reshape(p.size, lam.size).sum(axis=0)

    return folded, bound


def gamma_limit(family, i, ip, tol=1e-10, panels=64, nodes=8):
    """One entry of the limiting covariance of centered square-sum vectors.

    Gamma[i, i'] = 4*pi * C**2 * int_{-pi}^{pi} |sum_p w(lam+2*pi*p)|^2 dlam,
    the alias sum truncated where the decay envelope puts the tail below
    tol (never fewer than 8 aliases each side).
    """
    _require_limits(family)
    const = case_constant(family, i, ip)
    if const == 0:
        return MomentReport(0.0, 0.0)
    folded, tail = folded_limit_weight(family, i, ip, tol=tol)
    x, wts = gauss_legendre_panels(-np.pi, np.pi, panels=panels, nodes=nodes)
    vals = folded(x)
    integral = float(np.sum(wts * np.abs(vals) ** 2))
    # the alias tail perturbs |folded|^2 by at most (2*max|folded| + tail) * tail
    bound = 4.0 * np.pi * const ** 2 * (2.0 * float(np.max(np.abs(vals))) + tail) * tail * TWO_PI
    return MomentReport(4.0 * np.pi * const ** 2 * integral, bound)


def gamma_matrix(family, tol=1e-10):
    """The full limiting covariance with case constants and truncation bounds."""
    n = family.n_branches
    entries = np.zeros((n, n))
    constants = np.zeros((n, n), dtype=int)
    bounds = np.zeros((n, n))
    for i in range(n):
        for ip in range(i, n):
            rep = gamma_limit(family, i, ip, tol=tol)
            entries[i, ip] = entries[ip, i] = rep.value
            bounds[i, ip] = bounds[ip, i] = rep.truncation_bound
            constants[i, ip] = constants[ip, i] = case_constant(family, i, ip)
    return GammaMatrix(entries=entries, constants=constants, truncation_bounds=bounds)


def limit_cov_squares(family, i, ip, lag, tol=1e-10):
    """Limit of Cov(Z_i^2, Z_i'^2) at fixed lag: twice the squared limit covariance.

    Equals 2 * C**2 * (int w(lam) exp(i*lam*lag) dlam)**2, i.e. exactly
    2 * limit_cross_cov(...)**2.
    """
    rep = limit_cross_cov(family, i, ip, lag, tol)
    return 2.0 * rep.value ** 2


def limit_variance(family, i, tol=1e-10):
    """Limit of E[Z_i^2] along the ladder: limit_cross_cov at lag 0."""
    return limit_cross_cov(family, i, i, 0, tol).value
