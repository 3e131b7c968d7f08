"""Estimation of the spectral density at the origin from windowed coefficients.

The estimator averages squared multiscale coefficients of the observed
series: with Z_k the windowed coefficients at decimation gamma and
n_j = floor((n+1)/gamma) of them available,

    f0_hat = (1/n_j) * sum_k Z_k^2.

Its expectation is f(0) + O(gamma**-2) when the window transform decays
faster than quadratically, and sqrt(n_j) * (f0_hat - E Z_0^2) is
asymptotically normal with variance

    sigma^2 = 4*pi * f(0)^2 * int_{-pi}^{pi} (sum_p |What(lam+2*pi*p)|^2)^2 dlam
            = 8*pi^2 * f(0)^2 * sum_k R_W(k)^2,  R_W(k) = int W(t) W(t + k) dt,

a finite sum over the lags where the window overlaps its shift (Poisson
summation and Parseval). For admissible windows (support of length at most
one, unit L2 transform) only R_W(0) = 1/(2*pi) remains: sigma^2 = 2*f(0)^2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import eval_response
from .quadrature import gauss_legendre_panels
from .simulate import windowed_coefficients
from .windows import _correlations

RATE_THRESHOLD = 0.1  # the rate value below which the CLT design counts as small


@dataclass(frozen=True)
class SpecEstimate:
    """Spectral-level estimate with its asymptotic error model."""

    f0_hat: float
    n: int
    gamma: int
    n_j: int
    sigma2: float
    se: float
    rate_value: float
    rate_ok: bool
    degenerate: bool  # n_j <= 1: too few coefficients for the error model


def asymptotic_sigma2(window, f0):
    """Asymptotic variance of sqrt(n_j) times the estimator.

    8*pi^2 * f0^2 * sum_k R_W(k)^2 over the lags where the window overlaps
    its shift, each R_W(k) exact by per-knot Gauss-Legendre.
    """
    if not f0 >= 0:
        raise ValueError("need f0 >= 0")
    if f0 == 0.0:
        return 0.0
    total = sum(rho * rho for rho, _ in _correlations(window, window).values())
    return 8.0 * np.pi ** 2 * f0 * f0 * total


def check_rate_condition(n, gamma, beta):
    """The rate value sqrt(n) * gamma**(0.5 - 2*beta).

    The CLT for the estimator needs this quantity to vanish along the
    design; estimate_f0 calls it small below RATE_THRESHOLD. A decay
    beta <= 2 is outside the estimator's hypotheses and is rejected.
    """
    if beta <= 2.0:
        raise ValueError("outside estimator hypotheses: need window decay > 2")
    return math.sqrt(n) * float(gamma) ** (0.5 - 2.0 * beta)


def estimate_f0(x, window, gamma):
    """Mean of squared windowed coefficients as the spectral level at zero.

    Populates the plug-in error model: sigma2 = 2 * f0_hat**2, the closed
    form of asymptotic_sigma2 for every window windowed_coefficients admits
    (support in [-1, 0], unit L2 transform), with f0_hat substituted for
    the unknown f(0); se = sqrt(sigma2 / n_j); and the rate value of the
    (n, gamma, decay) design from check_rate_condition, which rejects a
    window with decay <= 2. rate_ok is the one comparison of that value
    with RATE_THRESHOLD, and is False for a degenerate estimate. The
    limiting variance is free of the fourth cumulant because decimation
    kills the cumulant term. Series shorter than gamma are rejected (no
    coefficients), as are non-finite ones.
    """
    x = np.asarray(x, dtype=float)
    z = windowed_coefficients(x, window, gamma)  # rejects bad gamma/support, n_j = 0
    n_j = z.size
    f0_hat = float(np.mean(z * z))
    sigma2 = 2.0 * f0_hat * f0_hat
    rate_value = check_rate_condition(x.size, gamma, window.decay)
    degenerate = n_j <= 1
    return SpecEstimate(
        f0_hat=f0_hat,
        n=int(x.size),
        gamma=int(gamma),
        n_j=n_j,
        sigma2=sigma2,
        se=math.sqrt(sigma2 / n_j),
        rate_value=rate_value,
        rate_ok=rate_value < RATE_THRESHOLD and not degenerate,
        degenerate=degenerate,
    )


def leakage_integral(family, level, epsilon):
    """Spectral energy of branch 0 of a level outside the band |lam - target| <= epsilon.

    I = int_0^pi 1{|lam - target| > epsilon} |v*(lam)|^2 dlam by panelwise
    quadrature on the (up to two) sub-intervals, so the indicator introduces
    no discontinuity into any panel. v* comes from eval_response (a
    sqrt(L)-blocked direct sum, O(nodes) memory), which keeps |v*|^2
    accurate far below the energy, where a closed form through the
    autocorrelation cancels to rounding. The local CLT needs sqrt(n_j) * I -> 0.
    """
    if not epsilon > 0.0:  # NaN fails too
        raise ValueError("need epsilon > 0")
    kernel = family.level(level).kernels[0]
    target = family.limit_freqs[0]
    segments = []
    if target - epsilon > 0.0:
        segments.append((0.0, target - epsilon))
    if target + epsilon < np.pi:
        segments.append((target + epsilon, np.pi))
    total = 0.0
    for a, b in segments:
        # |v*|^2 has degree L - 1: panels of width pi/(2L) hold a quarter period of its top frequency
        x, w = gauss_legendre_panels(a, b, panels=max(8, int(2 * kernel.length * (b - a) / np.pi)))
        total += float(np.sum(w * np.abs(eval_response(kernel, x)) ** 2))
    return total
