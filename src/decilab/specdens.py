"""Estimation of the spectral density at the origin from windowed coefficients.

The estimator averages squared multiscale coefficients of the observed
series: with Z_k the windowed coefficients at decimation gamma and
n_j = floor((n+1)/gamma) of them available,

    f0_hat = (1/n_j) * sum_k Z_k^2.

Its expectation is f(0) + O(gamma**-2) when the window transform decays
faster than quadratically, and sqrt(n_j) * (f0_hat - E Z_0^2) is
asymptotically normal with variance

    sigma^2 = 4*pi * f(0)^2 * int_{-pi}^{pi} (sum_p |What(lam+2*pi*p)|^2)^2 dlam

which for admissible windows (support of length at most one, unit L2
transform) collapses to exactly 2*f(0)^2.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import eval_response
from .quadrature import TWO_PI, decay_cutoff, folding_cutoff, gauss_legendre_panels
from .simulate import windowed_coefficients
from .windows import Window, make_bspline_window, validate_window  # noqa: F401  (module surface)

DEFAULT_RATE_THRESHOLD = 0.1


@dataclass(frozen=True)
class SpecEstimate:
    """Spectral-level estimate with its asymptotic error model."""

    f0_hat: float
    n: int
    gamma: int
    n_j: int
    sigma2: float
    se: float
    bias_order: float  # the gamma**-2 scale marker of the expectation error
    rate_value: float
    rate_ok: bool
    degenerate: bool  # n_j <= 1: too few coefficients for the error model


@dataclass(frozen=True)
class RateCheck:
    value: float
    ok: bool
    threshold: float


@dataclass(frozen=True)
class BiasPrediction:
    """Order marker (and, when data is supplied, fitted slope) of the bias."""

    supported: bool
    order_exponent: float
    slope: Optional[float] = None
    biases: Optional[np.ndarray] = None
    leading_constant: Optional[float] = None
    message: str = ""


@dataclass(frozen=True)
class LeakageReport:
    """Spectral mass of a level response outside a band around its target."""

    value: float
    epsilon: float
    scaled: Optional[float] = None  # sqrt(n_j) * value when n_j was given


def folded_window_response(window, gamma, lam, tol=1e-10):
    """sum_p gamma**0.5 * What(gamma*(lam + 2*pi*p)), 2*pi-periodic in lam.

    The alias sum is truncated using the window decay exponent; the gamma
    factor inside the argument only sharpens the tail bound used.
    """
    gamma = int(gamma)
    if gamma < 2 or gamma % 2 != 0:
        raise ValueError("need an even decimation factor gamma >= 2")
    n_alias, _ = folding_cutoff(window.decay, tol, min_terms=8)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    lam_arr = lam_arr - TWO_PI * np.round(lam_arr / TWO_PI)  # exact periodicity
    p = np.arange(-n_alias, n_alias + 1, dtype=float)
    pts = gamma * (lam_arr[None, :] + TWO_PI * p[:, None])
    vals = np.sqrt(gamma) * window.transform(pts.ravel()).reshape(p.size, lam_arr.size).sum(axis=0)
    return vals.reshape(np.shape(lam)) if np.ndim(lam) else complex(vals[0])


def asymptotic_sigma2(window, f0, panels=64, nodes=8, tol=1e-10):
    """Asymptotic variance of sqrt(n_j) times the estimator.

    4*pi * f0^2 * int_{-pi}^{pi} (sum_p |What(lam+2*pi*p)|^2)^2 dlam, the
    alias sum truncated per the window decay bound.
    """
    if f0 < 0:
        raise ValueError("need f0 >= 0")
    if f0 == 0.0:
        return 0.0
    n_alias, _ = folding_cutoff(2.0 * window.decay, tol, min_terms=8)
    x, w = gauss_legendre_panels(-np.pi, np.pi, panels=panels, nodes=nodes)
    p = np.arange(-n_alias, n_alias + 1, dtype=float)
    pts = x[None, :] + TWO_PI * p[:, None]
    folded = (np.abs(window.transform(pts.ravel())) ** 2).reshape(p.size, x.size).sum(axis=0)
    return 4.0 * np.pi * f0 * f0 * float(np.sum(w * folded ** 2))


def check_rate_condition(n, gamma, beta, threshold=DEFAULT_RATE_THRESHOLD):
    """The scalar sqrt(n) * gamma**(0.5 - 2*beta) and its smallness check.

    The CLT for the estimator needs this quantity to vanish along the
    design; at finite scale we call it small below the (configurable)
    threshold.
    """
    if beta <= 2.0:
        raise ValueError("outside estimator hypotheses: need window decay > 2")
    value = math.sqrt(n) * float(gamma) ** (0.5 - 2.0 * beta)
    return RateCheck(value=value, ok=bool(value < threshold), threshold=threshold)


def estimate_f0(x, window, gamma, rate_threshold=DEFAULT_RATE_THRESHOLD):
    """Mean of squared windowed coefficients as the spectral level at zero.

    Populates the plug-in error model: sigma2 = 2 * f0_hat**2, the closed
    form of asymptotic_sigma2 for every window windowed_coefficients admits
    (support in [-1, 0], unit L2 transform), with f0_hat substituted for
    the unknown f(0); se = sqrt(sigma2 / n_j); and the rate check for the
    (n, gamma, decay) design. The limiting variance is free of the fourth
    cumulant because decimation kills the cumulant term. Series shorter
    than gamma are rejected (no coefficients).
    """
    x = np.asarray(x, dtype=float)
    z = windowed_coefficients(x, window, gamma)  # rejects bad gamma/support, n_j = 0
    n_j = z.size
    f0_hat = float(np.mean(z * z))
    sigma2 = 2.0 * f0_hat * f0_hat
    if window.decay > 2.0:
        rate = check_rate_condition(x.size, gamma, window.decay, rate_threshold)
        rate_value, rate_ok = rate.value, rate.ok
    else:
        rate_value, rate_ok = float("nan"), False
    degenerate = n_j <= 1
    return SpecEstimate(
        f0_hat=f0_hat,
        n=int(x.size),
        gamma=int(gamma),
        n_j=n_j,
        sigma2=sigma2,
        se=math.sqrt(sigma2 / n_j),
        bias_order=float(gamma) ** -2.0,
        rate_value=rate_value,
        rate_ok=bool(rate_ok and not degenerate),
        degenerate=degenerate,
    )


def transform_second_moment(window, tol=1e-10):
    """int xi^2 |What(xi)|^2 dxi, the curvature weight of the leading bias."""
    cutoff, _ = decay_cutoff(2.0 * window.decay - 2.0, tol)
    x, w = gauss_legendre_panels(-cutoff, cutoff, panels=max(64, int(2 * cutoff)), nodes=8)
    return float(np.sum(w * x * x * np.abs(window.transform(x)) ** 2))


def predict_bias(window, gammas, means=None, f0=None, curvature=None):
    """Order marker of the expectation error, with optional fitted slope.

    The expectation of the estimator misses f(0) by O(gamma**-2) when the
    window decay exceeds 2; windows with decay <= 2 are flagged as outside
    the hypotheses rather than fitted. Given per-gamma expectations (means,
    analytic or simulated) and the target f0, the log-log slope of
    |mean - f0| against gamma is fitted. Given the quadratic constant of
    the spectral density at zero, the leading bias constant
    curvature * int xi^2 |What|^2 dxi is reported, so the prediction is
    leading_constant * gamma**-2.
    """
    if window.decay <= 2.0:
        return BiasPrediction(
            supported=False,
            order_exponent=-2.0,
            message="outside estimator hypotheses: need window decay > 2",
        )
    slope = None
    biases = None
    if means is not None:
        if f0 is None:
            raise ValueError("need the target f0 together with means")
        gammas = np.asarray(gammas, dtype=float)
        means = np.asarray(means, dtype=float)
        if gammas.size != means.size or gammas.size < 2:
            raise ValueError("need one mean per gamma and at least two gammas")
        biases = means - f0
        mags = np.abs(biases)
        if np.any(mags == 0.0):
            raise ValueError("zero bias encountered; slope undefined")
        slope = float(np.polyfit(np.log(gammas), np.log(mags), 1)[0])
    leading = None
    if curvature is not None:
        leading = float(curvature) * transform_second_moment(window)
    return BiasPrediction(
        supported=True,
        order_exponent=-2.0,
        slope=slope,
        biases=biases,
        leading_constant=leading,
    )


def leakage_integral(family, level, epsilon, n_j=None, branch=0, nodes=8):
    """Spectral energy of a level response outside the band |lam - target| <= epsilon.

    I = int_0^pi 1{|lam - target| > epsilon} |v*(lam)|^2 dlam by panelwise
    quadrature on the (up to two) sub-intervals, so the indicator introduces
    no discontinuity into any panel. When n_j is given, sqrt(n_j) * I is
    reported as well; the local CLT needs that product to vanish.
    """
    if epsilon <= 0.0:
        raise ValueError("need epsilon > 0")
    lv = family.levels[level]
    kernel = lv.kernels[branch]
    target = family.limit_freqs[branch]
    segments = []
    if target - epsilon > 0.0:
        segments.append((0.0, target - epsilon))
    if target + epsilon < np.pi:
        segments.append((target + epsilon, np.pi))
    total = 0.0
    panels = max(64, 2 * kernel.length)
    for a, b in segments:
        x, w = gauss_legendre_panels(a, b, panels=max(8, int(panels * (b - a) / np.pi)), nodes=nodes)
        total += float(np.sum(w * np.abs(eval_response(kernel, x)) ** 2))
    return LeakageReport(
        value=total,
        epsilon=float(epsilon),
        scaled=None if n_j is None else math.sqrt(n_j) * total,
    )
