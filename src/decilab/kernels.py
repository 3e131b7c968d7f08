"""Finitely supported filters, their frequency responses, and decimated families.

A filter bank here is a collection of N branches observed across a ladder of
decimation factors gamma_0 < gamma_1 < ...; branch i at level j carries a
real kernel v_{i,j} with finite support, a center frequency lambda_{i,j} in
[0, pi), and (optionally) a limit kernel, a window and weight whose
transform is the limit of the rescaled responses. All objects are immutable
after construction and all operations are pure, so everything is safe for
unrestricted concurrent use.

Indices: branches and levels are 0-based throughout the Python API.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .quadrature import TWO_PI

INTEGER_TOL = 1e-9  # absolute tolerance for gamma*lambda / (2*pi) integrality
RESCALED_HALFWIDTH = 20.0  # check_condition_c compares rescaled responses on [-20, 20]
GRID_SIZE = 512  # check_condition_c's grid: points on [0, pi) and on the rescaled interval
# _correlate's crossover from np.correlate to FFT blocks, measured on the direct multiply-add count
_FFT_MIN_WORK = 1 << 20
_FFT_MIN_SIDE = 128  # and on the fewer of outputs and taps
_FFT_BLOCK = 1 << 12  # least overlap-save block; 2**14 ran faster but raised the peak memory
_RESPONSE_TABLE = 1 << 15  # entries per power table of eval_response (0.5 MiB of complex)


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_gamma(gamma):
    """gamma as an int; a value below 1 or not an integer (NaN, inf) is rejected, not truncated."""
    if not (float(gamma).is_integer() and gamma >= 1):
        raise ValueError(f"need an integer gamma >= 1, got {gamma}")
    return int(gamma)


def _require_band(freqs, kind):
    freqs = np.asarray(freqs, dtype=float)
    if not np.all((freqs >= 0.0) & (freqs < np.pi)):  # NaN fails both comparisons
        raise ValueError(f"{kind} frequencies must lie in [0, pi)")


@dataclass(frozen=True)
class TimeKernel:
    """A real filter v(t) supported on support_start .. support_start+len-1."""

    support_start: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _as_readonly(np.atleast_1d(self.coeffs))
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("need at least one coefficient")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        if not float(self.support_start).is_integer():
            raise ValueError(f"support start must be an integer, got {self.support_start}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "support_start", int(self.support_start))

    @property
    def length(self):
        return self.coeffs.size

    @property
    def support_end(self):
        """Index of the last coefficient (inclusive)."""
        return self.support_start + self.coeffs.size - 1


def _powers(z, count):
    """z**0 .. z**(count-1) as the rows of a (count, len(z)) table; rows k .. 2k-1 are rows 0 .. k-1 times z**k."""
    table = np.empty((count, z.size), dtype=complex)
    table[0] = 1.0
    for k in (1 << b for b in range((count - 1).bit_length())):  # k = 1, 2, 4, ... below count
        np.multiply(table[:count - k][:k], table[k - 1] * z, out=table[k:2 * k])
    return table


def eval_response(kernel, lam):
    """Frequency response (2*pi)**(-1/2) * sum_t v(t) exp(-i*lam*t).

    Exact finite sum over the kernel support in z = exp(-i*lam), blocked at
    B = ceil(sqrt(L)) taps (Paterson and Stockmeyer): the zero-padded taps
    reshaped to ceil(L/B) rows of B, times the table z**0 .. z**(B-1), give
    every block sum in one matrix product; the block sums, weighted by the
    table of (z**B)**b and added, give the response, times one
    exp(-i*lam*support_start) factor; each table is built by doubling
    (_powers). lam goes through in chunks that keep each table under
    _RESPONSE_TABLE entries, so memory is O(len(lam)) at any kernel length.
    2*pi periodic in lam and conjugate-symmetric since the kernel is real.
    Scalar lam gives a complex scalar, an array an array of the same shape.
    """
    lam_arr = np.asarray(lam, dtype=float).ravel()
    taps = kernel.coeffs
    width = math.isqrt(taps.size - 1) + 1
    blocks = np.zeros(-(-taps.size // width) * width)
    blocks[:taps.size] = taps
    blocks = blocks.reshape(-1, width)  # row b: the taps b*B .. b*B + B - 1
    chunk = max(1, _RESPONSE_TABLE // width)
    out = np.empty(lam_arr.size, dtype=complex)
    for first in range(0, lam_arr.size, chunk):
        part = lam_arr[first:first + chunk]
        # real taps times the (re, im) pairs of the table: the block sums, one row per block
        sums = (blocks @ _powers(np.exp(-1j * part), width).view(float)).view(complex)
        sums *= _powers(np.exp(-1j * width * part), blocks.shape[0])
        out[first:first + chunk] = sums.sum(axis=0)
    out *= np.exp(-1j * kernel.support_start * lam_arr) / np.sqrt(TWO_PI)
    return out.reshape(np.shape(lam)) if np.ndim(lam) else complex(out[0])


@lru_cache
def _fft_size(n):
    """The least 2**a * 3**b * 5**c >= n: each odd part 3**b * 5**c times the least power of two reaching n."""
    bits = range(n.bit_length())
    return min(f << (-(-n // f) - 1).bit_length() for f in (3 ** b * 5 ** c for b in bits for c in bits))


def _correlate(x, h, mode="valid"):
    """np.correlate(x, h, mode) for real 1-D x and h; mode "full", or "valid" with len(x) >= len(h).

    Below the crossover (fewer than _FFT_MIN_WORK direct multiply-adds, or
    fewer than _FFT_MIN_SIDE outputs or taps) it is np.correlate itself,
    bit for bit. Above it, "full" is one rfft product at the least
    2**a * 3**b * 5**c >= len(x) + len(h) - 1 or, when x is h (an
    autocorrelation), irfft(|rfft(x)|**2) mirrored into the lags
    -(L-1) .. L-1: two transforms, not three. "valid" is overlap-save
    (Stockham 1966) at an FFT size F, the power of two covering the smaller
    of max(4 * (the fewer of outputs and taps), _FFT_BLOCK) and the whole
    correlation:
    - more outputs than taps: the outputs in blocks of F - L + 1, each block
      one window of x against the one spectrum of h;
    - more taps than outputs: the taps in parts of F - n_out + 1, each part
      against its own window of x, the products summed before one inverse.
    Each block is one rfft call of F values, so memory is O(len(x) + len(h))
    at any length.
    """
    if mode == "full":  # work: every pair of values meets once
        n_out, work, short = x.size + h.size - 1, x.size * h.size, min(x.size, h.size)
    else:
        n_out, taps = x.size - h.size + 1, h.size
        work, short = n_out * taps, min(n_out, taps)
    if work < _FFT_MIN_WORK or short < _FFT_MIN_SIDE:
        return np.correlate(x, h, mode)
    if mode == "full":
        size = _fft_size(n_out)
        if x is h:  # an autocorrelation, whose lags 0 .. L-1 lead the inverse
            lags = np.fft.irfft(np.abs(np.fft.rfft(x, size)) ** 2, size)[:x.size]
            return np.concatenate((lags[:0:-1], lags))
        return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(h[::-1], size), size)[:n_out]
    size = 1 << (min(max(4 * short, _FFT_BLOCK), n_out + taps - 1) - 1).bit_length()
    if n_out >= taps:
        step = size - taps + 1
        spectrum = np.fft.rfft(h[::-1], size)
        out = np.empty(n_out)
        for first in range(0, n_out, step):  # rfft's n zero-pads the last window
            block = np.fft.irfft(np.fft.rfft(x[first:first + size], size) * spectrum, size)
            out[first:first + step] = block[taps - 1:taps - 1 + n_out - first]
        return out
    step = size - n_out + 1
    acc = np.zeros(size // 2 + 1, dtype=complex)
    part = np.empty(step)  # one part of the taps, reversed; the last, if short, front-padded with zeros
    for first in range(0, taps, step):
        piece = h[first:first + step]
        part[:step - piece.size] = 0.0
        part[step - piece.size:] = piece[::-1]
        acc += np.fft.rfft(x[first:first + size], size) * np.fft.rfft(part, size)
    return np.fft.irfft(acc, size)[step - 1:step - 1 + n_out]


@dataclass(frozen=True)
class FamilyLevel:
    """One decimation level: factor gamma, N kernels, N center frequencies."""

    gamma: int
    kernels: tuple
    center_freqs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _require_gamma(self.gamma))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "center_freqs", _as_readonly(self.center_freqs))
        if len(self.kernels) != self.center_freqs.size:
            raise ValueError("one center frequency per kernel required")
        _require_band(self.center_freqs, "center")


def integer_condition_residual(gamma, lam):
    """Distance of gamma*lam / (2*pi) from the nearest nonnegative integer."""
    q = gamma * np.asarray(lam, dtype=float) / TWO_PI
    return np.abs(q - np.round(q))


@dataclass(frozen=True)
class DecimatedFamily:
    """N branches of decimated filters across an increasing gamma ladder.

    limit_freqs[i] is the frequency the branch-i responses concentrate
    around; decay is the exponent delta > 1/2 of the uniform envelope
    (1 + gamma*|lam - center|)**(-delta). limit_kernels, when present, hold
    one (Window, weight) per branch: the rescaled responses tend to
    weight * What / sqrt(2*pi), and the limit quantities are finite sums
    over the lags where two limit kernels overlap (see moments).

    The constructor is the one place the family rules are checked. The
    frequency conditions (even gamma, integer condition, zero frequency,
    coincidence) bind from level `threshold` on, an integer in 0..n_levels
    (n_levels binds none).
    """

    levels: tuple
    limit_freqs: np.ndarray
    decay: float
    limit_kernels: Optional[tuple] = None
    threshold: int = 0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "limit_freqs", _as_readonly(self.limit_freqs))
        if self.limit_kernels is not None:
            object.__setattr__(self, "limit_kernels", tuple((w, float(wt)) for w, wt in self.limit_kernels))
        if not self.levels:
            raise ValueError("need at least one level")
        if not self.n_branches:
            raise ValueError("need at least one branch")
        if not (float(self.threshold).is_integer() and 0 <= self.threshold <= self.n_levels):
            raise ValueError(f"threshold must be an integer in 0..{self.n_levels}, got {self.threshold}")
        object.__setattr__(self, "threshold", int(self.threshold))
        if any(len(lv.kernels) != self.n_branches for lv in self.levels):
            raise ValueError("every level must carry one kernel per branch")
        if np.any(np.diff(self.gammas) <= 0):
            raise ValueError("gamma must be strictly increasing across levels")
        if not self.decay > 0.5:
            raise ValueError("need decay > 1/2")
        _require_band(self.limit_freqs, "limit")
        if self.limit_kernels is not None and len(self.limit_kernels) != self.n_branches:
            raise ValueError("one limit kernel per branch required")
        for j in range(self.threshold, self.n_levels):
            failures = _frequency_condition_failures(self, j)
            if failures:
                raise ValueError(next(iter(failures.values())))

    @property
    def n_branches(self):
        return self.limit_freqs.size

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def gammas(self):
        return np.array([lv.gamma for lv in self.levels])

    @property
    def limit_responses(self):
        """The rescaled limit responses weight * What(lam) / sqrt(2*pi), one callable per branch, or None."""
        if self.limit_kernels is None:
            return None
        return tuple((lambda lam, w=w, wt=wt: wt * w.transform(np.asarray(lam, dtype=float)) / np.sqrt(TWO_PI))
                     for w, wt in self.limit_kernels)


def _frequency_condition_failures(family, j):
    """The frequency conditions level j breaks, as {condition: message}.

    Conditions, checked in this order: "even" (gamma is even), "integer"
    (gamma*center lies in 2*pi*Z), "zero_freq" (a branch with zero limit
    frequency has zero center), "coincidence" (branches sharing a limit
    frequency share the center). An empty dict means level j meets them all.
    """
    lv = family.levels[j]
    lim, center = family.limit_freqs, lv.center_freqs
    failures = {}
    if lv.gamma % 2 != 0:
        failures["even"] = f"gamma must be even from level {family.threshold} on (level {j})"
    if not np.all(integer_condition_residual(lv.gamma, center) <= INTEGER_TOL):
        failures["integer"] = f"gamma*lambda not in 2*pi*Z at level {j}"
    zero = np.flatnonzero((lim == 0.0) & (center != 0.0))
    if zero.size:
        failures["zero_freq"] = f"branch {zero[0]} has zero limit frequency but nonzero center at level {j}"
    split = np.argwhere(np.triu((lim[:, None] == lim[None, :]) & (center[:, None] != center[None, :]), 1))
    if split.size:
        i, ip = split[0]
        failures["coincidence"] = f"branches {i},{ip} share a limit frequency but split at level {j}"
    return failures


@dataclass(frozen=True)
class ConditionReport:
    """Numerical audit of the concentration conditions for a family.

    failed names the frequency conditions ("even", "integer", "zero_freq",
    "coincidence") that some level from the family threshold on breaks; it
    re-checks what DecimatedFamily enforces, so it is empty.
    integer_residuals[j, i] is the distance of gamma*center / (2*pi) from
    the nearest integer, at every level. uniform_stats[j, i] is the grid
    sup of gamma**(-1/2) |v*_{i,j}(lam)| (1 + gamma*|lam - center|)**decay
    on [0, pi);
    rescaled_residuals[j, i] the grid sup of
    |gamma**(-1/2) v*_{i,j}(lam/gamma + center) - limit_i(lam)|
    (None when the family has no limit kernels).
    """

    failed: frozenset
    integer_residuals: np.ndarray
    uniform_stats: np.ndarray
    rescaled_residuals: Optional[np.ndarray]

    @property
    def frequency_conditions_ok(self):
        return not self.failed


def check_condition_c(family):
    """Audit a family against the concentration conditions on finite grids.

    Checks (a) the arithmetic conditions on gammas and center frequencies
    from the family threshold on, (b) the uniform envelope statistic per
    level and branch over a [0, pi) grid, (c) when limit kernels are
    present, the sup-norm residual of the rescaled response against its
    limit over [-RESCALED_HALFWIDTH, RESCALED_HALFWIDTH]. Missing limit
    kernels mark the residuals as unavailable instead of failing.

    The uniform statistic takes |v*| from one rfft of the wrapped taps; the
    rescaled responses come from eval_response, and each branch's limit is
    evaluated once, on the xi grid every level shares.
    """
    if family.n_levels < 2:
        raise ValueError("need at least two stored levels")

    n = family.n_branches
    nl = family.n_levels

    integer_res = np.array([integer_condition_residual(lv.gamma, lv.center_freqs) for lv in family.levels])
    failed = frozenset(name for j in range(family.threshold, nl) for name in _frequency_condition_failures(family, j))

    # |v*| on the 2*GRID_SIZE-point DFT grid pi*m/GRID_SIZE, by one rfft of the wrapped taps
    lam_grid = np.linspace(0.0, np.pi, GRID_SIZE, endpoint=False)
    uniform = np.zeros((nl, n))
    for j, lv in enumerate(family.levels):
        g = lv.gamma
        for i in range(n):
            taps = lv.kernels[i].coeffs
            wrapped = np.bincount(np.arange(taps.size) % (2 * GRID_SIZE), weights=taps, minlength=2 * GRID_SIZE)
            resp = np.abs(np.fft.rfft(wrapped)[:GRID_SIZE]) / np.sqrt(TWO_PI)
            envelope = (1.0 + g * np.abs(lam_grid - lv.center_freqs[i])) ** family.decay
            uniform[j, i] = np.max(resp * envelope) / np.sqrt(g)

    rescaled = None
    responses = family.limit_responses
    if responses is not None:
        xi = np.linspace(-RESCALED_HALFWIDTH, RESCALED_HALFWIDTH, GRID_SIZE)
        limits = [response(xi) for response in responses]  # the xi grid is the same at every level
        rescaled = np.zeros((nl, n))
        for j, lv in enumerate(family.levels):
            g = lv.gamma
            for i in range(n):
                scaled = eval_response(lv.kernels[i], xi / g + lv.center_freqs[i]) / np.sqrt(g)
                rescaled[j, i] = np.max(np.abs(scaled - limits[i]))

    return ConditionReport(
        failed=failed,
        integer_residuals=integer_res,
        uniform_stats=uniform,
        rescaled_residuals=rescaled,
    )


def snapped_center_freq(gamma, target):
    """Nearest frequency to target with gamma*freq an exact multiple of 2*pi."""
    q = int(round(gamma * target / TWO_PI))
    q = min(q, (gamma - 1) // 2)  # keep the frequency strictly below pi
    q = max(q, 0)
    return TWO_PI * q / gamma


def _window_taps(window, gamma):
    """W(t/gamma) on t = -gamma..0; a window with a knot outside [-1, 0] is rejected, as these taps would miss it."""
    lo, hi = window.support
    if lo < -1.0 or hi > 0.0:
        raise ValueError("window support must be contained in [-1, 0]")
    return window.evaluate(np.arange(-gamma, 1) / gamma)


def _window_family(prototype, gammas, freqs, name):
    """One branch per limit frequency f, sampling the window at every scale gamma.

    Branch f at level gamma carries v(t) = gamma**-0.5 * W(t/gamma) * cos(c*t)
    on t = -gamma..0 (the taps of _window_taps), c = snapped_center_freq(gamma, f)
    (0 for f = 0). Its limit kernel is (W, 1), or (W, 1/2) for f > 0 as the
    cosine splits the passband across +-c. Inputs are checked before sampling;
    DecimatedFamily enforces the family rules.
    """
    _require_band(freqs, "limit")
    levels = []
    for g in map(_require_gamma, gammas):
        t = np.arange(-g, 1)
        profile = _window_taps(prototype, g) / np.sqrt(g)
        centers = np.array([snapped_center_freq(g, f) for f in freqs])
        kernels = tuple(TimeKernel(-g, profile * np.cos(c * t)) for c in centers)
        levels.append(FamilyLevel(gamma=g, kernels=kernels, center_freqs=centers))

    return DecimatedFamily(
        levels=tuple(levels),
        limit_freqs=np.array(freqs, dtype=float),
        decay=float(prototype.decay),
        limit_kernels=tuple((prototype, 0.5 if f > 0.0 else 1.0) for f in freqs),
        name=name,
    )


def make_scaled_window_family(prototype, gammas, modulation_freq=0.0):
    """One-branch window family, modulated when modulation_freq > 0 (see _window_family).

    gammas must be increasing even integers >= 1; modulation_freq lies in [0, pi).
    """
    return _window_family(prototype, gammas, (modulation_freq,), f"scaled:{prototype.name}@{modulation_freq:g}")


def two_frequency_demo_family(prototype, gammas):
    """Baseband branch plus a branch modulated at pi/2, from one window (see _window_family).

    The limit frequencies differ, so the limiting covariance of the two square-sums
    vanishes. gamma*pi/2 in 2*pi*Z needs gammas that are multiples of 4.
    """
    if any(g % 4 for g in gammas):  # nonzero, or NaN, unless g is a multiple of 4
        raise ValueError("two-frequency gammas must be multiples of 4")
    return _window_family(prototype, gammas, (0.0, np.pi / 2), f"two-frequency:{prototype.name}")


def read_kernel(path):
    """Read the plain-text kernel exchange format."""
    with open(path, "r", encoding="utf-8-sig") as fh:  # utf-8-sig: a leading BOM is dropped
        lines = fh.read().split()
    if len(lines) < 2:
        raise ValueError("kernel file needs a support line and at least one coefficient")
    return TimeKernel(int(lines[0]), np.array([float(v) for v in lines[1:]]))
