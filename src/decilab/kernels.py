"""Finitely supported filters, their frequency responses, and decimated families.

A filter bank here is a collection of N branches observed across a ladder of
decimation factors gamma_0 < gamma_1 < ...; branch i at level j carries a
real kernel v_{i,j} with finite support, a center frequency lambda_{i,j} in
[0, pi), and (optionally) a limit kernel, a window and weight whose
transform is the limit of the rescaled responses. All objects are immutable
after construction and all operations are pure, so everything is safe for
unrestricted concurrent use.

Integers: every count, index, factor and seed (a level, branch, gamma, n,
output index k, lag, threshold, window order, quadrature panel or node count,
seed or replicate index) goes through one rule, _integer: a value that is not an
integer in its range (2.5, NaN, inf, -1 for an index, a bool) raises
ValueError("<name> <value> is not in <lo>..<hi>"), never truncated or
wrapped, and an integral float such as 1.0 is its int.
Branches and levels are 0-based throughout the Python API.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

TWO_PI = 2.0 * np.pi
INTEGER_TOL = 1e-9  # absolute tolerance for gamma*lambda / (2*pi) integrality
RESCALED_HALFWIDTH = 20.0  # check_condition_c compares rescaled responses on [-20, 20]
GRID_SIZE = 512  # check_condition_c's grid: points on [0, pi) and on the rescaled interval
# _correlate's least overlap-save block, in values over all phases; 2**14 ran faster but raised the peak memory
_FFT_BLOCK = 1 << 12
_RESPONSE_TABLE = 1 << 15  # entries per power table of eval_response (0.5 MiB of complex)


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _integer(value, name, lo=None, hi=None):
    """value as an int in lo..hi (None leaves that side open); one outside it, a bool or not an integer is rejected."""
    try:
        whole = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, inf, None
        whole = None
    if whole is None or whole != value or (lo is not None and whole < lo) or (hi is not None and whole > hi):
        raise ValueError(f"{name} {value} is not in {'' if lo is None else lo}..{'' if hi is None else hi}")
    return whole


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
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "support_start", _integer(self.support_start, "support start"))

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


def _correlate(x, h):
    """out[k] = sum_{q, r} x[k + q, r] * h[q, r], k = 0 .. M - Q: real (M, gamma) x against (Q, gamma) h, M >= Q.

    x and h are rows of a polyphase layout (FamilyLevel._blocks), so out is
    a decimated correlation: the sum over the gamma phases of a valid-mode
    correlation along the rows. Two paths, chosen from the shapes:
    - Q <= gamma (as in every window family at gamma >= 2): Q block
      matrix-vector products, sum_q x[q:q + n_out] @ h[q], in BLAS order;
    - Q > gamma: overlap-save (Stockham 1966) along the rows of every phase
      at once, the product spectra summed over the phases and the tap
      parts before one inverse per block. At F points, lag d of a phase of
      x against that of a part of P rows of taps is entry d (mod F) of
      irfft(rfft(x) * conj(rfft(h))) while no lag wraps, so the outputs go
      in blocks of F - P + 1. F is the power of two covering the smaller
      of max(4 * (the fewer of outputs and rows of taps),
      ceil(_FFT_BLOCK / gamma)) and M; P = Q when n_out >= Q, and
      P = F - n_out + 1, one block of outputs, otherwise.
    Each block is gamma rffts of F values per tap part, each part's
    spectrum taken once, so memory is O(x.size + h.size) at any length.
    """
    (rows, g), taps = x.shape, h.shape[0]
    n_out = rows - taps + 1
    if taps <= g:
        out = x[:n_out] @ h[0]
        for q in range(1, taps):
            out += x[q:q + n_out] @ h[q]
        return out
    size = 1 << (min(max(4 * min(n_out, taps), -(-_FFT_BLOCK // g)), rows) - 1).bit_length()
    part = taps if n_out >= taps else size - n_out + 1
    step = size - part + 1
    x, h = x.T, h.T  # phase-major: one row of x and of h per phase

    @lru_cache(maxsize=1)  # several blocks come with one part and several parts with one block: each is taken once
    def spectrum(t):
        return np.conj(np.fft.rfft(h[:, t:t + part], size))

    out = np.empty(n_out)
    for first in range(0, n_out, step):  # rfft's n zero-pads the last window and the last part
        acc = 0
        for t in range(0, taps, part):
            h_t = spectrum(t)  # before the window's rfft: three arrays of the block's size are held at most
            acc += (np.fft.rfft(x[:, first + t:first + t + size], size) * h_t).sum(axis=0)
        out[first:first + step] = np.fft.irfft(acc, size)[:min(step, n_out - first)]
    return out


@dataclass(frozen=True)
class FamilyLevel:
    """One decimation level: factor gamma, N kernels, N center frequencies."""

    gamma: int
    kernels: tuple
    center_freqs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _integer(self.gamma, "gamma", 1))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "center_freqs", _as_readonly(self.center_freqs))
        if len(self.kernels) != self.center_freqs.size:
            raise ValueError("one center frequency per kernel required")
        _require_band(self.center_freqs, "center")

    @cached_property
    def _blocks(self):
        """(t_lo, A), built once per level object: how the branches read one shared noise stream.

        t_lo is the first index any branch reads for Z_{., 0}. A is the read-only (N, Q, gamma)
        polyphase array: A[i, q] is row q of branch i's reversed taps v_i(support_end - m), placed at
        its offset -support_end - t_lo, so Z_{i,k} = sum_q A[i, q] . x_{k+q}, x_j the gamma stream
        values from t_lo + gamma*j on. Q is the most any branch reaches: ceil(offset/gamma) + ceil(L/gamma).
        """
        g = self.gamma
        t_lo = min(-k.support_end for k in self.kernels)
        offsets = [-k.support_end - t_lo for k in self.kernels]
        reach = max(o + -(-k.length // g) * g for o, k in zip(offsets, self.kernels))
        taps = np.zeros((len(self.kernels), -(-reach // g) * g))
        for row, o, k in zip(taps, offsets, self.kernels):
            row[o:o + k.length] = k.coeffs[::-1]
        blocks = taps.reshape(len(self.kernels), -1, g)
        blocks.setflags(write=False)
        return t_lo, blocks

    @cached_property
    def _gaussian_blocks(self):
        """A read-only (N, Q', r) polyphase array with this level's joint law under Gaussian noise, r <= N*Q.

        With A the level's polyphase array (_blocks), Z_{., k} = sum_q A_q x_{k+q},
        A_q = A[:, q]. For B a (gamma, r) orthonormal basis of the span of
        the r nonzero rows of all A_q (one QR), A_q x = (A_q B)(B^T x), and
        the B^T x_j are N(0, I_r) and independent over j when the noise is
        Gaussian. So the array D_q = A_q B, read on r values per output, has
        the same law. Blocks q with A_q = 0 at either end are dropped, which
        moves the outputs in time only. When r >= gamma (or every tap is
        zero) the array is A itself. Computed once per level object.
        """
        blocks = self._blocks[1]
        rows = blocks.reshape(-1, self.gamma)
        rows = rows[rows.any(axis=1)]
        if not 0 < rows.shape[0] < self.gamma:
            return blocks
        basis = np.linalg.qr(rows.T)[0]
        used = np.flatnonzero(blocks.any(axis=(0, 2)))
        reduced = blocks[:, used[0]:used[-1] + 1] @ basis
        reduced.setflags(write=False)
        return reduced


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

    The family is the one home of the family rules, the level and branch
    indices among them: the constructor checks the rules, level(j) rejects a
    j outside 0..n_levels-1 and branch(i) an i outside 0..n_branches-1. The
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
        object.__setattr__(self, "threshold", _integer(self.threshold, "threshold", 0, self.n_levels))
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
            _require_frequency_conditions(self, j)

    def level(self, j):
        """Level j, for j in 0..n_levels-1."""
        return self.levels[_integer(j, "level", 0, self.n_levels - 1)]

    def branch(self, i):
        """Branch index i as an int, for i in 0..n_branches-1."""
        return _integer(i, "branch", 0, self.n_branches - 1)

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


def _require_frequency_conditions(family, j):
    """Raise the first frequency condition level j breaks, in this order: gamma even, gamma*center
    in 2*pi*Z, zero center where the limit frequency is zero, one center per shared limit frequency."""
    lv = family.levels[j]
    lim, center = family.limit_freqs, lv.center_freqs
    if lv.gamma % 2 != 0:
        raise ValueError(f"gamma must be even from level {family.threshold} on (level {j})")
    if not np.all(integer_condition_residual(lv.gamma, center) <= INTEGER_TOL):
        raise ValueError(f"gamma*lambda not in 2*pi*Z at level {j}")
    zero = np.flatnonzero((lim == 0.0) & (center != 0.0))
    if zero.size:
        raise ValueError(f"branch {zero[0]} has zero limit frequency but nonzero center at level {j}")
    split = np.argwhere(np.triu((lim[:, None] == lim[None, :]) & (center[:, None] != center[None, :]), 1))
    if split.size:
        i, ip = split[0]
        raise ValueError(f"branches {i},{ip} share a limit frequency but split at level {j}")


@dataclass(frozen=True)
class ConditionReport:
    """Numerical audit of the concentration conditions for a family.

    frequency_conditions_ok is always True, as the DecimatedFamily
    constructor raises on a broken frequency condition; it stays only
    because bench/workloads.py reads it.
    integer_residuals[j, i] is the distance of gamma*center / (2*pi) from
    the nearest integer, at every level. uniform_stats[j, i] is the grid
    sup of gamma**(-1/2) |v*_{i,j}(lam)| (1 + gamma*|lam - center|)**decay
    on [0, pi);
    rescaled_residuals[j, i] the grid sup of
    |gamma**(-1/2) v*_{i,j}(lam/gamma + center) - limit_i(lam)|
    (None when the family has no limit kernels).
    """

    integer_residuals: np.ndarray
    uniform_stats: np.ndarray
    rescaled_residuals: Optional[np.ndarray]
    frequency_conditions_ok = True  # a class attribute, not a field


def check_condition_c(family):
    """Audit a family against the concentration conditions on finite grids.

    Reports (a) the integer-condition residuals (the DecimatedFamily
    constructor enforces the frequency conditions, so no pass/fail of them
    is reported), (b) the uniform envelope statistic per level and
    branch over a [0, pi) grid, (c) when limit kernels are present, the
    sup-norm residual of the rescaled response against its limit over
    [-RESCALED_HALFWIDTH, RESCALED_HALFWIDTH]. Missing limit kernels mark
    the residuals as unavailable instead of failing.

    One pass over (level, branch) computes both statistics. The uniform
    statistic takes |v*| from one rfft of the wrapped taps; the rescaled
    responses come from eval_response, against each branch's limit,
    evaluated once before the pass on the xi grid every level shares.
    """
    if family.n_levels < 2:
        raise ValueError("need at least two stored levels")

    shape = (family.n_levels, family.n_branches)
    integer_res = np.array([integer_condition_residual(lv.gamma, lv.center_freqs) for lv in family.levels])

    lam_grid = np.linspace(0.0, np.pi, GRID_SIZE, endpoint=False)
    xi = np.linspace(-RESCALED_HALFWIDTH, RESCALED_HALFWIDTH, GRID_SIZE)
    responses = family.limit_responses
    limits = None if responses is None else [response(xi) for response in responses]  # xi is every level's grid
    uniform, rescaled = np.zeros(shape), None if limits is None else np.zeros(shape)
    for j, lv in enumerate(family.levels):
        g = lv.gamma
        for i, (kernel, freq) in enumerate(zip(lv.kernels, lv.center_freqs)):
            # |v*| on the 2*GRID_SIZE-point DFT grid pi*m/GRID_SIZE, by one rfft of the wrapped taps
            wrapped = np.bincount(np.arange(kernel.length) % (2 * GRID_SIZE), kernel.coeffs, 2 * GRID_SIZE)
            resp = np.abs(np.fft.rfft(wrapped)[:GRID_SIZE]) / np.sqrt(TWO_PI)
            uniform[j, i] = np.max(resp * (1.0 + g * np.abs(lam_grid - freq)) ** family.decay) / np.sqrt(g)
            if limits is not None:
                scaled = eval_response(kernel, xi / g + freq) / np.sqrt(g)
                rescaled[j, i] = np.max(np.abs(scaled - limits[i]))

    return ConditionReport(integer_residuals=integer_res, uniform_stats=uniform, rescaled_residuals=rescaled)


def snapped_center_freq(gamma, target):
    """Nearest frequency to target with gamma*freq an exact multiple of 2*pi; gamma >= 1, target finite."""
    gamma = _integer(gamma, "gamma", 1)
    if not math.isfinite(target):
        raise ValueError(f"target frequency {target} is not finite")
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
    for g in (_integer(g, "gamma", 1) for g in gammas):
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


def _int(token):
    """An integer read from text, in (-2**64, 2**64) (every 64-bit seed), so numpy never meets one it overflows on.

    int() also reads 020, +20, 2_0 and non-ASCII digits as 20; a token that is not str() of its value is
    rejected, so each integer has one spelling.
    """
    value = int(token)
    if str(value) != token:
        raise ValueError(f"{token} is not an integer in canonical form")
    if abs(value) >= 1 << 64:
        raise ValueError(f"{token} is not an integer in (-2**64, 2**64)")
    return value


def _float(token):
    """A number read from text by float(); a token with a digit-group underscore (0.2_5) is rejected.

    float() still reads other spellings of one value alike (0.95, 0.950, 9.5e-1).
    """
    if "_" in token:
        raise ValueError(f"{token} is not a number: it holds an underscore")
    return float(token)


def read_kernel(path):
    """Read the plain-text kernel exchange format."""
    with open(path, "r", encoding="utf-8-sig") as fh:  # utf-8-sig: a leading BOM is dropped
        lines = fh.read().split()
    if len(lines) < 2:
        raise ValueError("kernel file needs a support line and at least one coefficient")
    return TimeKernel(_int(lines[0]), np.array([_float(v) for v in lines[1:]]))
