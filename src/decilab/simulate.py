"""White-noise streams and exact realizations of decimated linear arrays.

Noise values are indexed absolutely in time: xi_t is a pure function of
(distribution, seed, t), implemented with the Philox counter-based generator
positioned at the block containing t. Kernels with different supports, or
overlapping output indices, therefore consume consistent noise values, and
results do not depend on chunking or on how work is spread across workers.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .kernels import TimeKernel

_MASK64 = (1 << 64) - 1
_T_OFFSET = 1 << 62  # shifts time indices into the nonnegative counter range

_KURTOSIS_EXCESS = {
    "gaussian": 0.0,
    "rademacher": -2.0,
    "scaled_uniform": -1.2,  # E(sqrt(3) U)^4 = 9/5 for U uniform on [-1, 1]
}


@dataclass(frozen=True)
class NoiseSpec:
    """An i.i.d. noise distribution with mean 0, variance 1, finite kurtosis."""

    distribution: str

    def __post_init__(self):
        if self.distribution not in _KURTOSIS_EXCESS:
            raise ValueError(f"unknown distribution {self.distribution!r}; "
                             f"choose from {sorted(_KURTOSIS_EXCESS)}")

    @property
    def kurtosis_excess(self):
        return _KURTOSIS_EXCESS[self.distribution]


def mix_seed(base_seed, index):
    """64-bit mix of (base_seed, index); used to derive replicate seeds."""
    x = (int(base_seed) ^ (int(index) * 0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _raw_range(seed, lo, hi):
    """Raw 64-bit Philox words for absolute indices lo..hi-1.

    Each index maps to a fixed (counter block, lane) pair, so any chunking
    of a range reproduces the same words. Philox emits 4 words per counter
    increment; advance() moves the counter one block per unit.
    """
    i0 = int(lo) + _T_OFFSET
    i1 = int(hi) + _T_OFFSET
    if i0 < 0:
        raise ValueError("time index below supported range")
    block0 = i0 >> 2
    offset = i0 & 3
    nblocks = ((i1 + 3) >> 2) - block0
    bg = np.random.Philox(key=int(seed) & _MASK64)
    bg.advance(block0)
    raw = bg.random_raw(4 * nblocks)
    return raw[offset:offset + (i1 - i0)]


def noise_values(spec, seed, lo, hi):
    """xi_t for t = lo .. hi-1; deterministic per (spec, seed, t)."""
    if hi <= lo:
        return np.empty(0, dtype=float)
    raw = _raw_range(seed, lo, hi)
    if spec.distribution == "rademacher":
        return 2.0 * ((raw >> np.uint64(63)).astype(float)) - 1.0
    u = (raw >> np.uint64(11)) * 2.0 ** -53 + 2.0 ** -54  # uniform in (0, 1)
    if spec.distribution == "gaussian":
        return ndtri(u)
    return np.sqrt(3.0) * (2.0 * u - 1.0)


def draw_noise(spec, count, seed):
    """count i.i.d. draws, the absolute-index stream started at t = 0."""
    if count < 1:
        raise ValueError("need count >= 1")
    return noise_values(spec, seed, 0, count)


@dataclass(frozen=True)
class PathMatrix:
    """Realized coefficients Z[i, k] of one level of a decimated family."""

    values: np.ndarray  # shape (N, n)
    level: int
    gamma: int
    seed: int

    @property
    def n_branches(self):
        return self.values.shape[0]

    @property
    def n_coeffs(self):
        return self.values.shape[1]


def _decimated_convolve(xi, lo, kernel, gamma, first, n):
    """Z_k = sum_s v(s) * xi(first + gamma*k - s) for k = 0 .. n-1.

    xi holds the values at absolute indices lo, lo+1, ... and must cover
    every index the sums touch. Polyphase form: with the taps reversed,
    c[m] = v(support_end - m), and m split as gamma*q + r,

        Z_k = sum_{q < Q, r < gamma} c[gamma*q + r] * X[k + q, r],

    where X is the needed stretch of xi, zero-padded at the end and
    reshaped to n + Q - 1 rows of gamma consecutive values, and
    Q = ceil(L / gamma). X is a view or one copy of that stretch, so memory
    is O(len(xi)). The n*L multiply-adds loop over the shorter axis: Q
    block matrix-vector products when Q <= gamma, else gamma valid-mode
    correlations of a column of X with a column of the taps.
    """
    q_len = -(-kernel.length // gamma)
    taps = np.zeros(q_len * gamma)
    taps[:kernel.length] = kernel.coeffs[::-1]
    taps = taps.reshape(q_len, gamma)
    start = first - kernel.support_end - lo
    rows = n + q_len - 1
    stretch = xi[start:start + rows * gamma]
    if stretch.size < rows * gamma:  # the missing tail only meets zero taps
        stretch = np.concatenate([stretch, np.zeros(rows * gamma - stretch.size)])
    x = stretch.reshape(rows, gamma)
    if q_len <= gamma:
        out = x[:n] @ taps[0]
        for q in range(1, q_len):
            out += x[q:q + n] @ taps[q]
    else:
        out = np.correlate(x[:, 0], taps[:, 0], "valid")
        for r in range(1, gamma):
            out += np.correlate(x[:, r], taps[:, r], "valid")
    return out


def simulate_decimated(family, level, n, noise, seed):
    """Exact realization Z[i, k] = sum_t v_{i,j}(gamma*k - t) xi_t, k < n.

    All branches share one noise stream; exactly the indices needed for the
    union of the branch supports are drawn, and each branch is one
    polyphase convolution of that stream (memory O(n*gamma + L)).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lv = family.levels[level]
    g = lv.gamma
    t_lo = min(-k.support_end for k in lv.kernels)
    t_hi = max(g * (n - 1) - k.support_start for k in lv.kernels) + 1
    xi = noise_values(noise, seed, t_lo, t_hi)
    values = np.empty((family.n_branches, n), dtype=float)
    for i, kern in enumerate(lv.kernels):
        values[i] = _decimated_convolve(xi, t_lo, kern, g, 0, n)
    return PathMatrix(values=values, level=int(level), gamma=g, seed=int(seed))


def simulate_linear_process(a, n, noise, seed):
    """X_u = sum_t a(u - t) xi_t for u = 1..n (undecimated convolution).

    The polyphase convolution at gamma = 1 is one valid-mode correlation of
    the n + L - 1 noise values with the reversed kernel, so memory stays
    O(n + L) at paper scale (n around 1e6, long AR kernels).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t_lo = 1 - a.support_end
    t_hi = n - a.support_start + 1
    xi = noise_values(noise, seed, t_lo, t_hi)
    return _decimated_convolve(xi, t_lo, a, 1, 1, n)


def ar1_kernel(phi, tail=1e-12):
    """Truncated AR(1) moving-average weights phi**t, t = 0..T.

    T is chosen so the l2 norm of the dropped tail is below `tail`:
    sum_{t>T} phi**(2t) = phi**(2(T+1)) / (1 - phi**2) <= tail**2.
    """
    if not 0.0 < abs(phi) < 1.0:
        raise ValueError("need 0 < |phi| < 1")
    t_max = 0
    while abs(phi) ** (t_max + 1) / np.sqrt(1.0 - phi * phi) > tail:
        t_max += 1
    return TimeKernel(0, phi ** np.arange(t_max + 1))


def windowed_coefficients(x, window, gamma):
    """Multiscale coefficients of an observed series through a window.

    Z_k = gamma**-0.5 * sum_{u=1}^{n} W(k - u/gamma) * x_u for
    k = 0 .. n_j - 1 with n_j = floor((n+1)/gamma). The window is sampled
    pointwise at the real arguments k - u/gamma (no interpolation); its
    support must be contained in [-1, 0] and gamma must be even, so each
    coefficient touches only the block gamma*k <= u <= gamma*(k+1).
    """
    gamma = int(gamma)
    if gamma < 2 or gamma % 2 != 0:
        raise ValueError("need an even decimation factor gamma >= 2")
    lo, hi = window.support
    if lo < -1.0 or hi > 0.0:
        raise ValueError("window support must be contained in [-1, 0]")
    x = np.asarray(x, dtype=float)
    n = x.size
    n_j = (n + 1) // gamma
    if n_j < 1:
        raise ValueError("series too short: floor((n+1)/gamma) coefficients would be zero")

    # Z_k = sum_{r=0}^{gamma} W(-r/gamma) x_{gamma*k + r}: the decimated
    # convolution with the kernel v(-r) = W(-r/gamma) on -gamma .. 0
    taps = window.evaluate(-np.arange(gamma, -1, -1) / gamma)
    padded = np.zeros(n + 2)
    padded[1:n + 1] = x  # u = 0 and u = n+1 contribute nothing
    kernel = TimeKernel(-gamma, taps)
    return _decimated_convolve(padded, 0, kernel, gamma, 0, n_j) / np.sqrt(gamma)
