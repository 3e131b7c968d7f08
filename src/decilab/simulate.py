"""White-noise streams and exact realizations of decimated linear arrays.

xi_t is a pure function of (distribution, seed, t): w_t is the raw 64-bit
word at position t + 2**62 of the Philox stream keyed by the seed, and with
u_t = (w_t >> 11) * 2**-53 + 2**-54 in (0, 1), Gaussian xi_t = ndtri(u_t),
scaled uniform xi_t = sqrt(3) * (2 * u_t - 1), Rademacher xi_t =
2 * (w_t >> 63) - 1. Philox is counter-based, so a range is read by
advancing the counter to the 4-word block holding its first index; for
Philox, numpy's Generator.random computes exactly (w >> 11) * 2**-53 from
the same words, in one pass in C. Kernels with different supports, or
overlapping output indices, therefore consume consistent noise values, and
results do not depend on chunking or on how work is spread across workers.

ndtri is scipy.special.ndtri, imported on the first Gaussian draw, not with
this module, so runs that draw no Gaussian noise never load scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import TimeKernel, _correlate, _window_taps

_MASK64 = (1 << 64) - 1
_T_OFFSET = 1 << 62  # shifts time indices into the nonnegative counter range
AR1_TAIL = 1e-12  # ar1_kernel drops a tail of at most this l2 norm

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


def _stream_at(seed, lo):
    """Philox keyed by seed at the 4-word block holding w_lo, and lo's lane in that block.

    advance() moves the counter one block per unit; the first lane words
    read from it precede w_lo.
    """
    i0 = int(lo) + _T_OFFSET
    if i0 < 0:
        raise ValueError("time index below supported range")
    bg = np.random.Philox(key=int(seed) & _MASK64)
    bg.advance(i0 >> 2)
    return bg, i0 & 3


def noise_values(spec, seed, lo, hi):
    """xi_t for t = lo .. hi-1; deterministic per (spec, seed, t)."""
    if hi <= lo:
        return np.empty(0, dtype=float)
    bg, lane = _stream_at(seed, lo)
    n_words = lane + int(hi) - int(lo)
    if spec.distribution == "rademacher":
        raw = bg.random_raw(n_words)[lane:]
        return 2.0 * ((raw >> np.uint64(63)).astype(float)) - 1.0
    u = np.random.Generator(bg).random(n_words)[lane:]
    u += 2.0 ** -54  # uniform in (0, 1)
    if spec.distribution == "gaussian":
        from scipy.special import ndtri  # loaded on the first Gaussian draw
        return ndtri(u, out=u)
    return np.sqrt(3.0) * (2.0 * u - 1.0)


def _decimated_convolve(xi, kernel, gamma, n):
    """Z_k = sum_s v(s) * xi[gamma*k + support_end - s] for k = 0 .. n-1.

    xi[0] is the value v(support_end) weighs in Z_0, and xi must cover
    every value the sums touch. With the taps reversed, c[m] =
    v(support_end - m), Z_k is the correlation of c with xi from
    gamma*k on. Two paths, chosen by Q = ceil(L / gamma):
    - Q <= gamma (L <= gamma**2, as in every window family at gamma >= 2):
      with m split as gamma*q + r,
          Z_k = sum_{q < Q, r < gamma} c[gamma*q + r] * X[k + q, r],
      where X is xi, zero-padded at the end, as n + Q - 1 rows of gamma
      consecutive values: Q block matrix-vector products in BLAS order.
    - Q > gamma: one valid-mode correlation of xi at the full rate,
      gamma*(n - 1) + L values, by kernels._correlate, with every gamma-th
      output kept. That is np.correlate below a measured size and blocked
      FFTs above it, so a kernel far longer than the output (gamma = 1, an
      AR(1) near the unit root) costs O((n + L) log) operations, not n*L.
    Memory is O(len(xi) + L) on both.
    """
    q_len = -(-kernel.length // gamma)
    taps = kernel.coeffs[::-1]
    if q_len > gamma:
        return _correlate(xi[:gamma * (n - 1) + kernel.length], taps)[::gamma]
    taps = np.concatenate([taps, np.zeros(q_len * gamma - taps.size)]).reshape(q_len, gamma)
    rows = n + q_len - 1
    stretch = xi[:rows * gamma]
    if stretch.size < rows * gamma:  # the missing tail only meets zero taps
        stretch = np.concatenate([stretch, np.zeros(rows * gamma - stretch.size)])
    x = stretch.reshape(rows, gamma)
    out = x[:n] @ taps[0]
    for q in range(1, q_len):
        out += x[q:q + n] @ taps[q]
    return out


def simulate_decimated(family, level, n, noise, seed):
    """Exact realization Z[i, k] = sum_t v_{i,j}(gamma*k - t) xi_t, k < n: an (N, n) array.

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
    return np.array([_decimated_convolve(xi[-k.support_end - t_lo:], k, g, n) for k in lv.kernels])


def simulate_linear_process(a, n, noise, seed):
    """X_u = sum_t a(u - t) xi_t for u = 1..n (undecimated convolution).

    The decimated convolution at gamma = 1 is one valid-mode correlation of
    the n + L - 1 noise values with the reversed kernel. Long kernels take
    the overlap-save path of kernels._correlate, one bounded FFT block at a
    time, so memory stays O(n + L) at paper scale (n around 1e6, AR
    kernels of millions of taps).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t_lo = 1 - a.support_end
    t_hi = n - a.support_start + 1
    xi = noise_values(noise, seed, t_lo, t_hi)
    return _decimated_convolve(xi, a, 1, n)


def ar1_kernel(phi):
    """Truncated AR(1) moving-average weights phi**t, t = 0..T.

    T is the least t >= 0 with the l2 norm of the dropped tail at most
    AR1_TAIL: sum_{s>t} phi**(2s) = phi**(2(t+1)) / (1 - phi**2) <= AR1_TAIL**2.
    Solving for t gives a start that is off by rounding at most; stepping
    from it with the same floating-point predicate until it flips finds
    that least t in a few evaluations.
    """
    if not 0.0 < abs(phi) < 1.0:
        raise ValueError("need 0 < |phi| < 1")

    def kept(t):  # the tail beyond t is still above the target
        return abs(phi) ** (t + 1) / np.sqrt(1.0 - phi * phi) > AR1_TAIL

    t_max = max(0, math.ceil((math.log(AR1_TAIL) + 0.5 * math.log1p(-phi * phi)) / math.log(abs(phi))) - 1)
    while kept(t_max):
        t_max += 1
    while t_max > 0 and not kept(t_max - 1):
        t_max -= 1
    return TimeKernel(0, phi ** np.arange(t_max + 1))


def windowed_coefficients(x, window, gamma):
    """Multiscale coefficients of an observed series through a window.

    Z_k = gamma**-0.5 * sum_{u=1}^{n} W(k - u/gamma) * x_u for
    k = 0 .. n_j - 1 with n_j = floor((n+1)/gamma). The window is sampled
    pointwise at the real arguments k - u/gamma (no interpolation); its
    support must be contained in [-1, 0] and gamma must be even, so each
    coefficient touches only the block gamma*k <= u <= gamma*(k+1). A
    series with a non-finite value is rejected.
    """
    if not (float(gamma).is_integer() and gamma >= 2 and gamma % 2 == 0):
        raise ValueError(f"need an even integer decimation factor gamma >= 2, got {gamma}")
    gamma = int(gamma)
    # Z_k = sum_{r=0}^{gamma} W(-r/gamma) x_{gamma*k + r}: the decimated
    # convolution with the kernel v(-r) = W(-r/gamma) on -gamma .. 0
    kernel = TimeKernel(-gamma, _window_taps(window, gamma))
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("series has a non-finite value")
    n = x.size
    n_j = (n + 1) // gamma
    if n_j < 1:
        raise ValueError("series too short: floor((n+1)/gamma) coefficients would be zero")

    padded = np.zeros(n + 2)
    padded[1:n + 1] = x  # u = 0 and u = n+1 contribute nothing
    return _decimated_convolve(padded, kernel, gamma, n_j) / np.sqrt(gamma)
