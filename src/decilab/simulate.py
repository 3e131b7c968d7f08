"""White-noise streams and exact realizations of decimated linear arrays.

xi_t is a pure function of (distribution, seed, t): w_t is the raw 64-bit
word at position t + 2**62 of the Philox stream keyed by the seed, and with
u_t = (w_t >> 11) * 2**-53 + 2**-54 in (0, 1), Gaussian xi_t = ndtri(u_t),
scaled uniform xi_t = sqrt(3) * (2 * u_t - 1), Rademacher xi_t =
2 * (w_t >> 63) - 1. Philox is counter-based, so a range is read by
opening the stream at the 4-word block holding its first index; for
Philox, numpy's Generator.random computes exactly (w >> 11) * 2**-53 from
the same words, in one pass in C. Kernels with different supports, or
overlapping output indices, therefore consume consistent noise values, and
results do not depend on chunking or on how work is spread across workers.
The stream is the realization: simulate_decimated returns the sums of the
documented xi_t, read block by block into one reused buffer (noise_values
with out=), and `decilab simulate` writes them. Each read opens its own
keyed Philox, so no two calls or threads share a generator.

ndtri (scipy.special) is imported on the first Gaussian noise_values call,
not with this module, so runs that draw no Gaussian xi_t never load scipy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import TimeKernel, _correlate, _integer, make_scaled_window_family

_MASK64 = (1 << 64) - 1
_T_OFFSET = 1 << 62  # shifts time indices into the nonnegative counter range
AR1_TAIL = 1e-12  # ar1_kernel drops a tail of at most this l2 norm
# noise values per simulate_decimated block (256 KiB): sizes 2**14-2**17 timed within the spread,
# and 2**15 blocks match the whole-array call bit for bit at one BLAS thread
_NOISE_BLOCK = 1 << 15

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
    """64-bit mix of (base_seed, index), each in 0..2**64-1; used to derive replicate seeds."""
    seed, index = _integer(base_seed, "seed", 0, _MASK64), _integer(index, "replicate index", 0, _MASK64)
    x = (seed ^ (index * 0x9E3779B97F4A7C15)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def _philox(counter, key):
    """A new Generator on Philox(counter=counter, key=key), the caller's own: no later call touches it."""
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def noise_values(spec, seed, lo, hi, out=None):
    """xi_t for t = lo .. hi-1; deterministic per (spec, seed, t), seed in 0..2**64-1, lo from -2**62 on.

    With out, a float64 array of hi - lo values, they are written into it
    in place and out is returned; an out of another length is rejected.
    """
    seed = _integer(seed, "seed", 0, _MASK64)
    lo, hi = _integer(lo, "lo", -_T_OFFSET), _integer(hi, "hi")
    count = max(0, hi - lo)
    if out is None:
        out = np.empty(count)
    elif out.shape != (count,):
        raise ValueError(f"out holds {out.size} values, not hi - lo = {count}")
    if not count:
        return out
    i0 = lo + _T_OFFSET
    gen = _philox(i0 >> 2, seed)  # the 4-word block holding w_lo
    bg = gen.bit_generator
    bg.random_raw(i0 & 3)  # the words of the block that precede w_lo
    if spec.distribution == "rademacher":
        raw = bg.random_raw(count)
        np.multiply(raw >> np.uint64(63), 2.0, out=out)
        out -= 1.0
        return out
    gen.random(out=out)
    out += 2.0 ** -54  # uniform in (0, 1)
    if spec.distribution == "gaussian":
        from scipy.special import ndtri  # loaded on the first Gaussian draw
        return ndtri(out, out=out)
    out *= 2.0
    out -= 1.0
    out *= np.sqrt(3.0)
    return out


def _level_outputs(blocks, n, fill):
    """Z[i, k] = sum_q A[i, q] . x_{k+q}, k < n, x_j the gamma values of a stream s from gamma*j on.

    A = blocks is an (N, Q, gamma) polyphase array (FamilyLevel._blocks) and
    the result an (N, n) array. fill(lo, out) writes s_lo, s_{lo+1}, ...
    into out, once per block of about _NOISE_BLOCK values, for increasing
    lo: each index is filled once, into a reused buffer that carries to the
    next block the values both read. Outputs move with the block size by
    rounding only, as BLAS may sum a row in another order where it falls
    elsewhere in a block. Memory is O(_NOISE_BLOCK + N*n + N*Q*gamma), not
    O(n*gamma).
    """
    g = blocks.shape[2]
    reach = blocks.shape[1] * g
    carry = reach - g  # the values one block shares with the next
    # a block draws at least as many values as it carries, so a long kernel adds O(L) per O(L) outputs at most
    rows = max(1, min(n, max(_NOISE_BLOCK, carry) // g))
    z = np.empty((blocks.shape[0], n))
    buf = np.empty((rows - 1) * g + reach)
    for k0 in range(0, n, rows):
        m = min(rows, n - k0)
        end = (m - 1) * g + reach
        fresh = carry if k0 else 0
        fill(g * k0 + fresh, buf[fresh:end])
        for row, taps in zip(z, blocks):
            row[k0:k0 + m] = _correlate(buf[:end].reshape(-1, g), taps)
        buf[:carry] = buf[m * g:end]
    return z


def simulate_decimated(family, level, n, noise, seed):
    """Exact realization Z[i, k] = sum_t v_{i,j}(gamma*k - t) xi_t, k < n: an (N, n) array.

    _level_outputs on the level's polyphase array (t_lo, A), FamilyLevel._blocks,
    fed xi_t from t = t_lo on.
    """
    n, seed = _integer(n, "n", 1), _integer(seed, "seed", 0, _MASK64)
    t_lo, blocks = family.level(level)._blocks
    return _level_outputs(blocks, n,
                          lambda lo, out: noise_values(noise, seed, t_lo + lo, t_lo + lo + out.size, out=out))


def simulate_linear_process(a, n, noise, seed):
    """X_u = sum_t a(u - t) xi_t for u = 1..n (undecimated convolution).

    The decimated convolution at gamma = 1: kernels._correlate of the
    n + L - 1 noise values, as rows of one phase, against the reversed
    kernel. That is overlap-save for any kernel of more than one tap, so a
    kernel far longer than the output (an AR(1) near the unit root) costs
    O((n + L) log) operations, not n*L, one bounded FFT block at a time:
    memory stays O(n + L) at paper scale (n around 1e6, AR kernels of
    millions of taps).

    Under Gaussian noise the n + L - 1 values are the first standard_normal
    values of a Philox keyed by the seed from counter 0: the same
    seeded series on every run, with exactly the law of X, but not the
    realization of xi_t that simulate_decimated reads. Other noise reads
    xi_t bit for bit.
    """
    n, seed = _integer(n, "n", 1), _integer(seed, "seed", 0, _MASK64)
    t_lo = 1 - a.support_end
    t_hi = n - a.support_start + 1
    if noise.distribution == "gaussian":
        xi = _philox(0, seed).standard_normal(t_hi - t_lo)
    else:
        xi = noise_values(noise, seed, t_lo, t_hi)
    return _correlate(xi[:, None], a.coeffs[::-1, None])


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
    k = 0 .. n_j - 1 with n_j = floor((n+1)/gamma): the decimated
    convolution of the series with the kernel of
    make_scaled_window_family(window, [gamma]), the array simulate_decimated
    applies to noise. That family rejects a gamma that is not even and a
    window whose support leaves [-1, 0], so each coefficient touches only
    the block gamma*k <= u <= gamma*(k+1). A series with a non-finite value
    is rejected.
    """
    level = make_scaled_window_family(window, [gamma]).levels[0]
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("series has a non-finite value")
    n = x.size
    n_j = (n + 1) // level.gamma
    if n_j < 1:
        raise ValueError("series too short: floor((n+1)/gamma) coefficients would be zero")

    # x_u at index u; u = 0, u = n+1 and the rest of the (n_j + 1)*gamma values read are zero,
    # n_j + 1 rows of gamma against the Q = 2 rows of the kernel's gamma + 1 taps
    padded = np.zeros((n_j + 1) * level.gamma)
    padded[1:n + 1] = x
    return _correlate(padded.reshape(n_j + 1, level.gamma), level._blocks[1][0])
