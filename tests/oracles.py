"""Frequency-domain reference implementations that only the tests call.

They check identities of the library's exact time-domain sums: the
covariance of two coefficients as an integral of their responses, A(n) =
M_n(g)**2 for the folded product of two responses, Parseval for
eval_response, the alias structure of a scaled window, the unit L2 norm of
a window transform, and the limit quantities (the limit of E Z^2, Gamma,
sigma^2) as truncated alias-fold and real-line quadratures of the limit
responses; the two-term recursion is the reference for the B-spline values,
the step-by-step loop for the AR(1) truncation point, a tap-by-tap sum over
the kernel supports for each lag covariance, and np.correlate of the taps at
every size for the lag samples behind A(n) and B(n). Imported as
`from oracles import ...`, like conftest; the file name keeps pytest from
collecting it.

Real-line integrals and alias sums of f with |f(x)| <= C*(1+|x|)**(-q) are
truncated only here: each primitive measures C from f and sizes its cutoff
by the tail rules at tol/C. The alias cutoff is the least P whose tail bound
is below its tolerance; a tolerance no P up to MAX_ALIASES meets raises
ValueError. alias_sum_norm_sq integrates |F|^2 for the alias sum F of a
Hermitian f, f(-x) = conj f(x); then |F|^2 is even, and its integral over
[-pi, pi] is twice the rule on [0, pi].
"""

import math

import numpy as np

from decilab.kernels import TWO_PI, eval_response
from decilab.moments import case_constant
from decilab.quadrature import gauss_legendre_panels

TAIL_TOL = 1e-10
MIN_ALIASES = 8
MAX_ALIASES = 10_000_000
IMAG_TOL = 1e-8


def _check_tail(exponent, tol):
    if not exponent > 1.0:
        raise ValueError("need exponent > 1 for a summable tail")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"need a finite tol > 0, got {tol}")


def decay_cutoff(exponent, tol=TAIL_TOL):
    """Half-width L such that the tail rule (1+L)^(1-q) / (q-1) < tol holds.

    Used to truncate integrals over the real line of functions bounded by
    (1+|x|)^(-q) with q = exponent > 1, at a finite tol > 0. Returns
    (L, one-tail bound).
    """
    _check_tail(exponent, tol)
    q = exponent
    cutoff = max((0.5 * tol * (q - 1.0)) ** (-1.0 / (q - 1.0)), 1.0)  # strictly below tol, rounding included
    bound = (1.0 + cutoff) ** (1.0 - q) / (q - 1.0)
    return cutoff, bound


def folding_cutoff(exponent, tol=TAIL_TOL):
    """Least P >= MIN_ALIASES with the aliasing tail below tol.

    For a function bounded by (1+|x|)^(-q), the terms g(lam + 2*pi*p) with
    |lam| <= pi and |p| > P are dominated by (1+(2|p|-1)*pi)^(-q); their sum
    is below bound(P) = (1+(2P-1)*pi)^(1-q) / (pi*(q-1)). Solving
    bound(P) = tol in log space gives a start that is off by rounding at
    most; stepping from it with the same floating-point predicate until it
    flips finds the least P. A P past MAX_ALIASES raises ValueError, as does
    a tol that is not finite and > 0. Returns (P, achieved_bound).
    """
    _check_tail(exponent, tol)
    q = exponent

    def bound(p):
        return (1.0 + (2.0 * p - 1.0) * np.pi) ** (1.0 - q) / (np.pi * (q - 1.0))

    # log(1 + (2P-1)*pi) at the real root P of bound(P) = tol
    log_root = -(math.log(tol) + math.log(np.pi) + math.log(q - 1.0)) / (q - 1.0)
    if not log_root < math.log1p((2.0 * MAX_ALIASES - 1.0) * np.pi):
        raise ValueError(f"an aliasing tail below tol={tol} at exponent {q} needs more than {MAX_ALIASES} aliases")
    p = max(MIN_ALIASES, math.ceil(0.5 * (math.expm1(log_root) / np.pi + 1.0)))
    while bound(p) >= tol:
        p += 1
    while p > MIN_ALIASES and bound(p - 1) < tol:
        p -= 1
    return p, bound(p)


def _envelope_tol(f, exponent, tol):
    """C = sup |f(x)| * (1+|x|)**exponent, measured on a fixed grid of [-40*pi, 40*pi], and tol / C."""
    x = np.linspace(-40.0 * np.pi, 40.0 * np.pi, 1023)
    envelope = float(np.max(np.abs(f(x)) * (1.0 + np.abs(x)) ** exponent))
    return envelope, tol / max(envelope, np.finfo(float).tiny)


def _fold(f, lam, first, last):
    """sum of f(lam + 2*pi*p) over first <= |p| <= last, for a 1-d array lam."""
    p = np.arange(-last, last + 1, dtype=float)
    shifts = TWO_PI * p[np.abs(p) >= first]
    return f((lam[None, :] + shifts[:, None]).ravel()).reshape(shifts.size, lam.size).sum(axis=0)


def line_integral(f, exponent, tol=TAIL_TOL):
    """(int_R f, bound) for vectorized f with |f(x)| <= C*(1+|x|)**(-exponent).

    The line is cut where the two dropped tails together fall below tol.
    """
    envelope, scaled = _envelope_tol(f, exponent, tol)
    cutoff, tail = decay_cutoff(exponent, scaled)
    x, w = gauss_legendre_panels(-cutoff, cutoff, panels=max(64, int(4 * cutoff)))
    return np.sum(w * f(x)), 2.0 * envelope * tail


def alias_sum(f, exponent, tol=TAIL_TOL):
    """(folded, bound) with folded(lam) = sum_{|p| <= P} f(lam + 2*pi*p), |lam| <= pi.

    P puts the aliases dropped from f, |f(x)| <= C*(1+|x|)**(-exponent), below tol.
    """
    envelope, scaled = _envelope_tol(f, exponent, tol)
    n_alias, tail = folding_cutoff(exponent, scaled)

    def folded(lam):
        return _fold(f, np.atleast_1d(np.asarray(lam, dtype=float)), 0, n_alias)

    return folded, envelope * tail


def alias_sum_norm_sq(f, exponent, tol=TAIL_TOL):
    """(int_{-pi}^{pi} |F|^2, bound) for the alias sum F of a Hermitian f.

    Precondition: f(-x) = conj f(x), as for a product symmetrized under
    lam -> -lam or for |What|^2 of a real window. The shifts are symmetric
    in p, so F(-lam) = conj F(lam) and |F|^2 is even: the rule runs on
    [0, pi] and counts twice. Cutting F with pointwise error e moves the
    rule by e*(2*int|F| + 2*pi*e). A first cut at tol gives
    g = 2*int|F| + 10*pi*tol, which bounds that factor for every cut at or
    below tol; when g > 1, F is cut again at tol/g by adding only the shells
    of aliases past the first cutoff.
    """
    x, w = gauss_legendre_panels(0.0, np.pi, panels=32)
    w = 2.0 * w
    envelope, scaled = _envelope_tol(f, exponent, tol)
    n_alias, tail = folding_cutoff(exponent, scaled)
    folded = _fold(f, x, 0, n_alias)
    gain = 2.0 * np.sum(w * np.abs(folded)) + 10.0 * np.pi * tol
    if gain > 1.0:
        n_more, tail = folding_cutoff(exponent, scaled / gain)
        if n_more > n_alias:
            folded = folded + _fold(f, x, n_alias + 1, n_more)
    mod = np.abs(folded)
    tail = envelope * tail
    return float(np.sum(w * mod * mod)), float(tail * (2.0 * np.sum(w * mod) + TWO_PI * tail))


def symmetrized_limit_product(family, i, ip, responses=None):
    """The real-line weight w(lam) pairing two limiting responses.

    w(lam) = 0.5 * [ conj(v_i(-lam)) v_i'(-lam) + v_i(lam) conj(v_i'(lam)) ],
    with v the family's limit responses unless responses are given.
    """
    responses = family.limit_responses if responses is None else responses
    ri = responses[i]
    rip = responses[ip]

    def w(lam):
        lam = np.asarray(lam, dtype=float)
        a, b = ri(-lam), ri(lam)
        c, d = (a, b) if ip == i else (rip(-lam), rip(lam))  # i == i': r_i's values, not two more calls
        return 0.5 * (np.conj(a) * c + b * np.conj(d))

    return w


def frequency_limit_cross_cov(family, i, ip, lag, responses=None, tol=TAIL_TOL):
    """(value, bound): C * int_R w(lam) exp(i*lam*lag) dlam by line_integral.

    The symmetrization makes the integral real; the imaginary residue is
    asserted below IMAG_TOL and the real part returned.
    """
    const = case_constant(family, i, ip)
    if const == 0:
        return 0.0, 0.0
    w = symmetrized_limit_product(family, i, ip, responses)
    total, bound = line_integral(lambda x: const * w(x) * np.exp(1j * x * lag), 2.0 * family.decay, tol)
    if abs(total.imag) > IMAG_TOL:
        raise AssertionError(f"imaginary residue {total.imag:.3e} exceeds {IMAG_TOL:g}")
    return float(total.real), bound


def frequency_gamma_limit(family, i, ip, responses=None, tol=TAIL_TOL):
    """(value, bound): 4*pi * C**2 * int_{-pi}^{pi} |sum_p w(lam+2*pi*p)|^2 dlam, within tol."""
    const = case_constant(family, i, ip)
    if const == 0:
        return 0.0, 0.0
    scale = 4.0 * np.pi * const ** 2
    integral, bound = alias_sum_norm_sq(symmetrized_limit_product(family, i, ip, responses),
                                        2.0 * family.decay, tol / scale)
    return scale * integral, scale * bound


def frequency_sigma2(window, f0, tol=TAIL_TOL):
    """(value, bound): 4*pi * f0^2 * int_{-pi}^{pi} (sum_p |What(lam+2*pi*p)|^2)^2 dlam, within tol."""
    scale = 4.0 * np.pi * f0 * f0
    value, bound = alias_sum_norm_sq(lambda x: np.abs(window.transform(x)) ** 2, 2.0 * window.decay, tol / scale)
    return scale * value, scale * bound


def fold(g, gamma, lam):
    """sum_{p=0}^{gamma-1} g((lam + 2*pi*p) / gamma) for a 2*pi-periodic g.

    The result is again 2*pi-periodic in lam, and satisfies the exchange
    identity int_{-pi}^{pi} g = gamma**-1 * int_{-pi}^{pi} fold(g, gamma, .).
    g must accept ndarray arguments. fold(g, 1, lam) == g(lam) exactly.
    """
    gamma = int(gamma)
    if gamma < 1:
        raise ValueError("need gamma >= 1")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if gamma == 1:
        vals = np.asarray(g(lam_arr))
    else:
        p = np.arange(gamma, dtype=float)
        pts = (lam_arr[None, :] + TWO_PI * p[:, None]) / gamma
        vals = np.asarray(g(pts.ravel())).reshape(gamma, lam_arr.size).sum(axis=0)
    if np.ndim(lam):
        return vals.reshape(np.shape(lam))
    return vals[0] if np.iscomplexobj(vals) else float(vals[0])


def periodic_rule(degree):
    """Nodes and weight of the rule on [-pi, pi) exact for trigonometric polynomials of this degree.

    The degree + 1 equispaced nodes -pi + 2*pi*m/(degree + 1) share the
    weight 2*pi/(degree + 1).
    """
    m = int(degree) + 1
    return -np.pi + TWO_PI * np.arange(m) / m, TWO_PI / m


def spectral_cov(family, level, i, ip, k, kp):
    """Cov(Z_{i,k}, Z_{i',k'}) as int conj(v*_i) v*_i' exp(i*gamma*lam*(k'-k)) over (-pi, pi), complex.

    periodic_rule is exact for that trigonometric polynomial, whose
    frequencies run from a_i - b_i' + shift to b_i - a_i' + shift (a, b
    support ends); the imaginary part vanishes up to rounding.
    """
    lv = family.levels[level]
    k1, k2 = lv.kernels[i], lv.kernels[ip]
    shift = lv.gamma * (kp - k)
    degree = max(abs(k1.support_start - k2.support_end + shift), abs(k1.support_end - k2.support_start + shift))
    x, w = periodic_rule(degree)
    return np.sum(w * np.conj(eval_response(k1, x)) * eval_response(k2, x) * np.exp(1j * shift * x))


def parseval_gap(kernel):
    """|int |v*|^2 d lam - sum v(t)^2| on (-pi, pi); quadrature diagnostic.

    |v*|^2 is a trigonometric polynomial of degree length - 1, which
    periodic_rule integrates exactly.
    """
    x, w = periodic_rule(kernel.length - 1)
    integral = float(np.sum(w * np.abs(eval_response(kernel, x)) ** 2))
    return abs(integral - float(np.dot(kernel.coeffs, kernel.coeffs)))


def m_n_functional(g, n):
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
    k_max = n - 1
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


def folded_window_response(window, gamma, lam, tol=1e-10):
    """sum_p gamma**0.5 * What(gamma*(lam + 2*pi*p)), 2*pi-periodic in lam.

    The alias sum is truncated by alias_sum with the window decay exponent.
    """
    gamma = int(gamma)
    if gamma < 2 or gamma % 2 != 0:
        raise ValueError("need an even decimation factor gamma >= 2")
    folded, _ = alias_sum(lambda x: np.sqrt(gamma) * window.transform(gamma * x), window.decay, tol)
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    vals = folded(lam_arr - TWO_PI * np.round(lam_arr / TWO_PI))  # exact periodicity
    return vals.reshape(np.shape(lam)) if np.ndim(lam) else complex(vals[0])


def validate_window(window, norm_tol=1e-6):
    """Check the window contract; raises ValueError on violation.

    Verifies support containment in [-1, 0] and unit L2 norm of the
    transform. The norm integral is truncated by line_integral with the tail
    below norm_tol / 10. Returns a dict with the measured quantities.
    """
    lo, hi = window.support
    if lo < -1.0 or hi > 0.0:
        raise ValueError("window support must be contained in [-1, 0]")
    outside = np.array([-1.001, 0.001])
    if np.any(np.abs(window.evaluate(outside)) > 0.0):
        raise ValueError("window does not vanish outside [-1, 0]")

    norm, tail_bound = line_integral(lambda x: np.abs(window.transform(x)) ** 2, 2.0 * window.decay, 0.1 * norm_tol)
    if abs(norm - 1.0) > norm_tol:
        raise ValueError(f"transform L2 norm is {norm:.8f}, expected 1 within {norm_tol:g}")

    return {"l2_norm": norm, "l2_tail_bound": tail_bound}


def bspline_recursive(order, x):
    """Cardinal B-spline by the two-term Cox-de Boor recursion, 2**(order-1) calls.

    The reference for windows.bspline_value, which must agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    if order == 1:
        return ((x >= 0.0) & (x < 1.0)).astype(float)
    b0 = bspline_recursive(order - 1, x)
    b1 = bspline_recursive(order - 1, x - 1.0)
    return (x * b0 + (order - x) * b1) / (order - 1.0)


def ar1_truncation_loop(phi, tail):
    """The AR(1) truncation point by stepping t up from 0 until the dropped tail is small enough."""
    t_max = 0
    while abs(phi) ** (t_max + 1) / np.sqrt(1.0 - phi * phi) > tail:
        t_max += 1
    return t_max


def enumerated_cov(k1, k2, gamma, lag):
    """Cov(Z_{1,k}, Z_{2,k+lag}) = sum_u v1(u) * v2(u + gamma*lag), tap by tap over the support of v1."""
    taps = dict(enumerate(k2.coeffs, k2.support_start))
    return sum(c * taps.get(u + gamma * lag, 0.0) for u, c in enumerate(k1.coeffs, k1.support_start))


def direct_decimated_lags(k1, k2, gamma, n, power):
    """Triangular weights 1 - |tau|/n and c(gamma*tau), |tau| < n, by np.correlate at any kernel length.

    The support-based oracle of moments._decimated_lags: it correlates the
    two kernels' own taps and reads each entry's lag from their supports,
    where the library correlates the level's flattened polyphase rows.
    """
    corr = np.correlate(k2.coeffs ** power, k1.coeffs ** power, "full")
    lags = k2.support_start - k1.support_end + np.arange(corr.size)
    tau, rem = np.divmod(lags, gamma)
    keep = (rem == 0) & (np.abs(tau) < n)
    return 1.0 - np.abs(tau[keep]) / n, corr[keep]
