"""Composite Gauss-Legendre quadrature and the one truncation policy.

A fixed composite Gauss-Legendre rule (panels x nodes) serves every smooth
integrand instead of adaptive quadrature; a trigonometric polynomial of known
degree takes the equispaced periodic rule, which is exact. Real-line
integrals and alias sums of f with |f(x)| <= C*(1+|x|)**(-q) are truncated
only here: each primitive measures C from f and sizes its cutoff by the tail
rules at tol/C. The alias cutoff is the least P whose tail bound is below
its tolerance; a tolerance no P up to MAX_ALIASES meets raises ValueError.

The limit quadratures integrate |F|^2 for the alias sum F of a Hermitian f,
f(-x) = conj f(x). Then |F|^2 is even, and its integral over [-pi, pi] is
twice the rule on [0, pi]: the positive half of the default rule on [-pi, pi].
"""

import math

import numpy as np

TWO_PI = 2.0 * np.pi
DEFAULT_PANELS = 64
DEFAULT_NODES = 8
TAIL_TOL = 1e-10
MIN_ALIASES = 8
MAX_ALIASES = 10_000_000


def gauss_legendre_panels(a, b, panels=DEFAULT_PANELS, nodes=DEFAULT_NODES):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    if not b > a:
        raise ValueError("need b > a")
    if panels < 1 or nodes < 1:
        raise ValueError("need panels >= 1 and nodes >= 1")
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def periodic_rule(degree):
    """Nodes and weight of the rule on [-pi, pi) exact for trigonometric polynomials of this degree.

    The degree + 1 equispaced nodes -pi + 2*pi*m/(degree + 1) share the
    weight 2*pi/(degree + 1).
    """
    m = int(degree) + 1
    return -np.pi + TWO_PI * np.arange(m) / m, TWO_PI / m


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
    x, w = gauss_legendre_panels(0.0, np.pi, panels=DEFAULT_PANELS // 2)
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
