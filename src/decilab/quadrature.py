"""Composite Gauss-Legendre quadrature and the one truncation policy.

A fixed composite Gauss-Legendre rule (panels x nodes) serves every smooth
integrand instead of adaptive quadrature; a trigonometric polynomial of known
degree takes the equispaced periodic rule, which is exact. Real-line
integrals and alias sums of f with |f(x)| <= C*(1+|x|)**(-q) are truncated
only here: each primitive measures C from f and sizes its cutoff by the tail
rules at tol/C.
"""

import numpy as np

TWO_PI = 2.0 * np.pi
DEFAULT_PANELS = 64
DEFAULT_NODES = 8
TAIL_TOL = 1e-10
MIN_ALIASES = 8


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


def decay_cutoff(exponent, tol=TAIL_TOL):
    """Half-width L such that the tail rule (1+L)^(1-q) / (q-1) < tol holds.

    Used to truncate integrals over the real line of functions bounded by
    (1+|x|)^(-q) with q = exponent > 1. Returns (L, one-tail bound).
    """
    if exponent <= 1.0:
        raise ValueError("need exponent > 1 for an integrable tail")
    q = exponent
    cutoff = max((0.5 * tol * (q - 1.0)) ** (-1.0 / (q - 1.0)), 1.0)  # strictly below tol, rounding included
    bound = (1.0 + cutoff) ** (1.0 - q) / (q - 1.0)
    return cutoff, bound


def folding_cutoff(exponent, tol=TAIL_TOL):
    """Smallest P >= MIN_ALIASES (doubling) with the aliasing tail below tol.

    For a function bounded by (1+|x|)^(-q), the terms g(lam + 2*pi*p) with
    |lam| <= pi and |p| > P are dominated by (1+(2|p|-1)*pi)^(-q); their sum
    is below (1+(2P-1)*pi)^(1-q) / (pi*(q-1)). Returns (P, achieved_bound).
    """
    if exponent <= 1.0:
        raise ValueError("need exponent > 1 for a summable tail")
    q = exponent

    def bound(p):
        return (1.0 + (2.0 * p - 1.0) * np.pi) ** (1.0 - q) / (np.pi * (q - 1.0))

    p = MIN_ALIASES
    while bound(p) >= tol and p < 10_000_000:
        p *= 2
    return p, bound(p)


def _envelope_tol(f, exponent, tol):
    """C = sup |f(x)| * (1+|x|)**exponent, measured on a fixed grid of [-40*pi, 40*pi], and tol / C."""
    x = np.linspace(-40.0 * np.pi, 40.0 * np.pi, 1023)
    envelope = float(np.max(np.abs(f(x)) * (1.0 + np.abs(x)) ** exponent))
    return envelope, tol / max(envelope, np.finfo(float).tiny)


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
    shifts = TWO_PI * np.arange(-n_alias, n_alias + 1, dtype=float)

    def folded(lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        return f((lam[None, :] + shifts[:, None]).ravel()).reshape(shifts.size, lam.size).sum(axis=0)

    return folded, envelope * tail


def alias_sum_norm_sq(f, exponent, tol=TAIL_TOL):
    """(int_{-pi}^{pi} |F|^2, bound) for the alias sum F of f.

    Cutting F with pointwise error e moves the rule by e*(2*int|F| + 2*pi*e).
    A first cut at tol gives g = 2*int|F| + 10*pi*tol, which bounds that factor
    for every cut at or below tol; when g > 1, F is cut again at tol/g.
    """
    x, w = gauss_legendre_panels(-np.pi, np.pi)
    folded, tail = alias_sum(f, exponent, tol)
    mod = np.abs(folded(x))
    gain = 2.0 * np.sum(w * mod) + 10.0 * np.pi * tol
    if gain > 1.0:
        folded, tail = alias_sum(f, exponent, tol / gain)
        mod = np.abs(folded(x))
    return float(np.sum(w * mod * mod)), float(tail * (2.0 * np.sum(w * mod) + TWO_PI * tail))
