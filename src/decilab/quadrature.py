"""Composite Gauss-Legendre quadrature and polynomial-decay truncation rules.

All integrands in this package are smooth apart from known oscillation
scales, so a fixed composite Gauss-Legendre rule (panels x nodes) is used
throughout instead of adaptive quadrature. Improper integrals over the real
line are truncated using the (1+|x|)^(-q) decay bounds that hold for every
admissible frequency response; the truncation cutoffs below implement the
corresponding tail-bound rules.
"""

import numpy as np

TWO_PI = 2.0 * np.pi
DEFAULT_PANELS = 64
DEFAULT_NODES = 8
TAIL_TOL = 1e-10


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


def integrate(f, a, b, panels=DEFAULT_PANELS, nodes=DEFAULT_NODES):
    """Integrate a vectorized callable on [a, b]."""
    x, w = gauss_legendre_panels(a, b, panels, nodes)
    return np.sum(w * f(x))


def decay_cutoff(exponent, tol=TAIL_TOL):
    """Half-width L such that the tail rule (1+L)^(1-q) / (q-1) < tol holds.

    Used to truncate integrals over the real line of functions bounded by
    (1+|x|)^(-q) with q = exponent > 1. Returns (L, achieved_bound).
    """
    if exponent <= 1.0:
        raise ValueError("need exponent > 1 for an integrable tail")
    q = exponent
    cutoff = (0.5 * tol * (q - 1.0)) ** (-1.0 / (q - 1.0)) - 1.0  # strictly below tol
    cutoff = max(cutoff, 1.0)
    bound = (1.0 + cutoff) ** (1.0 - q) / (q - 1.0)
    return cutoff, bound


def folding_cutoff(exponent, tol=TAIL_TOL, min_terms=8):
    """Smallest P >= min_terms with the aliasing tail below tol.

    For a function bounded by (1+|x|)^(-q), the terms g(lam + 2*pi*p) with
    |lam| <= pi and |p| > P are dominated by (1+(2|p|-1)*pi)^(-q); their sum
    is below (1+(2P-1)*pi)^(1-q) / (pi*(q-1)). Returns (P, achieved_bound).
    """
    if exponent <= 1.0:
        raise ValueError("need exponent > 1 for a summable tail")
    q = exponent

    def bound(p):
        return (1.0 + (2.0 * p - 1.0) * np.pi) ** (1.0 - q) / (np.pi * (q - 1.0))

    p = max(int(min_terms), 1)
    while bound(p) >= tol and p < 10_000_000:
        p *= 2
    return p, bound(p)
