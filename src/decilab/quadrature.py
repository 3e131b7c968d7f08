"""Gauss-Legendre panel rules.

A composite Gauss-Legendre rule (panels x nodes) serves every smooth
integrand; with one panel per knot interval and n nodes it is exact for
piecewise polynomials of degree 2n - 1, which is how every limit quantity
is computed (see windows). No quantity is truncated.
"""

from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=None)
def _legendre(nodes):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], computed once per node count."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    xg.setflags(write=False)
    wg.setflags(write=False)
    return xg, wg


def _panel_rule(edges, nodes):
    """Nodes and weights of the rule with `nodes` Gauss-Legendre points on each interval of edges."""
    xg, wg = _legendre(nodes)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * xg[None, :]).ravel(), (half[:, None] * wg[None, :]).ravel()


def gauss_legendre_panels(a, b, panels=64, nodes=8):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    if not b > a:
        raise ValueError("need b > a")
    if panels < 1 or nodes < 1:
        raise ValueError("need panels >= 1 and nodes >= 1")
    return _panel_rule(np.linspace(a, b, panels + 1), nodes)

