"""Gauss-Legendre panel rules.

A composite Gauss-Legendre rule (panels x nodes) serves every smooth
integrand; with one panel per knot interval and n nodes it is exact for
piecewise polynomials of degree 2n - 1, which is how every limit quantity
is computed (see windows). No quantity is truncated.

The nodes are the roots of the Legendre polynomial P_n, found by Newton's
method on the three-term recurrence, and the weights are 2/((1 - x^2) P_n'(x)^2).
That is numpy arithmetic alone: neither numpy.polynomial nor LAPACK's
eigensolver is loaded, which would cost a fresh process more memory than the
limit layer's own arrays.
"""

from functools import lru_cache

import numpy as np

from .kernels import _integer

MAX_NODES = 1024  # a Newton step costs O(nodes^2) flops; 1024 nodes per panel are exact to degree 2047


def _legendre_values(n, x):
    """P_n(x) and P_n'(x) by the recurrence (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None, typed=True)  # typed: True is not served the entry of 1, so _integer rejects it
def _legendre(nodes):
    """Read-only Gauss-Legendre nodes (increasing) and weights on [-1, 1], computed once per node count.

    Newton's method on P_n from cos(pi (k - 1/4) / (n + 1/2)), k = 1 .. ceil(n/2),
    finds the nonnegative roots until no step exceeds 4 eps; they are mirrored
    to the negative ones, and an odd n has the root 0 exactly. The weights are
    2 / ((1 - x^2) P_n'(x)^2). A node count outside 1..MAX_NODES raises
    ValueError before any work.
    """
    n = _integer(nodes, "nodes", 1, MAX_NODES)
    k = np.arange(1, (n + 1) // 2 + 1)
    t = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    if n % 2:
        t[-1] = 0.0
    while True:
        p, dp = _legendre_values(n, t)
        step = p / dp
        t = t - step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            break
    dp = _legendre_values(n, t)[1]
    w = 2.0 / ((1.0 - t * t) * dp * dp)
    xg = np.concatenate((-t[:n // 2], t[::-1]))
    wg = np.concatenate((w[:n // 2], w[::-1]))
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
    """Nodes and weights of a composite Gauss-Legendre rule on finite [a, b]; panels >= 1, nodes in 1..MAX_NODES."""
    if not -np.inf < a < b < np.inf:  # NaN fails too
        raise ValueError(f"need finite a < b, got a = {a}, b = {b}")
    return _panel_rule(np.linspace(a, b, _integer(panels, "panels", 1) + 1), nodes)
