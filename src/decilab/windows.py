"""Piecewise-polynomial analysis windows with closed-form Fourier transforms.

A window is a real piecewise polynomial W between its knots, normalized so
that its transform What(xi) = int W(t) exp(-i xi t) dt has unit L2 norm,
with a known polynomial decay exponent for |What|. Every limit quantity is
a finite sum of rho(k) = int W1(t) W2(t + k) dt over the integer lags k
where two windows overlap, exact by Gauss-Legendre between their knots. The
built-in prototypes are rescaled cardinal B-splines on [-1, 0], whose
transforms are powers of a sinc.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import TWO_PI, _integer
from .quadrature import _panel_rule

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Window:
    """Normalized analysis window.

    evaluate and transform accept and return ndarrays. decay is the exponent
    beta such that |transform(xi)| * (1+|xi|)**beta stays bounded. W is a
    polynomial of degree at most `degree` between consecutive (increasing)
    knots and zero outside them; support is (knots[0], knots[-1]).
    """

    name: str
    evaluate: Callable
    transform: Callable
    decay: float
    knots: tuple
    degree: int

    @property
    def support(self):
        return self.knots[0], self.knots[-1]


def _correlations(w1, w2):
    """{k: (rho, bound)} with rho = int W1(t) W2(t + k) dt, at each integer lag k where they overlap.

    On each interval between the knots of W1 and of W2(. + k) the product
    is one polynomial of degree w1.degree + w2.degree, which
    (w1.degree + w2.degree) // 2 + 1 Gauss-Legendre nodes integrate exactly;
    bound = K*eps*sum|terms| over the K nodes is the rounding bound of the sum.
    """
    out = {}
    for k in range(math.floor(w2.knots[0] - w1.knots[-1]) + 1, math.ceil(w2.knots[-1] - w1.knots[0])):
        lo, hi = max(w1.knots[0], w2.knots[0] - k), min(w1.knots[-1], w2.knots[-1] - k)
        # np.unique's edges, without its lazy import of numpy.ma
        edges = np.sort(np.clip(np.concatenate((w1.knots, np.subtract(w2.knots, k))), lo, hi))
        edges = edges[np.append(True, edges[1:] != edges[:-1])]
        x, w = _panel_rule(edges, (w1.degree + w2.degree) // 2 + 1)
        terms = w * w1.evaluate(x) * w2.evaluate(x + k)
        out[k] = float(np.sum(terms)), x.size * EPS * float(np.sum(np.abs(terms)))
    return out


def bspline_value(order, x):
    """Cardinal B-spline of the given order, supported on [0, order].

    Order 1 is the indicator of [0, 1), order m the m-fold self-convolution
    of it (a piecewise polynomial of degree m-1). Cox-de Boor recursion, run
    as a triangle over x, x-1, ..., x-(order-1): O(order**2) array operations.
    """
    order = _integer(order, "order", 1)
    shifted = [np.asarray(x, dtype=float)]
    for _ in range(order - 1):
        shifted.append(shifted[-1] - 1.0)  # repeated subtraction, as the recursion forms y-1
    b = [((y >= 0.0) & (y < 1.0)).astype(float) for y in shifted]
    for k in range(2, order + 1):
        b = [(y * b0 + (k - y) * b1) / (k - 1.0) for y, b0, b1 in zip(shifted, b, b[1:])]
    return b[0]


def bspline_l2_norm_sq(order):
    """int B_m(s)^2 ds in closed form, rounded once to the nearest float.

    As B_m(s) = B_m(m - s), it is (B_m * B_m)(m) = B_2m(m), by B_2m's truncated powers
    sum_{k<m} (-1)**k * C(2m, k) * (m - k)**(2m-1) / (2m - 1)!: an integer ratio, which true division rounds once.
    """
    m = _integer(order, "order", 1)
    return sum((-1) ** k * math.comb(2 * m, k) * (m - k) ** (2 * m - 1) for k in range(m)) / math.factorial(2 * m - 1)


def make_bspline_window(order):
    """B-spline window of the given order, rescaled to support [-1, 0].

    W(t) = scale * B_m(m*(t+1)), of degree m-1 between the knots -1 + j/m,
    j = 0..m, with the scale fixed by 2*pi*int W^2 = 1,
    equivalently int |What|^2 = 1. The transform is the closed form

        What(xi) = (scale/m) * exp(i*xi/2) * sinc(xi/(2m))**m

    with sinc(x) = sin(x)/x, so the decay exponent is the order itself.
    Orders below 3 are rejected: the estimator theory needs decay > 2.
    """
    m = _integer(order, "order", 3)
    scale = 1.0 / np.sqrt(TWO_PI * bspline_l2_norm_sq(m) / m)

    def evaluate(t):
        return scale * bspline_value(m, m * (np.asarray(t, dtype=float) + 1.0))

    def transform(xi):
        xi = np.asarray(xi, dtype=float)
        core = np.sinc(xi / (2.0 * m * np.pi)) ** m
        return (scale / m) * np.exp(0.5j * xi) * core

    return Window(
        name=f"bspline{m}",
        evaluate=evaluate,
        transform=transform,
        decay=float(m),
        knots=tuple(-1.0 + j / m for j in range(m + 1)),
        degree=m - 1,
    )

