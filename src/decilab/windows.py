"""Continuous analysis windows with closed-form Fourier transforms.

A window is a bounded real function W supported inside [-1, 0], normalized
so that its transform What(xi) = int W(t) exp(-i xi t) dt has unit L2 norm,
with a known polynomial decay exponent for |What|. The built-in prototypes
are rescaled cardinal B-splines, whose transforms are powers of a sinc.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import TWO_PI, gauss_legendre_panels


@dataclass(frozen=True)
class Window:
    """Normalized analysis window.

    evaluate and transform accept and return ndarrays. decay is the exponent
    beta such that |transform(xi)| * (1+|xi|)**beta stays bounded. support is
    the closure of {W != 0} and must be contained in [-1, 0].
    """

    name: str
    evaluate: Callable
    transform: Callable
    decay: float
    support: tuple = (-1.0, 0.0)


def bspline_value(order, x):
    """Cardinal B-spline of the given order, supported on [0, order].

    Order 1 is the indicator of [0, 1), order m the m-fold self-convolution
    of it (a piecewise polynomial of degree m-1). Cox-de Boor recursion, run
    as a triangle over x, x-1, ..., x-(order-1): O(order**2) array operations.
    """
    if order < 1:
        raise ValueError("need order >= 1")
    shifted = [np.asarray(x, dtype=float)]
    for _ in range(order - 1):
        shifted.append(shifted[-1] - 1.0)  # repeated subtraction, as the recursion forms y-1
    b = [((y >= 0.0) & (y < 1.0)).astype(float) for y in shifted]
    for k in range(2, order + 1):
        b = [(y * b0 + (k - y) * b1) / (k - 1.0) for y, b0, b1 in zip(shifted, b, b[1:])]
    return b[0]


def bspline_l2_norm_sq(order):
    """Exact int B_m(s)^2 ds via per-knot Gauss-Legendre (degree 2m-2)."""
    x, w = gauss_legendre_panels(0.0, float(order), panels=order, nodes=order)
    return float(np.sum(w * bspline_value(order, x) ** 2))


def make_bspline_window(order):
    """B-spline window of the given order, rescaled to support [-1, 0].

    W(t) = scale * B_m(m*(t+1)) with the scale fixed by 2*pi*int W^2 = 1,
    equivalently int |What|^2 = 1. The transform is the closed form

        What(xi) = (scale/m) * exp(i*xi/2) * sinc(xi/(2m))**m

    with sinc(x) = sin(x)/x, so the decay exponent is the order itself.
    Orders below 3 are rejected: the estimator theory needs decay > 2.
    """
    if order < 3:
        raise ValueError("need order >= 3 (window decay must exceed 2)")
    m = int(order)
    norm_sq = bspline_l2_norm_sq(m)
    scale = 1.0 / np.sqrt(TWO_PI * norm_sq / m)

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
        support=(-1.0, 0.0),
    )

