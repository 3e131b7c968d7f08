import math

import numpy as np

from decilab.quadrature import alias_sum, decay_cutoff, folding_cutoff, gauss_legendre_panels, line_integral


def test_gauss_legendre_exact_on_polynomials():
    # 8 nodes per panel integrate degree-15 polynomials exactly
    x, w = gauss_legendre_panels(-1.0, 1.0, panels=2, nodes=8)
    val = np.sum(w * x ** 14)
    assert abs(val - 2.0 / 15.0) < 1e-14


def test_gauss_legendre_weights_sum_to_length():
    x, w = gauss_legendre_panels(-np.pi, np.pi, panels=16, nodes=4)
    assert abs(w.sum() - 2.0 * np.pi) < 1e-12
    assert x.min() > -np.pi and x.max() < np.pi


def test_oscillatory_integral():
    x, w = gauss_legendre_panels(0.0, np.pi, panels=32, nodes=8)
    val = np.sum(w * np.cos(7.0 * x))
    assert abs(val - np.sin(7.0 * np.pi) / 7.0) < 1e-12


def test_decay_cutoff_satisfies_rule():
    for q in (1.5, 2.0, 8.0):
        cutoff, bound = decay_cutoff(q, tol=1e-10)
        assert bound < 1e-10
        assert (1.0 + cutoff) ** (1.0 - q) / (q - 1.0) < 1e-10


def test_folding_cutoff_minimum_and_rule():
    p, bound = folding_cutoff(8.0, tol=1e-10)
    assert p >= 8
    assert bound < 1e-10
    # a slowly decaying exponent needs more aliases
    p2, bound2 = folding_cutoff(3.0, tol=1e-10)
    assert p2 > p
    assert bound2 < 1e-10


def test_line_integral_within_reported_bound():
    # int (1+x^2)^-2 dx = pi/2; the envelope constant is 4 (at |x| = 1), not 1
    value, bound = line_integral(lambda x: (1.0 + x * x) ** -2, 4.0)
    assert abs(value - math.pi / 2.0) <= bound <= 1e-10


def test_alias_sum_within_reported_bound():
    # sum_p 1/(1+(lam+2*pi*p)^2) = sinh(1) / (2*(cosh(1) - cos(lam)))
    folded, bound = alias_sum(lambda x: 1.0 / (1.0 + x * x), 2.0, tol=1e-6)
    lam = np.linspace(-math.pi, math.pi, 9)
    exact = math.sinh(1.0) / (2.0 * (math.cosh(1.0) - np.cos(lam)))
    assert np.max(np.abs(folded(lam) - exact)) <= bound <= 1e-6
