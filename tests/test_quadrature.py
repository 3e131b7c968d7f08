import math
import time

import numpy as np
import pytest

from decilab.kernels import make_scaled_window_family, two_frequency_demo_family
from decilab.quadrature import MAX_NODES, _legendre, gauss_legendre_panels
from decilab.specdens import asymptotic_sigma2
from decilab.windows import Window, make_bspline_window

from oracles import (
    MAX_ALIASES,
    MIN_ALIASES,
    alias_sum,
    alias_sum_norm_sq,
    decay_cutoff,
    folding_cutoff,
    line_integral,
    symmetrized_limit_product,
)


def folding_bound(q, p):
    return (1.0 + (2.0 * p - 1.0) * math.pi) ** (1.0 - q) / (math.pi * (q - 1.0))


def test_gauss_legendre_exact_on_polynomials():
    # 8 nodes per panel integrate degree-15 polynomials exactly
    x, w = gauss_legendre_panels(-1.0, 1.0, panels=2, nodes=8)
    val = np.sum(w * x ** 14)
    assert abs(val - 2.0 / 15.0) < 1e-14


def test_gauss_legendre_weights_sum_to_length():
    x, w = gauss_legendre_panels(-np.pi, np.pi, panels=16, nodes=4)
    assert abs(w.sum() - 2.0 * np.pi) < 1e-12
    assert x.min() > -np.pi and x.max() < np.pi


def test_legendre_nodes_cached_read_only():
    x1, w1 = _legendre(5)
    x2, w2 = _legendre(5)
    assert x1 is x2 and w1 is w2
    ref_x, ref_w = x1.copy(), w1.copy()
    for arr in (x1, w1):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    x, w = gauss_legendre_panels(0.0, 1.0, panels=1, nodes=5)
    x[0] = w[0] = 0.0  # the panel rule is the caller's own copy
    assert np.array_equal(_legendre(5)[0], ref_x) and np.array_equal(_legendre(5)[1], ref_w)


@pytest.mark.parametrize("n", range(1, 65))
def test_legendre_matches_leggauss_and_is_exact(n):
    # nodes within eps (one ulp at 1.0) of numpy's eigenvalue rule and weights within 32 eps (its end
    # weights are the less accurate ones); the n-point rule integrates x^k on [-1, 1] for every k <= 2n - 1
    eps = np.finfo(float).eps
    x, w = _legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - ref_x)) <= eps and np.max(np.abs(w - ref_w)) <= 32 * eps
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for k in range(2 * n):
        assert abs(np.sum(w * x ** k) - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) <= 16 * eps


@pytest.mark.parametrize("panels, nodes", [
    (2.5, 8), (True, 8), (0, 8), (math.nan, 8),
    (4, 2.5), (4, True), (4, 0), (4, MAX_NODES + 1), (4, 10 ** 6), (4, math.inf),
])
def test_gauss_legendre_panels_takes_integer_counts(panels, nodes):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        gauss_legendre_panels(0.0, 1.0, panels=panels, nodes=nodes)
    assert time.perf_counter() - start < 1.0  # rejected before any Newton step


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan)])
def test_gauss_legendre_panels_takes_finite_bounds(a, b):
    # an infinite bound warned "invalid value encountered in multiply" and gave NaN nodes
    with pytest.raises(ValueError, match=r"^need finite a < b, got "):
        gauss_legendre_panels(a, b, 2, 2)


def test_gauss_legendre_panels_at_the_node_cap():
    _legendre.cache_clear()
    start = time.perf_counter()
    x, w = gauss_legendre_panels(0.0, 1.0, panels=2.0, nodes=MAX_NODES)
    assert time.perf_counter() - start < 1.0
    assert x.size == 2 * MAX_NODES and abs(np.sum(w) - 1.0) <= 1e-13
    assert abs(np.sum(w * x ** (2 * MAX_NODES - 1)) * 2 * MAX_NODES - 1.0) <= 1e-12


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


@pytest.mark.parametrize("q", [1.5, 2.0, 6.0, 8.0, 10.0])
def test_folding_cutoff_is_least(q):
    for tol in 10.0 ** -np.arange(4, 19):
        if folding_bound(q, MAX_ALIASES) >= tol:
            with pytest.raises(ValueError):
                folding_cutoff(q, tol)
            continue
        p, bound = folding_cutoff(q, tol)
        assert bound == folding_bound(q, p) < tol
        assert p == MIN_ALIASES or folding_bound(q, p - 1) >= tol


@pytest.mark.parametrize("cutoff, exponent, tol", [
    (folding_cutoff, 8.0, 0.0),
    (folding_cutoff, 8.0, -1e-10),
    (folding_cutoff, 8.0, math.nan),
    (folding_cutoff, 8.0, math.inf),
    (folding_cutoff, 1.02, 1e-10),  # the least P is far past MAX_ALIASES
    (folding_cutoff, math.nan, 1e-10),
    (decay_cutoff, 2.0, 0.0),
    (decay_cutoff, 2.0, -1e-10),
    (decay_cutoff, 2.0, math.nan),
    (decay_cutoff, math.nan, 1e-10),
])
def test_cutoffs_reject_unmeetable_tolerances(cutoff, exponent, tol):
    with pytest.raises(ValueError):
        cutoff(exponent, tol)


def test_unmeetable_alias_tolerance_raises_before_folding():
    points = []

    def f(x):
        points.append(np.size(x))
        return 1.0 / (1.0 + x * x)

    with pytest.raises(ValueError):
        alias_sum_norm_sq(f, 1.02)
    assert points == [1023]  # the envelope grid only: no alias grid was built


def test_asymptotic_sigma2_rejects_nan_f0():
    def transform(x):
        raise AssertionError("no point may be evaluated")

    window = Window("never", evaluate=transform, transform=transform, decay=3.0, knots=(-1.0, 0.0), degree=0)
    with pytest.raises(ValueError):
        asymptotic_sigma2(window, math.nan)


def test_alias_sum_norm_sq_within_reported_bound():
    # F(lam) = sinh(1) / (2*(cosh(1) - cos(lam))), whose squared norm on [-pi, pi] is (pi/2)*coth(1)
    value, bound = alias_sum_norm_sq(lambda x: 1.0 / (1.0 + x * x), 2.0, tol=1e-3)
    assert abs(value - 0.5 * math.pi / math.tanh(1.0)) <= bound <= 1e-3


def test_alias_sum_norm_sq_integrands_are_hermitian():
    # alias_sum_norm_sq integrates on [0, pi] only, which needs f(-x) = conj f(x)
    x = np.linspace(0.0, 60.0 * math.pi, 4001)
    window = make_bspline_window(4)
    families = [two_frequency_demo_family(window, [16, 32])]
    families += [make_scaled_window_family(window, [16, 32], mod) for mod in (0.0, math.pi / 2)]
    for fam in families:
        for i in range(fam.n_branches):
            for ip in range(fam.n_branches):
                w = symmetrized_limit_product(fam, i, ip)
                assert np.array_equal(w(-x), np.conj(w(x)))
    for order in (3, 4, 5):
        transform = make_bspline_window(order).transform
        assert np.array_equal(np.abs(transform(-x)) ** 2, np.abs(transform(x)) ** 2)
