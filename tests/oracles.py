"""Frequency-domain reference implementations that only the tests call.

They check identities of the library's exact time-domain sums: A(n) =
M_n(g)**2 for the folded product of two responses, Parseval for
eval_response, the alias structure of a scaled window, and the unit L2
norm of a window transform; the two-term recursion is the reference for
the B-spline values. Imported as `from oracles import ...`, like
conftest; the file name keeps pytest from collecting it.
"""

import numpy as np

from decilab.kernels import eval_response
from decilab.quadrature import TWO_PI, alias_sum, line_integral, periodic_rule


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


def parseval_gap(kernel):
    """|int |v*|^2 d lam - sum v(t)^2| on (-pi, pi); quadrature diagnostic.

    |v*|^2 is a trigonometric polynomial of degree length - 1, which
    periodic_rule integrates exactly.
    """
    x, w = periodic_rule(kernel.length - 1)
    integral = float(np.sum(w * np.abs(eval_response(kernel, x)) ** 2))
    return abs(integral - kernel.energy)


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
