import numpy as np
import pytest

from decilab.kernels import DecimatedFamily, FamilyLevel


def single_level_family(kernels, gamma, limit_freqs=None, decay=1.0, name="test"):
    """One-level family for exact-moment tests.

    threshold equals the level count, so the asymptotic concentration
    conditions (even gamma, integer condition) are not asserted; the exact
    covariance identities hold for any kernels and any gamma.
    """
    kernels = tuple(kernels)
    if limit_freqs is None:
        limit_freqs = np.zeros(len(kernels))
    return DecimatedFamily(
        levels=(FamilyLevel(gamma=gamma, kernels=kernels, center_freqs=np.zeros(len(kernels))),),
        limit_freqs=np.asarray(limit_freqs, dtype=float),
        decay=decay,
        threshold=1,
        name=name,
    )


def random_trig_poly(rng, max_degree=6, scale=1.0):
    """A random complex trigonometric polynomial and its exact squared L2 norm."""
    degree = int(rng.integers(0, max_degree + 1))
    coeffs = scale * (rng.standard_normal(2 * degree + 1) + 1j * rng.standard_normal(2 * degree + 1))
    ks = np.arange(-degree, degree + 1)

    def g(lam):
        lam = np.asarray(lam, dtype=float)
        return np.exp(1j * lam[..., None] * ks).dot(coeffs)

    norm_sq = 2.0 * np.pi * float(np.sum(np.abs(coeffs) ** 2))
    return g, norm_sq


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
