"""Finitely supported filters, their frequency responses, and decimated families.

A filter bank here is a collection of N branches observed across a ladder of
decimation factors gamma_0 < gamma_1 < ...; branch i at level j carries a
real kernel v_{i,j} with finite support, a center frequency lambda_{i,j} in
[0, pi), and (optionally) a limiting rescaled response defined on the whole
line. All objects are immutable after construction and all operations are
pure, so everything is safe for unrestricted concurrent use.

Indices: branches and levels are 0-based throughout the Python API.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadrature import TWO_PI

INTEGER_TOL = 1e-9  # absolute tolerance for gamma*lambda / (2*pi) integrality


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TimeKernel:
    """A real filter v(t) supported on support_start .. support_start+len-1."""

    support_start: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _as_readonly(np.atleast_1d(self.coeffs))
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("need at least one coefficient")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "support_start", int(self.support_start))

    @property
    def length(self):
        return self.coeffs.size

    @property
    def support_end(self):
        """Index of the last coefficient (inclusive)."""
        return self.support_start + self.coeffs.size - 1

    @property
    def support(self):
        return np.arange(self.support_start, self.support_end + 1)

    @property
    def energy(self):
        """Sum of squared coefficients, computed exactly."""
        return float(np.dot(self.coeffs, self.coeffs))

    def value(self, t):
        """v(t) for integer t (vectorized), zero off the support."""
        t = np.asarray(t)
        idx = t - self.support_start
        inside = (idx >= 0) & (idx < self.coeffs.size)
        out = np.zeros(t.shape, dtype=float)
        out[inside] = self.coeffs[idx[inside]]
        return out if out.ndim else float(out)


def eval_response(kernel, lam):
    """Frequency response (2*pi)**(-1/2) * sum_t v(t) exp(-i*lam*t).

    Exact finite sum over the kernel support by Horner's rule in
    z = exp(-i*lam), times one exp(-i*lam*support_start) factor, so memory
    is O(len(lam)) at any kernel length. 2*pi periodic in lam and
    conjugate-symmetric since the kernel is real. Scalar lam gives a complex
    scalar, an array gives an array.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    z = np.exp(-1j * lam_arr)
    acc = np.zeros(lam_arr.shape, dtype=complex)
    for c in kernel.coeffs[::-1]:
        acc *= z
        acc += c
    out = acc * np.exp(-1j * kernel.support_start * lam_arr) / np.sqrt(TWO_PI)
    return out.reshape(np.shape(lam)) if np.ndim(lam) else complex(out[0])


@dataclass(frozen=True)
class FamilyLevel:
    """One decimation level: factor gamma, N kernels, N center frequencies."""

    gamma: int
    kernels: tuple
    center_freqs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", int(self.gamma))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "center_freqs", _as_readonly(self.center_freqs))
        if self.gamma < 1:
            raise ValueError("need gamma >= 1")
        if len(self.kernels) != self.center_freqs.size:
            raise ValueError("one center frequency per kernel required")
        if np.any(self.center_freqs < 0.0) or np.any(self.center_freqs >= np.pi):
            raise ValueError("center frequencies must lie in [0, pi)")


def integer_condition_residual(gamma, lam):
    """Distance of gamma*lam / (2*pi) from the nearest nonnegative integer."""
    q = gamma * np.asarray(lam, dtype=float) / TWO_PI
    return np.abs(q - np.round(q))


@dataclass(frozen=True)
class DecimatedFamily:
    """N branches of decimated filters across an increasing gamma ladder.

    limit_freqs[i] is the frequency the branch-i responses concentrate
    around; decay is the exponent delta > 1/2 of the uniform envelope
    (1 + gamma*|lam - center|)**(-delta). limit_responses, when present, are
    vectorized callables on the real line giving the rescaled limits.

    Structural conditions (even gamma, integer condition, frequency
    coincidences) are required only from level index `threshold` on. With
    strict=False the constructor skips those checks, which allows building
    deliberately violating families for diagnostic use; check_condition_c
    reports the violations either way.
    """

    levels: tuple
    limit_freqs: np.ndarray
    decay: float
    limit_responses: Optional[tuple] = None
    threshold: int = 0
    name: str = ""
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "limit_freqs", _as_readonly(self.limit_freqs))
        if self.limit_responses is not None:
            object.__setattr__(self, "limit_responses", tuple(self.limit_responses))
        self._validate_structure()
        if self.strict:
            self.validate_conditions()

    @property
    def n_branches(self):
        return self.limit_freqs.size

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def gammas(self):
        return np.array([lv.gamma for lv in self.levels])

    def _validate_structure(self):
        if not self.levels:
            raise ValueError("need at least one level")
        n = self.n_branches
        for lv in self.levels:
            if len(lv.kernels) != n:
                raise ValueError("every level must carry one kernel per branch")
        g = self.gammas
        if np.any(np.diff(g) <= 0):
            raise ValueError("gamma must be strictly increasing across levels")
        if self.decay <= 0.5:
            raise ValueError("need decay > 1/2")
        if np.any(self.limit_freqs < 0.0) or np.any(self.limit_freqs >= np.pi):
            raise ValueError("limit frequencies must lie in [0, pi)")
        if self.limit_responses is not None and len(self.limit_responses) != n:
            raise ValueError("one limit response per branch required")

    def validate_conditions(self):
        """Enforce the level conditions from the threshold level on."""
        for j in range(self.threshold, self.n_levels):
            failures = _frequency_condition_failures(self, j)
            if failures:
                raise ValueError(next(iter(failures.values())))


def _frequency_condition_failures(family, j):
    """The frequency conditions level j breaks, as {condition: message}.

    Conditions, checked in this order: "even" (gamma is even), "integer"
    (gamma*center lies in 2*pi*Z), "zero_freq" (a branch with zero limit
    frequency has zero center), "coincidence" (branches sharing a limit
    frequency share the center). An empty dict means level j meets them all.
    """
    lv = family.levels[j]
    lim, center = family.limit_freqs, lv.center_freqs
    failures = {}
    if lv.gamma % 2 != 0:
        failures["even"] = f"gamma must be even from level {family.threshold} on (level {j})"
    if not np.all(integer_condition_residual(lv.gamma, center) <= INTEGER_TOL):
        failures["integer"] = f"gamma*lambda not in 2*pi*Z at level {j}"
    zero = np.flatnonzero((lim == 0.0) & (center != 0.0))
    if zero.size:
        failures["zero_freq"] = f"branch {zero[0]} has zero limit frequency but nonzero center at level {j}"
    split = np.argwhere(np.triu((lim[:, None] == lim[None, :]) & (center[:, None] != center[None, :]), 1))
    if split.size:
        i, ip = split[0]
        failures["coincidence"] = f"branches {i},{ip} share a limit frequency but split at level {j}"
    return failures


@dataclass(frozen=True)
class ConditionReport:
    """Numerical audit of the concentration conditions for a family.

    failed names the frequency conditions ("even", "integer", "zero_freq",
    "coincidence") that some level from the family threshold on breaks;
    integer_residuals[j, i] is the distance of gamma*center / (2*pi) from
    the nearest integer. uniform_stats[j, i] is the grid sup of
    gamma**(-1/2) |v*_{i,j}(lam)| (1 + gamma*|lam - center|)**decay on [0, pi);
    rescaled_residuals[j, i] the grid sup of
    |gamma**(-1/2) v*_{i,j}(lam/gamma + center) - limit_i(lam)|
    (None when no limit responses were supplied); modulus_residuals the same
    with absolute values inside, a fallback that ignores the unknown phase.
    """

    failed: frozenset
    integer_residuals: np.ndarray
    uniform_stats: np.ndarray
    rescaled_residuals: Optional[np.ndarray]
    modulus_residuals: Optional[np.ndarray]

    @property
    def frequency_conditions_ok(self):
        return not self.failed


def check_condition_c(family, grid_size=512, rescaled_halfwidth=20.0):
    """Audit a family against the concentration conditions on finite grids.

    Checks (a) the arithmetic conditions on gammas and center frequencies
    from the family threshold on, (b) the uniform envelope statistic per
    level and branch over a [0, pi) grid, (c) when limit responses are
    present, the sup-norm residual of the rescaled response against its
    limit over [-rescaled_halfwidth, rescaled_halfwidth]. Missing limit
    responses mark the residuals as unavailable instead of failing.
    """
    if family.n_levels < 2:
        raise ValueError("need at least two stored levels")
    if grid_size < 16:
        raise ValueError("need grid_size >= 16")

    n = family.n_branches
    nl = family.n_levels

    integer_res = np.array([integer_condition_residual(lv.gamma, lv.center_freqs) for lv in family.levels])
    failed = frozenset(name for j in range(family.threshold, nl) for name in _frequency_condition_failures(family, j))

    # |v*| on the 2*grid_size-point DFT grid pi*m/grid_size, by one rfft of the wrapped taps
    lam_grid = np.linspace(0.0, np.pi, grid_size, endpoint=False)
    uniform = np.zeros((nl, n))
    for j, lv in enumerate(family.levels):
        g = lv.gamma
        for i in range(n):
            taps = lv.kernels[i].coeffs
            wrapped = np.bincount(np.arange(taps.size) % (2 * grid_size), weights=taps, minlength=2 * grid_size)
            resp = np.abs(np.fft.rfft(wrapped)[:grid_size]) / np.sqrt(TWO_PI)
            envelope = (1.0 + g * np.abs(lam_grid - lv.center_freqs[i])) ** family.decay
            uniform[j, i] = np.max(resp * envelope) / np.sqrt(g)

    rescaled = None
    modulus = None
    if family.limit_responses is not None:
        xi = np.linspace(-rescaled_halfwidth, rescaled_halfwidth, grid_size)
        rescaled = np.zeros((nl, n))
        modulus = np.zeros((nl, n))
        for j, lv in enumerate(family.levels):
            g = lv.gamma
            for i in range(n):
                scaled = eval_response(lv.kernels[i], xi / g + lv.center_freqs[i]) / np.sqrt(g)
                lim = np.asarray(family.limit_responses[i](xi))
                rescaled[j, i] = np.max(np.abs(scaled - lim))
                modulus[j, i] = np.max(np.abs(np.abs(scaled) - np.abs(lim)))

    return ConditionReport(
        failed=failed,
        integer_residuals=integer_res,
        uniform_stats=uniform,
        rescaled_residuals=rescaled,
        modulus_residuals=modulus,
    )


def snapped_center_freq(gamma, target):
    """Nearest frequency to target with gamma*freq an exact multiple of 2*pi."""
    q = int(round(gamma * target / TWO_PI))
    q = min(q, (gamma - 1) // 2)  # keep the frequency strictly below pi
    q = max(q, 0)
    return TWO_PI * q / gamma


def make_scaled_window_family(prototype, gammas, modulation_freq=0.0, name=None):
    """Family whose level-j kernel samples a window profile at scale gamma_j.

    For modulation_freq == 0 the kernel is v_j(t) = gamma**-0.5 * W(t/gamma)
    on the sampled support; for a positive modulation frequency the same is
    multiplied by cos(center*t) where center snaps gamma*center onto 2*pi*Z
    exactly (integer condition by construction). The limiting rescaled
    response is What / sqrt(2*pi), halved under modulation because the
    cosine splits the passband across +-center.
    """
    if not 0.0 <= modulation_freq < np.pi:
        raise ValueError("modulation frequency must lie in [0, pi)")
    gammas = [int(g) for g in gammas]
    if any(g % 2 != 0 for g in gammas):
        raise ValueError("gamma values must be even")
    if any(b <= a for a, b in zip(gammas, gammas[1:])) or len(gammas) == 0:
        raise ValueError("gamma values must be strictly increasing and nonempty")

    levels = []
    for g in gammas:
        t = np.arange(-g, 1)
        coeffs = prototype.evaluate(t / g) / np.sqrt(g)
        if modulation_freq > 0.0:
            center = snapped_center_freq(g, modulation_freq)
            coeffs = coeffs * np.cos(center * t)
        else:
            center = 0.0
        levels.append(FamilyLevel(gamma=g, kernels=(TimeKernel(-g, coeffs),), center_freqs=np.array([center])))

    transform = prototype.transform
    if modulation_freq > 0.0:
        limit = lambda lam: 0.5 * transform(np.asarray(lam, dtype=float)) / np.sqrt(TWO_PI)
    else:
        limit = lambda lam: transform(np.asarray(lam, dtype=float)) / np.sqrt(TWO_PI)

    return DecimatedFamily(
        levels=tuple(levels),
        limit_freqs=np.array([modulation_freq]),
        decay=float(prototype.decay),
        limit_responses=(limit,),
        name=name or f"scaled:{getattr(prototype, 'name', 'window')}@{modulation_freq:g}",
    )


def two_frequency_demo_family(prototype, gammas, high_freq=np.pi / 2):
    """Two-branch family: one baseband branch, one modulated at high_freq.

    Both branches reuse the same window profile and noise stream; the limit
    frequencies differ, so the limiting covariance between the branches'
    square-sums vanishes. gammas must make gamma*high_freq / (2*pi) integral
    (multiples of 4 for the default pi/2).
    """
    gammas = [int(g) for g in gammas]
    base = make_scaled_window_family(prototype, gammas, 0.0)
    mod = make_scaled_window_family(prototype, gammas, high_freq)
    levels = []
    for lv0, lv1 in zip(base.levels, mod.levels):
        if lv1.center_freqs[0] != high_freq:
            raise ValueError("gamma does not make the high frequency exact; use multiples of 2*pi/high_freq")
        levels.append(
            FamilyLevel(
                gamma=lv0.gamma,
                kernels=(lv0.kernels[0], lv1.kernels[0]),
                center_freqs=np.array([0.0, high_freq]),
            )
        )
    return DecimatedFamily(
        levels=tuple(levels),
        limit_freqs=np.array([0.0, high_freq]),
        decay=float(prototype.decay),
        limit_responses=(base.limit_responses[0], mod.limit_responses[0]),
        name=f"two-frequency:{getattr(prototype, 'name', 'window')}",
    )


def read_kernel(path_or_file):
    """Read the plain-text kernel exchange format."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().split()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            lines = fh.read().split()
    if len(lines) < 2:
        raise ValueError("kernel file needs a support line and at least one coefficient")
    return TimeKernel(int(lines[0]), np.array([float(v) for v in lines[1:]]))
