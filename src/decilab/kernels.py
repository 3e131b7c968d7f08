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
RESCALED_HALFWIDTH = 20.0  # check_condition_c compares rescaled responses on [-20, 20]


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_gamma(gamma):
    if not gamma >= 1:
        raise ValueError(f"need gamma >= 1, got {gamma}")


def _require_band(freqs, kind):
    freqs = np.asarray(freqs, dtype=float)
    if not np.all((freqs >= 0.0) & (freqs < np.pi)):  # NaN fails both comparisons
        raise ValueError(f"{kind} frequencies must lie in [0, pi)")


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
        _require_gamma(self.gamma)
        if len(self.kernels) != self.center_freqs.size:
            raise ValueError("one center frequency per kernel required")
        _require_band(self.center_freqs, "center")


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

    The constructor is the one place the family rules are checked. The
    frequency conditions (even gamma, integer condition, zero frequency,
    coincidence) bind from level `threshold` on; strict=False skips them to
    build violating families for check_condition_c to report.
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
        if not self.levels:
            raise ValueError("need at least one level")
        if any(len(lv.kernels) != self.n_branches for lv in self.levels):
            raise ValueError("every level must carry one kernel per branch")
        if np.any(np.diff(self.gammas) <= 0):
            raise ValueError("gamma must be strictly increasing across levels")
        if not self.decay > 0.5:
            raise ValueError("need decay > 1/2")
        _require_band(self.limit_freqs, "limit")
        if self.limit_responses is not None and len(self.limit_responses) != self.n_branches:
            raise ValueError("one limit response per branch required")
        if self.strict:
            for j in range(self.threshold, self.n_levels):
                failures = _frequency_condition_failures(self, j)
                if failures:
                    raise ValueError(next(iter(failures.values())))

    @property
    def n_branches(self):
        return self.limit_freqs.size

    @property
    def n_levels(self):
        return len(self.levels)

    @property
    def gammas(self):
        return np.array([lv.gamma for lv in self.levels])


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


def check_condition_c(family, grid_size=512):
    """Audit a family against the concentration conditions on finite grids.

    Checks (a) the arithmetic conditions on gammas and center frequencies
    from the family threshold on, (b) the uniform envelope statistic per
    level and branch over a [0, pi) grid, (c) when limit responses are
    present, the sup-norm residual of the rescaled response against its
    limit over [-RESCALED_HALFWIDTH, RESCALED_HALFWIDTH]. Missing limit
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
        xi = np.linspace(-RESCALED_HALFWIDTH, RESCALED_HALFWIDTH, grid_size)
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


def _window_family(prototype, gammas, freqs, name):
    """One branch per limit frequency f, sampling the window at every scale gamma.

    Branch f at level gamma carries v(t) = gamma**-0.5 * W(t/gamma) * cos(c*t)
    on t = -gamma..0, c = snapped_center_freq(gamma, f) (0 for f = 0). Its limit
    response is What / sqrt(2*pi), halved for f > 0 as the cosine splits the
    passband across +-c. Inputs are checked before sampling; DecimatedFamily
    enforces the family rules.
    """
    _require_band(freqs, "limit")
    levels = []
    for g in map(int, gammas):
        _require_gamma(g)
        t = np.arange(-g, 1)
        profile = prototype.evaluate(t / g) / np.sqrt(g)
        centers = np.array([snapped_center_freq(g, f) for f in freqs])
        kernels = tuple(TimeKernel(-g, profile * np.cos(c * t)) for c in centers)
        levels.append(FamilyLevel(gamma=g, kernels=kernels, center_freqs=centers))

    limit = lambda lam: prototype.transform(np.asarray(lam, dtype=float)) / np.sqrt(TWO_PI)
    halved = lambda lam: 0.5 * prototype.transform(np.asarray(lam, dtype=float)) / np.sqrt(TWO_PI)
    return DecimatedFamily(
        levels=tuple(levels),
        limit_freqs=np.array(freqs, dtype=float),
        decay=float(prototype.decay),
        limit_responses=tuple(halved if f > 0.0 else limit for f in freqs),
        name=name,
    )


def make_scaled_window_family(prototype, gammas, modulation_freq=0.0):
    """One-branch window family, modulated when modulation_freq > 0 (see _window_family).

    gammas must be increasing, >= 1 and even; modulation_freq lies in [0, pi).
    """
    return _window_family(prototype, gammas, (modulation_freq,), f"scaled:{prototype.name}@{modulation_freq:g}")


def two_frequency_demo_family(prototype, gammas):
    """Baseband branch plus a branch modulated at pi/2, from one window (see _window_family).

    The limit frequencies differ, so the limiting covariance of the two square-sums
    vanishes. gamma*pi/2 in 2*pi*Z needs gammas that are multiples of 4.
    """
    if any(int(g) % 4 for g in gammas):
        raise ValueError("two-frequency gammas must be multiples of 4")
    return _window_family(prototype, gammas, (0.0, np.pi / 2), f"two-frequency:{prototype.name}")


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
