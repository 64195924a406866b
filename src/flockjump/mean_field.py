"""Traveling-wave profiles, wave speeds, closed-form stationary densities, and a
forward integrator for the mean-field evolution of the particle density.

For mean-one exponential jump lengths the traveling profile is
rho(x) = K exp(int_0^x (w(s)/c - 1) ds) for any non-constant rate w; the wave
speed c is pinned by centering the normalized profile. Each rate family exposes
an exact antiderivative of w, so profile exponents carry no quadrature error;
only normalizations and moments are integrated numerically, by one composite
Gauss-Legendre pass with panels split at the profile peak and the rate
function's knots. The speed is the root of the centered first moment, found by
Brent's method on a verified sign-change bracket; the method is `_brentq`, a
port of the loop of scipy's `brentq` that takes the same steps and returns the
same root to the bit, so solving for a speed loads no scipy module. A
family's stationary wave is the law its `stationary_law()` names in `_LAWS`
(the generalized Gumbel law, Laplace, or the exact profile at a known speed),
and the exact profile at the solved speed where it names none.

The PDE integrator discretizes the jump term by projecting the exponential jump
law onto the grid cell-by-cell, splitting each cell's mass between its two
nodes so that mass and the within-cell mean are preserved exactly. The
resulting kernel is geometric in the node offset, so the update runs in O(grid)
via a left-to-right recursion, and discrete mass conservation plus the discrete
speed-of-mean identity hold to floating-point roundoff by construction.

The Euler step runs compiled (`fj_pde` in `_kernel.c`) for every family whose
`kernel_rate()` is not None, which covers every built-in family, and as the
numpy step (`_Euler._numpy_steps`) where the kernel cannot be built or the
family has no C rate. Either one holds the whole window policy (`_Euler`) and
returns to Python only when a diagnostics sample is due, cells are due on the
right of the window, or the step fails. The compiled pass (a rate table, a
folded update and uniform-grid sums, described in `_kernel.c`) rounds
differently from numpy's exp, arctan, np.interp and np.trapezoid, so values,
mass and mean agree to 1e-12, not to the bit; grids, sample times and errors
are the same (`tests/test_kernel.py`). `wave_equation_residual` runs compiled
(`fj_wave_residual`), with w and its integral from `kernel_rate()` alone, and
falls back to its numpy body in the same way.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernel
from .model import (ArccotRate, DomainError, ModelError, PiecewiseLinearRate, is_count,
                    is_finite_number)


class NonIntegrableError(ModelError):
    """The requested profile is not normalizable (c outside (w(+inf), w(-inf)))."""


class SolverError(ModelError):
    """Wave-speed bracketing or root finding failed."""


class StepSizeError(ModelError):
    """Explicit Euler step exceeds the stability budget dt <= 0.5 / sup w."""


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def digamma(x: float) -> float:
    """Digamma psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    Upward recurrence psi(x+1) = psi(x) + 1/x pushes the argument above 7,
    then the standard asymptotic series; absolute error below 1e-10.
    """
    if not (is_finite_number(x) and x > 0):
        raise DomainError(f"digamma requires x > 0, got {x}")
    acc = 0.0
    while x < 7.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 *
              (1.0 / 240 - inv2 * (1.0 / 132 - inv2 * (691.0 / 32760))))))
    return acc + math.log(x) - 0.5 * inv - inv2 * series


def upper_gamma_regularized(k: int, z) -> np.ndarray:
    """Q(k, z) = e^{-z} sum_{j<k} z^j / j! for integer k >= 1 (Poisson tail)."""
    if k < 1 or k != int(k):
        raise DomainError(f"integer order k >= 1 required, got {k}")
    z = np.asarray(z, dtype=float)
    term = np.ones_like(z)
    total = np.ones_like(z)
    for j in range(1, int(k)):
        term = term * z / j
        total = total + term
    return np.exp(-z) * total


# ---------------------------------------------------------------------------
# traveling-wave profile and speed
# ---------------------------------------------------------------------------


def log_profile(w, c: float, x):
    """Exponent of the unnormalized profile: int_0^x (w(s)/c - 1) ds, exact."""
    x = np.asarray(x, dtype=float)
    return w.integral(x) / c - x


def _check_speed_bracket(w, c: float):
    if not (math.isfinite(c) and w.right_limit < c < w.left_limit):
        raise NonIntegrableError(
            f"speed c={c} must lie strictly inside (w(+inf), w(-inf)) = "
            f"({w.right_limit}, {w.left_limit}); a constant rate admits no wave")


# Doubling steps 2^0 .. 2^99 away from the origin or the peak. A tail's exponent
# falls at a slope of at least |1 - w(+-inf)/c| >= 2^-53 for any admissible
# float c, so a drop below 2^46 is reached well inside the last step.
_STEPS = 2.0 ** np.arange(100)
# Points of the uniform grid that refines a doubling bracket.
_REFINE = 256
# Composite Gauss-Legendre rule for the moments: _PANELS panels on each side of
# the peak, graded quadratically toward it and further split at rate knots.
_PANELS = 64
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _first(hit, what: str) -> int:
    """Index of the first True in `hit`; SolverError(what) if there is none."""
    idx = np.flatnonzero(hit)
    if not idx.size:
        raise SolverError(what)
    return int(idx[0])


def _exponent_argmax(w, c: float) -> float:
    """Locate the profile peak: the crossing w(x) = c (the exponent is concave).

    One vectorized doubling pass brackets the crossing in [-2^i, 2^j] and one
    uniform grid narrows it to 1/_REFINE of that width. The peak only anchors
    the exponent and splits the quadrature, so this resolution is enough.
    """
    i = _first(w.rate(-_STEPS) > c, f"could not bracket w(x) = {c} on the left")
    j = _first(w.rate(_STEPS) < c, f"could not bracket w(x) = {c} on the right")
    xs = np.linspace(-_STEPS[i], _STEPS[j], _REFINE + 1)
    k = np.count_nonzero(w.rate(xs) > c) - 1
    return 0.5 * (xs[k] + xs[k + 1])


def _profile_frame(w, c: float, drop: float):
    """(peak, peak exponent, x_lo, x_hi): the profile is below exp(-drop) of its
    peak outside [x_lo, x_hi], and at most 1/_REFINE of a doubling step beyond it.

    Both tails take one vectorized doubling pass from the peak and one
    vectorized refinement of the step that crosses the level.
    """
    _check_speed_bracket(w, c)
    x_star = _exponent_argmax(w, c)
    e_star = float(log_profile(w, c, x_star))
    target = e_star - drop
    n = len(_STEPS)
    e = log_profile(w, c, x_star + np.concatenate([-_STEPS, _STEPS]))
    msg = "profile tail does not decay; c is outside the admissible bracket"
    i, j = _first(e[:n] < target, msg), _first(e[n:] < target, msg)
    inner = np.array([_STEPS[i - 1] if i else 0.0, _STEPS[j - 1] if j else 0.0])
    outer = np.array([_STEPS[i], _STEPS[j]])
    sides = x_star + np.array([[-1.0], [1.0]]) * np.linspace(inner, outer, _REFINE + 1).T
    e = log_profile(w, c, sides)
    x_lo = sides[0, _first(e[0] < target, msg)]
    x_hi = sides[1, _first(e[1] < target, msg)]
    return x_star, e_star, float(x_lo), float(x_hi)


def _moments(w, c: float, frame):
    """(mass, first moment) of exp(log_profile - peak exponent) over the frame,
    by one composite Gauss-Legendre pass split at the peak and the knots."""
    x_star, e_star, x_lo, x_hi = frame
    grade = np.linspace(0.0, 1.0, _PANELS + 1) ** 2
    knots = np.asarray(w.knots, dtype=float)
    edges = np.unique(np.concatenate([
        x_star + (x_lo - x_star) * grade, x_star + (x_hi - x_star) * grade,
        knots[(knots > x_lo) & (knots < x_hi)]]))
    half = 0.5 * np.diff(edges)[:, None]
    x = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * _GL_NODES
    f = np.exp(log_profile(w, c, x) - e_star) * (half * _GL_WEIGHTS)
    return float(f.sum()), float((x * f).sum())


def profile_moments(w, c: float, drop: float = 60.0):
    """(mass, first moment, peak exponent) of the profile exp(log_profile - peak)."""
    frame = _profile_frame(w, c, drop)
    return (*_moments(w, c, frame), frame[1])


@lru_cache(maxsize=128)
def _normalization(w, c: float, drop: float):
    """(log K, x_lo, x_hi): K normalizes the profile at speed c to mass one,
    and the profile is below exp(-drop) of its peak outside [x_lo, x_hi].
    Bounded: `wave_profile` adds an entry for every (w, c, drop) it builds."""
    frame = _profile_frame(w, c, drop)
    i0, _i1 = _moments(w, c, frame)
    return -(frame[1] + math.log(i0)), frame[2], frame[3]


@dataclass(frozen=True)
class WaveProfile:
    """Gridded traveling-wave density with exact off-grid evaluation.

    `values` are normalized so the trapezoid integral over `grid` is 1;
    `density_at` evaluates K * exp(exponent) exactly at arbitrary points.
    """

    grid: np.ndarray
    values: np.ndarray
    c: float
    w: object
    log_norm: float

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def density_at(self, x, shift: float = 0.0):
        """Exact normalized density at x (optionally for the profile moved by `shift`)."""
        e = log_profile(self.w, self.c, np.asarray(x, dtype=float) - shift)
        return np.exp(e + self.log_norm)

    def trapz_mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    def trapz_mean(self) -> float:
        return float(np.trapezoid(self.grid * self.values, self.grid))


def _profile_nodes(w, c: float, h: float, drop: float):
    """(h, log K, j_lo, j_hi): the profile's nodes are h * j for j_lo <= j <= j_hi.

    The default spacing is 0.005; a discontinuous rate kinks the density, so
    the step family defaults to 0.001 to keep the trapezoid mass within 1e-8.
    """
    if h is None:
        h = 0.005 if w.continuous else 0.001
    elif not (is_finite_number(h) and h > 0):
        raise DomainError(f"h must be finite and > 0, got {h!r}")
    log_norm, x_lo, x_hi = _normalization(w, c, drop)
    # Align nodes with multiples of h so rate knots (integers, 0) fall on nodes.
    return h, log_norm, math.floor(x_lo / h) - 1, math.ceil(x_hi / h) + 1


def profile_support(w, c: float, drop: float = 60.0) -> tuple:
    """(x_lo, x_hi): the profile at speed c is below exp(-drop) of its peak
    outside this interval. Its exponent is concave, so the profile beyond
    either end holds at most exp(-drop) / (1 - exp(-drop)) of its mass."""
    return _normalization(w, c, drop)[1:]


def wave_profile(w, c: float, h: float = None, drop: float = 60.0) -> WaveProfile:
    """Construct the normalized traveling-wave profile at speed c, on the
    nodes of `_profile_nodes`."""
    h, log_norm, j_lo, j_hi = _profile_nodes(w, c, h, drop)
    grid = h * np.arange(j_lo, j_hi + 1)
    exponents = log_profile(w, c, grid) + log_norm
    with np.errstate(under="ignore"):
        values = np.exp(exponents)
    tz = np.trapezoid(values, grid)
    if not (tz > 0 and math.isfinite(tz)):
        raise NonIntegrableError("profile is not normalizable on the requested grid")
    return WaveProfile(grid=grid, values=values, c=c, w=w, log_norm=log_norm)


def profile_mean(w, c: float, drop: float = 60.0) -> float:
    i0, i1, _ = profile_moments(w, c, drop)
    return i1 / i0


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int):
    """(root, converged): Brent's method for a root of f on [xa, xb], whose
    ends must give f values of opposite signs.

    A port of the loop of scipy's `brentq` (scipy/optimize/Zeros/brentq.c)
    that does the same floating-point operations in the same order: it
    evaluates f at the same points, returns the same root to the bit and
    stops after the same number of iterations. It stops once the bracket
    is narrower than xtol + rtol * |root|, or at an exact zero of f, and
    returns converged False after `maxiter` iterations short of that. f must
    not return NaN, which the loop would take for a value of either sign.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre, True
    if fcur == 0:
        return xcur, True
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry         # good short step
            else:
                spre = scur = sbis              # bisect
        else:
            spre = scur = sbis                  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur, False


def wave_speed(w, max_iter: int = 200, report: dict = None) -> float:
    """Speed of the traveling wave: the c at which the profile is centered.

    Brent's method (`_brentq`, an exact port of the loop of
    `scipy.optimize.brentq`, so no scipy module loads) on the normalized
    profile's first moment, over a bracket inside (w(+inf), w(-inf)) found
    by stepping out from a start value. The sign change at the bracket ends
    is verified rather than assumed from monotonicity, and the moments
    computed there are reused. The root is resolved to a bracket of width
    1e-13 * max(1, |c|) within `max_iter` Brent steps (an integer >= 0,
    DomainError otherwise); a NaN moment raises SolverError naming its
    speed. A start value whose moment is exactly 0 is returned after that one
    evaluation. If given, `report` receives the bracket (that start's one
    point), its endpoint means, the number of `profile_mean` calls
    (`evaluations`) and the width of the final bracket (`bracket_width`).
    """
    if not is_count(max_iter, 0):
        raise DomainError(f"max_iter: must be an integer >= 0, got {max_iter!r}")
    w_right, w_left = w.right_limit, w.left_limit
    if not (w_left > w_right):
        raise SolverError("constant rate function has no traveling wave speed")

    means = {}

    def mean(c):
        if c not in means:
            m = profile_mean(w, c)
            if math.isnan(m):
                raise SolverError(f"the profile mean at c = {c!r} is NaN")
            means[c] = m
        return means[c]

    if math.isfinite(w_left):
        c0 = 0.5 * (w_left + w_right)
    else:
        c0 = max(float(w(0.0)), 2.0 * w_right + 1.0)

    # A start value whose moment is exactly 0 is the root: its one-point
    # bracket goes to _brentq, which returns it at once.
    c_lo = c_hi = c0
    if mean(c0) != 0:
        # Expand upward until the centered moment goes negative; every c
        # passed on the way has a non-negative moment and tightens the lower end.
        for _ in range(200):
            if mean(c_hi) < 0:
                break
            c_lo = c_hi
            c_hi = 0.5 * (c_hi + w_left) if math.isfinite(w_left) else 2.0 * c_hi
        else:
            raise SolverError(f"no c with negative profile mean found below w(-inf)={w_left}")
        # Expand downward (toward w(+inf)) until the moment goes positive.
        for _ in range(200):
            if mean(c_lo) > 0:
                break
            if mean(c_lo) < 0:
                c_hi = c_lo
            c_lo = 0.5 * (c_lo + w_right)
        else:
            raise SolverError(f"no c with positive profile mean found above w(+inf)={w_right}")

    m_lo, m_hi = mean(c_lo), mean(c_hi)
    if not (m_lo > 0 > m_hi or c_lo == c_hi):
        raise SolverError(
            f"bracket endpoints do not straddle zero moment: "
            f"mean({c_lo})={m_lo:.6g}, mean({c_hi})={m_hi:.6g}")
    if report is not None:
        report.update(bracket=(c_lo, c_hi), endpoint_means=(m_lo, m_hi),
                      moment_decreasing=m_lo > m_hi)

    # _brentq stops once its bracket is narrower than xtol + rtol * |c|.
    c, converged = _brentq(mean, c_lo, c_hi, 5e-14, 5e-14, max_iter)
    if not converged:
        raise SolverError(f"Brent iteration did not converge in {max_iter} steps "
                          f"on [{c_lo}, {c_hi}]")
    if report is not None:
        # The final bracket is the tightest sign change among the evaluated c,
        # or the root itself when its moment is exactly zero. A zero moment
        # elsewhere ends a sign change on each side.
        pts = sorted(means.items())
        width = 0.0 if means[c] == 0 else min(
            c2 - c1 for (c1, m1), (c2, m2) in zip(pts, pts[1:]) if m1 * m2 <= 0)
        report.update(evaluations=len(means), bracket_width=width)
    return c


# ---------------------------------------------------------------------------
# stationary laws (exponential jump lengths)
# ---------------------------------------------------------------------------


def _check_gumbel_beta(beta) -> None:
    """The generalized Gumbel law needs beta a finite number > 0; checked before
    1/beta, Gamma(1/beta) or the integer order round(1/beta) is formed."""
    if not (is_finite_number(beta) and beta > 0):
        raise DomainError(f"beta must be a finite number > 0, got {beta!r}")


def generalized_gumbel_pdf(beta: float, x):
    """Generalized Gumbel density (beta / Gamma(1/beta)) exp(-x - e^{-beta x}),
    uncentered: the limit law of the record process (`extremes`)."""
    _check_gumbel_beta(beta)
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore", over="ignore"):
        z = np.exp(-np.clip(beta * x, -700.0, 700.0))
        out = (beta / math.gamma(1.0 / beta)) * np.exp(-x - z)
    return out


def generalized_gumbel_cdf(beta: float, x):
    """CDF of the uncentered generalized Gumbel law; closed Poisson-tail form at
    integer 1/beta."""
    _check_gumbel_beta(beta)
    k = 1.0 / beta
    x = np.asarray(x, dtype=float)
    if abs(k - round(k)) < 1e-12:
        with np.errstate(over="ignore"):
            z = np.exp(-np.clip(beta * x, -700.0, 700.0))
        return upper_gamma_regularized(int(round(k)), z)
    return _numeric_cdf(lambda t: generalized_gumbel_pdf(beta, t), -30.0 / beta, 80.0)(x)


def gumbel_wave_pdf(beta: float, x):
    """Stationary density for w(x) = e^{-beta x}: the generalized Gumbel law,
    moved by s = psi(1/beta)/beta to mean zero."""
    return generalized_gumbel_pdf(beta, np.asarray(x, dtype=float) - _gumbel_shift(beta))


def gumbel_wave_cdf(beta: float, x):
    """CDF of the centered generalized Gumbel wave."""
    return generalized_gumbel_cdf(beta, np.asarray(x, dtype=float) - _gumbel_shift(beta))


def _gumbel_shift(beta: float) -> float:
    _check_gumbel_beta(beta)
    return digamma(1.0 / beta) / beta


def laplace_wave_pdf(a: float, b: float, x):
    """Stationary density for the step rate: Laplace with rate (a-b)/(a+b)."""
    r = (a - b) / (a + b)
    return 0.5 * r * np.exp(-r * np.abs(np.asarray(x, dtype=float)))


def laplace_wave_cdf(a: float, b: float, x):
    r = (a - b) / (a + b)
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(r * np.where(x < 0, x, 0.0)),
                    1.0 - 0.5 * np.exp(-r * np.where(x >= 0, x, 0.0)))


def _numeric_cdf(pdf, lo: float, hi: float, npts: int = 120_001):
    """CDF of `pdf` by the trapezoid rule on npts points of [lo, hi],
    normalized there: 0 left of lo, 1 right of hi. The table is built at the
    first call."""

    @lru_cache(maxsize=None)
    def table():
        xs = np.linspace(lo, hi, npts)
        vals = np.asarray(pdf(xs), dtype=float)
        h = xs[1] - xs[0]
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * h)])
        return xs, np.clip(cum / cum[-1], 0.0, 1.0)

    def cdf(x):
        return np.interp(x, *table(), left=0.0, right=1.0)

    return cdf


def _gumbel_law(beta: float):
    return (math.exp(-digamma(1.0 / beta)) / beta,
            lambda x: gumbel_wave_pdf(beta, x), lambda x: gumbel_wave_cdf(beta, x))


def _laplace_law(a: float, b: float):
    return (0.5 * (a + b), lambda x: laplace_wave_pdf(a, b, x),
            lambda x: laplace_wave_cdf(a, b, x))


def _exact_law(w, c: float):
    """(c, pdf, cdf) of the normalized exact profile at speed c; the cdf is
    numeric on the frame outside which the profile is below e^-60 of its peak.
    The normalization is cached on (w, c), so a law built twice integrates
    once."""
    log_norm, lo, hi = _normalization(w, c, 60.0)

    def pdf(x):
        return np.exp(log_profile(w, c, x) + log_norm)

    return c, pdf, _numeric_cdf(pdf, lo, hi)


# The stationary laws, by the name `RateFamily.stationary_law()` returns; each
# builds (speed, pdf, cdf) from the parameters it returns with the name.
_LAWS = {
    "generalized_gumbel": _gumbel_law,
    "laplace": _laplace_law,
    # The piecewise-linear rate's wave at its speed (a+b)/2, a Gaussian core on
    # [-1, 1] with exponential tails: a check of the rate's stationary_wave,
    # which, as for any table, is the exact profile at the solved speed.
    "piecewise_gauss_exp": lambda a, b: _exact_law(PiecewiseLinearRate(a, b), 0.5 * (a + b)),
    "arccot": lambda: _exact_law(ArccotRate(), 0.5 * math.pi),
}


def closed_form_density(family: str, x, **params):
    """Evaluate the stationary density `_LAWS[family]` builds from `params`."""
    if family not in _LAWS:
        raise DomainError(f"unknown closed-form family {family!r}")
    return _LAWS[family](**params)[1](x)


@dataclass(frozen=True)
class StationaryWave:
    """Matching mean-field stationary law for a rate family: speed, pdf, cdf."""

    c: float
    pdf: object
    cdf: object
    label: str


def stationary_wave(w) -> StationaryWave:
    """The law in `_LAWS` that `w.stationary_law()` names; where it names none,
    the exact profile at the speed `wave_speed(w)` solves for."""
    law = w.stationary_law()
    if law is None:
        return StationaryWave(*_exact_law(w, wave_speed(w)), label=f"numeric({type(w).__name__})")
    name, params = law
    args = ",".join(f"{key}={val}" for key, val in params.items())
    return StationaryWave(*_LAWS[name](**params), label=f"{name}({args})" if args else name)


# ---------------------------------------------------------------------------
# speed of the mean
# ---------------------------------------------------------------------------


def mean_speed_arrays(grid, values, m: float, w) -> float:
    """Trapezoid quadrature of w(y - m) * rho(y): the instantaneous speed of the mean."""
    grid = np.asarray(grid, dtype=float)
    return float(np.trapezoid(w.rate(grid - m) * np.asarray(values, dtype=float), grid))


# ---------------------------------------------------------------------------
# traveling-wave equation residual (verification of the profile construction)
# ---------------------------------------------------------------------------


def wave_equation_residual(w, c: float = None, h: float = 0.002, drop: float = 50.0) -> float:
    """Sup-norm residual of -c rho' + w rho - int_{-inf}^x w rho e^{-(x-y)} dy = 0.

    rho is the normalized profile on the nodes of `wave_profile(w, c, h,
    drop)`; rho' uses a 5-point stencil; the convolution uses per-cell 2-point
    Gauss-Legendre against the exact density, chained by the left-to-right
    exponential recursion. Nodes whose stencils straddle a rate knot are
    skipped (one-sided limits satisfy the equation separately). A NaN on a
    kept node makes the result NaN; an h that leaves no node to keep raises
    DomainError naming it.

    It runs compiled (`fj_wave_residual` in `_kernel.c`, one pass over the
    nodes that allocates nothing) when the kernel loads and the family has a
    `kernel_rate()`, and as the numpy body `_numpy_wave_residual` otherwise.
    The two agree to roundoff, about 1e-14 absolute, not to the bit: libm's
    exp, atan and log1p round differently from numpy's, the tabulated w comes
    from the segment table, not np.interp, and the kernel factor
    e^{-(x_{j+1} - y)} of a Gauss point is one constant for every cell.
    """
    if c is None:
        c = wave_speed(w)
    h, log_norm, j_lo, j_hi = _profile_nodes(w, c, h, drop)
    knots = np.array(w.knots, dtype=float)
    run = kernel.WaveResidual(n_knots=len(knots), c=c, h=h, log_norm=log_norm,
                              j_lo=j_lo, j_hi=j_hi)
    lib = kernel.bind_rate(run, w)
    if lib is None:
        return _numpy_wave_residual(w, c, h, drop)
    run.bind(knots=knots)
    lib.fj_wave_residual(ctypes.byref(run))
    if not (run.mass > 0 and math.isfinite(run.mass)):
        raise NonIntegrableError("profile is not normalizable on the requested grid")
    if not run.kept:
        raise _no_node(h)
    return run.sup


def _no_node(h) -> DomainError:
    """The error of an h that leaves the wave residual no node to check."""
    return DomainError(f"h = {h!r} leaves no profile node more than 2.5 h from every "
                       "rate knot, so the residual has no node to check")


def _numpy_wave_residual(w, c: float, h: float, drop: float) -> float:
    """The numpy body of `wave_equation_residual`: the kernel's fallback and oracle."""
    prof = wave_profile(w, c, h=h, drop=drop)
    grid = prof.grid
    rho = prof.values       # density_at(grid), by the same expression
    inner = grid[2:-2]
    keep = np.ones(len(inner), dtype=bool)
    for knot in w.knots:
        keep &= np.abs(inner - knot) > 2.5 * h
    if not keep.any():
        raise _no_node(h)
    from scipy.signal import lfilter

    # Per-cell integral of w(y) rho(y) e^{-(x_{j+1} - y)} by 2-pt Gauss-Legendre.
    gl = 1.0 / math.sqrt(3.0)
    mids = 0.5 * (grid[:-1] + grid[1:])
    contrib = np.zeros(len(grid) - 1)
    for off in (-gl, gl):
        y = mids + 0.5 * h * off
        contrib += 0.5 * h * np.asarray(w.rate(y), dtype=float) * prof.density_at(y) \
            * np.exp(-(grid[1:] - y))
    decay = math.exp(-h)
    conv = np.empty_like(rho)
    conv[0] = 0.0
    conv[1:] = lfilter([1.0], [1.0, -decay], contrib)

    # 5-point derivative at the inner nodes, skipping stencils that straddle a knot.
    drho = (rho[:-4] - 8 * rho[1:-3] + 8 * rho[3:-1] - rho[4:]) / (12 * h)
    resid = -c * drho + np.asarray(w.rate(inner), dtype=float) * rho[2:-2] - conv[2:-2]
    return float(np.max(np.abs(resid[keep])))


# ---------------------------------------------------------------------------
# mean-field PDE (exponential jump kernel)
# ---------------------------------------------------------------------------


def _checked_mass(grid, values) -> float:
    """Trapezoid mass of `values` on `grid`: ModelError unless they are
    matching 1-d arrays, DomainError unless the values and the mass are finite
    and the mass positive, the conditions for a mean."""
    if grid.shape != values.shape or grid.ndim != 1:
        raise ModelError("grid and values must be matching 1-d arrays")
    if not np.all(np.isfinite(values)):
        raise DomainError("density values are not finite")
    mass = float(np.trapezoid(values, grid))
    if not (mass > 0 and math.isfinite(mass)):
        raise DomainError(f"density mass is not finite and positive: {mass}")
    return mass


@dataclass
class DensityField:
    """Density samples on a uniform absolute grid; the mean is the grid first moment.

    The values and their trapezoid mass must be finite and the mass positive
    (DomainError otherwise), so that the mean, and with it a PDE step, is
    defined.
    """

    grid: np.ndarray
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        _checked_mass(self.grid, self.values)

    @property
    def h(self) -> float:
        """The grid's spacing, `_uniform_spacing(grid)`: DomainError unless it
        is uniform."""
        return _uniform_spacing(self.grid)

    @property
    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.grid))

    @property
    def mean(self) -> float:
        return float(np.trapezoid(self.grid * self.values, self.grid) / self.mass)

    @classmethod
    def gaussian(cls, grid, center: float = 0.0, sigma: float = 0.1) -> "DensityField":
        grid = np.asarray(grid, dtype=float)
        with np.errstate(under="ignore"):
            vals = np.exp(-0.5 * ((grid - center) / sigma) ** 2)
        vals /= np.trapezoid(vals, grid)
        return cls(grid=grid, values=vals)

    @classmethod
    def from_profile(cls, prof: WaveProfile, grid=None, center: float = None) -> "DensityField":
        grid = prof.grid if grid is None else np.asarray(grid, dtype=float)
        shift = 0.0 if center is None else center
        return cls(grid=grid, values=prof.density_at(grid, shift=shift))


@lru_cache(maxsize=None)
def _exp_kernel(h: float):
    """Node weights of the mass/mean-preserving projection of the Exp(1) jump law.

    Cell d (offsets [dh, (d+1)h]) has mass m_d = (1-r) r^d with r = e^{-h}; the
    split fraction theta places each cell's mass on its two nodes preserving the
    within-cell mean, and is the same for every cell. The node weights are
    W_0 = (1-theta)(1-r) and W_d = c1 r^{d-1} for d >= 1; c1 is derived from W_0
    so the total is exactly 1 in floating point.
    """
    r = math.exp(-h)
    theta = (1.0 - (1.0 + h) * r) / (h * (1.0 - r))
    w0 = (1.0 - theta) * (1.0 - r)
    c1 = (1.0 - w0) * (1.0 - r)
    return r, w0, c1


def _jump_flux(s: np.ndarray, h: float) -> np.ndarray:
    """conv_j = sum_d W_d s_{j-d} via the geometric recursion (O(grid))."""
    from scipy.signal import lfilter

    r, w0, c1 = _exp_kernel(h)
    shifted = np.empty_like(s)
    shifted[0] = 0.0
    shifted[1:] = s[:-1]
    tail = lfilter([1.0], [1.0, -r], shifted)
    return w0 * s + c1 * tail


def _uniform_spacing(grid) -> float:
    """The spacing h of an increasing uniform grid: its mean step, which the
    rounding of the nodes moves far less than it moves grid[1] - grid[0].

    DomainError naming the grid unless every step is h to within the rounding
    of a grid built as a + h * arange(k): 64 ulps of the largest |node|, plus
    1e-8 h for the rounding a window picks up as `pde_integrate` shifts it.
    """
    h = float(grid[-1] - grid[0]) / (len(grid) - 1)
    steps = np.diff(grid)
    tol = 1e-8 * h + 64 * np.finfo(float).eps * float(np.max(np.abs(grid)))
    if not (h > 0 and float(np.max(np.abs(steps - h))) <= tol):
        raise DomainError(f"grid must be increasing with uniform spacing: its steps are "
                          f"{float(steps.min()):.6g} to {float(steps.max()):.6g}")
    return h


EMPTY_CELL = 1e-30           # the left edge may drop a cell whose |value| is at most this
RIGHT_EDGE_SHARE = 1e-11     # of the mass, in the window's last unit of length


class _Euler:
    """Explicit Euler steps of the mean-field equation with Exp(1) jumps.

    Holds the window (`grid`, `values`), its trapezoid `mass` and mean `m`,
    the mass and count of the cells trimmed off its left edge so far, and
    the count of the cells `added` on its right.
    The grid must be uniform (DomainError otherwise): the jump kernel
    `_exp_kernel(h)` is built for one spacing h, and the compiled step's
    trapezoid sums use h for every cell.
    A step runs compiled (`fj_pde` in `_kernel.c`) when the kernel loads and
    the family has a `kernel_rate()`, and as the numpy loop `_numpy_steps`
    otherwise; the two agree to roundoff, not to the bit. Both hold the
    window policy. Once a step leaves the mean k >= 1 cells further from the
    left edge than `offset0`, the window moves right by those cells if they
    are empty (at most EMPTY_CELL) and widens otherwise: `offset0` advances
    k cells and `widen` = k cells are due on the right. After either, and at
    the end of a run whose steps all ran, `grow` = half the widened length
    is due if the widened window's last unit of length holds more than
    RIGHT_EDGE_SHARE of the mass. An `offset0` of inf keeps the window still.
    """

    def __init__(self, w, grid, values, dt: float):
        if not (is_finite_number(dt) and dt > 0):
            raise DomainError(f"dt must be finite and > 0, got {dt!r}")
        grid = np.array(grid, dtype=float)
        values = np.array(values, dtype=float)
        self.w, self.dt = w, dt
        self.mass = _checked_mass(grid, values)
        self.h = _uniform_spacing(grid)
        self.m = float(np.trapezoid(grid * values, grid) / self.mass)
        self.offset0 = self.m - grid[0]     # window geometry preserved as the wave moves
        self.edge = max(1, round(1.0 / self.h))     # cells in the window's last unit of length
        self.trimmed, self.trims = 0.0, 0
        self.widen = self.grow = self.added = 0
        r, w0, c1 = _exp_kernel(self.h)
        run = kernel.Pde(dt=dt, h=self.h, r=r, w0=w0, c1=c1, empty=EMPTY_CELL,
                         edge_share=RIGHT_EDGE_SHARE, edge=self.edge)
        lib = kernel.bind_rate(run, w)
        self._run, self._fj_pde = (None, None) if lib is None else (run, lib.fj_pde)
        self.set_window(grid, values)

    def set_window(self, grid: np.ndarray, values: np.ndarray):
        """Continue on a new window, contiguous float arrays the steps own and
        may change in place; the kernel rebuilds its rate table at the next
        step."""
        self.grid, self.values = grid, values
        run = self._run
        if run is not None:
            run.bind(grid=grid, values=values, rates=np.empty(len(grid)))
            run.len, run.ref = len(grid), math.nan

    def extend(self, k: int):
        """Add k empty cells on the right of the window (none for k = 0)."""
        if k:
            grid = self.grid
            self.set_window(np.concatenate([grid, grid[-1] + self.h * np.arange(1, k + 1)]),
                            np.concatenate([self.values, np.zeros(k)]))
            self.added += k

    def advance(self, steps: int, t: float):
        """Run up to `steps` steps from time t, moving the window as they
        go; returns (steps run, time after them, exit), where the exit is
        kernel.PDE_STEPS once the steps are done and PDE_GROW once `widen`,
        then `grow`, cells are due on the right for `extend` to add. Raises
        StepSizeError before a step with dt > 0.5 / w at the left edge, the sup of the non-increasing w over the grid, and DomainError
        after a step that leaves the mass or mean not finite."""
        run = self._run
        if run is None:
            done, code, wmax = self._numpy_steps(steps)
        else:
            run.steps, run.offset0, run.m, run.mass = steps, self.offset0, self.m, self.mass
            run.trimmed, run.trims = self.trimmed, self.trims
            code = self._fj_pde(ctypes.byref(run))
            done, wmax, self.m, self.mass = run.done, run.value, run.m, run.mass
            self.trimmed, self.trims, self.offset0 = run.trimmed, run.trims, run.offset0
            self.widen, self.grow = run.widen, run.grow
        for _ in range(done):
            t += self.dt
        if code == kernel.PDE_UNSTABLE:
            raise StepSizeError(
                f"dt={self.dt} exceeds the stability budget 0.5/sup w = {0.5 / wmax:.3g} "
                f"at t={t:.4g}; shrink dt, or trim the left edge of the grid "
                "(pde_integrate trims it once it is empty)")
        if code == kernel.PDE_NOT_FINITE:
            raise DomainError(f"density mass {self.mass} or mean {self.m} is not finite "
                              f"at t={t:.4g}")
        return done, t, code

    def _numpy_steps(self, steps: int):
        """The numpy step and window policy, the kernel's fallback and oracle:
        (steps run, kernel.PDE_* exit, w at the left edge), with `offset0`,
        `widen` and `grow` set as fj_pde sets them."""
        w, dt, h = self.w, self.dt, self.h
        done, wmax = 0, math.nan
        self.widen = self.grow = 0
        while done < steps:
            grid, values, m = self.grid, self.values, self.m
            wmax = float(w.rate(grid[0] - m))
            if dt > 0.5 / wmax:
                return done, kernel.PDE_UNSTABLE, wmax
            s = np.asarray(w.rate(grid - m), dtype=float) * values
            self.values = values = values + dt * (_jump_flux(s, h) - s)
            self.mass = mass = float(np.trapezoid(values, grid))
            self.m = m = float(np.trapezoid(grid * values, grid) / mass)
            done += 1
            if not (math.isfinite(mass) and math.isfinite(m)):
                return done, kernel.PDE_NOT_FINITE, wmax
            ahead = (m - grid[0] - self.offset0) / h
            if ahead >= 1.0:
                k = int(ahead)
                if k >= len(values) or np.any(np.abs(values[:k]) > EMPTY_CELL):
                    self.widen = k
                    self.offset0 += k * h
                else:
                    self.trimmed += float(np.cumsum(values[:k])[-1])
                    self.trims += k
                    self.grid = grid + k * h
                    self.values = np.concatenate([values[k:], np.zeros(k)])
                self.grow = self._grow(self.widen)
                if self.widen or self.grow:
                    return done, kernel.PDE_GROW, wmax
        self.grow = self._grow(0)
        return steps, kernel.PDE_GROW if self.grow else kernel.PDE_STEPS, wmax

    def _grow(self, widen: int) -> int:
        """Half the length of the window widened by `widen` zeros if its last
        `edge` cells hold more than RIGHT_EDGE_SHARE of the mass, else 0; it
        sums the window's own cells among them in index order."""
        own = self.edge - widen
        if own <= 0:
            return 0
        full = self.h * np.cumsum(self.values[-own:])[-1] > RIGHT_EDGE_SHARE * self.mass
        return (len(self.values) + widen) // 2 if full else 0


def pde_step(field: DensityField, w, dt: float) -> DensityField:
    """One explicit Euler step of the mean-field equation with Exp(1) jumps:
    the step, and the stability check, of `pde_integrate`, on the field's
    own window, which it keeps whatever cells the step reports due."""
    euler = _Euler(w, field.grid, field.values, dt)
    euler.offset0 = math.inf
    _, t, _ = euler.advance(1, field.time)
    return DensityField(grid=euler.grid, values=euler.values, time=t)


@dataclass
class PdeDiagnostics:
    t: np.ndarray
    mass: np.ndarray
    mean: np.ndarray
    speed: np.ndarray
    w1_shape: np.ndarray = None      # W1 to the wave recentered at the field mean
    w1_moving: np.ndarray = None     # W1 to the wave translated at speed c from t=0
    trimmed_mass: float = 0.0        # sum of the values of the cells trimmed on the left
    trims: int = 0                   # count of those cells
    added: int = 0                   # count of the cells added on the right (widen + grow)

    def mass_drift_per_unit_time(self) -> float:
        span = self.t[-1] - self.t[0]
        return abs(self.mass[-1] - self.mass[0]) / max(span, 1e-300)


def _w1_grid_vs_callable(grid, values, pdf) -> float:
    """W1 between the density `values` on the uniform `grid` and `pdf`, both
    integrated by the trapezoid rule with the spacing `_uniform_spacing(grid)`."""
    target = np.asarray(pdf(grid), dtype=float)
    h = _uniform_spacing(grid)
    f1 = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * h)])
    f2 = np.concatenate([[0.0], np.cumsum(0.5 * (target[1:] + target[:-1]) * h)])
    return float(np.trapezoid(np.abs(f1 - f2), grid))


def pde_integrate(field: DensityField, w, T: float, dt: float,
                  samples: int = 200, wave: WaveProfile = None) -> tuple:
    """Integrate the mean-field equation for round(T/dt) steps of dt.

    Returns (final DensityField, PdeDiagnostics). The run ends at time
    round(T/dt) dt after the field's: T = 1 with dt = 0.009 ends at 0.999.
    T must be finite and >= 0, and a T > 0 must round to one step or more
    (T = dt/2 rounds to even, to none); dt must be finite and > 0, samples
    an integer >= 1 and the field's grid uniform. Each fails with a
    DomainError before any step otherwise. The diagnostics hold the start
    and about `samples` more evenly spaced samples.

    The active window follows the wave by the step's policy (`_Euler`).
    Left cells are dropped once the mean has passed them and their density
    is at most EMPTY_CELL (the trimmed total and cell count are reported).
    Where they still carry mass the window widens by as many cells on the
    right instead, keeping the explicit-Euler stability budget satisfiable
    as the mean advances. Mass drift is reported, never silently corrected.

    Jump mass that lands past the right edge is lost. So after each trim,
    widening and sample, the window grows by half its length on the right
    once its last unit of length holds more than RIGHT_EDGE_SHARE of the
    mass; `added` counts the cells added on the right. What still runs off
    is the jumps from that last unit, and the bulk's jumps straight past the
    edge, e^{-d} of its jump rate at distance
    d; both show as mass drift.
    """
    if not (is_finite_number(T) and T >= 0):
        raise DomainError(f"T must be finite and >= 0, got {T!r}")
    if not is_count(samples, 1):
        raise DomainError(f"samples: must be an integer >= 1, got {samples!r}")
    euler = _Euler(w, field.grid, field.values, dt)
    n_steps = int(round(T / dt))
    if n_steps == 0 and T > 0:
        raise DomainError(f"T={T!r} rounds to zero steps of dt={dt!r}; "
                          "a T > 0 must exceed dt/2")
    t = t0 = field.time
    m0 = euler.m
    sample_every = max(1, n_steps // samples)

    times, masses, means, speeds = [], [], [], []
    w1s, w1m = [], []

    def record():
        grid, values, m = euler.grid, euler.values, euler.m
        times.append(t)
        masses.append(euler.mass)
        means.append(m)
        speeds.append(mean_speed_arrays(grid, values, m, w))
        if wave is not None:
            w1s.append(_w1_grid_vs_callable(grid, values, lambda x: wave.density_at(x, shift=m)))
            w1m.append(_w1_grid_vs_callable(
                grid, values, lambda x: wave.density_at(x, shift=m0 + wave.c * (t - t0))))

    record()
    step = 0
    while step < n_steps:
        due = min(n_steps, (step // sample_every + 1) * sample_every)
        done, t, _ = euler.advance(due - step, t)
        step += done
        euler.extend(euler.widen)       # the cells due on the right: widen, then grow
        euler.extend(euler.grow)
        if step == due:
            record()

    diags = PdeDiagnostics(
        t=np.asarray(times), mass=np.asarray(masses), mean=np.asarray(means),
        speed=np.asarray(speeds),
        w1_shape=np.asarray(w1s) if wave is not None else None,
        w1_moving=np.asarray(w1m) if wave is not None else None,
        trimmed_mass=euler.trimmed, trims=euler.trims, added=euler.added)
    return DensityField(grid=euler.grid, values=euler.values, time=t), diags
