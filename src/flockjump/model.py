"""Jump-rate families, jump-length laws, and the particle configuration.

The jump rate w is a positive, non-increasing function of a particle's position
relative to the center of mass; particles behind the center jump faster. Five
rate families are supported (exponential, step, piecewise-linear, arccot, and a
bounded tabulated function), each exposing both a pointwise evaluation and the
exact antiderivative of w from 0, which the traveling-wave solver needs at full
precision. Jump lengths are normalized to mean 1 with a finite third moment.
`initial_state` builds a run's starting positions as a validated SystemState.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import ClassVar

import numpy as np

# exp(-beta*x) overflows double precision past ~709; clamp the exponent well inside.
EXP_CLAMP = 700.0


class ModelError(ValueError):
    """Invalid model specification or state."""


class DomainError(ModelError):
    """Argument outside the operation's domain."""


# ---------------------------------------------------------------------------
# jump rate families
# ---------------------------------------------------------------------------


class RateFamily:
    """Base of the jump-rate families.

    A family is a frozen dataclass whose fields are its parameters. It supplies
    the vectorized `rate(x)` and its exact antiderivative `integral(x)` from 0,
    the limits `left_limit` (sup w, as x -> -inf) and `right_limit` (inf w), and
    overrides `continuous`, `knots` (points where w or its derivative jumps),
    `scalar_rate`, `kernel_rate`, `stationary_law`, `mean_rate` and
    `rate_overflows` where the defaults below do not fit. Registering the
    class in RATE_FAMILIES makes it available to configs under its name.
    """

    continuous: ClassVar[bool] = True
    knots: ClassVar[tuple] = ()

    def __call__(self, x):
        return self.rate(x)

    @property
    def default_engine(self) -> str:
        """Engine `simulate` picks for engine="auto": thinning needs a finite sup w."""
        return "bounded" if math.isfinite(self.left_limit) else "reference"

    def scalar_rate(self):
        """Pure-Python w(d) for one float d, called once per thinning proposal."""
        rate = self.rate
        return lambda d: float(rate(d))

    def kernel_rate(self):
        """(name, parameters) of the compiled kernel's w, or None when the
        kernel has none for this family.

        The bounded engine's compiled step evaluates it where the Python step
        calls `scalar_rate()`, so it must round the same, operation for
        operation: runs are bit-identical. The compiled PDE step
        (`mean_field.pde_integrate`) evaluates it where the numpy step calls
        `rate()`, and there it only has to agree to a tolerance. A family
        without one runs both in Python.
        """
        return None

    def stationary_law(self):
        """(name, parameters) of the family's stationary wave in
        `mean_field._LAWS`, or None for the numeric wave: the exact profile at
        the speed `mean_field.wave_speed` solves for."""
        return None

    def mean_rate(self, positions, m):
        """<w(. - m)> over `positions`, updated per event, or None (then
        `measures.residual_path` re-evaluates w at every position). It has
        `.value` and `.jump(i, x_old, x_new, m_new)`, which moves particle i
        and the center (m_new >= m) and returns the new value. A bracket
        whose `kernel_step` is a step rate's (a, b) is also run compiled, by
        `fj_residual` in `_kernel.c`, which must then give its values to the
        bit."""
        return None

    def rate_overflows(self, x) -> bool:
        """Whether w exceeds, somewhere on x, what `rate` can return exactly."""
        return False


@dataclass(frozen=True)
class ExponentialRate(RateFamily):
    """w(x) = exp(-beta*x). Unbounded on the left, vanishes on the right."""

    beta: float = 1.0

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ModelError(f"beta must be positive and finite, got {self.beta}")

    default_engine = "exponential"
    left_limit = math.inf
    right_limit = 0.0

    def rate(self, x):
        z = np.clip(np.multiply(self.beta, x), -EXP_CLAMP, EXP_CLAMP)
        return np.exp(-z)

    def kernel_rate(self):
        # For the PDE step only: no thinning engine runs an unbounded rate.
        return "exponential", (self.beta, EXP_CLAMP)

    def stationary_law(self):
        return "generalized_gumbel", {"beta": self.beta}

    def rate_overflows(self, x) -> bool:
        # rate() clips beta*x from below at -EXP_CLAMP. (Clipping above only
        # replaces a weight below e^-700 by e^-700; next to the rearmost
        # particle's weight, at least 1, neither changes a double.)
        return bool(np.any(np.multiply(self.beta, x) < -EXP_CLAMP))

    def integral(self, x):
        """Exact antiderivative of w from 0 to x: (1 - exp(-beta*x)) / beta."""
        z = np.clip(np.multiply(self.beta, x), -EXP_CLAMP, EXP_CLAMP)
        return (1.0 - np.exp(-z)) / self.beta


@dataclass(frozen=True)
class StepRate(RateFamily):
    """w(x) = a for x < 0, b for x >= 0, with a > b > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > self.b > 0):
            raise ModelError(f"step rates need a > b > 0, got a={self.a}, b={self.b}")

    continuous = False
    knots = (0.0,)

    @property
    def left_limit(self):
        return self.a

    @property
    def right_limit(self):
        return self.b

    def rate(self, x):
        return np.where(np.less(x, 0.0), self.a, self.b)

    def integral(self, x):
        return np.where(np.less(x, 0.0), self.a * np.asarray(x), self.b * np.asarray(x))

    def scalar_rate(self):
        a, b = self.a, self.b
        return lambda d: a if d < 0.0 else b

    def kernel_rate(self):
        return "step", (self.a, self.b)

    def stationary_law(self):
        return "laplace", {"a": self.a, "b": self.b}

    def mean_rate(self, positions, m):
        return _StepMeanRate(self.a, self.b, positions, m)


class _StepMeanRate:
    """(a p + b (n - p)) / n, where p counts the particles strictly behind m.

    The others sit in a min-heap of (x, i, version). A jump bumps the jumper's
    version, which makes its old entry stale, and pushes it back if it lands
    at or ahead of m. The center never falls, so the entries it passes are
    popped, and the current ones counted into p: O(log n) per event.
    `fj_residual` in `_kernel.c` repeats it in C from `kernel_step`, so the
    heap is built on the first `jump`, not here, and a compiled walk never
    pays for it.
    """

    def __init__(self, a, b, positions, m):
        self.kernel_step = (a, b)
        self._a, self._b, self._m, self._n = a, b, m, len(positions)
        self._inv_n = 1.0 / self._n
        self._start = list(positions)       # the caller may move its own copy
        self._heap = None
        # p can be n: three particles at 0.1 have m > 0.1.
        self._p = p = sum(1 for x in self._start if x < m)
        self.value = (a * p + b * (self._n - p)) / self._n

    def jump(self, i, x_old, x_new, m_new):
        if self._heap is None:
            self._versions = [0] * self._n
            self._heap = [(float(x), j, 0) for j, x in enumerate(self._start)
                          if not x < self._m]
            heapify(self._heap)
            self._start = None
        heap, versions, p = self._heap, self._versions, self._p
        if x_old < self._m:
            p -= 1
        versions[i] += 1
        heappush(heap, (x_new, i, versions[i]))
        while heap and heap[0][0] < m_new:
            _, j, v = heappop(heap)
            if v == versions[j]:
                p += 1
        self._p, self._m = p, m_new
        self.value = (self._a * p + self._b * (self._n - p)) * self._inv_n
        return self.value


@dataclass(frozen=True)
class PiecewiseLinearRate(RateFamily):
    """Continuous rate: a left of -1, b right of 1, linear in between (a > b > 0)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > self.b > 0):
            raise ModelError(f"piecewise-linear rates need a > b > 0, got a={self.a}, b={self.b}")

    knots = (-1.0, 1.0)

    @property
    def left_limit(self):
        return self.a

    @property
    def right_limit(self):
        return self.b

    def rate(self, x):
        x = np.asarray(x, dtype=float)
        mid = 0.5 * (self.a + self.b) - 0.5 * (self.a - self.b) * x
        return np.where(x < -1.0, self.a, np.where(x > 1.0, self.b, mid))

    def integral(self, x):
        x = np.asarray(x, dtype=float)
        a, b = self.a, self.b
        # On [-1, 1]: int_0^x w = (a+b)/2 * x - (a-b)/4 * x^2.
        mid = 0.5 * (a + b) * x - 0.25 * (a - b) * x * x
        at_hi = 0.5 * (a + b) - 0.25 * (a - b)
        at_lo = -0.5 * (a + b) - 0.25 * (a - b)
        return np.where(x < -1.0, at_lo + a * (x + 1.0),
                        np.where(x > 1.0, at_hi + b * (x - 1.0), mid))

    def scalar_rate(self):
        a, b = self.a, self.b
        slope, mid = 0.5 * (a - b), 0.5 * (a + b)

        def rate(d):
            if d < -1.0:
                return a
            if d > 1.0:
                return b
            return mid - slope * d

        return rate

    def kernel_rate(self):
        a, b = self.a, self.b
        return "piecewise_linear", (a, b, 0.5 * (a + b), 0.5 * (a - b))

    def stationary_law(self):
        return "piecewise_gauss_exp", {"a": self.a, "b": self.b}


@dataclass(frozen=True)
class ArccotRate(RateFamily):
    """w(x) = arccot(x) on (0, pi), the smooth monotone example."""

    left_limit = math.pi
    right_limit = 0.0

    def rate(self, x):
        return 0.5 * math.pi - np.arctan(x)

    def integral(self, x):
        x = np.asarray(x, dtype=float)
        return x * (0.5 * math.pi - np.arctan(x)) + 0.5 * np.log1p(x * x)

    def scalar_rate(self):
        half_pi, atan = 0.5 * math.pi, math.atan
        return lambda d: half_pi - atan(d)

    def kernel_rate(self):
        return "arccot", (0.5 * math.pi,)

    def stationary_law(self):
        return "arccot", {}


@dataclass(frozen=True)
class TabulatedRate(RateFamily):
    """Bounded rate given by a table, linearly interpolated, flat beyond the grid.

    The flat extension keeps the rate bounded and non-increasing, so the limits
    are the first and last tabulated values.
    """

    grid: tuple
    values: tuple

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
            raise ModelError("tabulated rate needs matching 1-d grid and values with >= 2 points")
        if not np.all(np.diff(g) > 0):
            raise ModelError("tabulated grid must be strictly ascending")
        if not np.all(v > 0):
            raise ModelError("tabulated values must be strictly positive")
        if not np.all(np.diff(v) <= 0):
            raise ModelError("tabulated values must be non-increasing")
        object.__setattr__(self, "grid", tuple(float(x) for x in g))
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    @property
    def left_limit(self):
        return self.values[0]

    @property
    def right_limit(self):
        return self.values[-1]

    @property
    def knots(self):
        return self.grid

    def rate(self, x):
        return np.interp(x, self.grid, self.values)

    def integral(self, x):
        g = np.asarray(self.grid)
        v = np.asarray(self.values)
        # Cumulative integral at the knots (trapezoid is exact for a linear interpolant).
        knot_cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])

        def cum_from_left(y):
            y = np.asarray(y, dtype=float)
            below = v[0] * (y - g[0])
            above = knot_cum[-1] + v[-1] * (y - g[-1])
            idx = np.clip(np.searchsorted(g, y, side="right") - 1, 0, len(g) - 2)
            gl, gr = g[idx], g[idx + 1]
            vl, vr = v[idx], v[idx + 1]
            frac = np.where(gr > gl, (y - gl) / (gr - gl), 0.0)
            seg = (vl + 0.5 * frac * (vr - vl)) * (y - gl)
            inside = knot_cum[idx] + seg
            return np.where(y < g[0], below, np.where(y > g[-1], above, inside))

        return cum_from_left(x) - cum_from_left(0.0)

    def scalar_rate(self):
        g, v = list(self.grid), list(self.values)

        def rate(d):
            if d <= g[0]:
                return v[0]
            if d >= g[-1]:
                return v[-1]
            j = bisect_left(g, d)
            gl, gr = g[j - 1], g[j]
            return v[j - 1] + (v[j] - v[j - 1]) * (d - gl) / (gr - gl)

        return rate

    def kernel_rate(self):
        return "tabulated", self.grid + self.values


# The only map from a config family name to its class.
RATE_FAMILIES = {
    "exponential": ExponentialRate,
    "step": StepRate,
    "piecewise_linear": PiecewiseLinearRate,
    "arccot": ArccotRate,
    "tabulated": TabulatedRate,
}


# ---------------------------------------------------------------------------
# jump length laws (EZ = 1, finite third moment)
# ---------------------------------------------------------------------------

_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(64)


@dataclass(frozen=True)
class DeterministicJump:
    """Every jump has length exactly 1."""

    mean = 1.0
    second_moment = 1.0
    third_moment = 1.0

    def sample(self, rng, size=None):
        if size is None:
            return 1.0
        return np.ones(size)

    def expect_shifted(self, f, x):
        """E f(x + Z) = f(x + 1)."""
        return f(np.asarray(x, dtype=float) + 1.0)


@dataclass(frozen=True)
class ExponentialJump:
    """Mean-one exponential jump length."""

    mean = 1.0
    second_moment = 2.0
    third_moment = 6.0

    def sample(self, rng, size=None):
        if size is None:
            return float(rng.standard_exponential())
        return rng.standard_exponential(size)

    def expect_shifted(self, f, x):
        """E f(x + Z) by 64-point Gauss-Laguerre (exact weight exp(-u))."""
        x = np.asarray(x, dtype=float)
        vals = f(x[..., None] + _LAGUERRE_NODES)
        return vals @ _LAGUERRE_WEIGHTS


@dataclass(frozen=True)
class CustomDensityJump:
    """User-supplied jump density on [0, inf) with declared unit mean.

    The density is validated by quadrature at construction (mass 1, mean 1);
    the declared third moment must be finite. A sampler must be provided.
    """

    density: callable
    sampler: callable
    third_moment: float
    upper: float = 50.0

    mean = 1.0

    def __post_init__(self):
        from scipy.integrate import quad

        if not math.isfinite(self.third_moment):
            raise ModelError("jump length law must declare a finite third moment")
        mass, _ = quad(self.density, 0.0, self.upper, limit=200)
        m1, _ = quad(lambda u: u * self.density(u), 0.0, self.upper, limit=200)
        if abs(mass - 1.0) > 1e-6:
            raise ModelError(f"custom jump density has mass {mass:.8g}, expected 1")
        if abs(m1 - 1.0) > 1e-6:
            raise ModelError(f"custom jump density has mean {m1:.8g}, expected 1 (EZ = 1)")
        m2, _ = quad(lambda u: u * u * self.density(u), 0.0, self.upper, limit=200)
        object.__setattr__(self, "second_moment", m2)

    def sample(self, rng, size=None):
        out = self.sampler(rng, size if size is not None else 1)
        out = np.asarray(out, dtype=float)
        if np.any(out < 0):
            raise ModelError("custom jump sampler returned a negative length")
        return float(out[0]) if size is None else out

    def expect_shifted(self, f, x):
        """E f(x + Z) by 64-point Gauss-Legendre against the density on [0, upper]."""
        nodes, weights = np.polynomial.legendre.leggauss(64)
        u = 0.5 * self.upper * (nodes + 1.0)
        wts = 0.5 * self.upper * weights * self.density(u)
        x = np.asarray(x, dtype=float)
        return f(x[..., None] + u) @ wts


# ---------------------------------------------------------------------------
# particle configuration state
# ---------------------------------------------------------------------------


@dataclass
class SystemState:
    """Positions of the n particles: a non-empty 1-d array of finite floats.

    The engines keep the center of mass themselves; `center` re-sums it from
    the positions.
    """

    positions: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 1 or self.positions.size == 0:
            raise DomainError("SystemState needs a non-empty 1-d position array")
        if not np.all(np.isfinite(self.positions)):
            raise DomainError("positions must be finite")

    @property
    def n(self) -> int:
        return self.positions.size

    @property
    def center(self) -> float:
        return float(self.positions.sum()) / self.positions.size


def initial_state(n: int, init="zeros", rng=None) -> SystemState:
    """Build the starting configuration.

    init is "zeros" (every particle at 0), an explicit position list/array, or
    ("iid", sampler) where sampler(rng, n) draws the initial positions.
    n must be an integer >= 1.
    """
    if not (isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1):
        raise ModelError(f"n must be an integer >= 1, got {n!r}")
    if isinstance(init, str):
        if init != "zeros":
            raise ModelError(f"unknown initial condition {init!r}")
        pos = np.zeros(n)
    elif isinstance(init, tuple) and len(init) == 2 and init[0] == "iid":
        if rng is None:
            raise ModelError("iid initial condition needs an rng")
        pos = np.asarray(init[1](rng, n), dtype=float)
        if pos.shape != (n,):
            raise ModelError("iid sampler must return n positions")
    else:
        pos = np.array(init, dtype=float)           # a copy: engines move it in place
        if pos.shape != (n,):
            raise ModelError(f"explicit initial positions must have length n={n}")
    return SystemState(positions=pos)
