"""Empirical-measure machinery: centered density histograms and their time
averages, the 1-Wasserstein and Kolmogorov-Smirnov distances, and the
test-function residual A_{t,f} whose fluctuations vanish like n^{-1/2}.

A time average bins each observation into one row of a preallocated counts
matrix and builds a `Histogram` only for one chosen sample and for the
average; `build_histogram` is the one-shot form on the same binning. A
`TimeAverager` is the one observer `sim.simulate` takes: every engine step
fills its rows in its loop, the Python steps through `add`, whose binning is
the numpy body `_numpy_bins`, and the compiled ones with `bin_positions` in
`_kernel.c`, which repeats that body's operations, so the rows are the same
to the bit. This module opens no files: `harness.write_csv` writes a
histogram's edges and values into a bundle.

The residual integral is a finite sum over inter-event intervals (the
empirical measure is piecewise constant in time), so its value is exact given
the event log and does not depend on any observation schedule. One loop walks
the log for every family and test function; only the bracket's update differs.
For the identity and the step rate the walk also runs compiled (`fj_residual`
in `_kernel.c`), bit-identical to that loop, which stays as the fallback and
the oracle. Every input is checked before the walk.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .model import DomainError, ModelError, is_count, is_finite_number
from . import sim as _sim


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def default_bins(n: int) -> int:
    """Bin-count rule N = 2 sqrt(n) (rounded up)."""
    return max(1, math.ceil(2.0 * math.sqrt(n)))


@dataclass
class Histogram:
    """Centered density histogram on [a0, a1) with left-closed bins.

    `values` carry the 1/(n h) density scaling; samples outside the window are
    counted separately (below/above), so bin mass plus the out-of-window
    fraction is an exact counting identity: counts.sum() + out = n. Counts are
    fractional after time averaging.
    """

    a0: float
    a1: float
    nbins: int
    values: np.ndarray
    n_samples: float
    out_below: float
    out_above: float
    counts: np.ndarray

    @property
    def h(self) -> float:
        return (self.a1 - self.a0) / self.nbins

    @property
    def edges(self) -> np.ndarray:
        return self.a0 + self.h * np.arange(self.nbins + 1)

    @property
    def out_count(self) -> float:
        return self.out_below + self.out_above

    def bin_mass(self) -> np.ndarray:
        return self.values * self.h

    def cdf_at_edges(self) -> np.ndarray:
        """Empirical CDF of the full sample evaluated at the bin edges."""
        inside = np.concatenate([[0.0], np.cumsum(self.bin_mass())])
        return self.out_below / self.n_samples + inside


def _check_window(a0, a1, nbins) -> int:
    """nbins as an int, once the window [a0, a1) and nbins make finite bins
    of positive width; otherwise DomainError naming the bad argument."""
    if not is_count(nbins, 1):
        raise DomainError(f"nbins: must be an integer >= 1, got {nbins!r}")
    nbins = int(nbins)
    if not (is_finite_number(a0) and is_finite_number(a1) and a0 < a1):
        raise DomainError(f"a0, a1: the histogram window needs finite a0 < a1, got {a0!r}, {a1!r}")
    h = (a1 - a0) / nbins
    if not (0.0 < h < math.inf):
        raise DomainError(f"a0, a1: the bin width (a1 - a0) / nbins = {h!r} must be "
                          "finite and > 0")
    return nbins


def _numpy_bins(positions, m, a0, a1, nbins, row):
    """Add the positions x with x - m in [a0, a1) into their bins of `row`,
    as `bin_positions` in `_kernel.c` does; (below, above, unbinned) counts the
    positions under the window, at or over a1, and with x - m NaN."""
    centered = positions - m
    h = (a1 - a0) / nbins
    inside = (centered >= a0) & (centered < a1)
    below = int(np.count_nonzero(centered < a0))
    above = int(np.count_nonzero(centered >= a1))
    idx = np.floor((centered[inside] - a0) / h).astype(np.int64)
    np.clip(idx, 0, nbins - 1, out=idx)
    row += np.bincount(idx, minlength=nbins)
    return below, above, positions.size - below - above - idx.size


def _ordered_sum(x):
    """Sum of x over axis 0 added in order, x[0] + x[1] + ..., in place of x:
    `np.cumsum` accumulates in order, where `sum` may add pairwise."""
    return np.cumsum(x, axis=0, out=x)[-1]


def build_histogram(positions, m: float, a0: float, a1: float, nbins: int = None) -> Histogram:
    """Bin the centered positions x_i - m into [a0, a1); default nbins = 2 sqrt(n).

    No positions, a NaN position, an m that is not finite, a window that is
    not finite a0 < a1 and an nbins that is not an integer >= 1 raise
    DomainError naming the argument, and no histogram is made."""
    positions = np.ascontiguousarray(positions, dtype=float)
    if nbins is None:
        nbins = default_bins(positions.size)
    averager = TimeAverager(a0, a1, nbins, samples=1)
    return averager.histogram(averager.add(0.0, positions, m))


class TimeAverager:
    """Time average of the centered histograms of a stream of observations.

    Each sample represents the piecewise-constant state on the neighborhood up
    to the midpoints of the adjacent sample times, so equispaced samples get
    equal weight (two samples average to their bin-wise mean). Samples before
    `burn_in` are kept, so that `histogram(k)` can make any one of them, but
    they are not averaged.

    `add` bins each observation into the next row of a (samples x nbins)
    counts matrix with `_numpy_bins`, and writes its time, center, size and
    counts below and above the window into the row's entries of `t`, `m`,
    `n`, `below` and `above`; `rows` counts the rows filled. Passed to
    `sim.simulate` as the observer, the averager is bound to the run's record
    (`bind`), and every engine step fills its next rows in its loop: the
    Python steps call `add`, and the compiled ones bin each row as `add`
    would, to the bit. A `Histogram` is made only by `histogram` and
    `finalize`. A `burn_in` that is not a finite number raises DomainError
    naming it.
    """

    def __init__(self, a0: float, a1: float, nbins: int, samples: int, burn_in: float = 0.0):
        self.nbins = _check_window(a0, a1, nbins)
        if not is_count(samples, 0):
            raise DomainError(f"samples: must be an integer >= 0, got {samples!r}")
        if not is_finite_number(burn_in):
            raise DomainError(f"burn_in: must be a finite number, got {burn_in!r}")
        self.a0, self.a1 = a0, a1
        self._h = (a1 - a0) / self.nbins
        self.burn_in = burn_in
        self._counts = np.zeros((samples, self.nbins))
        self.t, self.m = np.zeros(samples), np.zeros(samples)
        self.n, self.below, self.above = (np.zeros(samples, dtype=np.int64) for _ in range(3))
        self._rows = np.zeros(1, dtype=np.int64)     # one counter, shared with a bound run

    @property
    def rows(self) -> int:
        """The rows filled, in time order from row 0."""
        return int(self._rows[0])

    def bind(self, run):
        """Point the observation block of `run`, a `kernel.Run`, at this
        averager's window and rows, so that the step fills the next rows."""
        run.a0, run.a1, run.nbins = self.a0, self.a1, self.nbins
        run.bind(obs_counts=self._counts.reshape(-1), obs_time=self.t, obs_m=self.m,
                 obs_n=self.n, obs_below=self.below, obs_above=self.above, obs_rows=self._rows)

    def add(self, t: float, positions, m: float) -> int:
        """Bin the observation (t, positions, m) into the next row and return
        its index. Samples must arrive in time order. A t or an m that is
        not finite, no positions or a NaN position raise DomainError naming
        the argument, and leave the averager as it was."""
        if not is_finite_number(t):
            raise DomainError(f"t: must be a finite number, got {t!r}")
        k = self.rows
        if k and t < self.t[k - 1]:
            raise ModelError("histogram samples must arrive in time order")
        if k == len(self._counts):
            raise ModelError(f"the averager holds {k} samples, and all are taken")
        try:
            finite = math.isfinite(m)
        except OverflowError:       # an int past the float range
            finite = False
        if not finite:
            raise DomainError(f"m: must be finite, got {m!r}")
        positions = np.ascontiguousarray(positions, dtype=float)
        if positions.size == 0:
            raise DomainError("positions: the histogram needs at least one position")
        below, above, unbinned = _numpy_bins(positions, m, self.a0, self.a1, self.nbins,
                                             self._counts[k])
        if unbinned:
            self._counts[k] = 0.0
            raise DomainError("positions: must not be NaN")
        self.t[k], self.m[k], self.n[k], self.below[k], self.above[k] = \
            t, m, positions.size, below, above
        self._rows[0] = k + 1
        return k

    def histogram(self, k: int) -> Histogram:
        """The histogram of observation k alone."""
        if not 0 <= k < self.rows:
            raise IndexError(f"row {k} of an averager with {self.rows} rows filled")
        n = int(self.n[k])
        counts = self._counts[k].copy()
        return Histogram(a0=self.a0, a1=self.a1, nbins=self.nbins,
                         values=counts / (n * self._h), n_samples=float(n),
                         out_below=float(self.below[k]), out_above=float(self.above[k]),
                         counts=counts)

    def finalize(self) -> Histogram:
        """The time average of the samples at or after burn_in; the weighted
        rows and scalars are summed in sample order."""
        size = self.rows
        first = int(np.searchsorted(self.t[:size], self.burn_in, side="left"))
        if first == size:
            raise ModelError("no histogram samples to average")
        if first == size - 1:
            return self.histogram(first)
        t = self.t[first:size]
        n, below, above = (col[first:size].astype(float) for col in (self.n, self.below, self.above))
        weights = np.empty_like(t)
        weights[0] = 0.5 * (t[1] - t[0])
        weights[-1] = 0.5 * (t[-1] - t[-2])
        weights[1:-1] = 0.5 * (t[2:] - t[:-2])
        total = weights.sum()
        counts = self._counts[first:size]
        column = weights[:, None]
        rows = np.divide(counts, n[:, None] * self._h)      # one scratch matrix
        values = _ordered_sum(np.multiply(column, rows, out=rows)) / total
        counts = _ordered_sum(np.multiply(column, counts, out=rows)) / total
        below, above, nsamp = (_ordered_sum(weights * col) / total for col in (below, above, n))
        return Histogram(a0=self.a0, a1=self.a1, nbins=self.nbins, values=values,
                         n_samples=nsamp, out_below=below, out_above=above, counts=counts)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def wasserstein1(mu, nu) -> float:
    """1-Wasserstein distance between two empirical samples on the line.

    Equal sizes reduce to the mean absolute difference of the sorted samples
    (the quantile coupling is optimal on the line); unequal sizes integrate the
    CDF difference over the merged support.
    """
    x = np.sort(np.asarray(mu, dtype=float))
    y = np.sort(np.asarray(nu, dtype=float))
    if x.size == 0 or y.size == 0:
        raise DomainError("empirical measures need at least one sample")
    if x.size == y.size:
        return float(np.mean(np.abs(x - y)))
    allv = np.sort(np.concatenate([x, y]))
    fx = np.searchsorted(x, allv[:-1], side="right") / x.size
    fy = np.searchsorted(y, allv[:-1], side="right") / y.size
    return float(np.sum(np.abs(fx - fy) * np.diff(allv)))


def ks_distance(samples, cdf, weights=None) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of samples against a model CDF.

    With `weights`, the empirical CDF steps by the normalized weights
    (time-weighted stationary sampling). An empty sample or a NaN in it,
    weights that are not one finite weight >= 0 per sample with a positive
    sum, and a cdf that does not return one value per sample raise
    DomainError naming the input."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DomainError("samples: the KS distance needs at least one sample")
    order = np.argsort(samples)
    s = samples[order]
    if np.isnan(s[-1]):                         # argsort puts NaN last
        raise DomainError("samples: the KS distance needs samples that are not NaN")
    if weights is None:
        cum = np.arange(1, s.size + 1) / s.size
        prev = np.arange(0, s.size) / s.size
    else:
        wts = np.asarray(weights, dtype=float)
        if wts.shape != samples.shape or wts.ndim != 1:
            raise DomainError(f"weights: must be 1-d with one weight per sample, got shape "
                              f"{wts.shape} for samples of shape {samples.shape}")
        wts = wts[order]
        total = wts.sum()
        if not total > 0.0:
            raise DomainError(f"weights: must have a positive sum, got {total}")
        bad = wts[~(np.isfinite(wts) & (wts >= 0.0))]
        if bad.size:
            raise DomainError(f"weights: must be finite and >= 0, got {np.unique(bad).tolist()}")
        cum = np.cumsum(wts) / total
        prev = cum - wts / total
    model = np.asarray(cdf(s), dtype=float)
    if model.shape != s.shape:
        raise DomainError(f"cdf: must return one value per sample, got shape {model.shape} "
                          f"for samples of shape {s.shape}")
    return float(max(np.max(np.abs(cum - model)), np.max(np.abs(prev - model))))


# ---------------------------------------------------------------------------
# test functions and the martingale residual A_{t,f}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    name: str
    fn: object = None           # None marks the identity

    @property
    def is_identity(self) -> bool:
        return self.fn is None

    def __call__(self, x):
        return np.asarray(x, dtype=float) if self.fn is None else self.fn(x)


IDENTITY = TestFunction(name="id")


@dataclass
class ResidualPath:
    value: float      # A_{t,f} at the requested horizon
    sup_abs: float    # sup over s <= t of |A_{s,f}|
    t: float


class _Reevaluated:
    """<g_f(x) w(x - m)> evaluated from all n positions after each event, in
    O(n); g_f(x) = E f(x + Z) - f(x) is identically 1 for the identity."""

    def __init__(self, w, f, z, positions, m):
        self._w, self._f, self._z = w, f, z
        self._pos = np.array(positions, dtype=float)
        self.value = self._at(m)

    def _at(self, m):
        f, pos = self._f, self._pos
        wv = np.asarray(self._w.rate(pos - m), dtype=float)
        if not f.is_identity:
            g = np.asarray(self._z.expect_shifted(f, pos), dtype=float) - np.asarray(f(pos), dtype=float)
            wv = g * wv
        return float(wv.mean())

    def jump(self, i, x_old, x_new, m_new):
        self._pos[i] = x_new
        self.value = self._at(m_new)
        return self.value


def _walk_input(initial_positions, log: _sim.EventLog, t_end: float):
    """(start, times, indices, lengths) of a residual walk as contiguous
    float64 and int64 arrays, each input refused with a DomainError that
    names it unless the walk is defined on it."""
    if not (t_end >= 0 and math.isfinite(t_end)):
        raise DomainError(f"t_end must be >= 0 and finite, got {t_end}")
    start = np.array(initial_positions, dtype=float)
    if start.ndim != 1 or start.size == 0:
        raise DomainError("initial positions must be a non-empty 1-d array, "
                          f"got shape {start.shape}")
    bad = start[~np.isfinite(start)]
    if bad.size:
        raise DomainError(f"initial positions must be finite, got {np.unique(bad).tolist()}")
    times, indices, lengths = (np.ascontiguousarray(col, dtype=dtype) for col, dtype in
                               ((log.times, np.float64), (log.indices, np.int64),
                                (log.lengths, np.float64)))
    if not times.ndim == indices.ndim == lengths.ndim == 1 \
            or not times.size == indices.size == lengths.size:
        raise DomainError("event log columns must be 1-d and of one length, got shapes "
                          f"{times.shape}, {indices.shape}, {lengths.shape}")
    if times.size and not times[0] >= 0:
        raise DomainError(f"event log must start at time >= 0, got {times[0]}")
    down = np.flatnonzero(~(times[1:] >= times[:-1]))
    if down.size:
        k = int(down[0]) + 1
        raise DomainError(f"event log times must not decrease, got times[{k}] = {times[k]} "
                          f"after {times[k - 1]}")
    bad = indices[(indices < 0) | (indices >= start.size)]
    if bad.size:
        raise DomainError(f"event log indices must lie in [0, n) = [0, {start.size}), "
                          f"got {np.unique(bad).tolist()}")
    # The step bracket assumes the center never falls.
    bad = lengths[~(np.isfinite(lengths) & (lengths >= 0))]
    if bad.size:
        raise DomainError(f"event log jump lengths must be finite and >= 0, "
                          f"got {np.unique(bad).tolist()}")
    return start, times, indices, lengths


def residual_path(initial_positions, log: _sim.EventLog, f: TestFunction,
                  w, z, t_end: float) -> ResidualPath:
    """A_{s,f} = <f, mu(s)> - <f, mu(0)> - int_0^s <g_f w(. - m_u), mu(u)> du
    along the trajectory up to s = t_end >= 0, summed exactly over inter-event
    intervals; `.value` is A_{t_end,f}, which is 0 at t_end = 0.

    The bracket <g_f(x) w(x - m)> is piecewise constant between events, so the
    time integral is a finite sum. For the identity it is the mean rate, kept
    by `w.mean_rate` when the family has one; otherwise it is re-evaluated
    after each event. The center starts at fsum(x)/n and moves by z * (1/n).
    A mean rate that declares `kernel_step`, the step rate's (a, b), walks the
    log compiled (`fj_residual` in `_kernel.c`) when the kernel loads, with
    every float operation of this loop in its order, so the result is the same
    to the bit. A t_end that is not finite and >= 0, a start that is not
    finite, and a log whose times decrease, whose indices fall outside
    [0, n) or whose jump lengths are not finite and >= 0 raise DomainError
    before any work.
    """
    start, times, indices, lengths = _walk_input(initial_positions, log, t_end)
    xs = start.tolist()
    n = len(xs)
    inv_n = 1.0 / n
    m = math.fsum(xs) / n
    identity = f.is_identity
    bracket = w.mean_rate(xs, m) if identity else None
    step = getattr(bracket, "kernel_step", None)
    lib = kernel.load() if step is not None else None
    if lib is not None:
        return _compiled_step_walk(lib, step, start, m, times, indices, lengths, t_end)
    if bracket is None:
        bracket = _Reevaluated(w, f, z, xs, m)
    F0 = F = m if identity else float(np.mean(f(start)))
    G = bracket.value
    integral = t_prev = sup = 0.0
    for te, i, zlen in zip(*map(memoryview, (times, indices, lengths))):
        if te > t_end:
            break
        integral += G * (te - t_prev)
        t_prev = te
        sup = max(sup, abs(F - F0 - integral))       # value just before the jump
        x_old = xs[i]
        x_new = xs[i] = x_old + zlen
        m += zlen * inv_n
        F = m if identity else F + (float(f(x_new)) - float(f(x_old))) / n
        G = bracket.jump(i, x_old, x_new, m)
        sup = max(sup, abs(F - F0 - integral))       # value just after the jump
    integral += G * (t_end - t_prev)
    value = F - F0 - integral
    return ResidualPath(value=value, sup_abs=max(sup, abs(value)), t=t_end)


def _compiled_step_walk(lib, step, start, m, times, indices, lengths, t_end) -> ResidualPath:
    """The identity walk of `residual_path` for the step rate (a, b) = step,
    in `fj_residual`, on scratch arrays that the record owns."""
    n, cap = start.size, start.size + times.size + 1
    a, b = step
    run = kernel.Residual(n=n, inv_n=1.0 / n, a=a, b=b, t_end=t_end, m=m,
                          log_len=times.size, heap_cap=cap)
    run.bind(log_t=times, log_i=indices, log_z=lengths, pos=start,
             versions=np.empty(n, dtype=np.int64), heap_x=np.empty(cap),
             heap_i=np.empty(cap, dtype=np.int64), heap_v=np.empty(cap, dtype=np.int64))
    code = lib.fj_residual(ctypes.byref(run))
    if code != kernel.RESIDUAL_DONE:
        raise ModelError(f"fj_residual stopped at event {run.events} with exit {code}")
    return ResidualPath(value=run.value, sup_abs=run.sup, t=t_end)


@dataclass
class ScalingStudy:
    ns: list
    rms_sup: list
    values: dict            # n -> array of A_{t,f} end values across seeds
    slope: float
    intercept: float


def residual_scaling(ns, seeds: int, t: float, w, z, f: TestFunction = IDENTITY,
                     base_seed: int = 0) -> ScalingStudy:
    """Fit the n-scaling of the sup residual: slope of log RMS sup|A| vs log n.

    Runs `seeds` independent trajectories per population size with the
    family's default engine and evaluates the residual path exactly; the
    expected slope is -1/2. Unless `ns` holds at least two distinct integers
    >= 1 and `seeds` is an integer >= 1, DomainError names the argument
    before any run.
    """
    if np.ndim(ns) != 1 or not (all(is_count(n, 1) for n in ns) and len(set(ns)) >= 2):
        raise DomainError(f"ns: must hold at least two distinct integers >= 1, got {ns!r}")
    if not is_count(seeds, 1):
        raise DomainError(f"seeds: must be an integer >= 1, got {seeds!r}")
    rms = []
    values = {}
    for n in ns:
        init_pos = np.zeros(n)
        vals = np.empty(seeds)
        sup = np.empty(seeds)
        for s in range(seeds):
            rng = np.random.default_rng(base_seed + 1000 * n + s)
            res = _sim.simulate(w, z, n, T=t, rng=rng, log_events=True)
            path = residual_path(init_pos, res.log, f, w, z, t)
            vals[s] = path.value
            sup[s] = path.sup_abs
        values[n] = vals
        rms.append(float(np.sqrt(np.mean(sup ** 2))))
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(rms))
    slope, intercept = np.polyfit(lx, ly, 1)
    return ScalingStudy(ns=list(ns), rms_sup=rms, values=values,
                        slope=float(slope), intercept=float(intercept))
