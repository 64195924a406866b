"""Exact event-driven simulation of the n-particle jump process.

Three exactly-equivalent engines:

* ``reference`` -- textbook competing-exponentials: recompute every rate,
  draw the holding time from the total, select by cumulative probability.
  O(n) per event; the correctness oracle for the fast engines.
* ``bounded`` -- constant-rate thinning for bounded rate families: proposals
  arrive at rate n*a (a = sup w), the target particle is uniform, and each
  proposal is accepted with probability w(x_i - m)/a. ``simulate_coupled``
  runs it twice on one random stream, at w and at the flat rate a, as the
  dominating coupled pair.
* ``exponential`` -- for w(x) = exp(-beta*x) the selection weights factor as
  exp(beta*(m - ref)) * exp(-beta*(x_i - ref)), so a move of the center
  changes no relative weight and only the jumper's weight changes (it
  decreases). The leaves of a binary sum tree hold exp(-beta*(x_i - ref)) and
  each parent the sum of its children (Wong & Easton 1980). An event draws one
  uniform and descends from the root to the jumper, sets its leaf and carries
  the new value up to the root, each ancestor becoming the running sum plus
  its other child: exact selection in O(log n), with no thinning, so every
  proposal is an event. The tree is rebuilt at
  ref = m whenever its total is below half of S0, its value at the last
  rebuild: S0 = inf before the first event and after every resum.

All engines keep the center of mass via m += Z * (1/n) (the per-event
identity is exact). Every RESUM_INTERVAL events the step exits with
``kernel.EXIT_RESUM`` and ``_drive`` re-sums it as math.fsum(positions) *
(1/n), the one place any engine does; a run's initial and final centers are
positions.sum() / n.

Every engine is a step function on the kernel's record (``kernel.Run``): it
runs events until ``_drive``, the one driver, must refill a random batch,
re-sum the center, stop or stall, and returns the reason, a
``kernel.EXIT_*`` code: a total that is not finite and positive is a stall
exit with the total in ``run.value``, which ``_drive`` raises as
``StallError``. A logged event's row goes straight into the ``EventLog``
columns, at the free tail that ``_drive`` binds; the four columns are the
rows of one float64 block, sized to the event cap of a run that has one (up
to ``_LOG_ROWS`` rows), so a run that reaches its cap allocates its log once
and never grows it; any other block grows only before another step call.
This module opens no files: a bundle's ``events.csv`` is the log's columns
written by ``harness.write_csv``.
The one observer is a ``measures.TimeAverager``, bound to the record: every step
adds each observation due in its loop to the averager's next row and does
not leave for it. The Python steps call ``_Observer.emit``, which calls
``add``; the compiled ones bin the row as ``add`` would. ``_drive`` serves
the observations due at a re-sum or at the stop, and the one a compiled
step leaves for because ``add`` refuses it. The bounded step (step, arccot
and tabulated rates, the piecewise-linear rate being a two-knot table) and
the exponential step (its rebuild included) run compiled, as ``fj_bounded``
and ``fj_exponential`` in ``_kernel.c``. They consume the batches of the
engine's one refill and perform the floating-point operations of their
exit-for-exit Python twins, ``_bounded_steps`` and ``_exponential_steps``,
in their order (libm exp and atan), so paths, event logs, averager rows and
bundles are bit-identical. The twins run for a bounded family whose
``kernel_rate()`` is None and where the library, built with gcc at the first
run of a compiled engine and cached in ``__pycache__`` (see ``kernel``),
cannot be built. The reference step draws per event and has no compiled
twin.
"""

from __future__ import annotations

import copy
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel, measures
from .model import ModelError, SystemState, TabulatedRate, initial_state, is_count

_BATCH = 1 << 14

# The most rows a capped run's first event-log block holds (32 MiB): a run
# capped at most this high logs into one block sized to its cap.
_LOG_ROWS = 1 << 20

# Every engine re-sums the center of mass from the positions this often,
# which bounds the drift of its incremental updates.
RESUM_INTERVAL = 100_000


class StallError(ModelError):
    """Total jump rate is zero or not finite; the clock cannot advance."""


class UnsupportedSpecError(ModelError):
    """The requested engine cannot run this rate family."""


@dataclass
class EventLog:
    """Columnar event log (one entry per accepted jump).

    The four columns are views of one float64 block (`indices` an int64 view
    of its rows), so holding any one of them keeps the whole block alive."""

    times: np.ndarray
    indices: np.ndarray
    lengths: np.ndarray
    centers: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclass
class SimulationResult:
    n: int
    engine: str
    events: int
    final_time: float
    initial_center: float
    final_center: float
    truncated: bool
    state: SystemState
    proposals: int = 0
    log: EventLog = None
    # engine counters; proposals - events are the thinning rejections
    resums: int = 0                 # re-sums of the center of mass
    max_resum_drift: float = 0.0    # largest |incremental m - fsum m| at a re-sum
    rebuilds: int = 0               # exponential engine: rebases of its sum tree


# ---------------------------------------------------------------------------
# shared scaffolding
# ---------------------------------------------------------------------------


class _Observer:
    """The observation times of one run and the measures.TimeAverager they
    feed, whose rows must hold every time. Without an averager nothing is
    scheduled."""

    def __init__(self, times, observer):
        self.times = np.asarray(times if observer is not None else [], dtype=float)
        self.averager = observer
        if observer is None:
            return
        rows, free = observer.rows, len(observer.t) - observer.rows
        if free < len(self.times):
            raise ModelError(f"observer: the averager has {free} free rows for "
                             f"{len(self.times)} observation times")
        if rows and len(self.times) and self.times[0] < observer.t[rows - 1]:
            raise ModelError(f"observer: the averager's last row is at t = {observer.t[rows - 1]}, "
                             f"after the first observation time {self.times[0]}")

    def attach(self, run):
        """Put the times on run's record, and bind the averager's rows to it."""
        run.bind(obs_t=self.times)
        run.n_obs, run.obs_k = len(self.times), 0
        run.next_obs = self.times[0] if len(self.times) else math.inf
        if self.averager is not None:
            self.averager.bind(run)

    def emit(self, run, t, positions, m, ties):
        """Add the times before t, and with `ties` those equal to t, to the
        averager from the positions and centre m, and return the next time.
        Before an event at t they see the pre-event state; after it, or at
        the end of a run, the ties see the post-event (right-continuous)
        state. An observation that `add` refuses raises its DomainError."""
        times, k = self.times, run.obs_k
        while k < len(times) and (times[k] < t or ties and times[k] == t):
            self.averager.add(times[k], positions, m)
            k = run.obs_k = k + 1
        run.next_obs = times[k] if k < len(times) else math.inf
        return run.next_obs


def check_engine(w, engine: str = "auto") -> str:
    """The engine `simulate` runs for rate family w: w's default for "auto".

    Raises UnsupportedSpecError, its message starting "engine:", for an unknown
    name or an engine that cannot run w. The reference engine runs every
    family; a fast engine runs only the families it is the default of
    (`RateFamily.default_engine`): thinning needs a bounded rate, and the
    exponential engine the exponential family.
    """
    if engine == "auto":
        return w.default_engine
    if not isinstance(engine, str) or engine not in ENGINES:
        raise UnsupportedSpecError(
            f"engine: unknown engine {engine!r}; have 'auto', {', '.join(map(repr, ENGINES))}")
    if engine != "reference" and engine != w.default_engine:
        able = sorted({"reference", w.default_engine})
        raise UnsupportedSpecError(
            f"engine: the {engine} engine cannot run {type(w).__name__}; "
            f"engines that can: {', '.join(map(repr, able))}")
    return engine


def _check_stop(T, cap, name):
    """Refuse a stop no run reaches: a cap (named `name`) that is not an integer
    >= 0, a NaN or negative T, or an unbounded T with no cap."""
    if cap is not None and not is_count(cap, 0):
        raise ModelError(f"{name} must be an integer >= 0, got {cap!r}")
    if T is not None and not T >= 0:
        raise ModelError(f"T must be >= 0 and not NaN, got {T!r}")
    if cap is None and (T is None or T == math.inf):
        raise ModelError(f"T = {T} needs an event cap {name}")


def _check_seed(seed):
    """Refuse a seed that is not None or an integer >= 0 (a bool is not one)."""
    if seed is not None and not is_count(seed, 0):
        raise ModelError(f"seed must be None or an integer >= 0, got {seed!r}")


def simulate(w, z, n: int, *, T: float = None, max_events: int = None,
             rng=None, seed: int = None, init="zeros", observer=None,
             observe_times=None, observations: int = 1000,
             engine: str = "auto", log_events: bool = False) -> SimulationResult:
    """Run the n-particle process to horizon T and/or an event cap.

    The observer, a `measures.TimeAverager`, gets the right-continuous state
    on a fixed time grid (default 1000 equispaced samples on [0, T]) added to
    its next rows, as its `add` adds it. It must have a free row for every
    time; ModelError names an observer that is not an averager or cannot
    hold the run, observe_times without an observer, a seed that is not None
    or an integer >= 0 and a log_events that is not a bool, all before any
    draw. Hitting the event cap before T sets `truncated` in the summary
    rather than failing.
    """
    _check_stop(T, max_events, "max_events")
    _check_seed(seed)
    if not isinstance(log_events, (bool, np.bool_)):
        raise ModelError(f"log_events must be a bool, got {log_events!r}")
    engine = check_engine(w, engine)
    if observer is not None and not isinstance(observer, measures.TimeAverager):
        raise ModelError(f"observer: must be a measures.TimeAverager, got {observer!r}")
    if observer is not None and observe_times is None:
        if T is None or T == math.inf:
            raise ModelError("observer on a default grid needs a finite horizon T")
        if not is_count(observations, 1):
            raise ModelError(f"observations must be an integer >= 1, got {observations!r}")
        observe_times = np.linspace(0.0, T, observations)
    if observe_times is not None:
        observe_times = np.unique(np.asarray(observe_times, dtype=float))
        bad = observe_times[~np.isfinite(observe_times)]
        if bad.size:
            raise ModelError(f"observe_times must be finite, got {bad.tolist()}")
        if observer is None:
            raise ModelError("observe_times: need an observer, a measures.TimeAverager")
    obs = _Observer(observe_times, observer)
    if rng is None:
        rng = np.random.default_rng(seed)
    state0 = initial_state(n, init, rng)
    return ENGINES[engine](w, z, state0, T, max_events, rng, obs, log_events)


# ---------------------------------------------------------------------------
# engines: step functions on a kernel.Run record, and their one driver
# ---------------------------------------------------------------------------

_UNBOUND = np.empty(0)

# The stall exits, by what the total in run.value is.
_STALLS = {kernel.EXIT_RATE_STALL: "total jump rate",
           kernel.EXIT_WEIGHT_STALL: "selection weights"}


def _record(state, T, max_events, **fields):
    """The record of one run from `state`, with the fields every engine sets
    and a copy of the positions bound to `pos`."""
    n = state.n
    run = kernel.Run(n=n, inv_n=1.0 / n, horizon=math.inf if T is None else T,
                     max_events=-1 if max_events is None else max_events,
                     resum_interval=RESUM_INTERVAL, m=state.center, S0=math.inf, **fields)
    run.bind(pos=np.array(state.positions, dtype=float))
    return run


def _views(run, *fields):
    """Memoryviews of the arrays bound to run's fields (empty while unbound):
    a Python step reads its batch and writes its log rows through them."""
    return [memoryview(run.arrays.get(field, _UNBOUND)) for field in fields]


def _batches(run, max_events, draw):
    """The refill of a batched engine: bind the arrays draw(size) returns, by
    field name, as the next batch. A run capped below _BATCH events never
    needs a full batch, so its first one is cut to the cap."""
    size = _BATCH if max_events is None else min(_BATCH, max_events)

    def refill():
        nonlocal size
        run.bind(**draw(size))
        run.batch, run.cursor, size = size, 0, _BATCH

    return refill


def _run_reference(w, z, state, T, max_events, rng, obs, log_events):
    run = _record(state, T, max_events)
    step = functools.partial(_reference_steps, run, w, z, rng, obs)
    return _drive(step, run, "reference", state, T, obs, log_events, lambda: None)


def _reference_steps(run, w, z, rng, obs):
    """The reference engine's step: recompute every rate, then draw the wait,
    the uniform that selects and the length, one event at a time, adding the
    observations due to the averager through obs.emit. The step exits with
    EXIT_BATCH once the log's free tail is full, and stalls with R = inf where
    `w.rate_overflows`."""
    pos = run.arrays["pos"]
    lt, li, lz, lm = _views(run, "log_t", "log_i", "log_z", "log_m")
    logging = run.log_t is not None
    n, inv_n, horizon, max_events = run.n, run.inv_n, run.horizon, run.max_events
    resum, next_obs = run.resum_interval, run.next_obs
    t, m, events, k = run.t, run.m, run.events, 0
    try:
        while True:
            if 0 <= max_events <= events:
                return kernel.EXIT_CAP
            if logging and k == len(lt):
                return kernel.EXIT_BATCH
            rel = pos - m
            rates = np.asarray(w.rate(rel), dtype=float)
            R = math.inf if w.rate_overflows(rel) else float(rates.sum())
            if not (R > 0.0 and R < math.inf):
                run.value = R
                return kernel.EXIT_RATE_STALL
            t_next = t + rng.standard_exponential() / R
            if t_next > horizon:
                t = horizon
                return kernel.EXIT_HORIZON
            if next_obs < t_next:
                next_obs = obs.emit(run, t_next, pos, m, False)
            t = t_next
            u = rng.random() * R
            i = int(min(np.searchsorted(np.cumsum(rates), u, side="left"), n - 1))
            length = float(z.sample(rng))
            pos[i] += length
            m += length * inv_n
            events += 1
            if logging:
                lt[k], li[k], lz[k], lm[k] = t, i, length, m
                k += 1
            if events % resum == 0:
                return kernel.EXIT_RESUM
            if t == next_obs:
                next_obs = obs.emit(run, t, pos, m, True)
    finally:
        run.t, run.m, run.events, run.proposals = t, m, events, events
        run.log_len = k


def _run_bounded(w, z, state, T, max_events, rng, obs, log_events):
    n = state.n
    a = float(w.left_limit)
    run = _record(state, T, max_events, a=a, lam=n * a)
    lib = kernel.bind_rate(run, w)
    if lib is None:
        step = functools.partial(_bounded_steps, run, w.scalar_rate(), obs)
    else:
        step = functools.partial(lib.fj_bounded, ctypes.byref(run))
    refill = _batches(run, max_events, lambda size: dict(
        waits=rng.standard_exponential(size), targets=rng.integers(0, n, size),
        uniforms=rng.random(size),
        lengths=np.ascontiguousarray(z.sample(rng, size), dtype=float)))
    return _drive(step, run, "bounded", state, T, obs, log_events, refill)


def _bounded_steps(run, rate, obs):
    """fj_bounded in Python, exit for exit, for a family without a C rate or
    where the kernel cannot be built. It adds each observation due to the
    averager through obs.emit, so an observation that `add` refuses raises
    its DomainError here, where fj_bounded exits with EXIT_OBSERVE."""
    pos = run.arrays["pos"].tolist()
    waits, targets, uniforms, lengths, lt, li, lz, lm = _views(
        run, "waits", "targets", "uniforms", "lengths", "log_t", "log_i", "log_z", "log_m")
    logging = run.log_t is not None
    inv_n, horizon, max_events, resum = run.inv_n, run.horizon, run.max_events, run.resum_interval
    a, lam, next_obs, batch = run.a, run.lam, run.next_obs, run.batch
    t, m, events, proposals, c, k = run.t, run.m, run.events, run.proposals, run.cursor, 0
    try:
        while True:
            if 0 <= max_events <= events:
                return kernel.EXIT_CAP
            if c >= batch:
                return kernel.EXIT_BATCH
            t_next = t + waits[c] / lam
            if t_next > horizon:
                t = horizon
                return kernel.EXIT_HORIZON
            if next_obs < t_next:
                next_obs = obs.emit(run, t_next, pos, m, False)
            t = t_next
            i = targets[c]
            accepted = uniforms[c] * a <= rate(pos[i] - m)
            if accepted:
                length = lengths[c]
                pos[i] += length
                m += length * inv_n
                events += 1
                if logging:
                    lt[k], li[k], lz[k], lm[k] = t, i, length, m
                    k += 1
            proposals += 1
            c += 1
            if accepted and events % resum == 0:
                return kernel.EXIT_RESUM
            if accepted and t == next_obs:
                next_obs = obs.emit(run, t, pos, m, True)
    finally:
        run.arrays["pos"][:] = pos
        run.t, run.m, run.events, run.proposals = t, m, events, proposals
        run.cursor, run.log_len = c, k


def _check_weight_total(total, what):
    """Raise StallError naming the cause unless total is finite and positive."""
    if total == math.inf:
        raise StallError(f"{what} overflowed; configuration too spread out")
    if total != total:
        raise StallError(f"{what} is NaN; positions must be finite")
    if total <= 0.0:
        raise StallError(f"{what} underflowed to zero")


def _run_exponential(w, z, state, T, max_events, rng, obs, log_events):
    # the sum tree's leaves: the least power of two >= n
    leaves = 1 << (state.n - 1).bit_length()
    run = _record(state, T, max_events, beta=w.beta, leaves=leaves)
    run.bind(tree=np.zeros(2 * leaves))
    lib = kernel.load()
    if lib is None:
        step = functools.partial(_exponential_steps, run, obs)
    else:
        step = functools.partial(lib.fj_exponential, ctypes.byref(run))
    refill = _batches(run, max_events, lambda size: dict(
        waits=rng.standard_exponential(size),
        lengths=np.ascontiguousarray(z.sample(rng, size), dtype=float),
        uniforms=rng.random(size)))
    return _drive(step, run, "exponential", state, T, obs, log_events, refill)


def _rebase(pos, tree, leaves, beta, ref):
    """Rebase the sum tree, as lists, to ref: every leaf, then every parent.
    A leaf where math.exp overflows is inf, libm exp's value in C."""
    exp_ = math.exp
    for k, x in enumerate(pos):
        try:
            tree[leaves + k] = exp_(-beta * (x - ref))
        except OverflowError:
            tree[leaves + k] = math.inf
    for j in range(leaves - 1, 0, -1):
        tree[j] = tree[2 * j] + tree[2 * j + 1]
    return tree[1]


def _exponential_steps(run, obs):
    """fj_exponential in Python, exit for exit, where the kernel cannot be
    built. The positions and the tree are lists while it runs. An event
    carries its new leaf up to the root as fj_exponential does, v += tree[j ^ 1]
    at each level, so every ancestor gets the same addition, in the same
    operand order, as in the kernel. It adds each observation due to the
    averager through obs.emit, so an observation that `add` refuses raises
    its DomainError here, where fj_exponential exits with EXIT_OBSERVE."""
    pos, tree = run.arrays["pos"].tolist(), run.arrays["tree"].tolist()
    waits, lengths, uniforms, lt, li, lz, lm = _views(
        run, "waits", "lengths", "uniforms", "log_t", "log_i", "log_z", "log_m")
    logging = run.log_t is not None
    inv_n, horizon, max_events, resum = run.inv_n, run.horizon, run.max_events, run.resum_interval
    beta, leaves, next_obs, batch = run.beta, run.leaves, run.next_obs, run.batch
    t, m, ref, S0, events, c, k = run.t, run.m, run.ref, run.S0, run.events, run.cursor, 0
    rebuilds = run.rebuilds
    exp_ = math.exp
    try:
        while True:
            # the first build (S0 = inf), a halved total, a resum (S0 = inf)
            if tree[1] < 0.5 * S0:
                ref = m
                rebuilds += 1
                S0 = _rebase(pos, tree, leaves, beta, ref)
                if not (S0 > 0.0 and S0 < math.inf):
                    run.value = S0
                    return kernel.EXIT_WEIGHT_STALL
            if 0 <= max_events <= events:
                return kernel.EXIT_CAP
            if c >= batch:
                return kernel.EXIT_BATCH
            S = tree[1]
            try:
                R = S * exp_(beta * (m - ref))
            except OverflowError:       # libm exp's inf in C
                R = S * math.inf
            if not (R > 0.0 and R < math.inf):
                run.value = R
                return kernel.EXIT_RATE_STALL
            t_next = t + waits[c] / R
            if t_next > horizon:
                t = horizon
                return kernel.EXIT_HORIZON
            if next_obs < t_next:
                next_obs = obs.emit(run, t_next, pos, m, False)
            t = t_next
            # descend to the leaf whose share of [0, S) holds U*S, never into a
            # subtree of total 0 (padding, underflowed leaves, round-off)
            target = uniforms[c] * S
            j = 1
            while j < leaves:
                j *= 2
                if target >= tree[j] and tree[j + 1] > 0.0:
                    target -= tree[j]
                    j += 1
            i = j - leaves
            length = lengths[c]
            c += 1
            pos[i] += length
            m += length * inv_n
            v = tree[j] = exp_(-beta * (pos[i] - ref))
            while j > 1:
                v += tree[j ^ 1]
                j //= 2
                tree[j] = v
            events += 1
            if logging:
                lt[k], li[k], lz[k], lm[k] = t, i, length, m
                k += 1
            if events % resum == 0:
                return kernel.EXIT_RESUM
            if t == next_obs:
                next_obs = obs.emit(run, t, pos, m, True)
    finally:
        run.arrays["pos"][:] = pos
        run.arrays["tree"][:] = tree
        run.t, run.m, run.ref, run.S0, run.rebuilds = t, m, ref, S0, rebuilds
        run.events = run.proposals = events
        run.cursor, run.log_len = c, k


def _log_columns(block):
    """The event log's columns log_t, log_i, log_z and log_m: the rows of a
    (4, rows) float64 block, log_i as an int64 view of its second row."""
    t, i, z, m = block
    return {"log_t": t, "log_i": i.view(np.int64), "log_z": z, "log_m": m}


def _drive(step, run, engine, state, T, obs, log_events, refill):
    """Call step() until the horizon or the event cap stops the run, and
    build the result.

    step() runs events on `run` and returns a kernel.EXIT_* code. Only here,
    for every engine, are the exits handled: the center is re-summed (and
    written over the centre of the last log row, the event that made it due),
    the observations due at a re-sum or at the stop are served, the log rows
    a call wrote at the free tail are counted and, when another call
    follows, the tail is rebound past them, refill() binds the next batch,
    and the errors are raised: at a stall exit, the StallError of the total
    in run.value (`_check_weight_total`), and at EXIT_OBSERVE, the
    observation obs_t[obs_k] that a compiled step could not bin is served
    through obs.emit, whose `add` raises. A step leaves for nothing else:
    every step adds the observations due to the averager in its loop.

    The log's columns are the rows of one (4, rows) float64 block. It starts
    at the cap, or at _LOG_ROWS rows if the cap is higher, and at _BATCH rows
    without a cap. Before a step call that would find fewer than
    min(_BATCH, cap - filled) rows free it doubles, since a batched step
    writes at most one batch a call and no step runs past the cap; the
    reference step stops at the tail's end. It does not grow after the last
    call, and a run that ends with less than half its block filled copies
    its rows into a block of their own size.
    """
    c0, pos, cap = run.m, run.arrays["pos"], run.max_events
    obs.attach(run)
    resums, drift = 0, 0.0
    block, filled, log = None, 0, None
    if log_events:
        block = np.empty((4, _BATCH if cap < 0 else min(cap, _LOG_ROWS)))
        run.bind(**_log_columns(block))
    while True:
        code = step()
        if code == kernel.EXIT_RESUM:
            m = math.fsum(pos) * run.inv_n
            resums += 1
            drift = max(drift, abs(run.m - m))      # a NaN drift leaves it
            run.m = m
            if run.log_len:
                run.arrays["log_m"][run.log_len - 1] = run.m
            run.S0 = math.inf
        wrote, filled, run.log_len = run.log_len, filled + run.log_len, 0
        if code == kernel.EXIT_RESUM:
            obs.emit(run, run.t, pos, run.m, ties=True)
        elif code == kernel.EXIT_OBSERVE:
            obs.emit(run, obs.times[run.obs_k], pos, run.m, ties=True)
        elif code in (kernel.EXIT_CAP, kernel.EXIT_HORIZON):
            break
        elif code == kernel.EXIT_BATCH:
            refill()
        else:
            _check_weight_total(run.value, _STALLS[code])
        if wrote:           # another step call follows, writing past these rows
            if block.shape[1] - filled < (_BATCH if cap < 0 else min(_BATCH, cap - filled)):
                grown = np.empty((4, 2 * block.shape[1]))
                grown[:, :filled] = block[:, :filled]
                block = grown
            run.bind(**_log_columns(block[:, filled:]))
    truncated = code == kernel.EXIT_CAP and T is not None and run.t < run.horizon
    obs.emit(run, min(run.horizon, run.t), pos, run.m, ties=True)
    state.positions = pos
    if block is not None:
        if 2 * filled < block.shape[1]:
            block = block[:, :filled].copy()
        log = EventLog(*_log_columns(block[:, :filled]).values())
    return SimulationResult(n=state.n, engine=engine, events=run.events, final_time=run.t,
                            initial_center=c0, final_center=state.center, truncated=truncated,
                            state=state, proposals=run.proposals, log=log, resums=resums,
                            max_resum_drift=drift, rebuilds=run.rebuilds)


ENGINES = {"reference": _run_reference, "bounded": _run_bounded,
           "exponential": _run_exponential}


# ---------------------------------------------------------------------------
# dominating coupled system
# ---------------------------------------------------------------------------


@dataclass
class CoupledResult:
    n: int
    proposals: int
    accepted: int
    final_time: float
    base_positions: np.ndarray
    dominating_positions: np.ndarray
    position_violations: int
    increment_violations: int

    @property
    def acceptance_fraction(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0


# Pieces of [0, t] over which simulate_coupled checks increment dominance.
_INCREMENT_WINDOWS = 10


def simulate_coupled(w, z, n: int, *, proposals: int = None, T: float = None,
                     rng=None, seed: int = None, init="zeros") -> CoupledResult:
    """Run the dominating coupled pair (x, x-tilde) from a common start.

    Both layers are bounded-engine runs from one start on one random stream:
    the dominating layer at the flat rate a = sup w on a copy of rng, so it
    accepts every proposal and its event log is the proposal log, and the
    base layer at w on rng, with the same cap, to the dominating layer's
    final time. So the base layer sees the same proposals and accepts each
    with probability w(x_i - m)/a. A sampler of z must draw only from the
    generator it is given; one that draws elsewhere gives the layers
    different proposals, which shows as position violations.

    Each base event must be the next proposal with the same (t, i, z), or it
    counts as a position violation, and position dominance is checked at
    every proposal. The interval increment dominance is verified per particle
    over a _INCREMENT_WINDOWS-piece partition of [0, t] using exact (fsum)
    sums of the logged jump lengths, so a zero violation count carries no
    tolerance. A seed that is not None or an integer >= 0 raises ModelError
    before any draw.
    """
    if not math.isfinite(w.left_limit):
        raise UnsupportedSpecError(
            "the dominating coupling needs a bounded rate function (sup w = a < inf)")
    _check_stop(T, proposals, "proposals")
    _check_seed(seed)
    if rng is None:
        rng = np.random.default_rng(seed)
    start = initial_state(n, init, rng).positions
    a = float(w.left_limit)
    dom = simulate(TabulatedRate((-1.0, 1.0), (a, a)), z, n, T=T, max_events=proposals,
                   rng=copy.deepcopy(rng), init=start, engine="bounded", log_events=True)
    base = simulate(w, z, n, T=dom.final_time, max_events=proposals, rng=rng, init=start,
                    engine="bounded", log_events=True)

    times, targets, lengths = dom.log.times, dom.log.indices, dom.log.lengths
    events = [*zip(base.log.times.tolist(), base.log.indices.tolist(),
                   base.log.lengths.tolist()), None]
    accmask = np.zeros(dom.events, dtype=bool)
    x, y = start.tolist(), start.tolist()       # the dominating and base layers
    matched = pos_violations = 0
    for k, (t, i, length) in enumerate(zip(times.tolist(), targets.tolist(), lengths.tolist())):
        x[i] += length
        if events[matched] == (t, i, length):
            y[i] += length
            accmask[k] = True
            matched += 1
        pos_violations += x[i] < y[i]
    pos_violations += base.events - matched

    # Interval increment dominance (exact): for each particle and each window,
    # the dominating layer's summed jumps must weakly exceed the base layer's.
    inc_violations = 0
    if len(times):
        edges = np.linspace(0.0, dom.final_time, _INCREMENT_WINDOWS + 1)
        window = np.clip(np.searchsorted(edges, times, side="right") - 1, 0,
                         _INCREMENT_WINDOWS - 1)
        for wi in range(_INCREMENT_WINDOWS):
            in_w = window == wi
            for i in np.unique(targets[in_w]):
                sel = in_w & (targets == i)
                dom_inc = math.fsum(lengths[sel])
                base_inc = math.fsum(lengths[sel & accmask])
                if base_inc > dom_inc:
                    inc_violations += 1

    return CoupledResult(
        n=n, proposals=dom.events, accepted=base.events, final_time=dom.final_time,
        base_positions=base.state.positions, dominating_positions=dom.state.positions,
        position_violations=pos_violations, increment_violations=inc_violations)
