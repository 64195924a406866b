"""Exact event-driven simulation of the n-particle jump process.

Three exactly-equivalent engines:

* ``reference`` -- textbook competing-exponentials: recompute every rate,
  draw the holding time from the total, select by cumulative probability.
  O(n) per event; the correctness oracle for the fast engines.
* ``bounded`` -- constant-rate thinning for bounded rate families: proposals
  arrive at rate n*a (a = sup w), the target particle is uniform, and each
  proposal is accepted with probability w(x_i - m)/a. ``simulate_coupled``
  runs the same construction as a dominating coupled pair, in a loop of its
  own that draws one random number at a time.
* ``exponential`` -- for w(x) = exp(-beta*x) the selection weights factor as
  exp(beta*(m - ref)) * exp(-beta*(x_i - ref)), so a move of the center
  changes no relative weight and only the jumper's weight changes (it
  decreases). The leaves of a binary sum tree hold exp(-beta*(x_i - ref)) and
  each parent the sum of its children (Wong & Easton 1980). An event draws one
  uniform and descends from the root to the jumper, sets its leaf and
  recomputes its ancestors from their children: exact selection in O(log n),
  with no thinning, so every proposal is an event. The tree is rebased to
  ref = m when its total falls below half its value at the last rebase, and
  at every resum.

All engines keep the center of mass via m += Z * (1/n) (the per-event
identity is exact) and re-sum it as math.fsum(positions) * (1/n) every RESUM_INTERVAL
events; a run's initial and final centers are positions.sum() / n.

Every engine is a step function on the kernel's record (``kernel.Run``): it
runs events until ``_drive``, the one driver, must refill a random batch,
call the observer, stop or raise, and returns the reason, a
``kernel.EXIT_*`` code. The bounded step (step, piecewise-linear, arccot and
tabulated rates) and the exponential step (its rebase included) run compiled,
as ``fj_bounded`` and ``fj_exponential`` in ``_kernel.c``. They consume the
batches of the engine's one refill and perform the floating-point operations
of their exit-for-exit Python twins, ``_bounded_steps`` and
``_exponential_steps``, in their order (libm exp and atan, CPython's
correctly rounded fsum), so paths, event logs, observer calls and bundles are
bit-identical. The twins run for a bounded family whose ``kernel_rate()`` is
None and where the library, built with gcc at the first run of a compiled
engine and cached in ``__pycache__`` (see ``kernel``), cannot be built. The
reference step draws per event and has no compiled twin.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
from array import array
from dataclasses import dataclass

import numpy as np

from . import kernel
from .model import ModelError, SystemState, initial_state

_BATCH = 1 << 14

# Every engine re-sums the center of mass from the positions this often,
# which bounds the drift of its incremental updates.
RESUM_INTERVAL = 100_000


class StallError(ModelError):
    """Total jump rate is zero or not finite; the clock cannot advance."""


class UnsupportedSpecError(ModelError):
    """The requested engine cannot run this rate family."""


@dataclass
class EventLog:
    """Columnar event log (one entry per accepted jump)."""

    times: np.ndarray
    indices: np.ndarray
    lengths: np.ndarray
    centers: np.ndarray

    def __len__(self):
        return len(self.times)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("time,particle_index,jump_length,center_of_mass\n")
            for t, i, z, c in zip(self.times, self.indices, self.lengths, self.centers):
                fh.write(f"{t:.17g},{int(i)},{z:.17g},{c:.17g}\n")


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


# ---------------------------------------------------------------------------
# shared scaffolding
# ---------------------------------------------------------------------------


class _Observer:
    """Calls callback(t, positions, m) at each scheduled time t, with the
    right-continuous state; without a callback nothing is scheduled."""

    def __init__(self, times, callback):
        self.times = list(times) if callback is not None else []
        self.callback = callback
        self.k = 0

    def next_time(self):
        return self.times[self.k] if self.k < len(self.times) else math.inf

    def emit(self, t, positions, m, ties):
        """Emit the times before t, and with `ties` those equal to t. Before an
        event at t they see the pre-event state; after it, or at the end of a
        run, the ties see the post-event (right-continuous) state."""
        while self.k < len(self.times) and (self.times[self.k] < t or
                                            ties and self.times[self.k] == t):
            self.callback(self.times[self.k], positions(), m)
            self.k += 1


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


def simulate(w, z, n: int, *, T: float = None, max_events: int = None,
             rng=None, seed: int = None, init="zeros", observer=None,
             observe_times=None, observations: int = 1000,
             engine: str = "auto", log_events: bool = False) -> SimulationResult:
    """Run the n-particle process to horizon T and/or an event cap.

    `observer(t, positions, m)` is invoked on a fixed time grid (default 1000
    equispaced samples on [0, T]) with the right-continuous state. Hitting the
    event cap before T sets `truncated` in the summary rather than failing.
    """
    if max_events is not None and not (isinstance(max_events, numbers.Integral)
                                       and not isinstance(max_events, bool) and max_events >= 0):
        raise ModelError(f"max_events must be an integer >= 0, got {max_events!r}")
    if T is not None and not T >= 0:
        raise ModelError(f"T must be >= 0 and not NaN, got {T!r}")
    if max_events is None and (T is None or T == math.inf):
        raise ModelError(f"T = {T} needs an event cap max_events")
    engine = check_engine(w, engine)
    if observer is not None and observe_times is None:
        if T is None or T == math.inf:
            raise ModelError("observer on a default grid needs a finite horizon T")
        observe_times = np.linspace(0.0, T, max(observations, 1))
    if observe_times is not None:
        observe_times = np.unique(np.asarray(observe_times, dtype=float))
        bad = observe_times[~np.isfinite(observe_times)]
        if bad.size:
            raise ModelError(f"observe_times must be finite, got {bad.tolist()}")
    if rng is None:
        rng = np.random.default_rng(seed)
    state0 = initial_state(n, init, rng)
    return ENGINES[engine](w, z, state0, T, max_events, rng,
                           _Observer(observe_times, observer), log_events)


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
                     resum_interval=RESUM_INTERVAL, m=state.center, **fields)
    run.bind(pos=np.array(state.positions, dtype=float))
    return run


def _views(run, *fields):
    """Memoryviews of the arrays bound to run's fields (empty while unbound):
    a Python step reads its batch and writes its log chunk through them."""
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
    step = functools.partial(_reference_steps, run, w, z, rng)
    return _drive(step, run, "reference", state, T, obs, log_events, lambda: None)


def _reference_steps(run, w, z, rng):
    """The reference engine's step: recompute every rate, then draw the wait,
    the uniform that selects and the length, one event at a time. An event
    whose time falls after an observation keeps that time in run.value, with
    run.cursor = 1, and the next call takes it instead of drawing again. The
    step exits with EXIT_BATCH once the log chunk is full."""
    pos = run.arrays["pos"]
    lt, li, lz, lm = _views(run, "log_t", "log_i", "log_z", "log_m")
    logging = run.log_t is not None
    n, inv_n, horizon, max_events = run.n, run.inv_n, run.horizon, run.max_events
    resum, next_obs, kept = run.resum_interval, run.next_obs, run.cursor
    t, m, events, k = run.t, run.m, run.events, 0
    try:
        while True:
            if 0 <= max_events <= events:
                return kernel.EXIT_CAP
            if logging and k == len(lt):
                return kernel.EXIT_BATCH
            rel = pos - m
            if w.rate_overflows(rel):
                raise StallError("jump rate overflowed; configuration too spread out")
            rates = np.asarray(w.rate(rel), dtype=float)
            R = float(rates.sum())
            if not math.isfinite(R):
                raise ArithmeticError("total jump rate is not finite")
            if R <= 0.0:
                raise StallError("total jump rate underflowed to zero")
            if kept:
                t_next, kept = run.value, 0
            else:
                t_next = t + rng.standard_exponential() / R
            if t_next > horizon:
                t = horizon
                return kernel.EXIT_HORIZON
            if next_obs < t_next:
                run.value, kept = t_next, 1
                return kernel.EXIT_OBSERVE_BEFORE
            t = t_next
            u = rng.random() * R
            i = int(min(np.searchsorted(np.cumsum(rates), u, side="left"), n - 1))
            length = float(z.sample(rng))
            pos[i] += length
            m += length * inv_n
            events += 1
            if events % resum == 0:
                m = math.fsum(pos) * inv_n
            if logging:
                lt[k], li[k], lz[k], lm[k] = t, i, length, m
                k += 1
            if t == next_obs:
                return kernel.EXIT_OBSERVE_AT
    finally:
        run.t, run.m, run.events, run.proposals = t, m, events, events
        run.cursor, run.log_len = kept, k


def _run_bounded(w, z, state, T, max_events, rng, obs, log_events):
    n = state.n
    a = float(w.left_limit)
    run = _record(state, T, max_events, a=a, lam=n * a)
    spec = w.kernel_rate()
    lib = kernel.load() if spec is not None else None
    if lib is None:
        step = functools.partial(_bounded_steps, run, w.scalar_rate())
    else:
        name, params = spec
        run.family, run.n_rate_params = kernel.RATE_CODES[name], len(params)
        run.bind(rate_params=np.array(params, dtype=float))
        step = functools.partial(lib.fj_bounded, ctypes.byref(run))
    refill = _batches(run, max_events, lambda size: dict(
        waits=rng.standard_exponential(size), targets=rng.integers(0, n, size),
        uniforms=rng.random(size),
        lengths=np.ascontiguousarray(z.sample(rng, size), dtype=float)))
    return _drive(step, run, "bounded", state, T, obs, log_events, refill)


def _bounded_steps(run, rate):
    """fj_bounded in Python, exit for exit, for a family without a C rate or
    where the kernel cannot be built."""
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
                run.value = t_next
                return kernel.EXIT_OBSERVE_BEFORE
            t = t_next
            i = targets[c]
            accepted = uniforms[c] * a <= rate(pos[i] - m)
            if accepted:
                length = lengths[c]
                pos[i] += length
                m += length * inv_n
                events += 1
                if events % resum == 0:
                    m = math.fsum(pos) * inv_n
                if logging:
                    lt[k], li[k], lz[k], lm[k] = t, i, length, m
                    k += 1
            proposals += 1
            c += 1
            if accepted and t == next_obs:
                return kernel.EXIT_OBSERVE_AT
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
        rebase = functools.partial(_exp_rebase, run)
        step = functools.partial(_exponential_steps, run)
    else:
        rebase = functools.partial(lib.fj_exp_rebase, ctypes.byref(run))
        step = functools.partial(lib.fj_exponential, ctypes.byref(run))
    code = rebase()
    if code:
        _check_weight_total(run.value, _STALLS[code])
    refill = _batches(run, max_events, lambda size: dict(
        waits=rng.standard_exponential(size),
        lengths=np.ascontiguousarray(z.sample(rng, size), dtype=float),
        uniforms=rng.random(size)))
    return _drive(step, run, "exponential", state, T, obs, log_events, refill)


def _rebase(pos, tree, leaves, beta, ref):
    """Rebase the sum tree, as lists, to ref: every leaf, then every parent.
    Returns the total, inf where math.exp overflows (libm exp's inf in C)."""
    exp_ = math.exp
    try:
        for k, x in enumerate(pos):
            tree[leaves + k] = exp_(-beta * (x - ref))
    except OverflowError:
        return math.inf
    for j in range(leaves - 1, 0, -1):
        tree[j] = tree[2 * j] + tree[2 * j + 1]
    return tree[1]


def _exp_rebase(run):
    """fj_exp_rebase in Python."""
    tree = run.arrays["tree"].tolist()
    run.ref = run.m
    S0 = _rebase(run.arrays["pos"].tolist(), tree, run.leaves, run.beta, run.ref)
    if not (S0 > 0.0 and S0 < math.inf):
        run.value = S0
        return kernel.EXIT_WEIGHT_STALL
    run.arrays["tree"][:] = tree
    run.S0 = S0
    return 0


def _exponential_steps(run):
    """fj_exponential in Python, exit for exit, where the kernel cannot be
    built. The positions and the tree are lists while it runs."""
    pos, tree = run.arrays["pos"].tolist(), run.arrays["tree"].tolist()
    waits, lengths, uniforms, lt, li, lz, lm = _views(
        run, "waits", "lengths", "uniforms", "log_t", "log_i", "log_z", "log_m")
    logging = run.log_t is not None
    inv_n, horizon, max_events, resum = run.inv_n, run.horizon, run.max_events, run.resum_interval
    beta, leaves, next_obs, batch = run.beta, run.leaves, run.next_obs, run.batch
    t, m, ref, S0, events, c, k = run.t, run.m, run.ref, run.S0, run.events, run.cursor, 0
    exp_ = math.exp
    try:
        while True:
            if 0 <= max_events <= events:
                return kernel.EXIT_CAP
            if c >= batch:
                return kernel.EXIT_BATCH
            S = tree[1]
            R = S * exp_(beta * (m - ref))
            if not (R > 0.0 and R < math.inf):
                run.value = R
                return kernel.EXIT_RATE_STALL
            t_next = t + waits[c] / R
            if t_next > horizon:
                t = horizon
                return kernel.EXIT_HORIZON
            if next_obs < t_next:
                run.value = t_next
                return kernel.EXIT_OBSERVE_BEFORE
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
            tree[j] = exp_(-beta * (pos[i] - ref))
            j //= 2
            while j:
                tree[j] = tree[2 * j] + tree[2 * j + 1]
                j //= 2
            events += 1
            due = tree[1] < 0.5 * S0
            if events % resum == 0:
                m = math.fsum(pos) * inv_n
                due = True
            if logging:
                lt[k], li[k], lz[k], lm[k] = t, i, length, m
                k += 1
            if due:
                ref = m
                S0 = _rebase(pos, tree, leaves, beta, ref)
                if not (S0 > 0.0 and S0 < math.inf):
                    run.value = S0
                    return kernel.EXIT_WEIGHT_STALL
            if t == next_obs:
                return kernel.EXIT_OBSERVE_AT
    finally:
        run.arrays["pos"][:] = pos
        run.arrays["tree"][:] = tree
        run.t, run.m, run.ref, run.S0 = t, m, ref, S0
        run.events = run.proposals = events
        run.cursor, run.log_len = c, k


def _drive(step, run, engine, state, T, obs, log_events, refill):
    """Call step() until the horizon or the event cap stops the run, and
    build the result.

    step() runs events on `run` and returns a kernel.EXIT_* code. Only here,
    for every engine, are the exits handled: the observer is called, the
    events a call wrote to the log chunk are appended to the log (a batched
    step runs at most one batch a call and the reference step stops at a full
    chunk, so _BATCH entries hold them), refill() binds the next batch, and
    the errors are raised.
    """
    c0, pos, run.next_obs = run.m, run.arrays["pos"], obs.next_time()
    logs = chunk = None
    if log_events:
        logs = array("d"), array("q"), array("d"), array("d")
        chunk = (np.empty(_BATCH), np.empty(_BATCH, dtype=np.int64),
                 np.empty(_BATCH), np.empty(_BATCH))
        run.bind(log_t=chunk[0], log_i=chunk[1], log_z=chunk[2], log_m=chunk[3])
    while True:
        code = step()
        if run.log_len:
            for column, part in zip(logs, chunk):
                column.frombytes(part[:run.log_len].view(np.uint8))
            run.log_len = 0
        if code == kernel.EXIT_OBSERVE_BEFORE:
            obs.emit(run.value, pos.copy, run.m, ties=False)
            run.next_obs = obs.next_time()
        elif code == kernel.EXIT_OBSERVE_AT:
            obs.emit(run.t, pos.copy, run.m, ties=True)
            run.next_obs = obs.next_time()
        elif code in (kernel.EXIT_CAP, kernel.EXIT_HORIZON):
            break
        elif code == kernel.EXIT_BATCH:
            refill()
        elif code in kernel.ERRORS:
            exc, message = kernel.ERRORS[code]
            raise exc(message)
        else:
            _check_weight_total(run.value, _STALLS[code])
    truncated = code == kernel.EXIT_CAP and T is not None and run.t < run.horizon
    obs.emit(min(run.horizon, run.t), pos.copy, run.m, ties=True)
    state.positions = pos
    log = None
    if logs is not None:
        log = EventLog(times=np.asarray(logs[0]), indices=np.asarray(logs[1], dtype=np.int64),
                       lengths=np.asarray(logs[2]), centers=np.asarray(logs[3]))
    return SimulationResult(n=state.n, engine=engine, events=run.events, final_time=run.t,
                            initial_center=c0, final_center=state.center, truncated=truncated,
                            state=state, proposals=run.proposals, log=log)


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

    The dominating layer jumps at rate a per particle; the base layer accepts
    each proposal with probability w(x_i - m)/a and, when it does, jumps the
    same length. Position dominance is checked at every proposal epoch; the
    interval increment dominance is verified per particle over a
    _INCREMENT_WINDOWS-piece partition of [0, t] using exact (fsum) sums of
    the logged jump lengths, so a zero violation count carries no tolerance.
    """
    if not math.isfinite(w.left_limit):
        raise UnsupportedSpecError(
            "the dominating coupling needs a bounded rate function (sup w = a < inf)")
    if proposals is None and T is None:
        raise ModelError("need a proposal cap or horizon T")
    if rng is None:
        rng = np.random.default_rng(seed)
    base = initial_state(n, init, rng).positions.tolist()
    dom = list(base)
    m = math.fsum(base) / n
    a = float(w.left_limit)
    lam = n * a
    rate = w.scalar_rate()
    inv_n = 1.0 / n

    t = 0.0
    count = accepted = 0
    pos_violations = 0
    times, targets, lengths, accmask = [], [], [], []
    horizon = math.inf if T is None else T
    cap = math.inf if proposals is None else proposals

    while count < cap:
        t_next = t + rng.standard_exponential() / lam
        if t_next > horizon:
            t = horizon
            break
        t = t_next
        i = int(rng.integers(0, n))
        length = float(z.sample(rng))
        dom[i] += length
        ok = rng.random() * a <= rate(base[i] - m)
        if ok:
            base[i] += length
            m += length * inv_n
            accepted += 1
        if dom[i] < base[i]:
            pos_violations += 1
        times.append(t)
        targets.append(i)
        lengths.append(length)
        accmask.append(ok)
        count += 1

    times = np.asarray(times)
    targets = np.asarray(targets, dtype=np.int64)
    lengths = np.asarray(lengths)
    accmask = np.asarray(accmask, dtype=bool)

    # Interval increment dominance (exact): for each particle and each window,
    # the dominating layer's summed jumps must weakly exceed the base layer's.
    inc_violations = 0
    if len(times):
        edges = np.linspace(0.0, t, _INCREMENT_WINDOWS + 1)
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
        n=n, proposals=count, accepted=accepted, final_time=t,
        base_positions=np.asarray(base), dominating_positions=np.asarray(dom),
        position_violations=pos_violations, increment_violations=inc_violations)
