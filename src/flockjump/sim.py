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

The per-event loop of the bounded engine (step, piecewise-linear, arccot and
tabulated rates) and of the exponential engine (its rebase included) runs compiled,
in ``_kernel.c``; the reference engine, and a bounded family whose
``kernel_rate()`` is None, run in Python. The kernel consumes the random
batches this module draws, in the Python loops' order and sizes, and performs
their floating-point operations in their order (libm exp and atan, CPython's
correctly rounded fsum), so paths, event logs, observer calls and bundles are
bit-identical to the Python loops'. The shared library is built with gcc at
the first run of a compiled engine and cached in this package's
``__pycache__`` (see ``kernel``); where it cannot be built, the Python loops
(``_bounded_loop``, ``_exponential_loop``) run instead.
"""

from __future__ import annotations

import ctypes
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
    """Emits the right-continuous state at scheduled times."""

    def __init__(self, times, callback):
        self.times = list(times) if times is not None else []
        self.callback = callback
        self.pos = 0

    def pending(self):
        return self.callback is not None and self.pos < len(self.times)

    def next_time(self):
        return self.times[self.pos] if self.pending() else math.inf

    def emit_before(self, t_event, positions, m):
        # Observation times strictly before the next event see the current state.
        while self.pending() and self.times[self.pos] < t_event:
            self.callback(self.times[self.pos], positions(), m)
            self.pos += 1

    def emit_through(self, t_final, positions, m):
        # At the end of a run, and after an event at t_final once every earlier
        # time is emitted: then it emits the ties, which see the post-event
        # (right-continuous) state.
        while self.pending() and self.times[self.pos] <= t_final:
            self.callback(self.times[self.pos], positions(), m)
            self.pos += 1


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
    if rng is None:
        rng = np.random.default_rng(seed)
    state0 = initial_state(n, init, rng)
    if observer is not None and observe_times is None:
        if T is None or T == math.inf:
            raise ModelError("observer on a default grid needs a finite horizon T")
        observe_times = np.linspace(0.0, T, max(observations, 1))
    if observe_times is not None:
        observe_times = np.unique(np.asarray(observe_times, dtype=float))
    return ENGINES[engine](w, z, state0, T, max_events, rng,
                           _Observer(observe_times, observer), log_events)


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


def _log_columns():
    """Event-log columns (times, indices, lengths, centers) as typed arrays, which
    hold 8 bytes an entry instead of a reference to a boxed float."""
    return array("d"), array("q"), array("d"), array("d")


def _first_batch(max_events):
    """Size of a run's first random batch: a run capped below _BATCH events
    never needs a full one."""
    return _BATCH if max_events is None else min(_BATCH, max_events)


def _finish(state, engine, events, t, c0, truncated, logs, proposals):
    log = None
    if logs is not None:
        log = EventLog(times=np.asarray(logs[0]), indices=np.asarray(logs[1], dtype=np.int64),
                       lengths=np.asarray(logs[2]), centers=np.asarray(logs[3]))
    return SimulationResult(n=state.n, engine=engine, events=events, final_time=t,
                            initial_center=c0, final_center=state.center,
                            truncated=truncated, state=state, proposals=proposals, log=log)


def _run_reference(w, z, state, T, max_events, rng, obs, log_events):
    n = state.n
    pos = state.positions
    m = state.center
    c0 = m
    t = 0.0
    events = 0
    logs = _log_columns() if log_events else None
    positions_view = lambda: pos.copy()
    horizon = math.inf if T is None else T
    truncated = False
    inv_n = 1.0 / n
    next_obs = obs.next_time()
    while True:
        if max_events is not None and events >= max_events:
            truncated = T is not None and t < horizon
            break
        rel = pos - m
        if w.rate_overflows(rel):
            raise StallError("jump rate overflowed; configuration too spread out")
        rates = np.asarray(w.rate(rel), dtype=float)
        R = float(rates.sum())
        if not math.isfinite(R):
            raise ArithmeticError("total jump rate is not finite")
        if R <= 0.0:
            raise StallError("total jump rate underflowed to zero")
        t_next = t + rng.standard_exponential() / R
        if t_next > horizon:
            t = horizon
            break
        if next_obs < t_next:
            obs.emit_before(t_next, positions_view, m)
            next_obs = obs.next_time()
        t = t_next
        u = rng.random() * R
        i = int(min(np.searchsorted(np.cumsum(rates), u, side="left"), n - 1))
        length = float(z.sample(rng))
        pos[i] += length
        m += length * inv_n
        events += 1
        if events % RESUM_INTERVAL == 0:
            m = math.fsum(pos) * inv_n
        if logs is not None:
            logs[0].append(t)
            logs[1].append(i)
            logs[2].append(length)
            logs[3].append(m)
        if t == next_obs:
            obs.emit_through(t, positions_view, m)
            next_obs = obs.next_time()
    obs.emit_through(min(horizon, t), positions_view, m)
    return _finish(state, "reference", events, t, c0, truncated, logs, events)


def _run_bounded(w, z, state, T, max_events, rng, obs, log_events):
    spec = w.kernel_rate()
    lib = kernel.load() if spec is not None else None
    if lib is None:
        return _bounded_loop(w, z, state, T, max_events, rng, obs, log_events)
    n = state.n
    a = float(w.left_limit)
    name, params = spec
    pos = np.array(state.positions, dtype=float)
    run = _kernel_run(state, T, max_events, obs, family=kernel.RATE_CODES[name],
                      n_rate_params=len(params), a=a, lam=n * a)
    run.bind(pos=pos, rate_params=np.array(params, dtype=float))
    size = _first_batch(max_events)

    def refill(code):           # EXIT_BATCH, the only exit left to this engine
        nonlocal size
        waits = rng.standard_exponential(size)
        targets = rng.integers(0, n, size)
        accs = rng.random(size)
        run.bind(waits=waits, targets=targets, uniforms=accs,
                 lengths=np.ascontiguousarray(z.sample(rng, size), dtype=float))
        run.batch, run.cursor, size = size, 0, _BATCH

    return _drive(lib.fj_bounded, run, "bounded", pos, state, T, obs, log_events, refill)


def _bounded_loop(w, z, state, T, max_events, rng, obs, log_events):
    """The bounded engine in Python, for families without a C rate or where
    the kernel cannot be built; the kernel reproduces it bit for bit."""
    n = state.n
    pos = state.positions.tolist()
    m = state.center
    c0 = m
    a = float(w.left_limit)
    lam = n * a
    rate = w.scalar_rate()
    t = 0.0
    events = proposals = 0
    logs = _log_columns() if log_events else None
    positions_view = lambda: np.asarray(pos)
    horizon = math.inf if T is None else T
    truncated = False
    inv_n = 1.0 / n
    next_obs = obs.next_time()

    size = _first_batch(max_events)
    waits = idxs = accs = zbuf = ()
    cursor = 0

    while True:
        if max_events is not None and events >= max_events:
            truncated = T is not None and t < horizon
            break
        if cursor >= len(waits):
            waits = rng.standard_exponential(size).tolist()
            idxs = rng.integers(0, n, size).tolist()
            accs = rng.random(size).tolist()
            zbuf = z.sample(rng, size).tolist()
            cursor = 0
            size = _BATCH
        t_next = t + waits[cursor] / lam
        if t_next > horizon:
            t = horizon
            break
        if next_obs < t_next:
            obs.emit_before(t_next, positions_view, m)
            next_obs = obs.next_time()
        t = t_next
        i = idxs[cursor]
        accepted = accs[cursor] * a <= rate(pos[i] - m)
        if accepted:
            length = zbuf[cursor]
            pos[i] += length
            m += length * inv_n
            events += 1
            if events % RESUM_INTERVAL == 0:
                m = math.fsum(pos) * inv_n
            if logs is not None:
                logs[0].append(t)
                logs[1].append(i)
                logs[2].append(length)
                logs[3].append(m)
        proposals += 1
        cursor += 1
        if accepted and t == next_obs:
            obs.emit_through(t, positions_view, m)
            next_obs = obs.next_time()
    obs.emit_through(min(horizon, t), positions_view, m)
    state.positions = np.asarray(pos)
    return _finish(state, "bounded", events, t, c0, truncated, logs, proposals)


def _check_weight_total(total, what):
    """Raise StallError naming the cause unless total is finite and positive."""
    if total == math.inf:
        raise StallError(f"{what} overflowed; configuration too spread out")
    if total != total:
        raise StallError(f"{what} is NaN; positions must be finite")
    if total <= 0.0:
        raise StallError(f"{what} underflowed to zero")


def _tree_leaves(n):
    """Leaves of the exponential engine's sum tree: the least power of two >= n.
    Leaf k sits at index leaves + k, the root at 1, and the padding holds 0."""
    return 1 << (n - 1).bit_length()


def _run_exponential(w, z, state, T, max_events, rng, obs, log_events):
    lib = kernel.load()
    if lib is None:
        return _exponential_loop(w, z, state, T, max_events, rng, obs, log_events)
    leaves = _tree_leaves(state.n)
    pos = np.array(state.positions, dtype=float)
    run = _kernel_run(state, T, max_events, obs, beta=w.beta, leaves=leaves)
    run.bind(pos=pos, tree=np.zeros(2 * leaves))
    if lib.fj_exp_rebase(ctypes.byref(run)):
        _check_weight_total(run.value, "selection weights")
    size = _first_batch(max_events)

    def on_exit(code):
        nonlocal size
        if code == kernel.EXIT_BATCH:
            waits = rng.standard_exponential(size)
            lengths = np.ascontiguousarray(z.sample(rng, size), dtype=float)
            run.bind(waits=waits, lengths=lengths, uniforms=rng.random(size))
            run.batch, run.cursor, size = size, 0, _BATCH
        elif code == kernel.EXIT_RATE_STALL:
            _check_weight_total(run.value, "total jump rate")
        else:
            _check_weight_total(run.value, "selection weights")

    return _drive(lib.fj_exponential, run, "exponential", pos, state, T, obs, log_events,
                  on_exit)


def _exponential_loop(w, z, state, T, max_events, rng, obs, log_events):
    """The exponential engine in Python, where the kernel cannot be built; the
    kernel reproduces it bit for bit."""
    n = state.n
    beta = w.beta
    pos = state.positions.tolist()
    m = state.center
    c0 = m
    t = 0.0
    events = 0
    logs = _log_columns() if log_events else None
    positions_view = lambda: np.asarray(pos)
    horizon = math.inf if T is None else T
    truncated = False
    inv_n = 1.0 / n
    exp_ = math.exp
    next_obs = obs.next_time()

    leaves = _tree_leaves(n)
    tree = [0.0] * (2 * leaves)
    ref = S0 = 0.0

    def rebase():
        # as fj_exp_rebase: every leaf, then every parent; math.exp raises
        # where libm exp overflows
        nonlocal ref, S0
        ref = m
        try:
            for k, x in enumerate(pos):
                tree[leaves + k] = exp_(-beta * (x - ref))
        except OverflowError:
            total = math.inf
        else:
            for j in range(leaves - 1, 0, -1):
                tree[j] = tree[2 * j] + tree[2 * j + 1]
            total = tree[1]
        _check_weight_total(total, "selection weights")
        S0 = total

    rebase()
    size = _first_batch(max_events)
    waits = zbuf = ubuf = ()
    cursor = 0

    while True:
        if max_events is not None and events >= max_events:
            truncated = T is not None and t < horizon
            break
        if cursor >= len(waits):
            waits = rng.standard_exponential(size).tolist()
            zbuf = z.sample(rng, size).tolist()
            ubuf = rng.random(size).tolist()
            cursor = 0
            size = _BATCH
        S = tree[1]
        R = S * exp_(beta * (m - ref))
        if not (R > 0.0 and math.isfinite(R)):
            _check_weight_total(R, "total jump rate")
        t_next = t + waits[cursor] / R
        if t_next > horizon:
            t = horizon
            break
        if next_obs < t_next:
            obs.emit_before(t_next, positions_view, m)
            next_obs = obs.next_time()
        t = t_next
        # descend to the leaf whose share of [0, S) holds U*S, never into a
        # subtree of total 0 (padding, underflowed leaves, round-off)
        target = ubuf[cursor] * S
        j = 1
        while j < leaves:
            j *= 2
            if target >= tree[j] and tree[j + 1] > 0.0:
                target -= tree[j]
                j += 1
        i = j - leaves
        length = zbuf[cursor]
        cursor += 1
        pos[i] += length
        m += length * inv_n
        tree[j] = exp_(-beta * (pos[i] - ref))
        j //= 2
        while j:
            tree[j] = tree[2 * j] + tree[2 * j + 1]
            j //= 2
        events += 1
        due = tree[1] < 0.5 * S0
        if events % RESUM_INTERVAL == 0:
            m = math.fsum(pos) * inv_n
            due = True
        if logs is not None:
            logs[0].append(t)
            logs[1].append(i)
            logs[2].append(length)
            logs[3].append(m)
        if due:
            rebase()
        if t == next_obs:
            obs.emit_through(t, positions_view, m)
            next_obs = obs.next_time()
    obs.emit_through(min(horizon, t), positions_view, m)
    state.positions = np.asarray(pos)
    return _finish(state, "exponential", events, t, c0, truncated, logs, events)


def _kernel_run(state, T, max_events, obs, **fields):
    """The kernel's record for one run from `state`, with the fields every
    engine sets."""
    n = state.n
    return kernel.Run(n=n, inv_n=1.0 / n, horizon=math.inf if T is None else T,
                      max_events=-1 if max_events is None else max_events,
                      resum_interval=RESUM_INTERVAL, m=state.center,
                      next_obs=obs.next_time(), **fields)


def _drive(entry, run, engine, pos, state, T, obs, log_events, on_exit):
    """Call the kernel entry until the horizon or the event cap stops it.

    The exits every engine shares are handled here: the observer, the event
    log (the kernel writes each call's events to a chunk that is appended
    here; a call runs at most one batch, so _BATCH entries hold it) and the
    exceptions of math.exp and math.fsum. on_exit(code) handles the rest.
    """
    c0 = run.m
    logs = chunk = None
    if log_events:
        logs = _log_columns()
        chunk = (np.empty(_BATCH), np.empty(_BATCH, dtype=np.int64),
                 np.empty(_BATCH), np.empty(_BATCH))
        run.bind(log_t=chunk[0], log_i=chunk[1], log_z=chunk[2], log_m=chunk[3])
    record = ctypes.byref(run)
    while True:
        code = entry(record)
        if run.log_len:
            for column, part in zip(logs, chunk):
                column.frombytes(part[:run.log_len].view(np.uint8))
            run.log_len = 0
        if code == kernel.EXIT_OBSERVE_BEFORE:
            obs.emit_before(run.value, pos.copy, run.m)
            run.next_obs = obs.next_time()
        elif code == kernel.EXIT_OBSERVE_AT:
            obs.emit_through(run.t, pos.copy, run.m)
            run.next_obs = obs.next_time()
        elif code in (kernel.EXIT_CAP, kernel.EXIT_HORIZON):
            break
        elif code in kernel.ERRORS:
            exc, message = kernel.ERRORS[code]
            raise exc(message)
        else:
            on_exit(code)
    truncated = code == kernel.EXIT_CAP and T is not None and run.t < run.horizon
    obs.emit_through(min(run.horizon, run.t), pos.copy, run.m)
    state.positions = pos
    return _finish(state, engine, run.events, run.t, c0, truncated, logs, run.proposals)


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
