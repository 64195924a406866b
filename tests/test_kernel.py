"""The compiled kernel against its Python twins.

The Python steps of the bounded and exponential engines, the Python loop of
the martingale residual, and the numpy step of the mean-field PDE, run when
the kernel cannot be built; pointing the loader at a compiler that does not
exist forces them. Every comparison of the event loop and the residual walk
is bit for bit; the PDE step agrees to 1e-12, on the same grids and times.
"""

import contextlib
import ctypes
import math
import re
import shutil
import subprocess
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flockjump as fj
from flockjump import kernel, model, sim
from flockjump import mean_field as mf
from flockjump import measures as ms
from flockjump.model import DomainError, ModelError


def python_loops():
    """Context in which the kernel fails to build, so the Python steps run."""
    return mock.patch.object(kernel, "_CC", "/nonexistent/bin/gcc")


def bits(x):
    return np.float64(x).tobytes()


def outcome(w, z, n, **kwargs):
    """Everything a run shows: its result and log bit for bit, the observer's
    calls (time, positions, m), or the exception it raised."""
    calls = []
    observe = kwargs.pop("observe", None)
    if observe is not None:
        kwargs.update(observe_times=observe,
                      observer=lambda t, pos, m: calls.append((bits(t), pos.tobytes(), bits(m))))
    try:
        res = fj.simulate(w, z, n, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    log = None if res.log is None else tuple(
        col.tobytes() for col in (res.log.times, res.log.indices, res.log.lengths, res.log.centers))
    return (res.engine, res.events, res.proposals, res.truncated, bits(res.final_time),
            bits(res.initial_center), bits(res.final_center), res.state.positions.tobytes(),
            log, calls)


def both(w, z, n, **kwargs):
    with python_loops():
        expected = outcome(w, z, n, **dict(kwargs))
    return expected, outcome(w, z, n, **kwargs)


def test_kernel_builds():
    lib = kernel.load()
    assert lib is not None
    assert kernel.load() is lib                       # built once per process
    cached = list(kernel._SOURCE.parent.glob("__pycache__/_kernel-*.so"))
    assert cached


@pytest.mark.skipif(shutil.which(kernel._CC) is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings(tmp_path):
    cmd = [kernel._CC, *kernel._FLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "kernel.so"), str(kernel._SOURCE), "-lm"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


BOUNDED = [fj.StepRate(2.0, 1.0), fj.PiecewiseLinearRate(2.0, 1.0), fj.ArccotRate(),
           fj.TabulatedRate(grid=(-1.0, 0.0, 1.5), values=(2.5, 1.5, 0.5))]
MATRIX = [("bounded", w) for w in BOUNDED] + [("exponential", fj.ExponentialRate(1.0))]


@pytest.mark.parametrize("n", [2, 25, 1000])
@pytest.mark.parametrize("engine, w", MATRIX, ids=[type(w).__name__ for _, w in MATRIX])
def test_kernel_matches_python_loop(engine, w, n):
    # ~20000 proposals a cell, so every run refills its batches
    lam = n * (w.left_limit if engine == "bounded" else 1.0)
    T = 20_000 / lam
    z = fj.ExponentialJump()
    for stop in ({"T": T}, {"max_events": 17_000}):
        for watched in (False, True):
            extra = {"observe": np.linspace(0.0, T, 97), "log_events": True} if watched else {}
            expected, got = both(w, z, n, seed=n, engine=engine, **stop, **extra)
            assert got == expected
            assert got[1] > 0


def test_one_step_law_runs_on_the_kernel():
    # test_sim.test_one_step_exact_law calls simulate as it is, so it runs the
    # kernel whenever the kernel builds
    assert kernel.load() is not None
    for engine, w in (("bounded", fj.StepRate(2.0, 1.0)), ("exponential", fj.ExponentialRate(1.0))):
        with mock.patch.object(sim, "_bounded_steps", side_effect=AssertionError), \
                mock.patch.object(sim, "_exponential_steps", side_effect=AssertionError):
            fj.simulate(w, fj.ExponentialJump(), 30, max_events=30, seed=1, engine=engine)


def test_failed_build_falls_back_to_the_python_loops():
    with python_loops():
        assert kernel.load() is None
    for engine, w in (("bounded", fj.ArccotRate()), ("exponential", fj.ExponentialRate(2.0)),
                      ("reference", fj.StepRate(2.0, 1.0))):
        for n in (3, 40):
            expected, got = both(w, fj.ExponentialJump(), n, T=5.0, seed=7, engine=engine,
                                 observe=np.linspace(0.0, 5.0, 11), log_events=True)
            assert got == expected
    assert kernel.load() is not None                  # the real compiler's build is kept


class NoDraws:
    """An rng that fails any draw: every engine draws before its first event,
    so a run that reaches an engine fails at once instead of running on."""

    def __getattr__(self, name):
        raise AssertionError(f"an engine ran (rng.{name})")


ENGINE_FAMILIES = [("reference", fj.StepRate(2.0, 1.0)), ("bounded", fj.StepRate(2.0, 1.0)),
                   ("exponential", fj.ExponentialRate(1.0))]
BAD_STOPS = [
    ({"max_events": -1}, "max_events must be an integer >= 0, got -1"),
    ({"T": 1.0, "max_events": True}, "max_events must be an integer >= 0, got True"),
    ({"max_events": 2.5}, "max_events must be an integer >= 0, got 2.5"),
    ({"T": math.nan}, "T must be >= 0 and not NaN, got nan"),
    ({"T": math.nan, "max_events": 10}, "T must be >= 0 and not NaN, got nan"),
    ({"T": -1.0}, "T must be >= 0 and not NaN, got -1.0"),
    ({"T": math.inf}, "T = inf needs an event cap max_events"),
    ({}, "T = None needs an event cap max_events"),
    ({"n": 2.5, "T": 1.0}, "n must be an integer >= 1, got 2.5"),
    ({"n": "4", "T": 1.0}, "n must be an integer >= 1, got '4'"),
    ({"n": -3, "T": 1.0}, "n must be an integer >= 1, got -3"),
    ({"n": 0, "T": 1.0}, "n must be an integer >= 1, got 0"),
    ({"n": True, "T": 1.0}, "n must be an integer >= 1, got True"),
    ({"T": 1.0, "observe_times": [0.5, math.nan]}, "observe_times must be finite, got [nan]"),
    ({"T": 1.0, "observe_times": [math.inf, 0.5, -math.inf]},
     "observe_times must be finite, got [-inf, inf]"),
]


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
@pytest.mark.parametrize("stop, message", BAD_STOPS, ids=[str(s) for s, _ in BAD_STOPS])
def test_simulate_refuses_a_stop_it_cannot_run(compiled, engine, w, stop, message):
    with contextlib.nullcontext() if compiled else python_loops():
        with pytest.raises(ModelError, match=re.escape(message)):
            fj.simulate(w, fj.ExponentialJump(), **{"n": 5, **stop}, rng=NoDraws(), engine=engine)


# The stop rows of BAD_STOPS, with simulate_coupled's cap in place of max_events.
COUPLED_STOPS = [({"proposals" if k == "max_events" else k: v for k, v in stop.items()},
                  message.replace("max_events", "proposals"))
                 for stop, message in BAD_STOPS if not stop.keys() & {"n", "observe_times"}]


@pytest.mark.parametrize("stop, message", COUPLED_STOPS, ids=[str(s) for s, _ in COUPLED_STOPS])
def test_simulate_coupled_refuses_a_stop_it_cannot_run(stop, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        fj.simulate_coupled(fj.StepRate(2.0, 1.0), fj.ExponentialJump(), 5, **stop, rng=NoDraws())


@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_zero_events_and_a_capped_infinite_horizon_run_alike_on_both_loops(engine, w):
    for stop, events in (({"max_events": 0}, 0), ({"T": math.inf, "max_events": np.int64(40)}, 40)):
        expected, got = both(w, fj.ExponentialJump(), 5, seed=3, engine=engine, log_events=True,
                             **stop)
        assert got == expected
        assert expected[1] == events
    with pytest.raises(ModelError, match="observer on a default grid needs a finite horizon T"):
        fj.simulate(w, fj.ExponentialJump(), 5, T=math.inf, max_events=40, rng=NoDraws(),
                    engine=engine, observer=lambda t, pos, m: None)


class FixedJump:
    """Every jump has the given length: not a unit-mean law, a driver of edge cases."""

    def __init__(self, length):
        self.length = length

    def sample(self, rng, size=None):
        return np.full(size, self.length)


ERROR_CASES = [
    # n = 25: one jump of 10^6 puts exp(beta (m - ref)) past the double range
    ("exponential", fj.ExponentialRate(1.0), np.zeros(25), FixedJump(1e6), 100_000,
     ("OverflowError", "math range error")),
    # n = 2: a NaN length makes the total jump rate NaN
    ("exponential", fj.ExponentialRate(1.0), np.zeros(2), FixedJump(math.nan), 100_000,
     ("StallError", "total jump rate is NaN; positions must be finite")),
    # n = 3, rebased after every event: the laggard's weight reaches e^1000
    ("exponential", fj.ExponentialRate(1.0), np.zeros(3), FixedJump(1500.0), 1,
     ("StallError", "selection weights overflowed; configuration too spread out")),
    # a non-finite start is refused before any engine runs; the resum overflows
    ("bounded", fj.StepRate(2.0, 1.0), np.array([math.inf, -math.inf, 0.0]),
     fj.ExponentialJump(), 13, ("DomainError", "positions must be finite")),
    ("bounded", fj.StepRate(2.0, 1.0), np.array([1e308, 1e308, 0.0]),
     fj.ExponentialJump(), 13, ("OverflowError", "intermediate overflow in fsum")),
]


@pytest.mark.parametrize("engine, w, init, z, resum, error", ERROR_CASES)
def test_kernel_raises_what_the_python_loop_raises(engine, w, init, z, resum, error):
    with mock.patch.object(sim, "RESUM_INTERVAL", resum), np.errstate(all="ignore"):
        expected, got = both(w, z, len(init), T=50.0, seed=3, init=init, engine=engine)
    assert got == expected == error


class TopUniforms:
    """A generator whose every uniform is 1 - 2^-53, the largest below 1: the
    selection target U*S then sits at the top of the weight total, next to
    the padding leaves of the exponential engine's sum tree."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def standard_exponential(self, size=None):
        return self.rng.standard_exponential(size)

    def random(self, size=None):
        return np.full(size, 1.0 - 2.0**-53)


# Starts whose first target, by round-off in the descent's subtractions, is
# not below the sum of the real leaves of a subtree padded on its right.
PADDED_STARTS = [(3, 39), (5, 802), (25, 489)]


@pytest.mark.parametrize("n, start", PADDED_STARTS, ids=[f"n{n}" for n, _ in PADDED_STARTS])
def test_tree_descent_never_selects_a_padding_leaf(n, start):
    init = np.random.default_rng([n, start]).uniform(0.0, 3.0, n)
    runs = []
    for loop in (python_loops(), contextlib.nullcontext()):
        with loop:
            res = fj.simulate(fj.ExponentialRate(1.0), fj.ExponentialJump(), n, max_events=500,
                              rng=TopUniforms(n), init=init, log_events=True)
        assert res.events == 500 and res.log.indices.max() < n
        runs.append(res.log.indices.tobytes())
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# property test: random families, sizes, seeds, configurations and grids
# ---------------------------------------------------------------------------


@st.composite
def rate_families(draw):
    if draw(st.booleans()):
        return fj.ExponentialRate(draw(st.floats(0.2, 3.0)))
    kind = draw(st.sampled_from(["step", "piecewise_linear", "arccot", "tabulated"]))
    if kind == "arccot":
        return fj.ArccotRate()
    if kind == "tabulated":
        k = draw(st.integers(2, 6))
        grid = np.cumsum(draw(st.lists(st.floats(0.05, 2.0), min_size=k, max_size=k))) - 2.0
        values = np.cumsum(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))[::-1]
        return fj.TabulatedRate(grid=tuple(grid), values=tuple(values + 0.1))
    b = draw(st.floats(0.1, 3.0))
    a = b + draw(st.floats(0.05, 3.0))
    return (fj.StepRate if kind == "step" else fj.PiecewiseLinearRate)(a, b)


@st.composite
def cases(draw):
    w = draw(rate_families())
    n = draw(st.integers(2, 60))
    spread = draw(st.sampled_from([1.0, 5.0, 0.0, 400.0]))    # 400: weights overflow
    init = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))) * spread
    stop = draw(st.sampled_from(["T", "max_events", "both"]))
    kwargs = {"seed": draw(st.integers(0, 2**32 - 1)), "init": init,
              "engine": "exponential" if isinstance(w, fj.ExponentialRate) else "bounded"}
    if stop != "max_events":
        kwargs["T"] = draw(st.floats(0.1, 20.0))
    if stop != "T":
        kwargs["max_events"] = draw(st.integers(1, 3000))
    z = draw(st.sampled_from([fj.ExponentialJump(), fj.DeterministicJump()]))
    grid = draw(st.lists(st.floats(0.0, 25.0), max_size=30))
    ties = draw(st.sampled_from([0, 1, 5]))     # observe every k-th event time
    # a small batch and resum interval make every exit of the kernel frequent
    constants = {"_BATCH": draw(st.sampled_from([1 << 14, 64, 7, 1])),
                 "RESUM_INTERVAL": draw(st.sampled_from([100_000, 13]))}
    return w, z, n, kwargs, grid, ties, constants


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_kernel_matches_python_loop_on_random_cases(case):
    w, z, n, kwargs, grid, ties, constants = case
    with mock.patch.multiple(sim, **constants), np.errstate(over="ignore"):
        # observation times that equal event times exercise the tie exit
        with python_loops():
            try:
                times = fj.simulate(w, z, n, log_events=True, **kwargs).log.times
            except sim.StallError:
                times = []
        if ties:
            grid = grid + list(times[::ties])
        expected, got = both(w, z, n, observe=np.asarray(grid), log_events=True, **kwargs)
    assert got == expected
    if len(expected) == 2:                            # the run raised
        return
    # The identities of test_sim's test_logged_centers_track_the_exact_center:
    # the log's times strictly increase; the centre logged at event
    # RESUM_INTERVAL * k is fsum(positions replayed over the start) * (1/n)
    # bit for bit; every other row adds length * (1/n) to the centre before it.
    times, indices, lengths, centers = (np.frombuffer(col, dtype) for col, dtype in
                                        zip(expected[8], (float, np.int64, float, float)))
    assert np.all(np.diff(times) > 0)
    pos, inv_n, interval = kwargs["init"].tolist(), 1.0 / n, constants["RESUM_INTERVAL"]
    before = np.frombuffer(expected[5], float)[0]
    for k, (i, length, center) in enumerate(zip(indices, lengths, centers), start=1):
        pos[i] += length
        exact = math.fsum(pos) * inv_n if k % interval == 0 else before + length * inv_n
        assert center == exact, (k, center, exact)
        before = center


# ---------------------------------------------------------------------------
# fsum
# ---------------------------------------------------------------------------


def c_fsum(values):
    """The kernel's fsum: its value, or the (exception, message) of its error."""
    arr = np.ascontiguousarray(values, dtype=float)
    out = ctypes.c_double()
    code = kernel.load().fj_fsum(arr.ctypes.data, len(arr), ctypes.byref(out))
    return kernel.ERRORS[code] if code else out.value


def py_fsum(values):
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def same_sum(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return bits(a) == bits(b) or (math.isnan(a) and math.isnan(b))
    return a == b


ADVERSARIAL = [
    [], [0.0], [-0.0], [1e-16, 1.0, 1e16], [1.0, 1e100, 1.0, -1e100],
    [2.0**53, 1.0, -2.0**53], [2.0**53, -0.5, -2.0**-54], [1e308, 1e308, -1e308],
    [math.inf, -math.inf], [math.inf, 1.0], [math.nan, 1.0], [math.inf, math.nan],
    [5e-324, 5e-324, -5e-324], [2.2250738585072014e-308, -5e-324] * 3,
    [0.1] * 10, [1.0, -1e-16, 1e-32], [1.7976931348623157e308, 9.979201547673598e291],
]


@pytest.mark.parametrize("values", ADVERSARIAL)
def test_c_fsum_matches_math_fsum_on_adversarial_lists(values):
    assert same_sum(c_fsum(values), py_fsum(values))


finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-1e-300, 1e-300), st.floats(-1e6, 1e6),
                   st.sampled_from([5e-324, -5e-324, 1e308, -1e308, 2.0**53, 1e-16]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(finite, st.floats()), max_size=60), st.randoms(use_true_random=False))
def test_c_fsum_matches_math_fsum(values, random):
    # with the negatives of a shuffled copy appended: heavy cancellation
    mirrored = values + [-x for x in random.sample(values, len(values))]
    for xs in (values, mirrored):
        assert same_sum(c_fsum(xs), py_fsum(xs))


# ---------------------------------------------------------------------------
# mean-field PDE step
# ---------------------------------------------------------------------------

PDE_FAMILIES = [fj.StepRate(2.1, 1.0), fj.PiecewiseLinearRate(2.2, 1.0), fj.ArccotRate(),
                fj.TabulatedRate(grid=(-1.5, -0.5, 0.5, 1.5), values=(2.5, 2.0, 1.4, 1.0)),
                fj.ExponentialRate(1.0)]
PDE_IDS = [type(w).__name__ for w in PDE_FAMILIES]


def pde_outcome(field, w, **kwargs):
    """pde_integrate's (final field, diagnostics), or the (exception, message)
    it raised."""
    try:
        return mf.pde_integrate(field, w, **kwargs)
    except mf.ModelError as exc:
        return type(exc).__name__, str(exc)


def pde_both(field, w, **kwargs):
    with python_loops():
        expected = pde_outcome(field, w, **kwargs)
    return expected, pde_outcome(field, w, **kwargs)


def assert_pde_close(expected, got, tol=1e-12):
    """Equal grids and times, bit for bit; values, mass, mean and speed within
    tol, relative to the largest value and to max(1, |mean|, |speed|)."""
    (f1, d1), (f2, d2) = expected, got
    assert np.array_equal(f1.grid, f2.grid)
    assert bits(f1.time) == bits(f2.time)
    assert d1.t.tobytes() == d2.t.tobytes()
    assert np.max(np.abs(f1.values - f2.values)) <= tol * np.max(np.abs(f1.values))
    assert np.max(np.abs(d1.mass - d2.mass)) <= tol
    assert np.all(np.abs(d1.mean - d2.mean) <= tol * np.maximum(1.0, np.abs(d1.mean)))
    assert np.all(np.abs(d1.speed - d2.speed) <= tol * np.maximum(1.0, np.abs(d1.speed)))
    assert abs(d1.trimmed_mass - d2.trimmed_mass) <= tol


def gaussian_start(w, left=-6.0, right=30.0, h=0.02, center=0.0, sigma=0.1):
    """A Gaussian on [left, right] and a dt at 40% of the stability budget."""
    field = mf.DensityField.gaussian(np.arange(left, right + h / 2, h), center, sigma)
    return field, 0.2 / float(w.rate(left - field.mean))


@pytest.mark.parametrize("trims", [True, False])
@pytest.mark.parametrize("w", PDE_FAMILIES, ids=PDE_IDS)
def test_pde_kernel_matches_numpy_step(w, trims):
    # the window trims while its left edge carries no mass, and widens while it does
    start = {} if trims else {"left": -3.0, "center": -2.5, "sigma": 0.08}
    field, dt = gaussian_start(w, **start)
    expected, got = pde_both(field, w, T=0.5, dt=dt, samples=7)
    assert_pde_close(expected, got)
    if trims:
        assert got[0].grid[0] > field.grid[0] and len(got[0].grid) == len(field.grid)
    else:
        assert got[0].grid[0] == field.grid[0] and len(got[0].grid) > len(field.grid)


def test_pde_kernel_matches_numpy_step_when_the_window_widens():
    # live mass at the left edge: the window may not drop it, so it widens
    w = fj.StepRate(2.0, 1.0)
    field, dt = gaussian_start(w, left=-3.0, right=12.0, center=-2.5, sigma=1.0)
    expected, got = pde_both(field, w, T=0.5, dt=dt, samples=5)
    assert_pde_close(expected, got)
    assert got[0].grid[0] == field.grid[0] and len(got[0].grid) > len(field.grid)


def test_pde_kernel_raises_the_step_size_error_of_the_numpy_step():
    # a widened window keeps its left edge, where the exponential rate grows as
    # the mean advances: the budget breaks mid-run, at the same step and with
    # the same message
    w = fj.ExponentialRate(1.0)
    field, dt = gaussian_start(w, left=-3.0, right=12.0, center=-2.5, sigma=1.0)
    expected, got = pde_both(field, w, T=2.0, dt=dt)
    assert expected[0] == "StepSizeError" and got == expected
    with python_loops():
        expected = pde_outcome(field, w, T=1.0, dt=1.0)
    assert pde_outcome(field, w, T=1.0, dt=1.0) == expected
    assert "at t=0;" in expected[1]


@pytest.mark.parametrize("w", PDE_FAMILIES, ids=PDE_IDS)
def test_pde_kernel_step_matches_numpy_step(w):
    field, dt = gaussian_start(w, sigma=0.5)
    for _ in range(3):
        with python_loops():
            expected = mf.pde_step(field, w, dt)
        got = mf.pde_step(field, w, dt)
        assert bits(got.time) == bits(expected.time)
        assert np.max(np.abs(got.values - expected.values)) <= 1e-12 * np.max(expected.values)
        field = got
    with python_loops(), pytest.raises(mf.StepSizeError) as expected:
        mf.pde_step(field, w, 1.0)
    with pytest.raises(mf.StepSizeError) as got:
        mf.pde_step(field, w, 1.0)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("w", PDE_FAMILIES, ids=PDE_IDS)
def test_pde_at_t0_leaves_the_values_unchanged(w):
    field, dt = gaussian_start(w)
    for final, diag in pde_both(field, w, T=0.0, dt=dt):
        assert np.array_equal(final.values, field.values) and final.time == 0.0
        assert len(diag.t) == 1


def test_pde_runs_on_the_kernel():
    assert kernel.load() is not None
    with mock.patch.object(mf._Euler, "_numpy_steps", side_effect=AssertionError):
        for w in PDE_FAMILIES:
            field, dt = gaussian_start(w)
            mf.pde_integrate(field, w, T=0.05, dt=dt)
            mf.pde_step(field, w, dt)


def test_failed_build_falls_back_to_the_numpy_step():
    w = fj.ArccotRate()
    field, dt = gaussian_start(w)
    expected, got = pde_both(field, w, T=0.3, dt=dt, samples=4)
    assert_pde_close(expected, got)
    # a family with no C rate runs the same numpy step, bit for bit
    with mock.patch.object(fj.ArccotRate, "kernel_rate", return_value=None):
        final, diag = mf.pde_integrate(field, w, T=0.3, dt=dt, samples=4)
    assert final.values.tobytes() == expected[0].values.tobytes()
    assert diag.mean.tobytes() == expected[1].mean.tobytes()
    assert kernel.load() is not None                  # the real compiler's build is kept


def test_a_bad_density_fails_before_any_step():
    grid = np.linspace(-1.0, 1.0, 101)
    bad = {"values are not finite": (DomainError, np.where(grid > 0.5, math.nan, 1.0)),
           "mass is not finite and positive: 0.0": (DomainError, np.zeros_like(grid)),
           "matching 1-d arrays": (mf.ModelError, np.ones(len(grid) - 1))}
    w = fj.StepRate(2.0, 1.0)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="positive: inf"):
        mf.DensityField(grid, np.full_like(grid, 1e308))
    for cause, (error, values) in bad.items():
        with pytest.raises(error, match=cause):
            mf.DensityField(grid, values)
        field = mf.DensityField.gaussian(grid, sigma=0.3)
        field.values = values                         # changed after construction
        for fallback in (False, True):
            with mock.patch.object(kernel, "_CC", "/nonexistent/bin/gcc" if fallback
                                   else kernel._CC), np.errstate(all="raise"):
                with pytest.raises(error, match=cause):
                    mf.pde_integrate(field, w, T=0.1, dt=1e-3)
                with pytest.raises(error, match=cause):
                    mf.pde_step(field, w, 1e-3)


BAD_PDE_TIMES = [
    ({"dt": -1e-3}, "dt must be finite and > 0, got -0.001"),
    ({"dt": 0.0}, "dt must be finite and > 0, got 0.0"),
    ({"dt": math.nan}, "dt must be finite and > 0, got nan"),
    ({"dt": math.inf}, "dt must be finite and > 0, got inf"),
    ({"T": -1.0}, "T must be finite and >= 0, got -1.0"),
    ({"T": math.nan}, "T must be finite and >= 0, got nan"),
    ({"T": math.inf}, "T must be finite and >= 0, got inf"),
]


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
@pytest.mark.parametrize("bad, message", BAD_PDE_TIMES, ids=[str(b) for b, _ in BAD_PDE_TIMES])
def test_pde_refuses_a_bad_dt_or_T_before_any_step(compiled, bad, message):
    w = fj.StepRate(2.0, 1.0)
    field, dt = gaussian_start(w)
    kwargs = {"T": 0.1, "dt": dt, **bad}
    with contextlib.nullcontext() if compiled else python_loops(), \
            mock.patch.object(mf._Euler, "advance", side_effect=AssertionError):
        with pytest.raises(DomainError, match=re.escape(message)):
            mf.pde_integrate(field, w, **kwargs)
        if "dt" in bad:
            with pytest.raises(DomainError, match=re.escape(message)):
                mf.pde_step(field, w, kwargs["dt"])


def test_a_step_that_overflows_fails_on_both_paths():
    # finite values and mass whose jump flux overflows in the first step
    grid = np.linspace(0.0, 1.5, 16)
    field = mf.DensityField(grid, np.full_like(grid, 6e307))
    with np.errstate(all="ignore"):
        expected, got = pde_both(field, fj.StepRate(2.0, 1.0), T=0.01, dt=1e-3)
    assert expected[0] == "DomainError" and "not finite at t=0.001" in expected[1]
    assert got == expected


@st.composite
def pde_cases(draw):
    w = draw(st.sampled_from(PDE_FAMILIES))
    h = draw(st.floats(0.005, 0.05))
    offset = draw(st.floats(0.0, 1.0)) * h
    grid = offset + h * np.arange(math.floor(-4.0 / h), math.ceil(12.0 / h))
    field = mf.DensityField.gaussian(grid, sigma=0.3)
    dt = draw(st.floats(0.05, 0.9)) * 0.5 / float(w.rate(grid[0] - field.mean))
    steps = draw(st.integers(0, 60))
    kwargs = {"T": steps * dt, "dt": dt, "samples": draw(st.integers(1, 9))}
    return field, w, kwargs


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pde_cases())
def test_pde_kernel_matches_numpy_step_on_random_cases(case):
    field, w, kwargs = case
    expected, got = pde_both(field, w, **kwargs)
    if isinstance(expected[0], str):
        assert got == expected
    else:
        assert_pde_close(expected, got)


# ---------------------------------------------------------------------------
# martingale residual: the compiled step walk against the Python loop
# ---------------------------------------------------------------------------


def make_log(times, indices, lengths):
    return sim.EventLog(times=np.asarray(times, dtype=float),
                        indices=np.asarray(indices, dtype=np.int64),
                        lengths=np.asarray(lengths, dtype=float),
                        centers=np.zeros(len(times)))


def residual_bits(start, log, w, t_end):
    path = ms.residual_path(start, log, ms.IDENTITY, w, fj.DeterministicJump(), t_end)
    return bits(path.value), bits(path.sup_abs), path.t


def residual_both(start, log, w, t_end):
    with python_loops():
        expected = residual_bits(start, log, w, t_end)
    return expected, residual_bits(start, log, w, t_end)


@st.composite
def walks(draw):
    """A step rate, a start with ties, a log of random jumps (ties in time and
    zero lengths included) and a horizon at 0, before, at, between or after
    the events."""
    a, b = draw(st.sampled_from([(2.0, 1.0), (3.7, 0.3), (1.5, 1.25)]))
    start = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.1, 1 / 3, 2.5, 7.0]),
                          min_size=1, max_size=40))
    n = len(start)
    jumps = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.sampled_from([0.0, 1e-3, 0.37, 1.0, 2.5]),
                                    st.sampled_from([0.0, 0.01, 0.25, 1 / 3])),
                          max_size=120))
    times = np.cumsum([0.05] + [gap for _, _, gap in jumps])[1:]
    log = make_log(times, [i for i, _, _ in jumps], [z for _, z, _ in jumps])
    horizon = st.floats(0.0, 1.2 * float(times[-1]) if len(times) else 1.0)
    t_end = draw(st.one_of(st.just(0.0), horizon,
                           st.sampled_from(times.tolist()) if len(times) else horizon))
    return fj.StepRate(a, b), np.asarray(start), log, t_end


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(walks())
def test_compiled_residual_walk_matches_the_python_loop(walk):
    w, start, log, t_end = walk
    expected, got = residual_both(start, log, w, t_end)
    assert got == expected


def test_failed_build_falls_back_to_the_python_residual_loop():
    w, z = fj.StepRate(2.0, 1.0), fj.DeterministicJump()
    init = np.array([0.0, 0.0, 1.0, -2.0, 0.5, 0.5, 3.0])
    with python_loops():
        assert kernel.load() is None
    for n, start in ((3, np.zeros(3)), (7, init), (400, np.zeros(400))):
        res = fj.simulate(w, z, n, T=10.0, seed=n, init=start.copy(), engine="bounded",
                          log_events=True)
        for t_end in (10.0, 10.0 / 3, float(res.log.times[len(res.log) // 2]), 0.0):
            expected, got = residual_both(start, res.log, w, t_end)
            assert got == expected
    assert kernel.load() is not None                  # the real compiler's build is kept


def test_residual_path_walks_the_step_rate_on_the_kernel():
    assert kernel.load() is not None
    w, z = fj.StepRate(2.0, 1.0), fj.DeterministicJump()
    res = fj.simulate(w, z, 50, T=5.0, seed=2, engine="bounded", log_events=True)
    with mock.patch.object(model._StepMeanRate, "jump", side_effect=AssertionError):
        ms.residual_path(np.zeros(50), res.log, ms.IDENTITY, w, z, 5.0)
        with python_loops(), pytest.raises(AssertionError):
            ms.residual_path(np.zeros(50), res.log, ms.IDENTITY, w, z, 5.0)
    # the Python heap is built on the bracket's first jump, which the compiled walk never makes
    with mock.patch.object(model, "heapify", side_effect=AssertionError):
        ms.residual_path(np.zeros(50), res.log, ms.IDENTITY, w, z, 5.0)
        with python_loops(), pytest.raises(AssertionError):
            ms.residual_path(np.zeros(50), res.log, ms.IDENTITY, w, z, 5.0)


def test_compiled_residual_walk_stays_inside_its_arrays():
    # residual_path refuses these inputs itself; called directly, the walk
    # stops at the event it cannot run and indexes nothing with it. Jumps of
    # the particle at 10 leave every entry it had in the heap.
    lib = kernel.load()
    start = np.array([0.0, 0.0, 0.0, 10.0])

    def walk(indices, heap_cap):
        log = make_log([0.5, 1.0, 1.5], indices, [1.0, 1.0, 1.0])
        run = kernel.Residual(n=4, inv_n=0.25, a=2.0, b=1.0, t_end=2.0, m=2.5, log_len=3,
                              heap_cap=heap_cap)
        run.bind(log_t=log.times, log_i=log.indices, log_z=log.lengths, pos=start.copy(),
                 versions=np.empty(4, dtype=np.int64), heap_x=np.empty(heap_cap),
                 heap_i=np.empty(heap_cap, dtype=np.int64),
                 heap_v=np.empty(heap_cap, dtype=np.int64))
        return lib.fj_residual(ctypes.byref(run)), run.events

    assert walk([3, 3, 3], 8) == (kernel.RESIDUAL_DONE, 3)
    assert walk([3, -1, 3], 8) == (kernel.RESIDUAL_BAD_INDEX, 1)
    assert walk([3, 3, 4], 8) == (kernel.RESIDUAL_BAD_INDEX, 2)
    assert walk([3, 3, 3], 4) == (kernel.RESIDUAL_HEAP_FULL, 2)
    assert walk([3, 3, 3], 1) == (kernel.RESIDUAL_HEAP_FULL, 0)


# A start of five particles and a three-event log, and one bad input each.
GOOD_WALK = {"start": [0.0] * 5, "times": [0.5, 1.0, 1.5], "indices": [0, 3, 4],
             "lengths": [1.0, 0.5, 2.0], "t_end": 2.0}
BAD_WALKS = [
    ({"t_end": math.nan}, "t_end must be >= 0 and finite, got nan"),
    ({"t_end": math.inf}, "t_end must be >= 0 and finite, got inf"),
    ({"start": []}, "initial positions must be a non-empty 1-d array, got shape (0,)"),
    ({"start": [0.0, 0.0, math.nan, 0.0, 0.0]}, "initial positions must be finite, got [nan]"),
    ({"start": [0.0, math.inf, 0.0, -math.inf, 0.0]},
     "initial positions must be finite, got [-inf, inf]"),
    ({"indices": [0, -1, 4]}, "event log indices must lie in [0, n) = [0, 5), got [-1]"),
    ({"indices": [0, 5, 4]}, "event log indices must lie in [0, n) = [0, 5), got [5]"),
    ({"indices": [0, 3]}, "event log columns must be 1-d and of one length, got shapes "
                          "(3,), (2,), (3,)"),
    ({"times": [0.5, 1.5, 1.0]}, "event log times must not decrease, got times[2] = 1.0 after 1.5"),
    ({"times": [0.5, math.nan, 1.0]},
     "event log times must not decrease, got times[1] = nan after 0.5"),
    ({"times": [math.nan, 1.0, 1.5]}, "event log must start at time >= 0, got nan"),
    ({"lengths": [1.0, -0.5, 2.0]}, "event log jump lengths must be finite and >= 0, got [-0.5]"),
    ({"lengths": [1.0, math.nan, math.inf]},
     "event log jump lengths must be finite and >= 0, got [inf, nan]"),
]


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("bad, message", BAD_WALKS, ids=[str(b) for b, _ in BAD_WALKS])
def test_residual_path_refuses_a_walk_it_cannot_run(compiled, bad, message):
    walk = {**GOOD_WALK, **bad}
    log = make_log(walk["times"], walk["indices"], walk["lengths"])
    w = fj.StepRate(2.0, 1.0)
    for f in (ms.IDENTITY, ms.TestFunction("tanh", fn=np.tanh)):
        with contextlib.nullcontext() if compiled else python_loops(), \
                mock.patch.object(fj.StepRate, "mean_rate", side_effect=AssertionError):
            with pytest.raises(DomainError, match=re.escape(message)):
                ms.residual_path(walk["start"], log, f, w, fj.DeterministicJump(), walk["t_end"])
