"""The compiled event kernel against the Python loops it replaces.

The Python loops of the bounded and exponential engines run when the kernel
cannot be built; pointing the loader at a compiler that does not exist forces
them. Every comparison is bit for bit.
"""

import ctypes
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flockjump as fj
from flockjump import kernel, sim


def python_loops():
    """Context in which the kernel fails to build, so the Python loops run."""
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
        with mock.patch.object(sim, "_bounded_loop", side_effect=AssertionError), \
                mock.patch.object(sim, "_exponential_loop", side_effect=AssertionError):
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


class FixedJump:
    """Every jump has the given length: not a unit-mean law, a driver of edge cases."""

    def __init__(self, length):
        self.length = length

    def sample(self, rng, size=None):
        return np.full(size, self.length)


ERROR_CASES = [
    # frozen table: one jump of 10^6 puts exp(beta (m - ref)) past the double range
    ("exponential", fj.ExponentialRate(1.0), np.zeros(25), FixedJump(1e6), 100_000,
     ("OverflowError", "math range error")),
    # direct selector: a NaN length makes the total jump rate NaN
    ("exponential", fj.ExponentialRate(1.0), np.zeros(2), FixedJump(math.nan), 100_000,
     ("StallError", "total jump rate is NaN; positions must be finite")),
    # direct selector, rebuilt after every event: the laggard's weight reaches e^1000
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
