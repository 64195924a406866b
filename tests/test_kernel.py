"""The compiled kernel against its Python twins.

The Python steps of the bounded and exponential engines, the Python loop of
the martingale residual, and the numpy step of the mean-field PDE, run when
the kernel cannot be built; pointing the loader at a compiler that does not
exist forces them. Every comparison of the event loop and the residual walk
is bit for bit; the PDE step agrees to 1e-12, on the same grids and times.
"""

import contextlib
import ctypes
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import flockjump as fj
from flockjump import kernel, model, sim
from flockjump import mean_field as mf
from flockjump import measures as ms
from flockjump.model import DomainError, ModelError

from replay import replayed_states


def python_loops():
    """Context in which the kernel fails to build, so the Python steps run."""
    return mock.patch.object(kernel, "_CC", "/nonexistent/bin/gcc")


def bits(x):
    return np.float64(x).tobytes()


def run_bits(w, z, n, **kwargs):
    """A run's result, log and counters (resums, drift, rebuilds) bit for
    bit, or the exception it raised."""
    try:
        res = fj.simulate(w, z, n, **kwargs)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    log = None if res.log is None else tuple(
        col.tobytes() for col in (res.log.times, res.log.indices, res.log.lengths, res.log.centers))
    return (res.engine, res.events, res.proposals, res.truncated, bits(res.final_time),
            bits(res.initial_center), bits(res.final_center), res.state.positions.tobytes(),
            log, (res.resums, bits(res.max_resum_drift), res.rebuilds))


def new_averager(times):
    """A TimeAverager over [-2, 2) in 7 bins, with a row for each distinct time."""
    return ms.TimeAverager(-2.0, 2.0, 7, samples=len(np.unique(times)))


def rows(averager):
    """The filled rows of an averager (t, m, counts, n, below, above), bit for
    bit, and its first unfilled counts row."""
    k = averager.rows
    filled = tuple(col[:k].tobytes() for col in (averager.t, averager.m, averager._counts,
                                                 averager.n, averager.below, averager.above))
    return filled, averager._counts[k:k + 1].tobytes()


def replayed(times, init, center, final_time, log):
    """An averager fed through add() with the states that replayed_states
    rebuilds from a run's log at each distinct time of `times`."""
    fed = new_averager(times)
    for t, pos, m in replayed_states(np.unique(times), init, center, final_time, log):
        fed.add(t, pos, m)
    return fed


def outcome(w, z, n, **kwargs):
    """Everything a run shows: what run_bits shows and, observed, the rows of
    the TimeAverager that observes it (None unobserved), to the bit, also when
    the run raised. The rows of a logged run must be those that the state
    replayed from its log at each observation time gives through add()."""
    observe = kwargs.pop("observe", None)
    if observe is None:
        return run_bits(w, z, n, **kwargs) + (None,)
    binned = new_averager(observe)
    shown = run_bits(w, z, n, observe_times=observe, observer=binned, **kwargs)
    if not raised(shown) and shown[8] is not None:
        init = kwargs.get("init", "zeros")
        init = np.zeros(n) if isinstance(init, str) and init == "zeros" else init
        log = [np.frombuffer(col, dtype) for col, dtype in
               zip(shown[8], (float, np.int64, float, float))]
        center, final_time = np.frombuffer(shown[5] + shown[4], float)
        assert rows(replayed(observe, init, center, final_time, log)) == rows(binned)
    return shown + (rows(binned),)


def raised(shown):
    """Whether a run raised: run_bits shows (name, message) for it, and
    outcome() adds the averager's rows to that."""
    return len(shown) in (2, 3)


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
def test_a_build_prunes_the_stale_builds_of_its_cache(tmp_path):
    source = tmp_path / "_kernel.c"
    shutil.copyfile(kernel._SOURCE, source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = [cache / "_kernel-0123456789abcdef.so", cache / "_kernel-fedcba9876543210.so"]
    kept = [cache / "tmp1234.so", cache / "other.so"]     # a build in progress, another file
    for path in stale + kept:
        path.write_bytes(b"")
    with mock.patch.object(kernel, "_SOURCE", source):
        lib = kernel._build(kernel._CC)
    assert lib.parent == cache and lib.stat().st_size > 0
    assert sorted(cache.iterdir()) == sorted([lib, *kept])


@pytest.mark.skipif(shutil.which(kernel._CC) is None, reason="no C compiler")
def test_kernel_source_compiles_without_warnings(tmp_path):
    cmd = [kernel._CC, *kernel._FLAGS, "-Wall", "-Wextra", "-Werror",
           "-o", str(tmp_path / "kernel.so"), str(kernel._SOURCE), "-lm"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


# Prints a sha256 of an exponential run (n = 25, a padded tree, re-summed
# every 13 events, observed by an averager) and a bounded one, on the kernel
# build named by argv[1], or on the cached build without one.
SANITIZED_RUNS = """
import hashlib, sys
from pathlib import Path
import flockjump as fj
from flockjump import kernel, measures, sim
if len(sys.argv) > 1:
    kernel._build = lambda cc: Path(sys.argv[1])
assert kernel.load() is not None
sim.RESUM_INTERVAL = 13
digest = hashlib.sha256()
for engine, w in (("exponential", fj.ExponentialRate(1.0)), ("bounded", fj.StepRate(2.0, 1.0))):
    avg = measures.TimeAverager(-2.0, 2.0, 7, samples=50)
    res = fj.simulate(w, fj.ExponentialJump(), 25, T=40.0, max_events=2000, seed=9, engine=engine,
                      observer=avg, observations=50, log_events=True)
    for col in (res.state.positions, res.log.times, res.log.indices, res.log.lengths,
                res.log.centers, avg.t, avg.m, avg._counts, avg.below, avg.above):
        digest.update(col.tobytes())
    digest.update(repr((res.events, res.final_time, res.resums, res.max_resum_drift,
                        res.rebuilds)).encode())
print(digest.hexdigest())
"""


@pytest.mark.skipif(shutil.which(kernel._CC) is None, reason="no C compiler")
def test_kernel_runs_clean_under_the_undefined_behaviour_sanitizer(tmp_path):
    # -fno-sanitize-recover makes any undefined operation of the event steps
    # (the tree's index arithmetic, the re-sum countdown) abort the run
    lib = tmp_path / "kernel-ubsan.so"
    build = subprocess.run([kernel._CC, *kernel._FLAGS, "-fsanitize=undefined",
                            "-fno-sanitize-recover=all", "-o", str(lib), str(kernel._SOURCE),
                            "-lm"], capture_output=True, text=True, timeout=120)
    if build.returncode != 0:
        pytest.skip(f"cannot link the sanitizer runtime: {build.stderr.strip()[:200]}")
    env = {**os.environ, "PYTHONPATH": str(Path(fj.__file__).parent.parent)}
    runs = [subprocess.run([sys.executable, "-c", SANITIZED_RUNS, *args], capture_output=True,
                           text=True, timeout=120, env=env) for args in ([str(lib)], [])]
    for out in runs:
        assert out.returncode == 0, out.stderr
    assert runs[0].stdout == runs[1].stdout
@pytest.mark.skipif(shutil.which("nm") is None or shutil.which(kernel._CC) is None,
                    reason="no nm or no C compiler")
def test_kernel_exports_only_its_entry_points(tmp_path):
    # a fresh build: the loaded library's file may be gone, since a build of
    # an edited source removes the cache's other builds
    lib = tmp_path / "kernel.so"
    subprocess.run([kernel._CC, *kernel._FLAGS, "-o", str(lib), str(kernel._SOURCE), "-lm"],
                   capture_output=True, timeout=120, check=True)
    out = subprocess.run(["nm", "-D", "--defined-only", str(lib)],
                         capture_output=True, text=True, timeout=60, check=True)
    exported = {line.split()[-1] for line in out.stdout.splitlines() if " T " in line}
    assert exported == {"fj_bounded", "fj_exponential", "fj_pde", "fj_residual",
                        "fj_wave_residual", "fj_record_size"}


def test_every_record_mirror_has_the_size_of_its_c_record():
    lib = kernel.load()
    for which, record in enumerate(kernel.RECORDS):
        assert lib.fj_record_size(which) == ctypes.sizeof(record), record.__name__
    assert lib.fj_record_size(len(kernel.RECORDS)) == -1


def test_a_mirror_of_another_size_fails_to_load():
    # a mirror one field short would let the kernel write past the record
    class Short(kernel._Record):
        _fields_ = kernel.Run._fields_[:-1]

    size = ctypes.sizeof(kernel.Run)
    with mock.patch.object(kernel, "RECORDS", (Short, *kernel.RECORDS[1:])):
        with pytest.raises(kernel.LayoutError, match=re.escape(
                f"kernel.Short is {size - 8} bytes, and its C record {size}")):
            kernel._load.__wrapped__(kernel._CC)


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


# Two tables, one with 0 among its grid points and one without, whose
# segment table then splits the segment around 0.
DIGEST_TABLES = [fj.TabulatedRate(grid=(-1.0, 0.0, 1.5), values=(2.5, 1.5, 0.5)),
                 fj.TabulatedRate(grid=(-1.37, -0.41, 0.62, 1.55), values=(2.6, 2.1, 1.3, 0.9))]
# sha256 of their runs below; recorded when the tabulated rate was still the
# grid-and-values interpolation, so it shows that reading w from the segment
# table moved no event
TABULATED_DIGEST = "9a6469af082277619ebda2d9692b98cb6113a2bcd6c3e214f311f2a0754ce778"


def test_tabulated_bounded_runs_keep_their_digest():
    digest = hashlib.sha256()
    for seed, w in enumerate(DIGEST_TABLES, start=23):
        expected, got = both(w, fj.ExponentialJump(), 200, seed=seed, max_events=30_000,
                             engine="bounded", log_events=True)
        assert got == expected
        # the run without the later counters; the digest was recorded with
        # the run's (empty) list of callback observer calls after it
        digest.update(repr(expected[:9] + ([],)).encode())
    assert digest.hexdigest() == TABULATED_DIGEST


# Bounded runs of the piecewise-linear rate, Exp(1) jumps at n = 200 and unit
# jumps at n = 7; sha256 of their runs below, recorded when the family still
# had its own Python and C rate, before it was the two-knot table, so it
# shows that the table moved no event
PWL_DIGEST_RUNS = [(w, z, n) for w in (fj.PiecewiseLinearRate(2.0, 1.0),
                                       fj.PiecewiseLinearRate(2.41, 1.12))
                   for z, n in ((fj.ExponentialJump(), 200), (fj.DeterministicJump(), 7))]
PWL_DIGEST = "a01954a580008cfa4aa8ee51919d72bcc200f5d7094c66103d4da58ad57e5d6f"


def test_piecewise_linear_bounded_runs_keep_their_digest():
    digest = hashlib.sha256()
    for seed, (w, z, n) in enumerate(PWL_DIGEST_RUNS, start=41):
        expected, got = both(w, z, n, seed=seed, max_events=30_000, engine="bounded",
                             log_events=True)
        assert got == expected
        digest.update(repr(expected).encode())
    assert digest.hexdigest() == PWL_DIGEST


def compiled_rate(w, x):
    """The kernel's rate() at x, read off fj_pde's stability check on a
    one-node grid at x with m = 0 and dt = inf: a finite w(x) > 0 exits
    unstable with w(x) as its value; a NaN passes the check, and the step
    that follows makes the mass NaN, which this returns as NaN."""
    run = kernel.Pde(len=1, dt=math.inf, h=1.0, steps=1, m=0.0, ref=math.nan)
    lib = kernel.bind_rate(run, w)
    run.bind(grid=np.array([float(x)]), values=np.array([1.0]), rates=np.empty(1))
    code = lib.fj_pde(ctypes.byref(run))
    if code == kernel.PDE_NOT_FINITE:
        return math.nan
    assert code == kernel.PDE_UNSTABLE
    return run.value


@pytest.mark.parametrize("w", [*DIGEST_TABLES, fj.TabulatedRate((0.5, 3.0), (3.0, 0.25))],
                         ids=lambda w: str(w.grid))
def test_compiled_tabulated_rate_is_scalar_rate_to_the_bit(w):
    knots = w._segments[0].tolist()
    points = knots + [np.nextafter(k, -math.inf) for k in knots] + \
        [0.5 * (lo + hi) for lo, hi in zip(knots, knots[1:])] + [-50.0, 50.0, -math.inf, math.inf]
    rate = w.scalar_rate()
    for x in points:
        assert bits(compiled_rate(w, x)) == bits(rate(x)), x
    assert math.isnan(compiled_rate(w, math.nan)) and math.isnan(rate(math.nan))


def pwl_formula(a, b, x):
    """The piecewise-linear rate by its own formula: a left of -1, b right of
    1 and (a + b)/2 - (a - b)x/2 between."""
    if x < -1.0:
        return a
    if x > 1.0:
        return b
    return 0.5 * (a + b) - 0.5 * (a - b) * x


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (3.0, 2.0), (2.41, 1.12), (3.0, 0.5), (1.18, 1.0),
                                  (2.2, 1.0)])
def test_piecewise_linear_rate_is_its_formula_to_two_ulp(a, b):
    # the two-knot table's w, in numpy, in Python and compiled; to the bit
    # where (a + b)/2 and (a - b)/2 are dyadic
    w = fj.PiecewiseLinearRate(a, b)
    rate, ulps = w.scalar_rate(), 0 if (a, b) in ((2.0, 1.0), (3.0, 2.0)) else 2
    edges = [np.nextafter(k, d) for k in (-1.0, 1.0) for d in (-math.inf, math.inf)]
    for x in [*np.linspace(-1.5, 1.5, 601).tolist(), -1.0, 0.0, 1.0, *edges, -50.0, 50.0]:
        want = np.float64(pwl_formula(a, b, x)).view(np.int64)
        for got in (float(w.rate(x)), rate(x), compiled_rate(w, x)):
            assert abs(int(np.float64(got).view(np.int64)) - int(want)) <= ulps, (x, got)


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


def test_bind_rate_binds_a_family_s_c_rate_or_nothing():
    def unbound(record):
        return (record.family, record.n_rate_params, record.rate_params,
                "rate_params" in record.arrays) == (0, 0, None, False)

    records = (kernel.Run, kernel.Pde, kernel.WaveResidual)
    # no C rate, and no kernel to bind one to
    for no_c_rate in (mock.patch.object(fj.ArccotRate, "kernel_rate", return_value=None),
                      python_loops()):
        with no_c_rate:
            for record in records:
                run = record()
                assert kernel.bind_rate(run, fj.ArccotRate()) is None and unbound(run)
    for w in PDE_FAMILIES:
        name, params = w.kernel_rate()
        for record in records:
            run = record()
            assert kernel.bind_rate(run, w) is kernel.load() is not None
            bound = run.arrays["rate_params"]
            assert (run.family, run.n_rate_params) == (kernel.RATE_CODES[name], len(params))
            assert bound.dtype == np.float64 and bound.tobytes() == np.array(params).tobytes()
            assert run.rate_params == bound.ctypes.data


def test_the_kernel_has_no_exception_table():
    # A step reports a total that is not finite and positive with a stall
    # exit, which sim._drive raises as StallError for every engine.
    assert not hasattr(kernel, "ERRORS") and not hasattr(kernel, "EXIT_EXP_RANGE")


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
    ({"T": 1.0, "observe_times": [0.5]}, "observe_times: need an observer"),
    ({"T": 1.0, "seed": -1}, "seed must be None or an integer >= 0, got -1"),
    ({"T": 1.0, "seed": 1.5}, "seed must be None or an integer >= 0, got 1.5"),
    ({"T": 1.0, "seed": True}, "seed must be None or an integer >= 0, got True"),
    ({"T": 1.0, "seed": "7"}, "seed must be None or an integer >= 0, got '7'"),
    ({"T": 1.0, "log_events": "no"}, "log_events must be a bool, got 'no'"),
    ({"T": 1.0, "log_events": 1}, "log_events must be a bool, got 1"),
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
                 for stop, message in BAD_STOPS
                 if not stop.keys() & {"n", "observe_times", "log_events"}]


@pytest.mark.parametrize("stop, message", COUPLED_STOPS, ids=[str(s) for s, _ in COUPLED_STOPS])
def test_simulate_coupled_refuses_a_stop_it_cannot_run(stop, message):
    with pytest.raises(ModelError, match=re.escape(message)):
        fj.simulate_coupled(fj.StepRate(2.0, 1.0), fj.ExponentialJump(), 5, **stop, rng=NoDraws())


def test_a_seed_may_be_any_integer_and_log_events_a_numpy_bool():
    w, z = fj.StepRate(2.0, 1.0), fj.ExponentialJump()
    for seed in (2**70, np.uint64(5), np.int8(0)):
        got = run_bits(w, z, 4, T=3.0, seed=seed, log_events=np.bool_(True))
        assert got == run_bits(w, z, 4, T=3.0, rng=np.random.default_rng(seed), log_events=True)
        pair = [fj.simulate_coupled(w, z, 4, T=3.0, **given)
                for given in ({"seed": seed}, {"rng": np.random.default_rng(seed)})]
        assert len({(res.proposals, res.base_positions.tobytes()) for res in pair}) == 1


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
def test_the_coupled_layers_are_the_bounded_runs_of_w_and_of_its_flat_bound(compiled, flat_rate):
    w, z = fj.StepRate(2.0, 1.0), fj.ExponentialJump()
    with contextlib.nullcontext() if compiled else python_loops():
        pair = fj.simulate_coupled(w, z, 50, T=40.0, seed=21)
        base = fj.simulate(w, z, 50, T=40.0, seed=21, engine="bounded")
        dom = fj.simulate(flat_rate(2.0), z, 50, T=40.0, seed=21, engine="bounded")
    assert pair.base_positions.tobytes() == base.state.positions.tobytes()
    assert pair.dominating_positions.tobytes() == dom.state.positions.tobytes()
    assert (pair.proposals, pair.accepted, pair.final_time) == (dom.events, base.events, 40.0)
    assert pair.position_violations == pair.increment_violations == 0


@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_zero_events_and_a_capped_infinite_horizon_run_alike_on_both_loops(engine, w):
    for stop, events in (({"max_events": 0}, 0), ({"T": math.inf, "max_events": np.int64(40)}, 40)):
        expected, got = both(w, fj.ExponentialJump(), 5, seed=3, engine=engine, log_events=True,
                             **stop)
        assert got == expected
        assert expected[1] == events
    with pytest.raises(ModelError, match="observer on a default grid needs a finite horizon T"):
        fj.simulate(w, fj.ExponentialJump(), 5, T=math.inf, max_events=40, rng=NoDraws(),
                    engine=engine, observer=ms.TimeAverager(-1.0, 1.0, 4, samples=1000))


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_logging_never_changes_a_run(compiled, engine, w):
    # The steps write into the free tail of the log's block. A run capped at
    # 400 events allocates one block of 400 rows and never grows it. An
    # uncapped one starts at _BATCH rows and doubles before a step call that
    # would find fewer than _BATCH free: with 7 the run to T = 40 (about 400
    # events) doubles at least three times, and a re-sum every 13 events puts
    # re-summed centres into the first calls after a growth.
    for stop in ({"max_events": 400}, {"T": 40.0}):
        kwargs = {**stop, "seed": 12, "engine": engine}
        with contextlib.nullcontext() if compiled else python_loops(), \
                mock.patch.multiple(sim, _BATCH=7, RESUM_INTERVAL=13):
            logged = run_bits(w, fj.ExponentialJump(), 6, log_events=True, **kwargs)
            unlogged = run_bits(w, fj.ExponentialJump(), 6, **kwargs)
            res = fj.simulate(w, fj.ExponentialJump(), 6, log_events=True, **kwargs)
        assert logged[:8] + logged[9:] == unlogged[:8] + unlogged[9:]
        assert unlogged[8] is None and logged[8] is not None
        assert res.resums == res.events // 13 and len(res.log) == res.events
        columns = (res.log.times, res.log.indices, res.log.lengths, res.log.centers)
        assert tuple(col.tobytes() for col in columns) == logged[8]
        assert_log_replays(logged, np.zeros(6), 13)
        for col, dtype in zip(columns, (np.float64, np.int64, np.float64, np.float64)):
            assert col.dtype == dtype and col.ndim == 1 and col.flags.c_contiguous
            assert len(col) == res.events
        block = res.log.times.base
        assert all(col.base is block for col in columns)
        if "max_events" in stop:
            assert res.events == 400 and block.shape == (4, 400)
        else:
            doublings = (block.shape[1] // 7).bit_length() - 1
            assert block.shape[1] == 7 << doublings and doublings >= 3, block.shape


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_a_capped_log_keeps_at_most_twice_its_rows(compiled, engine, w):
    # A cap far past the run's events reserves no block of its size, and a
    # capped run that the horizon stops copies its rows into their own block.
    with contextlib.nullcontext() if compiled else python_loops():
        for cap, T in ((10**15, 1.0), (10**5, 1.0), (0, None)):
            res = fj.simulate(w, fj.ExponentialJump(), 6, T=T, max_events=cap, seed=4,
                              engine=engine, log_events=True)
            columns = (res.log.times, res.log.indices, res.log.lengths, res.log.centers)
            assert len(res.log) == res.events and (res.events > 0) == (cap > 0)
            assert res.log.times.base.shape[1] <= 2 * res.events
            for col, dtype in zip(columns, (np.float64, np.int64, np.float64, np.float64)):
                assert col.dtype == dtype and col.ndim == 1 and len(col) == res.events


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
def test_an_uncapped_log_grows_only_before_another_step_call(compiled):
    # 23741 events: the block doubles to 32768 rows while batches remain, and
    # not at the horizon's exit; a run of no events copies down to no rows.
    blocks = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        if isinstance(shape, tuple) and shape[0] == 4:
            blocks.append(shape[1])
        return empty(shape, *args, **kwargs)

    w, z = fj.StepRate(2.0, 1.0), fj.DeterministicJump()
    with contextlib.nullcontext() if compiled else python_loops(), \
            mock.patch.object(sim.np, "empty", spy):
        res = fj.simulate(w, z, 1600, T=10.0, seed=7, log_events=True)
        assert (res.events, blocks, res.log.times.base.shape) == (23741, [16384, 32768],
                                                                   (4, 32768))
        blocks.clear()
        res = fj.simulate(w, z, 1600, T=0.0, seed=7, log_events=True)
        assert (res.events, blocks, res.log.times.base.shape) == (0, [16384], (4, 0))


# Samplers that every engine must refuse, asked for 100 lengths by a batched
# engine and for 1 by the reference engine: a short batch would send a
# compiled step past its end, and a length that is not finite would make the
# run end at a center of nan or inf.
BAD_SAMPLERS = [
    (lambda rng, size: np.ones(3), "must return an array of shape ({size},), got shape (3,)"),
    (lambda rng, size: np.ones(size + 1),
     "must return an array of shape ({size},), got shape ({more},)"),
    (lambda rng, size: np.ones((size, 1)),
     "must return an array of shape ({size},), got shape ({size}, 1)"),
    (lambda rng, size: 1.0, "must return an array of shape ({size},), got shape ()"),
    (lambda rng, size: np.full(size, math.nan), "must return lengths finite and >= 0, got [nan]"),
    (lambda rng, size: np.r_[np.ones(size - 1), math.inf],
     "must return lengths finite and >= 0, got [inf]"),
    (lambda rng, size: -np.ones(size), "must return lengths finite and >= 0, got [-1.0]"),
]


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
@pytest.mark.parametrize("sampler, message", BAD_SAMPLERS, ids=[m for _, m in BAD_SAMPLERS])
def test_a_custom_sampler_of_the_wrong_size_or_values_is_refused(compiled, engine, w, sampler,
                                                                 message):
    size = 1 if engine == "reference" else 100
    message = message.format(size=size, more=size + 1)
    z = fj.CustomDensityJump(density=lambda u: np.where((u >= 0) & (u <= 2), 0.5, 0.0),
                             sampler=sampler, third_moment=2.0, upper=2.0)
    with contextlib.nullcontext() if compiled else python_loops():
        with pytest.raises(ModelError, match="^custom jump sampler " + re.escape(message) + "$"):
            fj.simulate(w, z, 5, max_events=100, seed=1, engine=engine)


class FixedJump:
    """Every jump has the given length: not a unit-mean law, a driver of edge cases."""

    def __init__(self, length):
        self.length = length

    def sample(self, rng, size=None):
        return np.full(size, self.length)


# ---------------------------------------------------------------------------
# a time averager as the observer: rows binned in the step's loop
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_an_averager_observes_a_run_of_length_zero(engine, w):
    expected, got = both(w, fj.ExponentialJump(), 5, T=0.0, seed=3, engine=engine,
                         observe=np.zeros(3), log_events=True)
    assert got == expected
    assert expected[1] == 0 and expected[10][0][0] == bits(0.0)      # one row, at t = 0


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_a_capped_run_leaves_the_later_rows_unfilled(compiled, engine, w):
    times = np.linspace(0.0, 100.0, 401)
    with contextlib.nullcontext() if compiled else python_loops():
        avg = new_averager(times)
        res = fj.simulate(w, fj.ExponentialJump(), 20, T=100.0, max_events=60, seed=4,
                          engine=engine, observe_times=times, observer=avg, log_events=True)
        log = res.log
        fed = replayed(times, np.zeros(20), res.initial_center, res.final_time,
                       (log.times, log.indices, log.lengths, log.centers))
    assert res.truncated and 2 < avg.rows < len(times) // 10
    assert avg.t[avg.rows - 1] <= res.final_time < times[avg.rows]
    assert rows(avg) == rows(fed)
    assert not avg._counts[avg.rows:].any() and not avg.n[avg.rows:].any()
    got, expected = avg.finalize(), fed.finalize()
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.n_samples == expected.n_samples == 20.0


class NanStart:
    """A start with a NaN position and the finite center 0, which
    initial_state refuses."""

    def __init__(self, n, init, rng):
        self.positions, self.n, self.center = np.array([0.0, math.nan, 0.5]), 3, 0.0


class NanLaggardStart(NanStart):
    """NanStart with a laggard whose weight e^{10^4} overflows in the first
    rebase: the NaN leaf makes the weight total NaN on both loops."""

    def __init__(self, n, init, rng):
        self.positions, self.n, self.center = np.array([0.0, math.nan, -1e4]), 3, 0.0


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("z, start, message", [
    (FixedJump(math.nan), None, "m: must be finite, got nan"),
    (FixedJump(math.inf), None, "m: must be finite, got inf"),
    (fj.ExponentialJump(), NanStart, "positions: must not be NaN")], ids=["nan", "inf", "start"])
def test_an_observation_add_refuses_raises_its_error_and_leaves_no_row(compiled, z, start,
                                                                       message):
    # a center or a position add() refuses stops the in-loop binning: a
    # compiled step exits with EXIT_OBSERVE and add() raises in _drive at that
    # observation, and a Python step's add() raises inside the step
    times = np.linspace(0.0, 10.0, 201)
    with contextlib.nullcontext() if compiled else python_loops(), \
            mock.patch.object(sim, "initial_state", start or sim.initial_state):
        avg = new_averager(times)
        with pytest.raises(DomainError, match=re.escape(message)):
            fj.simulate(fj.StepRate(2.0, 1.0), z, 3, T=10.0, seed=1, engine="bounded",
                        observe_times=times, observer=avg)
    assert (avg.rows == 0) == (start is not None)          # the rows before the first jump stay
    assert not avg._counts[avg.rows:].any() and not avg.n[avg.rows:].any()


@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES[1:], ids=[e for e, _ in ENGINE_FAMILIES[1:]])
@pytest.mark.parametrize("z, start", [(FixedJump(math.nan), None), (FixedJump(math.inf), None),
                                      (fj.ExponentialJump(), NanStart),
                                      (fj.ExponentialJump(), NanLaggardStart)],
                         ids=["nan", "inf", "start", "laggard"])
def test_a_run_that_raises_leaves_the_same_rows_on_both_loops(engine, w, z, start):
    # the bounded step raises at an observation add() refuses, the
    # exponential one at its rate total; the rows filled before are compared
    times = np.linspace(0.0, 10.0, 201)
    with mock.patch.object(sim, "initial_state", start or sim.initial_state):
        expected, got = both(w, z, 3, T=10.0, seed=1, engine=engine, observe=times)
    assert raised(expected) and got == expected
    filled = len(np.frombuffer(expected[2][0][0], float))
    assert (filled == 0) == (start is not None)


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_simulate_refuses_an_observer_that_is_not_an_averager(compiled, engine, w):
    with contextlib.nullcontext() if compiled else python_loops():
        for observer in (lambda t, pos, m: None, object()):
            with pytest.raises(ModelError, match="^observer: must be a measures.TimeAverager, "):
                fj.simulate(w, fj.ExponentialJump(), 5, T=1.0, rng=NoDraws(), engine=engine,
                            observer=observer)


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_an_observed_run_leaves_its_step_only_to_refill_resum_or_stop(compiled, engine, w):
    # ~1000 observation times and no log: the reference step never leaves
    # before the stop, and a batched step leaves once per batch and re-sum
    calls, refills = [0], [0]

    def drive(step, run, engine, state, T, obs, log_events, refill):
        def counted_step():
            calls[0] += 1
            return step()

        def counted_refill():
            refills[0] += 1
            refill()

        return real(counted_step, run, engine, state, T, obs, log_events, counted_refill)

    real = sim._drive
    n, T = (20, 10.0) if engine == "reference" else (50, 400.0)
    times = np.linspace(0.0, T, 1000)
    avg = new_averager(times)
    with contextlib.nullcontext() if compiled else python_loops(), \
            mock.patch.object(sim, "_drive", drive), \
            mock.patch.object(sim, "RESUM_INTERVAL", 10_007):
        res = fj.simulate(w, fj.ExponentialJump(), n, T=T, seed=11, engine=engine,
                          observe_times=times, observer=avg)
    assert avg.rows == len(times) and res.log is None
    if engine == "reference":
        assert res.events > 100 and calls[0] == 1
    else:
        assert refills[0] > 1 and res.resums > 1
        assert calls[0] <= refills[0] + res.resums + 1


@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_simulate_refuses_an_averager_that_cannot_hold_the_run(engine, w):
    small = ms.TimeAverager(-1.0, 1.0, 4, samples=3)
    with pytest.raises(ModelError, match=re.escape(
            "observer: the averager has 3 free rows for 4 observation times")):
        fj.simulate(w, fj.ExponentialJump(), 5, T=1.0, rng=NoDraws(), engine=engine,
                    observer=small, observations=4)
    used = ms.TimeAverager(-1.0, 1.0, 4, samples=8)
    used.add(2.0, [0.0], 0.0)
    with pytest.raises(ModelError, match=re.escape(
            "observer: the averager's last row is at t = 2.0, after the first observation "
            "time 0.0")):
        fj.simulate(w, fj.ExponentialJump(), 5, T=1.0, rng=NoDraws(), engine=engine,
                    observer=used, observations=4)


@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
def test_engine_counters_agree_on_both_loops(engine, w):
    with mock.patch.object(sim, "RESUM_INTERVAL", 13):
        expected, got = both(w, fj.ExponentialJump(), 30, max_events=500, seed=2, engine=engine)
    assert got == expected
    events, proposals, (resums, drift, rebuilds) = expected[1], expected[2], expected[9]
    assert events == 500 and resums == events // 13
    assert 0.0 < np.frombuffer(drift)[0] < 1e-12
    assert rebuilds >= 1 if engine == "exponential" else rebuilds == 0
    assert proposals - events >= 0 and (proposals > events) == (engine == "bounded")


ERROR_CASES = [
    # n = 25: one jump of 10^6 puts exp(beta (m - ref)) past the double range,
    # and the total, 24 e^40000, with it
    ("exponential", fj.ExponentialRate(1.0), np.zeros(25), FixedJump(1e6), 100_000,
     ("StallError", "total jump rate overflowed; configuration too spread out")),
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
    assert got == expected == error + (None,)        # no observer, no rows


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


def test_exponential_tree_is_rebuilt_at_the_start_and_after_every_resum():
    # The step's one trigger, tree[1] < S0 / 2, also fires when _drive sets
    # S0 = inf: at the first event and after each resum, at ref = the
    # re-summed centre. At n = 1000 the total halves only every ~700 events.
    refs = []

    def rebase(pos, tree, leaves, beta, ref):
        refs.append(ref)
        return real(pos, tree, leaves, beta, ref)

    real = sim._rebase
    init = np.random.default_rng(4).uniform(0.0, 1.0, 1000)
    with python_loops(), mock.patch.object(sim, "_rebase", rebase), \
            mock.patch.object(sim, "RESUM_INTERVAL", 13):
        res = fj.simulate(fj.ExponentialRate(1.0), fj.ExponentialJump(), 1000, max_events=200,
                          seed=5, init=init, log_events=True)
    resummed = res.log.centers[12::13].tolist()
    assert len(resummed) == 15
    assert refs == [res.initial_center, *resummed]


def final_tree(n, compiled):
    """The sum tree and leaf count of an exponential run of n particles, read
    from the record that sim._drive is handed, after the run."""
    runs = []

    def drive(step, run, *args):
        runs.append(run)
        return real(step, run, *args)

    real = sim._drive
    # 600 events take about 340 / n time units (600 at n = 1)
    times = np.linspace(0.0, 300.0 / n, 41)
    averager = new_averager(times)
    with contextlib.nullcontext() if compiled else python_loops(), \
            mock.patch.object(sim, "_drive", drive), mock.patch.object(sim, "RESUM_INTERVAL", 13):
        res = fj.simulate(fj.ExponentialRate(1.0), fj.ExponentialJump(), n, max_events=600,
                          seed=n, observe_times=times, observer=averager)
    (run,) = runs
    # two events after the last re-sum's rebuild, and observations binned
    assert res.events == 600 and res.rebuilds > 600 // 13 and averager.rows > 20
    return run.arrays["tree"], run.leaves


@pytest.mark.parametrize("n", [1, 2, 3, 25, 1000])
def test_exponential_tree_is_a_sum_tree_after_a_run(n):
    # Each event carries the new leaf's sum up the tree; every parent must
    # still be the sum of its children to the bit, and the padding stay 0.
    tree, leaves = final_tree(n, compiled=True)
    sums = tree[2:2 * leaves:2] + tree[3:2 * leaves:2]
    assert tree[1:leaves].tobytes() == sums.tobytes()
    assert not tree[leaves + n:].any()
    twin, _ = final_tree(n, compiled=False)
    assert twin.tobytes() == tree.tobytes()


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


# Runs observed at every event time, with re-sums every 13 events, so that
# ties after an accepted event and ties on a re-sum come up on both engines.
TIE_CASES = [(w, fj.ExponentialJump(), 30,
              {"seed": 5, "init": np.linspace(-1.0, 1.0, 30), "engine": engine, "T": 8.0,
               "max_events": 900}, [0.0, 2.5], 1, {"_BATCH": 64, "RESUM_INTERVAL": 13})
             for engine, w in (("bounded", fj.StepRate(2.0, 1.0)),
                               ("exponential", fj.ExponentialRate(1.0)))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(TIE_CASES[0])
@example(TIE_CASES[1])
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
    if raised(expected):
        return
    assert_log_replays(expected, kwargs["init"], constants["RESUM_INTERVAL"])


def assert_log_replays(expected, init, interval):
    """The identities of test_sim's test_logged_centers_track_the_exact_center,
    on the logged outcome of a run from `init`: the log's times strictly
    increase; the centre logged at event interval * k is fsum(positions
    replayed over the start) * (1/n) bit for bit; every other row adds
    length * (1/n) to the centre before it."""
    times, indices, lengths, centers = (np.frombuffer(col, dtype) for col, dtype in
                                        zip(expected[8], (float, np.int64, float, float)))
    assert np.all(np.diff(times) > 0)
    pos, inv_n = init.tolist(), 1.0 / len(init)
    before = np.frombuffer(expected[5], float)[0]
    for k, (i, length, center) in enumerate(zip(indices, lengths, centers), start=1):
        pos[i] += length
        exact = math.fsum(pos) * inv_n if k % interval == 0 else before + length * inv_n
        assert center == exact, (k, center, exact)
        before = center


# Starts whose sum is hard to get exactly: cancellation, absorption, the
# double range's ends, subnormals, and non-finite values (refused up front).
ADVERSARIAL_STARTS = [
    [0.0], [-0.0], [1e-16, 1.0, 1e16], [1.0, 1e100, 1.0, -1e100],
    [2.0**53, 1.0, -2.0**53], [2.0**53, -0.5, -2.0**-54], [1e308, 1e308, -1e308],
    [math.inf, -math.inf], [math.inf, 1.0], [math.nan, 1.0], [math.inf, math.nan],
    [5e-324, 5e-324, -5e-324], [2.2250738585072014e-308, -5e-324] * 3,
    [0.1] * 10, [1.0, -1e-16, 1e-32], [1.7976931348623157e308, 9.979201547673598e291],
]


@pytest.mark.parametrize("engine, w", ENGINE_FAMILIES, ids=[e for e, _ in ENGINE_FAMILIES])
@pytest.mark.parametrize("start", ADVERSARIAL_STARTS)
def test_resum_after_every_event_is_exact_from_adversarial_starts(engine, w, start):
    # With RESUM_INTERVAL = 1 every event exits to _drive's math.fsum resum,
    # and the exponential step rebuilds its tree before every event. Both
    # loops show the same run or raise the same error (a non-finite start,
    # an overflowing resum or overflowing weights); a run's log replays.
    init = np.array(start)
    with mock.patch.object(sim, "RESUM_INTERVAL", 1), np.errstate(all="ignore"):
        expected, got = both(w, fj.ExponentialJump(), len(init), max_events=40, seed=3,
                             init=init, engine=engine, log_events=True)
    assert got == expected
    if raised(expected):
        assert expected[0] in ("DomainError", "OverflowError", "StallError")
        return
    assert expected[1] == 40
    assert_log_replays(expected, init, 1)


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
    """Equal grids and times, bit for bit, and equal counts of the cells
    trimmed and added; values, mass, mean and speed within tol, relative to
    the largest value and to max(1, |mean|, |speed|)."""
    (f1, d1), (f2, d2) = expected, got
    assert np.array_equal(f1.grid, f2.grid)
    assert (d1.trims, d1.added) == (d2.trims, d2.added)
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


@contextlib.contextmanager
def advances():
    """The (window length, exit, widen, grow) of each `_Euler.advance` call
    that returns, in order. On the kernel each is one fj_pde call."""
    calls, advance = [], mf._Euler.advance

    def spy(self, steps, t):
        n = len(self.grid)
        done, t, code = advance(self, steps, t)
        calls.append((n, code, self.widen, self.grow))
        return done, t, code

    with mock.patch.object(mf._Euler, "advance", spy):
        yield calls


@pytest.mark.parametrize("right", [12.0, 11.98], ids=["odd", "even"])
def test_pde_kernel_matches_numpy_step_when_the_right_edge_widens(right):
    # the Laplace tail reaches the right edge: both steps widen it alike, from
    # 751 or 750 nodes through windows of both parities, so the node the
    # kernel's pass runs alone at an odd end comes and goes mid-run
    w = fj.StepRate(2.0, 1.0)
    field, dt = gaussian_start(w, left=-3.0, right=right, center=-2.5, sigma=1.0)
    with python_loops():
        expected = pde_outcome(field, w, T=2.0, dt=dt, samples=20)
    with advances() as calls:
        got = pde_outcome(field, w, T=2.0, dt=dt, samples=20)
    assert_pde_close(expected, got)
    assert got[0].grid[-1] - got[0].mean > 2 * (field.grid[-1] - field.mean)
    lengths = [n for n, *_ in calls]
    assert lengths[0] == len(field.grid) and {n % 2 for n in lengths} == {0, 1}


@pytest.mark.parametrize("w", PDE_FAMILIES, ids=PDE_IDS)
def test_pde_kernel_leaves_only_to_sample_on_a_waves_run(w):
    # the waves benchmark's run: the mean of a narrow Gaussian passes 150-180
    # empty cells by T = 2, and fj_pde trims each of them inside its run of
    # steps, so it returns only when one of the 10 samples is due
    samples, h = 10, 0.02
    field = mf.DensityField.gaussian(np.arange(-6.0, 40.0 + h / 2, h), sigma=0.1)
    dt = min(1e-3, 0.25 / float(w.rate(field.grid[0])))
    with python_loops():
        expected = pde_outcome(field, w, T=2.0, dt=dt, samples=samples)
    with advances() as calls:
        got = pde_outcome(field, w, T=2.0, dt=dt, samples=samples)
    assert len(calls) <= samples + 1
    assert {code for _, code, *_ in calls} == {kernel.PDE_STEPS}
    assert got[0].grid.tobytes() == expected[0].grid.tobytes()
    assert got[1].trims == expected[1].trims > 100
    assert_pde_close(expected, got)


def test_pde_window_grows_right_after_a_trim_on_both_paths():
    # dt = 0.1 moves the mean about 7 cells a step, and the window's last
    # unit of length, 3 ahead of the mean, takes up the bulk's jumps: the
    # first steps each trim the left edge and then find the window must grow
    w = fj.StepRate(2.0, 1.0)
    field = mf.DensityField.gaussian(np.arange(-2.0, 3.01, 0.02), sigma=0.1)
    with python_loops(), advances() as expected_calls:
        expected = pde_outcome(field, w, T=2.0, dt=0.1, samples=2)
    with advances() as calls:
        got = pde_outcome(field, w, T=2.0, dt=0.1, samples=2)
    assert_pde_close(expected, got)
    assert got[1].trims == expected[1].trims > 0
    assert calls == expected_calls
    assert (len(field.grid), kernel.PDE_GROW, 0, len(field.grid) // 2) in calls


def test_pde_window_widens_and_grows_in_one_exit_on_both_paths():
    # the left edge carries mass and dt = 0.1 moves the mean 5-9 cells a
    # step, 2.5 from the right edge: the first steps each widen the window
    # and then find that the widened window's last unit must grow too
    w = fj.StepRate(2.0, 1.0)
    field = mf.DensityField.gaussian(np.arange(-1.0, 2.01, 0.02), center=-0.5, sigma=0.3)
    with python_loops(), advances() as expected_calls:
        expected = pde_outcome(field, w, T=2.0, dt=0.1, samples=2)
    with advances() as calls:
        got = pde_outcome(field, w, T=2.0, dt=0.1, samples=2)
    assert_pde_close(expected, got)
    assert calls == expected_calls
    n, code, widen, grow = calls[0]
    assert code == kernel.PDE_GROW and widen > 0 and grow == (n + widen) // 2
    assert got[0].grid[0] == field.grid[0] and got[1].trims == 0
    assert got[1].added == sum(widen + grow for *_, widen, grow in calls)
    assert len(got[0].grid) == len(field.grid) + got[1].added


TRIMS, WIDENS, TRIMS_AND_GROWS = range(3)      # how one step moves the window


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
@pytest.mark.parametrize("h, k, right, moves", [
    (0.02, 1, 25.0, TRIMS), (0.02, 3, 25.0, TRIMS),
    (0.02, 8, 2.0, TRIMS_AND_GROWS), (0.02, 9, 25.0, TRIMS),
    (0.02, 130, 25.0, TRIMS), (0.005, 17, 2.0, TRIMS_AND_GROWS),
    (0.005, 300, 25.0, TRIMS), (0.02, 300, 25.0, WIDENS)])
def test_pde_trim_is_the_numpy_trim_of_the_step(compiled, h, k, right, moves):
    # one step from a Gaussian whose cells left of -3.5 are at most 1e-30,
    # once with the window held still and once with offset0 placed k + 1/2
    # cells behind the mean the step leaves: the second drops the first k
    # cells of the first's values, adding their sum in index order to the
    # trimmed mass, then tests the window's last unit (50 or 200 cells) for
    # growth; 300 cells at h = 0.02 reach past -3.5, so the window must widen
    # by k cells instead. Left of -4 the values are 0.5e-31 to 2.5e-31, so the
    # order of the sum shows in its last bits. Both runs end with the
    # right-edge test, which the held window's last unit fails at right = 2.
    w = fj.StepRate(2.0, 1.0)
    grid = np.arange(-8.0, right, h)
    values = mf.DensityField.gaussian(grid, sigma=0.3).values
    field = mf.DensityField(grid, np.where(grid < -4.0, 1e-31 * (1.5 + np.sin(37.0 * grid)),
                                           values))
    n, widens, grows = len(grid), moves == WIDENS, moves == TRIMS_AND_GROWS
    with contextlib.nullcontext() if compiled else python_loops():
        held = mf._Euler(w, field.grid, field.values, 1e-3)
        held.offset0 = math.inf
        assert held.advance(1, 0.0)[2] == (kernel.PDE_GROW if right < 3 else kernel.PDE_STEPS)
        euler = mf._Euler(w, field.grid, field.values, 1e-3)
        euler.offset0 = offset0 = held.m - field.grid[0] - (k + 0.5) * h
        code = euler.advance(1, 0.0)[2]
    assert (euler._run is not None) == compiled
    assert (held.widen, held.grow) == (0, n // 2 if right < 3 else 0)
    assert held.grid.tobytes() == field.grid.tobytes()
    assert bits(euler.m) == bits(held.m) and bits(euler.mass) == bits(held.mass)
    assert code == (kernel.PDE_GROW if widens or grows else kernel.PDE_STEPS)
    assert (euler.widen, euler.grow) == (k if widens else 0, n // 2 if grows else 0)
    if widens:
        assert bits(euler.offset0) == bits(offset0 + k * euler.h)
        assert euler.grid.tobytes() == field.grid.tobytes()
        assert euler.values.tobytes() == held.values.tobytes()
        assert (euler.trims, euler.trimmed) == (0, 0.0)
        return
    v = held.values
    assert euler.grid.tobytes() == (field.grid + k * euler.h).tobytes()
    assert euler.values.tobytes() == np.concatenate([v[k:], np.zeros(k)]).tobytes()
    assert euler.trims == k and bits(euler.trimmed) == bits(float(np.cumsum(v[:k])[-1]))
    last_unit = euler.h * np.cumsum(euler.values[-euler.edge:])[-1]
    assert (last_unit > mf.RIGHT_EDGE_SHARE * euler.mass) == grows


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("w", PDE_FAMILIES, ids=PDE_IDS)
def test_pde_kernel_matches_numpy_step_on_short_windows(w, n):
    # the kernel runs its pass two nodes at a time and an odd window's last
    # node alone; these windows also widen by half at each sample
    grid = 0.25 * np.arange(n) - 0.5
    field = mf.DensityField(grid, 1.0 + np.arange(n) % 3)
    dt = 0.2 / float(w.rate(grid[0] - field.mean))
    expected, got = pde_both(field, w, T=8 * dt, dt=dt, samples=4)
    assert_pde_close(expected, got)


def kernel_euler(w, field, dt):
    """An _Euler on the kernel, for a look at its rate table after a run."""
    euler = mf._Euler(w, field.grid, field.values, dt)
    assert euler._run is not None
    return euler


@pytest.mark.parametrize("left, right, parities", [
    (-0.25, 25.0, (0, 0, 1)), (-0.27, 25.0, (0, 1, 1)),
    (-23.4, 25.0, (0, 0, 1)), (-23.42, 25.02, (1, 0, 0))],
    ids=["right", "right-odd", "both", "both-odd"])
def test_pde_kernel_matches_numpy_step_inside_the_clamp_margin(left, right, parities):
    # beta = 30: the nodes more than 699/30 from the table's ref, here the
    # window's far right (and far left), keep the direct clipped rate; the
    # kernel's three segments [0, lo), [lo, hi) and [hi, len) each run in
    # pairs, and across these grids each has an odd length once
    w = fj.ExponentialRate(30.0)
    field, dt = gaussian_start(w, left=left, right=right, sigma=0.02)
    T = 0.02 if left > -1.0 else 10 * dt
    expected, got = pde_both(field, w, T=T, dt=dt, samples=4)
    assert_pde_close(expected, got)
    euler = kernel_euler(w, field, dt)
    assert euler.advance(1, 0.0)[2] == kernel.PDE_STEPS       # no trim has reset the table
    run, edge = euler._run, (model.EXP_CLAMP - 1.0) / w.beta
    assert run.hi < len(field.grid) and field.grid[run.hi] - run.ref >= edge
    assert field.grid[run.hi - 1] - run.ref < edge
    assert (run.lo > 0) == (left < -1.0)
    assert (run.lo % 2, (run.hi - run.lo) % 2, (len(field.grid) - run.hi) % 2) == parities
    if run.lo:
        assert field.grid[run.lo - 1] - run.ref <= -edge < field.grid[run.lo] - run.ref


@pytest.mark.parametrize("w", [fj.ArccotRate(), fj.ExponentialRate(1.0)], ids=["arccot", "exp"])
def test_pde_kernel_rebuilds_its_rate_table_within_one_call(w):
    # h = 0.05, dt = 0.005: the mean moves 0.008-0.009 a step and passes the
    # table's bound of 1/32 before it moves a cell, so the table is rebuilt
    # inside one run of steps
    field, _ = gaussian_start(w, left=-3.0, h=0.05, sigma=0.3)
    dt = 0.005
    expected, got = pde_both(field, w, T=0.5, dt=dt, samples=3)
    assert_pde_close(expected, got)
    euler = kernel_euler(w, field, dt)
    m0 = euler.m
    _, _, code = euler.advance(10**6, 0.0)
    assert code == kernel.PDE_GROW and euler.widen > 0 and euler.trims == 0
    assert euler._run.ref - m0 > 1.0 / 32


def test_pde_kernel_matches_numpy_step_for_arccot_far_from_the_mean():
    # arccot nodes up to 1e3 from the mean, where atan(u) is 1e-3 from pi/2
    w = fj.ArccotRate()
    field = mf.DensityField.gaussian(np.arange(-1000.0, 1000.25, 0.5), sigma=2.0)
    dt = 0.2 / float(w.rate(field.grid[0] - field.mean))
    expected, got = pde_both(field, w, T=3.0, dt=dt, samples=5)
    assert_pde_close(expected, got)
    assert got[0].grid[-1] - got[0].mean > 990.0


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


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
def test_pde_step_keeps_its_window(compiled):
    # one step of dt = 0.01 moves the mean 3 cells of h = 0.005 past empty
    # left cells: pde_integrate trims them, pde_step keeps its window
    w, h, dt = fj.StepRate(2.0, 1.0), 0.005, 0.01
    field = mf.DensityField.gaussian(np.arange(-4.0, 12.0, h), sigma=0.3)
    with contextlib.nullcontext() if compiled else python_loops():
        stepped = mf.pde_step(field, w, dt)
        integrated, diag = mf.pde_integrate(field, w, T=dt, dt=dt)
    assert stepped.mean - field.mean > 2 * h and diag.trims >= 2
    assert stepped.grid.tobytes() == field.grid.tobytes()
    k = diag.trims
    assert abs(integrated.grid[0] - field.grid[k]) < 1e-12
    assert stepped.values[k:].tobytes() == integrated.values[:len(field.grid) - k].tobytes()


def test_pde_run_ends_at_the_rounded_step_count():
    # T / dt = 111.1 rounds to 111 steps, so the run ends at 0.999
    w = fj.StepRate(2.0, 1.0)
    field, _ = gaussian_start(w)
    (f1, d1), (f2, d2) = pde_both(field, w, T=1.0, dt=0.009, samples=3)
    assert bits(f1.time) == bits(f2.time) == bits(d2.t[-1])
    assert abs(f2.time - 0.999) < 1e-12


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


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
def test_pde_refuses_a_grid_that_is_not_uniform(compiled):
    # two spacings: the jump kernel and the kernel's trapezoid hold for one;
    # run anyway, the mass went from 1.0 to 1.31 by T = 0.5
    grid = np.concatenate([np.arange(-3.0, 0.0, 0.02), np.arange(0.0, 6.0, 0.05)])
    field = mf.DensityField.gaussian(grid, sigma=0.3)
    w = fj.StepRate(2.0, 1.0)
    message = "grid must be increasing with uniform spacing: its steps are 0.02 to 0.05"
    with contextlib.nullcontext() if compiled else python_loops(), \
            mock.patch.object(mf._Euler, "advance", side_effect=AssertionError):
        with pytest.raises(DomainError, match=message):
            mf.pde_integrate(field, w, T=0.5, dt=1e-3)
        with pytest.raises(DomainError, match=message):
            mf.pde_step(field, w, 1e-3)


@pytest.mark.parametrize("a", [-1e4, -37.3, 0.1, 1e4])
@pytest.mark.parametrize("h", [0.005, 0.02, 0.3])
def test_pde_kernel_matches_numpy_step_on_uniform_grids_far_from_zero(a, h):
    # a + h arange(k), rounded node by node, is uniform enough, and the
    # kernel's uniform trapezoid agrees with np.trapezoid's cell widths there
    w = fj.StepRate(2.0, 1.0)
    grid = a + h * np.arange(round(12.0 / h))
    field = mf.DensityField.gaussian(grid, center=a + 3.0, sigma=0.5)
    dt = 0.2 / float(w.rate(grid[0] - field.mean))
    expected, got = pde_both(field, w, T=20 * dt, dt=dt, samples=4)
    assert_pde_close(expected, got)


BAD_PDE_TIMES = [
    ({"dt": -1e-3}, "dt must be finite and > 0, got -0.001"),
    ({"dt": 0.0}, "dt must be finite and > 0, got 0.0"),
    ({"dt": math.nan}, "dt must be finite and > 0, got nan"),
    ({"dt": math.inf}, "dt must be finite and > 0, got inf"),
    ({"T": -1.0}, "T must be finite and >= 0, got -1.0"),
    ({"T": math.nan}, "T must be finite and >= 0, got nan"),
    ({"T": math.inf}, "T must be finite and >= 0, got inf"),
    ({"T": 10**400}, f"T must be finite and >= 0, got {10**400}"),      # ints past the float range
    ({"dt": 10**400}, f"dt must be finite and > 0, got {10**400}"),
    ({"T": 0.04}, "T=0.04 rounds to zero steps of dt=0.1"),       # dt = 0.1 below
    ({"T": 0.05}, "T=0.05 rounds to zero steps of dt=0.1"),       # a half rounds to even
]


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
@pytest.mark.parametrize("bad, message", BAD_PDE_TIMES,
                         ids=[str(b).replace(str(10**400), "10**400") for b, _ in BAD_PDE_TIMES])
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


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
@pytest.mark.parametrize("samples", [2.5, None, -3, 0, True, "10"])
def test_pde_refuses_a_bad_samples_before_any_step(compiled, samples):
    w = fj.StepRate(2.0, 1.0)
    field, dt = gaussian_start(w)
    with contextlib.nullcontext() if compiled else python_loops(), \
            mock.patch.object(mf._Euler, "advance", side_effect=AssertionError):
        with pytest.raises(DomainError, match=re.escape(
                f"samples: must be an integer >= 1, got {samples!r}")):
            mf.pde_integrate(field, w, T=0.1, dt=dt, samples=samples)


def test_a_step_that_overflows_fails_on_both_paths():
    # finite values and mass whose jump flux overflows in the first step
    grid = np.linspace(0.0, 1.5, 16)
    field = mf.DensityField(grid, np.full_like(grid, 6e307))
    with np.errstate(all="ignore"):
        expected, got = pde_both(field, fj.StepRate(2.0, 1.0), T=0.01, dt=1e-3)
    assert expected[0] == "DomainError" and "not finite at t=0.001" in expected[1]
    assert got == expected


def test_a_density_whose_node_sum_overflows_runs_on_both_paths():
    # the kernel's running sums of v_j pass the largest double here, while
    # the trapezoid mass, h times them, is 1e306: it redoes them cell by
    # cell, as np.trapezoid forms them, and runs on
    grid = np.linspace(0.0, 4.995, 1000)
    field = mf.DensityField(grid, np.full_like(grid, 2e305))
    (f1, d1), (f2, d2) = pde_both(field, fj.StepRate(2.0, 1.0), T=0.01, dt=1e-3, samples=2)
    assert np.array_equal(f1.grid, f2.grid) and d1.t.tobytes() == d2.t.tobytes()
    for a, b in ((f1.values, f2.values), (d1.mass, d2.mass), (d1.mean, d2.mean)):
        np.testing.assert_allclose(b, a, rtol=1e-12)
    assert 0.99e306 < d2.mass[-1] < 1e306


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


# ---------------------------------------------------------------------------
# histogram binning
# ---------------------------------------------------------------------------


@st.composite
def observations(draw):
    """(positions, m, a0, a1, nbins) whose centered positions x - m fall on
    the window's edges and interior bin edges a0 + k h, just under a1 (where
    (x - m - a0) / h can round up to nbins), far outside it, at +-inf or
    NaN, around centers as large as 1e15."""
    nbins = draw(st.integers(1, 300))
    a0 = draw(st.floats(-50.0, 50.0))
    a1 = a0 + draw(st.floats(1e-3, 100.0))
    h = (a1 - a0) / nbins
    m = draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.floats(-1e15, 1e15),
                       st.sampled_from([1e15, -1e15, 2.0 ** 50 + 0.5])))
    centered = st.one_of(
        st.sampled_from([a0, a1, math.nextafter(a1, -math.inf), math.nextafter(a0, -math.inf)]),
        st.integers(0, nbins).map(lambda k: a0 + k * h),
        st.floats(a0, a1),
        st.floats(allow_nan=False),
        st.sampled_from([math.inf, -math.inf, math.nan]))
    positions = draw(st.lists(centered.map(lambda c: c + m), min_size=1, max_size=60))
    return np.array(positions), m, a0, a1, nbins


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(observations())
@example((np.array([math.nextafter(1.0, 0.0)]), 0.0, 0.0, 1.0, 3))   # quotient 3.0: clipped
@example((np.array([1e15 + 0.125, 1e15 - 10.0, 1e15 + 10.0]), 1e15, -10.0, 10.0, 64))
def test_fj_bounded_bins_an_observation_as_the_numpy_body(case):
    # observe, inside fj_bounded, bins the observation at t = 0 before the
    # step's one proposal, at t = 1, which the step rate (0, 0) never accepts
    positions, m, a0, a1, nbins = case
    expected = np.zeros(nbins)
    below, above, unbinned = ms._numpy_bins(positions, m, a0, a1, nbins, expected)
    averager = ms.TimeAverager(a0, a1, nbins, samples=1)

    class NeverAccepts(model.RateFamily):
        def kernel_rate(self):
            return "step", (0.0, 0.0)

    run = kernel.Run(n=positions.size, inv_n=1.0 / positions.size, horizon=math.inf,
                     max_events=-1, resum_interval=1, a=1.0, lam=1.0, m=m, n_obs=1,
                     next_obs=0.0, batch=1)
    lib = kernel.bind_rate(run, NeverAccepts())
    run.bind(pos=positions.copy(), obs_t=np.zeros(1), waits=np.ones(1),
             targets=np.zeros(1, dtype=np.int64), uniforms=np.ones(1), lengths=np.ones(1))
    averager.bind(run)
    code = lib.fj_bounded(ctypes.byref(run))
    assert averager._counts[0].tobytes() == expected.tobytes()
    assert run.events == 0
    if unbinned:
        assert (code, run.proposals, averager.rows) == (kernel.EXIT_OBSERVE, 0, 0)
    else:
        assert (code, run.proposals, averager.rows) == (kernel.EXIT_BATCH, 1, 1)
        assert (averager.below[0], averager.above[0]) == (below, above)
        assert (averager.t[0], averager.m[0], averager.n[0]) == (0.0, m, positions.size)
    assert expected.sum() + below + above + unbinned == positions.size


BAD_HISTOGRAMS = [
    (([], 0.0, -1.0, 1.0), "positions:"),
    (([0.0], 0.0, -1.0, 1.0, 2.5), "nbins:"),
    (([0.0], 0.0, -1.0, 1.0, True), "nbins:"),
    (([0.0], 0.0, -1.0, 1.0, 0), "nbins:"),
    (([0.0, math.nan], 0.0, -1.0, 1.0), "positions:"),
    (([0.0], math.nan, -1.0, 1.0), "m:"),
    (([0.0], math.inf, -1.0, 1.0), "m:"),
    (([0.0], 0.0, 1.0, -1.0), "a0, a1:"),
    (([0.0], 0.0, -math.inf, 1.0), "a0, a1:"),
    (([0.0], 0.0, -1e308, 1e308, 2), "a0, a1:"),      # the bin width overflows
    (([0.0], 0.0, 0.0, 5e-324, 3), "a0, a1:"),        # the bin width underflows to 0
    (([0.0], 0.0, -1.0, 10**400), "a0, a1:"),         # ints past the float range
    (([0.0], 0.0, -10**400, 1.0), "a0, a1:"),
    (([0.0], 10**400, -1.0, 1.0), "m:"),
]


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
@pytest.mark.parametrize("args, name", BAD_HISTOGRAMS, ids=[n for _, n in BAD_HISTOGRAMS])
def test_build_histogram_names_the_bad_argument(compiled, args, name):
    with contextlib.nullcontext() if compiled else python_loops():
        with pytest.raises(DomainError) as exc:
            ms.build_histogram(*args)
    assert str(exc.value).startswith(name)


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "python"])
def test_refused_observation_leaves_the_averager_as_it_was(compiled):
    with contextlib.nullcontext() if compiled else python_loops():
        avg = ms.TimeAverager(0.0, 1.0, 2, samples=2)
        with pytest.raises(DomainError, match="positions"):
            avg.add(0.0, [0.1, 0.6, math.nan], 0.0)
        assert avg.add(0.0, [0.9], 0.0) == 0
    assert avg.finalize().counts.tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# traveling-wave residual
# ---------------------------------------------------------------------------


def random_table(rng):
    """A 4-knot table as perfbench's `waves` workload draws one: knots moved
    by up to 0.15 and values scaled by up to 7%."""
    knots = np.array([-1.5, -0.5, 0.5, 1.5]) + rng.uniform(-0.15, 0.15, 4)
    values = np.array([2.5, 2.0, 1.4, 1.0]) * rng.uniform(0.93, 1.07, 4)
    return fj.TabulatedRate(grid=tuple(knots), values=tuple(np.sort(values)[::-1]))


# (rate, speed or None for wave_speed); step and piecewise-linear with a < 1.2 b
# have profiles over 1000 units wide
WAVE_CASES = {
    "step": (fj.StepRate(2.0, 1.0), 1.5),
    "pwl": (fj.PiecewiseLinearRate(2.0, 1.0), 1.5),
    "arccot": (fj.ArccotRate(), 0.5 * math.pi),
    "exponential": (fj.ExponentialRate(1.0), None),
    "tabulated": (fj.TabulatedRate(grid=(-1.5, -0.5, 0.5, 1.5), values=(2.5, 2.0, 1.4, 1.0)),
                  None),
    "two-point-table": (fj.TabulatedRate(grid=(-1.0, 1.0), values=(2.0, 1.0)), 1.5),
    "random-table": (random_table(np.random.default_rng(22)), None),
    "step-narrow": (fj.StepRate(1.18, 1.0), 1.09),
    "pwl-narrow": (fj.PiecewiseLinearRate(1.18, 1.0), 1.09),
}


def wave_case(name):
    w, c = WAVE_CASES[name]
    return w, (mf.wave_speed(w) if c is None else c)


def compiled_wave_residual(w, c, **kwargs):
    """wave_equation_residual with the numpy body barred."""
    with mock.patch.object(mf, "_numpy_wave_residual", side_effect=AssertionError):
        return mf.wave_equation_residual(w, c, **kwargs)


@pytest.mark.parametrize("name", WAVE_CASES)
def test_wave_residual_kernel_matches_numpy_body(name):
    w, c = wave_case(name)
    expected = mf._numpy_wave_residual(w, c, 0.002, 50.0)
    got = compiled_wave_residual(w, c)
    assert abs(got - expected) <= 1e-12
    assert got <= 1e-6


@pytest.mark.parametrize("h", [None, 0.001, 1 / 260, 0.004, 0.01, 0.05])
@pytest.mark.parametrize("name", ["arccot", "tabulated", "step", "exponential"])
def test_wave_residual_kernel_matches_numpy_body_at_other_spacings(name, h):
    w, c = wave_case(name)
    with python_loops():
        expected = mf.wave_equation_residual(w, c, h=h, drop=40.0)
    assert abs(compiled_wave_residual(w, c, h=h, drop=40.0) - expected) <= 1e-12


def test_failed_build_falls_back_to_the_numpy_residual():
    w, c = wave_case("tabulated")
    expected = mf._numpy_wave_residual(w, c, 0.002, 50.0)
    with python_loops():
        assert kernel.load() is None
        assert bits(mf.wave_equation_residual(w, c)) == bits(expected)
    # a family with no C rate runs the numpy body too
    with mock.patch.object(fj.TabulatedRate, "kernel_rate", return_value=None):
        assert bits(mf.wave_equation_residual(w, c)) == bits(expected)
    assert kernel.load() is not None                  # the real compiler's build is kept


@pytest.mark.parametrize("name", ["step", "pwl", "arccot", "exponential", "tabulated"])
def test_wave_residual_sees_a_profile_one_percent_off_its_rate(name):
    # the profile from an integral 1% up, the equation with the true rate: no
    # c makes that a wave, and the residual must say so. It is the numpy
    # body's, which reads the family's integral(); the kernel reads the same
    # parameters for w and the integral and matches that body to 1e-12
    # (test_wave_residual_kernel_matches_numpy_body).
    w, c = wave_case(name)
    integral = type(w).integral
    mf._normalization.cache_clear()
    try:
        with mock.patch.object(type(w), "integral", lambda self, x: 1.01 * integral(self, x)):
            assert mf._numpy_wave_residual(w, c, 0.002, 50.0) > 1e-4
    finally:
        mf._normalization.cache_clear()


def scaled_normalization(log_factor):
    """A stand-in for mean_field._normalization that scales the profile by
    e^log_factor."""
    normalization = mf._normalization

    def scaled(w, c, drop):
        log_norm, x_lo, x_hi = normalization(w, c, drop)
        return log_norm + log_factor, x_lo, x_hi

    return mock.patch.object(mf, "_normalization", scaled)


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
def test_a_nan_in_the_wave_residual_comes_back_as_nan(compiled):
    # a profile of mass 1.5e308: the stencil's 8 rho overflows near the peak,
    # where -inf + inf is NaN, while the mass and every rho stay finite
    w = fj.StepRate(2.0, 1.0)
    with contextlib.nullcontext() if compiled else python_loops(), \
            scaled_normalization(math.log(1.5e308)), np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(mf.wave_equation_residual(w, 1.5))


BAD_WAVES = [
    ({"h": 0.0}, DomainError, "h must be finite and > 0"),
    ({"h": math.nan}, DomainError, "h must be finite and > 0"),
    ({"c": 2.5}, mf.NonIntegrableError, "must lie strictly inside"),
    ({"c": math.nan}, mf.NonIntegrableError, "must lie strictly inside"),
    ({"h": 100.0}, DomainError, "h = 100.0 leaves no profile node"),    # none clears the knot
]


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
@pytest.mark.parametrize("bad, error, message", BAD_WAVES, ids=[str(b) for b, _, _ in BAD_WAVES])
def test_wave_residual_raises_what_the_numpy_body_raises(compiled, bad, error, message):
    args = {"c": 1.5, **bad}
    with contextlib.nullcontext() if compiled else python_loops():
        with pytest.raises(error, match=message):
            mf.wave_equation_residual(fj.StepRate(2.0, 1.0), **args)


@pytest.mark.parametrize("compiled", [True, False], ids=["kernel", "numpy"])
def test_a_profile_that_underflows_is_not_normalizable_on_both_paths(compiled):
    with contextlib.nullcontext() if compiled else python_loops(), \
            scaled_normalization(-1000.0):
        with pytest.raises(mf.NonIntegrableError, match="not normalizable on the requested grid"):
            mf.wave_equation_residual(fj.StepRate(2.0, 1.0), 1.5)
