import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flockjump as fj
from flockjump import measures as ms
from flockjump.model import DomainError, ModelError


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------


def test_default_bin_rule():
    assert ms.default_bins(10_000) == 200
    assert ms.default_bins(1000) == math.ceil(2 * math.sqrt(1000))


def test_histogram_basic_counting():
    pos = np.array([0.0, 0.5, 1.5, 9.99, -10.5, 10.0])
    h = ms.build_histogram(pos, 0.0, -10.0, 10.0, nbins=20)
    assert h.nbins == 20 and h.h == 1.0
    assert h.out_below == 1          # -10.5
    assert h.out_above == 1          # 10.0, bins are right-open
    # mass identity is an exact counting identity
    assert h.values.sum() * h.h + h.out_count / h.n_samples == pytest.approx(1.0, abs=1e-15)
    assert 1.0 - h.out_count / h.n_samples == pytest.approx(4 / 6)      # inside fraction


def test_histogram_all_in_one_bin():
    pos = np.full(50, 0.25)
    h = ms.build_histogram(pos, 0.0, 0.0, 1.0, nbins=2)
    assert h.values[0] == pytest.approx(1.0 / h.h)
    assert h.values[1] == 0.0


def test_histogram_left_closed_bins():
    h = ms.build_histogram(np.array([0.0, 1.0]), 0.0, 0.0, 2.0, nbins=2)
    assert h.values[0] == h.values[1]      # 1.0 lands in the second bin


def test_histogram_centering():
    pos = np.array([5.0, 6.0, 7.0])
    h = ms.build_histogram(pos, 6.0, -2.0, 2.0, nbins=4)
    assert h.out_count == 0
    assert h.cdf_at_edges()[-1] == pytest.approx(1.0)


def test_histogram_window_validation():
    with pytest.raises(DomainError):
        ms.build_histogram(np.zeros(3), 0.0, 1.0, -1.0)


def time_average(times, positions, burn_in=0.0):
    avg = ms.TimeAverager(0.0, 1.0, 2, samples=len(times), burn_in=burn_in)
    for t, pos in zip(times, positions):
        avg.add(t, np.array([pos]), 0.0)
    return avg.finalize()


def one(pos):
    return ms.build_histogram(np.array([pos]), 0.0, 0.0, 1.0, nbins=2)


def test_time_average_single_and_equal_weights():
    h1, h2, h3 = one(0.1), one(0.9), one(0.5)
    single = time_average([3.0], [0.1])
    assert np.array_equal(single.values, h1.values)
    avg = time_average([0.0, 1.0], [0.1, 0.9])
    assert np.allclose(avg.values, 0.5 * (h1.values + h2.values))
    # equispaced samples: interior full weight, endpoints half (time integral
    # of the piecewise-constant interpolation)
    avg3 = time_average([0.0, 1.0, 2.0], [0.1, 0.9, 0.5])
    assert np.allclose(avg3.values,
                       0.25 * h1.values + 0.5 * h2.values + 0.25 * h3.values)


def test_time_average_requires_order():
    avg = ms.TimeAverager(0.0, 1.0, 2, samples=2)
    avg.add(1.0, [0.1], 0.0)
    with pytest.raises(ModelError):
        avg.add(0.5, [0.1], 0.0)


def test_time_average_burn_in():
    avg = time_average([0.0, 10.0, 11.0], [0.1, 0.9, 0.9], burn_in=5.0)
    assert np.array_equal(avg.values, one(0.9).values)


def test_time_average_keeps_burn_in_rows_for_histogram():
    avg = ms.TimeAverager(0.0, 1.0, 2, samples=3, burn_in=5.0)
    rows = [avg.add(t, [x], 0.0) for t, x in ((0.0, 0.1), (10.0, 0.9), (11.0, 0.9))]
    assert rows == [0, 1, 2]
    assert np.array_equal(avg.histogram(0).values, one(0.1).values)
    with pytest.raises(ModelError, match="all are taken"):
        avg.add(12.0, [0.5], 0.0)


def test_time_average_without_samples_after_burn_in():
    avg = ms.TimeAverager(0.0, 1.0, 2, samples=1, burn_in=5.0)
    avg.add(1.0, [0.1], 0.0)
    with pytest.raises(ModelError, match="no histogram samples"):
        avg.finalize()


def reference_average(times, hists):
    """The time average as a loop over per-sample histograms, adding each
    weighted histogram in sample order."""
    t = np.asarray(times)
    weights = np.empty_like(t)
    weights[0] = 0.5 * (t[1] - t[0])
    weights[-1] = 0.5 * (t[-1] - t[-2])
    weights[1:-1] = 0.5 * (t[2:] - t[:-2])
    total = weights.sum()
    values = np.zeros_like(hists[0].values)
    counts = np.zeros_like(hists[0].values)
    below = above = nsamp = 0.0
    for wgt, hh in zip(weights, hists):
        values += wgt * hh.values
        counts += wgt * hh.counts
        below += wgt * hh.out_below
        above += wgt * hh.out_above
        nsamp += wgt * hh.n_samples
    return values / total, counts / total, below / total, above / total, nsamp / total


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 60), st.integers(1, 40), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_time_average_is_the_sample_order_loop_to_the_bit(samples, nbins, n, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(size=samples))
    avg = ms.TimeAverager(-2.0, 3.0, nbins, samples=samples)
    hists = []
    for t in times:
        pos, m = rng.normal(0.0, 2.0, n), float(rng.normal())
        avg.add(t, pos, m)
        hists.append(ms.build_histogram(pos, m, -2.0, 3.0, nbins))
    got = avg.finalize()
    values, counts, below, above, nsamp = reference_average(times, hists)
    assert got.values.tobytes() == values.tobytes()
    assert got.counts.tobytes() == counts.tobytes()
    assert (got.out_below, got.out_above, got.n_samples) == (below, above, nsamp)


# ---------------------------------------------------------------------------
# Wasserstein-1
# ---------------------------------------------------------------------------


def test_w1_examples():
    assert ms.wasserstein1([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ms.wasserstein1([0.0], [1.0]) == 1.0
    assert ms.wasserstein1([0.0, 1.0], [0.0, 3.0]) == 1.0


def test_w1_brute_force_couplings_small():
    # check optimality of the sorted coupling against all permutations
    import itertools

    rng = np.random.default_rng(0)
    for _ in range(40):
        x = rng.normal(0, 1, 4)
        y = rng.normal(0.5, 2, 4)
        best = min(np.mean(np.abs(np.sort(x) - np.array(p)))
                   for p in itertools.permutations(y))
        assert ms.wasserstein1(x, y) == pytest.approx(best, abs=1e-12)


def test_w1_unequal_sizes():
    # d1(emp{0,1}, delta_{1/2}) = 1/2; merged-CDF path
    assert ms.wasserstein1([0.0, 1.0], [0.5]) == pytest.approx(0.5)
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 300)
    y = rng.normal(0, 1, 600)
    # against the duplicated equal-size representation
    x2 = np.repeat(x, 2)
    assert ms.wasserstein1(x, y) == pytest.approx(ms.wasserstein1(x2, y), abs=1e-12)


def test_w1_metric_axioms_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x = rng.normal(0, 1, 8)
        y = rng.normal(rng.uniform(-1, 1), 1.5, 8)
        z = rng.standard_exponential(8)
        dxy = ms.wasserstein1(x, y)
        dyx = ms.wasserstein1(y, x)
        assert dxy == dyx                                  # symmetry, exact
        assert ms.wasserstein1(x, x) == 0.0
        assert dxy <= ms.wasserstein1(x, z) + ms.wasserstein1(z, y) + 1e-12


def test_w1_sorted_copy_is_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 100)
    assert ms.wasserstein1(x, np.sort(x)) == 0.0


# ---------------------------------------------------------------------------
# KS distance
# ---------------------------------------------------------------------------


def test_ks_calibration():
    rng = np.random.default_rng(5)
    u = rng.random(100_000)
    assert ms.ks_distance(u, lambda x: np.clip(x, 0, 1)) <= 0.006


def test_ks_single_sample_at_median():
    assert ms.ks_distance([0.0], lambda x: np.full_like(np.asarray(x, dtype=float), 0.5)) == 0.5


def test_ks_all_samples_below_support():
    cdf = lambda x: np.where(np.asarray(x) < 100.0, 0.0, 1.0)
    assert ms.ks_distance(np.zeros(50), cdf) == 1.0


def test_ks_weighted_matches_unweighted():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(500)
    cdf = lambda t: 0.5 * (1 + np.vectorize(math.erf)(np.asarray(t) / math.sqrt(2)))
    a = ms.ks_distance(x, cdf)
    b = ms.ks_distance(x, cdf, weights=np.ones_like(x))
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("samples", [-1, 2.5, True])
def test_time_averager_refuses_a_bad_sample_count(samples):
    with pytest.raises(DomainError, match="^samples: must be an integer >= 0, got "):
        ms.TimeAverager(-1.0, 1.0, 4, samples=samples)


@pytest.mark.parametrize("burn_in", [math.nan, math.inf, "x", None, True, 10**400])
def test_time_averager_refuses_a_burn_in_that_is_not_a_finite_number(burn_in):
    with pytest.raises(DomainError, match="^burn_in: must be a finite number, got "):
        ms.TimeAverager(-1.0, 1.0, 4, samples=2, burn_in=burn_in)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "1.0", None])
def test_time_averager_refuses_a_time_that_is_not_finite(t):
    avg = ms.TimeAverager(0.0, 1.0, 2, samples=3)
    avg.add(0.5, [0.2], 0.0)
    before = [col.tobytes() for col in (avg.t, avg.m, avg._counts, avg.n, avg.below, avg.above)]
    with pytest.raises(DomainError, match="^t: must be a finite number, got "):
        avg.add(t, [0.1], 0.0)
    assert avg.rows == 1
    assert [col.tobytes() for col in (avg.t, avg.m, avg._counts, avg.n, avg.below,
                                      avg.above)] == before
    # a NaN time no longer slips past the time-order check and poisons the average
    avg.add(1.0, [0.1], 0.0)
    assert avg.rows == 2 and np.isfinite(avg.finalize().values).all()


@pytest.mark.parametrize("samples, weights, message", [
    ([], None, "samples: the KS distance needs at least one sample"),
    ([], [], "samples: the KS distance needs at least one sample"),
    ([0.5, 1.5], [0.0, 0.0], "weights: must have a positive sum, got 0.0"),
    ([0.5, 1.5], [1.0, -1.0], "weights: must have a positive sum, got 0.0"),
    ([0.5, 1.5], [1.0, math.nan], "weights: must have a positive sum, got nan"),
    ([0.5, 1.5], [1.0], "weights: must be 1-d with one weight per sample, got shape (1,) "
                        "for samples of shape (2,)"),
    ([0.5, 1.5], [1.0, 1.0, 1.0], "weights: must be 1-d with one weight per sample, got "
                                  "shape (3,) for samples of shape (2,)"),
    ([0.5, 1.5], [[1.0, 1.0]], "weights: must be 1-d with one weight per sample, got "
                               "shape (1, 2) for samples of shape (2,)"),
    ([0.5], 1.0, "weights: must be 1-d with one weight per sample, got shape () for "
                 "samples of shape (1,)"),
    ([0.5, 1.5, 2.5], [1.0, -1.0, 3.0], "weights: must be finite and >= 0, got [-1.0]"),
    ([0.5, 1.5], [1.0, math.inf], "weights: must be finite and >= 0, got [inf]"),
    ([1.0, math.nan], None, "samples: the KS distance needs samples that are not NaN"),
    ([1.0, math.nan], [1.0, 1.0], "samples: the KS distance needs samples that are not NaN"),
    ([math.nan, 0.5, math.nan], None, "samples: the KS distance needs samples that are not NaN"),
])
def test_ks_refuses_what_it_cannot_score(samples, weights, message):
    cdf = lambda x: np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        ms.ks_distance(samples, cdf, weights=weights)


@pytest.mark.parametrize("samples, cdf, shape", [
    ([0.1, 0.2], lambda x: np.array([0.5]), "(1,)"),      # used to broadcast to 0.5
    ([0.1], lambda x: 0.5, "()"),
    ([0.1, 0.2], lambda x: np.full((2, 2), 0.5), "(2, 2)"),
])
@pytest.mark.parametrize("weighted", [False, True])
def test_ks_refuses_a_cdf_of_the_wrong_shape(samples, cdf, shape, weighted):
    weights = np.ones(len(samples)) if weighted else None
    message = f"cdf: must return one value per sample, got shape {shape} for samples of shape "
    with pytest.raises(DomainError, match="^" + re.escape(message)):
        ms.ks_distance(samples, cdf, weights=weights)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def default_test_functions():
    """Identity plus bounded continuous probes: tanh ramps and Gaussian bumps."""
    fns = [ms.IDENTITY]
    for s in (1.0, 3.0):
        fns.append(ms.TestFunction(name=f"tanh_s{s:g}",
                                   fn=(lambda s: lambda x: np.tanh(np.asarray(x) / s))(s)))
    for c in (-4.0, -2.0, 0.0, 2.0, 4.0):
        fns.append(ms.TestFunction(
            name=f"bump_c{c:g}",
            fn=(lambda c: lambda x: np.exp(-0.5 * (np.asarray(x) - c) ** 2))(c)))
    return fns


def test_default_test_function_set():
    fns = default_test_functions()
    # identity + tanh(x/s) for s in {1, 3} + five Gaussian bumps
    assert len(fns) == 8
    assert fns[0].is_identity
    xs = np.linspace(-50, 50, 2001)
    for f in fns[1:]:
        vals = f(xs)
        assert np.all(np.abs(vals) <= 1.0)      # bounded by 1 in absolute value


def test_test_function_is_the_identity_exactly_when_it_has_no_fn():
    assert ms.TestFunction("f").is_identity
    assert ms.TestFunction("f")(np.array([1.5])) == 1.5
    assert not ms.TestFunction("f", fn=np.tanh).is_identity
    with pytest.raises(TypeError):
        ms.TestFunction("f", fn=np.tanh, is_identity=True)


# ---------------------------------------------------------------------------
# residual A_{t,f}
# ---------------------------------------------------------------------------


def _run(w, z, n, T, seed, engine="bounded"):
    return fj.simulate(w, z, n, T=T, seed=seed, engine=engine, log_events=True)


def residual_A(initial_positions, log, f, w, z, t):
    """A_{t,f} at the horizon t."""
    return ms.residual_path(initial_positions, log, f, w, z, t).value


def test_residual_zero_at_t0():
    w, z = fj.StepRate(2.0, 1.0), fj.DeterministicJump()
    res = _run(w, z, 10, 2.0, 30)
    for f in (ms.IDENTITY, default_test_functions()[1]):
        path = ms.residual_path(np.zeros(10), res.log, f, w, z, 0.0)
        assert path.value == 0.0 and path.sup_abs == 0.0


def test_residual_rejects_a_negative_horizon():
    w, z = fj.StepRate(2.0, 1.0), fj.DeterministicJump()
    res = _run(w, z, 10, 2.0, 30)
    for f in (ms.IDENTITY, default_test_functions()[1]):
        with pytest.raises(DomainError, match="t_end must be >= 0"):
            ms.residual_path(np.zeros(10), res.log, f, w, z, -0.5)


def test_residual_constant_rate_poisson_oracle(flat_rate):
    # constant w == a, f = Id, deterministic jumps:
    # A = m(t) - m(0) - a t, and n (m(t) - m(0)) ~ Poisson(n a t)
    flat = flat_rate(1.5)
    z = fj.DeterministicJump()
    n, T = 30, 8.0
    gains, As = [], []
    for seed in range(60):
        res = _run(flat, z, n, T, 300 + seed)
        A = residual_A(np.zeros(n), res.log, ms.IDENTITY, flat, z, T)
        assert A == pytest.approx(res.final_center - 1.5 * T, abs=1e-10)
        gains.append(n * (res.final_center - res.initial_center))
        As.append(A)
    lam = n * 1.5 * T
    counts = np.asarray(gains)
    assert counts.mean() == pytest.approx(lam, abs=4 * math.sqrt(lam / 60))
    assert counts.var(ddof=1) == pytest.approx(lam, rel=0.5)
    assert abs(np.mean(As)) <= 4 * np.std(As) / math.sqrt(60)


def test_residual_identity_mean_zero_many_seeds():
    w, z = fj.StepRate(2.0, 1.0), fj.DeterministicJump()
    vals = []
    for seed in range(50):
        res = _run(w, z, 25, 5.0, 400 + seed)
        vals.append(residual_A(np.zeros(25), res.log, ms.IDENTITY, w, z, 5.0))
    vals = np.asarray(vals)
    assert abs(vals.mean()) <= 3 * vals.std(ddof=1) / math.sqrt(len(vals))


class ReevaluatedStep(fj.StepRate):
    """A step rate without its incremental mean rate: residual_path then
    re-evaluates the bracket from every position after each event."""

    def mean_rate(self, positions, m):
        return None


def assert_step_residuals_agree(init, log, t_end):
    init = np.asarray(init, dtype=float)
    w, z = fj.StepRate(2.0, 1.0), fj.ExponentialJump()
    fast = ms.residual_path(init, log, ms.IDENTITY, w, z, t_end)
    gen = ms.residual_path(init, log, ms.IDENTITY, ReevaluatedStep(2.0, 1.0), z, t_end)
    assert fast.value == pytest.approx(gen.value, abs=1e-12)
    assert fast.sup_abs == pytest.approx(gen.sup_abs, abs=1e-12)


def test_residual_fast_path_matches_generic():
    w, z = fj.StepRate(2.0, 1.0), fj.ExponentialJump()
    for seed in range(10):
        res = _run(w, z, 30, 4.0, 500 + seed)
        assert_step_residuals_agree(np.zeros(30), res.log, 4.0)


def test_residual_schedule_invariance():
    # the inter-event sum never references an observation schedule: recomputing
    # from the same event log always gives the identical value
    w, z = fj.StepRate(2.0, 1.0), fj.DeterministicJump()
    res = _run(w, z, 15, 3.0, 31)
    a1 = residual_A(np.zeros(15), res.log, ms.IDENTITY, w, z, 3.0)
    a2 = residual_A(np.zeros(15), res.log, ms.IDENTITY, w, z, 3.0)
    assert a1 == a2
    # and evaluating at an intermediate horizon uses only the covered prefix
    a_half = residual_A(np.zeros(15), res.log, ms.IDENTITY, w, z, 1.5)
    assert math.isfinite(a_half)


def test_residual_bounded_f_moment_bound():
    # for |f| <= 1: E M_n(t)^2 <= 4 a t / n
    w, z = fj.StepRate(2.0, 1.0), fj.ExponentialJump()
    f = default_test_functions()[1]             # tanh(x)
    n, T = 50, 3.0
    vals = []
    for seed in range(40):
        res = _run(w, z, n, T, 600 + seed)
        vals.append(residual_A(np.zeros(n), res.log, f, w, z, T))
    vals = np.asarray(vals)
    bound = 4 * 2.0 * T / n
    s2 = float(np.mean(vals ** 2))
    se = s2 * math.sqrt(2.0 / (len(vals) - 1))
    assert s2 <= bound + 3 * se


def test_residual_fast_path_nonzero_initial_positions():
    # ties and spread in the starting configuration exercise the heap; three
    # particles at 0.1 all start behind m = fsum(x)/n > 0.1
    w, z = fj.StepRate(2.0, 1.0), fj.ExponentialJump()
    starts = [np.array([0.0, 0.0, 0.0, 1.0, 1.0, 2.5, -3.0, 4.0, 4.0, 4.0]), np.full(3, 0.1)]
    assert math.fsum(starts[1]) / 3 > 0.1
    for init in starts:
        for seed in range(5):
            res = fj.simulate(w, z, init.size, T=6.0, seed=800 + seed, init=init.copy(),
                              engine="bounded", log_events=True)
            assert_step_residuals_agree(init, res.log, 6.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([-1.0, 0.0, 0.1, 1 / 3, 2.5]), min_size=1, max_size=40),
       st.lists(st.tuples(st.integers(0, 39), st.sampled_from([0.0, 1e-3, 0.37, 1.0])),
                max_size=60))
@example([0.1] * 3, [(0, 0.0), (1, 0.0), (2, 1.0)])       # every particle behind m
def test_step_mean_rate_counts_the_particles_behind_the_center(start, jumps):
    a, b = 2.0, 0.5
    pos = np.asarray(start)
    n = pos.size
    m = math.fsum(pos) / n
    tracker = fj.StepRate(a, b).mean_rate(pos, m)
    p = np.count_nonzero(pos < m)
    assert tracker.value == (a * p + b * (n - p)) / n
    for i, zlen in jumps:
        i %= n
        x_old = pos[i]
        pos[i] = x_old + zlen
        m += zlen * (1.0 / n)
        value = tracker.jump(i, x_old, pos[i], m)
        p = np.count_nonzero(pos < m)
        assert value == tracker.value == (a * p + b * (n - p)) * (1.0 / n)


def test_residual_scaling_slope():
    w, z = fj.StepRate(2.0, 1.0), fj.DeterministicJump()
    study = ms.residual_scaling([50, 200, 800], seeds=12, t=6.0, w=w, z=z, base_seed=700)
    assert -0.75 <= study.slope <= -0.25
    assert all(r > 0 for r in study.rms_sup)
    assert study.rms_sup[0] > study.rms_sup[-1]      # decreasing in n


@pytest.mark.parametrize("ns, seeds, message", [
    ([10], 2, "ns: must hold at least two distinct integers >= 1, got [10]"),
    ([10, 10], 2, "ns: must hold at least two distinct integers >= 1, got [10, 10]"),
    ([0, 10], 2, "ns: must hold at least two distinct integers >= 1, got [0, 10]"),
    ([10, 2.5], 2, "ns: must hold at least two distinct integers >= 1, got [10, 2.5]"),
    ([True, 10], 2, "ns: must hold at least two distinct integers >= 1, got [True, 10]"),
    (10, 2, "ns: must hold at least two distinct integers >= 1, got 10"),
    ([[10, 20]], 2, "ns: must hold at least two distinct integers >= 1, got [[10, 20]]"),
    ([10, 20], 0, "seeds: must be an integer >= 1, got 0"),
    ([10, 20], 2.0, "seeds: must be an integer >= 1, got 2.0"),
    ([10, 20], True, "seeds: must be an integer >= 1, got True"),
])
def test_residual_scaling_refuses_a_study_it_cannot_fit(ns, seeds, message, monkeypatch):
    monkeypatch.setattr(ms._sim, "simulate", None)      # no run may start
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        ms.residual_scaling(ns, seeds=seeds, t=1.0, w=fj.StepRate(2.0, 1.0),
                            z=fj.DeterministicJump())


def test_residual_scaling_runs_the_familys_default_engine():
    # the exponential family has no bounded engine; its own engine runs
    study = ms.residual_scaling([4, 8], seeds=3, t=1.0, w=fj.ExponentialRate(1.0),
                                z=fj.ExponentialJump(), base_seed=11)
    assert study.ns == [4, 8] and len(study.rms_sup) == 2
    assert all(r > 0 and math.isfinite(r) for r in study.rms_sup)
    assert math.isfinite(study.slope)
