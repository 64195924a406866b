import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import flockjump as fj
from flockjump import extremes as ex
from flockjump import measures as ms
from flockjump.model import DomainError

GAMMA = 0.5772156649015329


def wave_c(beta):
    return math.exp(-fj.digamma(1.0 / beta)) / beta


def center_shift(beta):
    """Shift psi(1/beta)/beta: adding it to the uncentered variable centers it."""
    return fj.digamma(1.0 / beta) / beta


def test_pool_size_examples():
    assert ex.pool_size(1.0, 1.0, 0.0) == 1
    assert ex.pool_size(1.0, 1.0, math.log(10.0)) == 10
    ts = np.linspace(0.0, 5.0, 40)
    sizes = [ex.pool_size(1.0, 1.0, t) for t in ts]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))     # monotone


def test_pool_size_horizon_guard():
    with pytest.raises(ex.HorizonError):
        ex.pool_size(1.0, 1.0, 60.0)
    with pytest.raises(DomainError):
        ex.pool_size(1.0, 1.0, -1.0)


def test_arrival_time_inverts_pool_size():
    # the j-th variable arrives immediately after t_j: N(t_j) = j-1, N(t_j+) = j
    beta, c = 1.0, wave_c(1.0)
    for j in (5, 17, 1000):
        t = ex.arrival_time(j, beta, c)
        assert ex.pool_size(beta, c, t + 1e-6) >= j
        assert ex.pool_size(beta, c, max(t - 1e-6, 0.0)) < j


def test_new_pool_requires_integer_k():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        ex.new_pool(0.4, 1.0, rng)
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="beta must be positive and finite"):
            ex.new_pool(beta, 1.0, rng)
    pool = ex.new_pool(0.5, wave_c(0.5), rng)
    assert pool.k == 2


def test_record_path_monotone_and_consistent():
    rng = np.random.default_rng(1)
    beta = 1.0
    c = wave_c(beta)
    pool = ex.new_pool(beta, c, rng)
    T = math.log(20_000 * beta * c) / (beta * c)
    path = ex.simulate_record(pool, T, rng)
    assert np.all(np.diff(path.values) > 0)                 # Y non-decreasing, jumps up
    assert np.all(np.diff(path.times) >= 0)
    assert path.pool.pool_count == ex.pool_size(beta, c, T)
    assert len(path.pool.top) == pool.k + 1
    assert all(a >= b for a, b in zip(path.pool.top, path.pool.top[1:]))  # descending
    # Y_k jump count ~ harmonic growth: a few dozen at most here
    assert 3 <= len(path.yk_jumps) <= 60


def test_record_jump_lengths_k1():
    # k=1: jumps of Y are the excesses over the running maximum: Exp(1)
    rng = np.random.default_rng(2)
    beta, c = 1.0, wave_c(1.0)
    T = math.log(3000 * beta * c) / (beta * c)
    jumps = []
    while len(jumps) < 100_000:
        path = ex.simulate_record(ex.new_pool(beta, c, rng), T, rng)
        jumps.extend(path.yk_jumps.tolist())
    jumps = np.asarray(jumps)
    assert jumps.mean() == pytest.approx(1.0, abs=0.01)


def test_record_jump_lengths_k2():
    # k=2: jumps of Y_k are Exp(2): mean 1/2
    rng = np.random.default_rng(3)
    beta = 0.5
    c = wave_c(beta)
    T = math.log(3000 * beta * c) / (beta * c)
    jumps = []
    while len(jumps) < 100_000:
        path = ex.simulate_record(ex.new_pool(beta, c, rng), T, rng)
        jumps.extend(path.yk_jumps.tolist())
    jumps = np.asarray(jumps)
    assert jumps.mean() == pytest.approx(0.5, abs=0.005)


def test_record_top_matches_brute_force_small():
    # replay a small pool two ways: incremental ledger vs sorting all draws
    beta, c = 1.0, wave_c(1.0)
    T = math.log(500 * beta * c) / (beta * c)
    rng1 = np.random.default_rng(4)
    pool = ex.new_pool(beta, c, rng1)
    n0 = pool.pool_count
    path = ex.simulate_record(pool, T, rng1, batch=64)
    # regenerate the identical draw stream
    rng2 = np.random.default_rng(4)
    draws = [float(x) for x in rng2.standard_exponential(n0)]
    remaining = path.pool.pool_count - n0
    consumed = []
    while remaining > 0:
        b = min(64, remaining)
        consumed.extend(rng2.standard_exponential(b).tolist())
        remaining -= b
    allv = sorted(draws + consumed, reverse=True)
    k = pool.k
    # the whole (k+1)-ledger must match the true top order statistics
    assert path.pool.top == pytest.approx(allv[: k + 1], abs=0.0)
    assert path.values[-1] == pytest.approx(k * allv[k - 1])


def _reference_simulate_record(pool, T, rng, batch=ex._ARRIVAL_BATCH):
    """`simulate_record` as it was before the chunked pass: a fill loop, a
    per-candidate loop filtered against the k-th maximum at the batch start,
    and a separate pass for the (k+1)-st entry. Kept as the bit-identity
    reference for the current sampler."""
    beta, c, k = pool.beta, pool.c, pool.k
    n_final = ex.pool_size(beta, c, T)
    top = list(pool.top)
    count = pool.pool_count
    times, values, jumps = [], [], []
    if len(top) >= k:
        times.append(pool.t)
        values.append(k * top[k - 1])

    def absorb(v, j_index):
        if len(top) < k:
            top.append(v)
            top.sort(reverse=True)
            if len(top) == k:
                times.append(ex.arrival_time(j_index, beta, c))
                values.append(k * top[k - 1])
            return
        if v <= top[k - 1]:
            if len(top) < k + 1:
                top.append(v)
            elif v > top[k]:
                top[k] = v
            return
        old_yk = top[k - 1]
        lo = 0
        while lo < k and top[lo] >= v:
            lo += 1
        top.insert(lo, v)
        del top[k + 1:]
        new_yk = top[k - 1]
        times.append(ex.arrival_time(j_index, beta, c))
        values.append(k * new_yk)
        jumps.append(new_yk - old_yk)

    j = count
    while count < n_final:
        b = min(batch, n_final - count)
        draws = rng.standard_exponential(b)
        start = 0
        while len(top) < k + 1 and start < b:
            absorb(float(draws[start]), j + start + 1)
            start += 1
        if start < b:
            sub = draws[start:]
            cand = np.nonzero(sub > top[k - 1])[0]
            for ci in cand:
                v = float(sub[ci])
                if v > top[k - 1]:
                    absorb(v, j + start + int(ci) + 1)
            below = sub[sub < top[k - 1]]
            if below.size:
                rest = float(below.max())
                if rest > top[k]:
                    top[k] = rest
        count += b
        j = count
    out = replace(pool, top=top, pool_count=count, t=T)
    return ex.RecordPath(times=np.asarray(times), values=np.asarray(values),
                         yk_jumps=np.asarray(jumps), pool=out)


@pytest.mark.parametrize("batch", [64, ex._ARRIVAL_BATCH])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_record_path_bit_identical_to_reference(k, batch):
    # same draws, same path: every output equal with ==, over 300 runs, with
    # each run advanced in two legs so the second starts from a used pool
    beta = 1.0 / k
    c = wave_c(beta)
    T1 = math.log(300 * beta * c) / (beta * c)
    T2 = math.log(3000 * beta * c) / (beta * c)
    for run in range(300):
        rngs = [np.random.default_rng([k, batch, run]) for _ in range(2)]
        legs = []
        for sim, rng in zip((ex.simulate_record, _reference_simulate_record), rngs):
            pool = ex.new_pool(beta, c, rng)
            first = sim(pool, T1, rng, batch=batch)
            legs.append((first, sim(first.pool, T2, rng, batch=batch)))
        for new, old in zip(*legs):
            assert new.times.tolist() == old.times.tolist()
            assert new.values.tolist() == old.values.tolist()
            assert new.yk_jumps.tolist() == old.yk_jumps.tolist()
            assert new.pool.top == old.pool.top
            assert new.pool.pool_count == old.pool.pool_count
            assert new.pool.t == old.pool.t
        assert rngs[0].random() == rngs[1].random()         # same number of draws


def test_simulate_record_rejects_a_past_horizon():
    rng = np.random.default_rng(0)
    path = ex.simulate_record(ex.new_pool(1.0, 1.0, rng), 5.0, rng)
    assert path.pool.pool_count == 149
    with pytest.raises(DomainError, match="T=1.0"):
        ex.simulate_record(path.pool, 1.0, rng)
    same = ex.simulate_record(path.pool, 5.0, rng)           # T == pool.t: no draws
    assert same.pool.pool_count == 149 and same.times.tolist() == [5.0]


class NoDraws:
    """A generator that fails on first use: the call under test must refuse
    its input before it draws."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the input was checked")


@pytest.mark.parametrize("batch", [0, -3, 2.5, True])
def test_simulate_record_rejects_a_batch_below_one(batch):
    # a batch of zero draws never advances the pool; the check comes before any draw
    pool = ex.new_pool(1.0, 1.0, np.random.default_rng(0))
    with pytest.raises(DomainError, match="batch"):
        ex.simulate_record(pool, 5.0, NoDraws(), batch=batch)


def _path_final_uncentered(beta, c, T, runs, rng):
    """The Gumbel-limit sample as the record path gives it, one run at a time."""
    return np.array([ex.simulate_record(ex.new_pool(beta, c, rng), T, rng).uncentered_final()
                     for _ in range(runs)])


@pytest.mark.parametrize("pool_target", [3000, 100_000])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sample_final_uncentered_bit_identical_to_the_record_path(k, pool_target):
    # the order-statistic sampler against new_pool -> simulate_record ->
    # uncentered_final: the same bytes, and the generator ends in the same
    # state, so both drew the same number of values. A pool of 10^5 draws
    # more than one _ARRIVAL_BATCH per run.
    beta = 1.0 / k
    c = wave_c(beta)
    T = math.log(pool_target * beta * c) / (beta * c) + 1e-9
    assert (ex.pool_size(beta, c, T) > ex._ARRIVAL_BATCH) == (pool_target > ex._ARRIVAL_BATCH)
    runs = 20 if pool_target < ex._ARRIVAL_BATCH else 3
    for seed in (0, 1, 2, 3):
        rngs = [np.random.default_rng([k, pool_target, seed]) for _ in range(2)]
        new = ex.sample_final_uncentered(beta, c, T, runs, rngs[0])
        old = _path_final_uncentered(beta, c, T, runs, rngs[1])
        assert new.tobytes() == old.tobytes()
        assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("batch", [1, 2, 7, 64])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_kth_largest_matches_a_sort_for_any_chunking(k, batch):
    # chunks smaller than k, equal to it and larger, merged into the running top k
    for n in (k, k + 1, 50, 131):
        rngs = [np.random.default_rng([k, batch, n]) for _ in range(2)]
        got = ex._kth_largest(k, n, rngs[0], batch=batch)
        assert got == np.sort(rngs[1].standard_exponential(n))[n - k]
        assert rngs[0].random() == rngs[1].random()


@pytest.mark.parametrize("args, error, match", [
    ((0.0, 1.0, 5.0, 10), DomainError, "beta must be positive and finite"),
    ((math.nan, 1.0, 5.0, 10), DomainError, "beta must be positive and finite"),
    ((math.inf, 1.0, 5.0, 10), DomainError, "beta must be positive and finite"),
    ((0.4, 1.0, 5.0, 10), DomainError, "k = 1/beta a positive integer"),
    ((2.0, 1.0, 5.0, 10), DomainError, "k = 1/beta a positive integer"),
    ((1.0, 1.0, math.nan, 10), DomainError, "T must be finite and >= 0, got nan"),
    ((1.0, 1.0, -1.0, 10), DomainError, "T must be finite and >= 0"),
    ((1.0, 1.0, math.inf, 10), DomainError, "T must be finite and >= 0"),
    ((1.0, 0.0, 5.0, 10), DomainError, "beta \\* c must be positive and finite"),
    ((1.0, math.inf, 5.0, 10), DomainError, "beta \\* c must be positive and finite"),
    ((1.0, 1.0, 60.0, 10), ex.HorizonError, "exceeds 2\\^62"),
    ((0.5, 5.0, 0.0, 10), DomainError, "N\\(T\\) = 1 values, fewer than k = 2"),
    ((1.0 / 3.0, 5.0, 0.5, 10), DomainError, "N\\(T\\) = 2 values, fewer than k = 3"),
    ((1.0, 1.0, 5.0, -1), DomainError, "runs must be an integer >= 0, got -1"),
    ((1.0, 1.0, 5.0, 2.5), DomainError, "runs must be an integer >= 0, got 2.5"),
    ((10**400, 1.0, 5.0, 10), DomainError, "beta must be positive and finite"),   # int past float
    ((1.0, 1.0, 5.0, True), DomainError, "runs must be an integer >= 0, got True"),
])
def test_sample_final_uncentered_checks_before_any_draw(args, error, match):
    with pytest.raises(error, match=match):
        ex.sample_final_uncentered(*args, rng=NoDraws())


def test_uncentered_final_needs_k_pool_values():
    # the path is defined (Y has not started), but Y(T) is not
    rng = np.random.default_rng(0)
    path = ex.simulate_record(ex.new_pool(0.5, 5.0, rng), 0.0, rng)
    assert path.pool.pool_count == 1 and path.values.size == 0
    with pytest.raises(DomainError, match="N\\(T\\) = 1 values, fewer than k = 2"):
        path.uncentered_final()


def test_sample_final_uncentered_on_the_smallest_pool():
    # N(T) = k: Y(T) is k times the smallest of k draws; zero runs draw nothing
    assert ex.sample_final_uncentered(1.0, 1.0, 5.0, 0, NoDraws()).shape == (0,)
    beta, c, T = 0.5, 1.0, 0.0
    assert ex.pool_size(beta, c, T) == 2
    rngs = [np.random.default_rng(8) for _ in range(2)]
    got = ex.sample_final_uncentered(beta, c, T, 4, rngs[0])
    want = [2 * rngs[1].standard_exponential(2).min() - math.log(2) / beta for _ in range(4)]
    assert got.tolist() == want


@pytest.mark.parametrize("pool_target", [30, 500])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_record_ledger_matches_exact_order_statistic_law(k, pool_target):
    # Renyi (1953): the j-th largest of N unit exponentials is -log Beta(j, N-j+1),
    # so P(top[j-1] <= x) = Beta(j, N-j+1).sf(e^{-x}) for every ledger slot j <= k+1
    beta = 1.0 / k
    c = wave_c(beta)
    T = math.log(pool_target * beta * c) / (beta * c) + 1e-9
    n_final = ex.pool_size(beta, c, T)
    runs = 20_000
    rng = np.random.default_rng(1953 + 10 * k + pool_target)
    tops = np.empty((runs, k + 1))
    for r in range(runs):
        path = ex.simulate_record(ex.new_pool(beta, c, rng), T, rng)
        assert path.pool.pool_count == n_final
        tops[r] = path.pool.top
    tol = 1.95 / math.sqrt(runs)          # Kolmogorov 0.999 quantile, per slot
    for j in range(1, k + 2):
        law = stats.beta(j, n_final - j + 1)
        ks = ms.ks_distance(tops[:, j - 1], lambda x: law.sf(np.exp(-x)))
        assert ks <= tol, (j, ks)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sample_final_uncentered_matches_exact_order_statistic_law(k):
    # the sample is k Y_k - k log N with Y_k ~ -log Beta(k, N-k+1) (Renyi 1953)
    beta = 1.0 / k
    c = wave_c(beta)
    T = math.log(500 * beta * c) / (beta * c) + 1e-9
    n = ex.pool_size(beta, c, T)
    runs = 20_000
    smp = ex.sample_final_uncentered(beta, c, T, runs, np.random.default_rng(1953 + k))
    law = stats.beta(k, n - k + 1)
    ks = ms.ks_distance(smp / k + math.log(n), lambda x: law.sf(np.exp(-x)))
    assert ks <= 1.95 / math.sqrt(runs), ks          # Kolmogorov 0.999 quantile


def test_generalized_gumbel_pdf_values():
    assert float(ex.generalized_gumbel_pdf(1.0, 0.0)) == pytest.approx(math.exp(-1.0))
    from scipy.integrate import quad

    for beta in (1.0, 0.5, 1.0 / 3.0):
        total, _ = quad(lambda x: float(ex.generalized_gumbel_pdf(beta, x)),
                        -40.0 / (1 + beta), 120.0, limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_generalized_gumbel_mean_beta1():
    from scipy.integrate import quad

    mean, _ = quad(lambda x: x * float(ex.generalized_gumbel_pdf(1.0, x)),
                   -15.0, 60.0, limit=400)
    assert mean == pytest.approx(GAMMA, abs=1e-8)


def test_generalized_gumbel_cdf_consistency():
    from scipy.integrate import quad

    for beta in (1.0, 0.5):
        for x in (-1.0, 0.0, 1.2, 4.0):
            num, _ = quad(lambda t: float(ex.generalized_gumbel_pdf(beta, t)),
                          -60.0, x, limit=500)
            assert float(ex.generalized_gumbel_cdf(beta, x)) == pytest.approx(num, abs=1e-7)


def test_center_shift_centers_the_law():
    from scipy.integrate import quad

    for beta in (1.0, 0.5):
        shift = center_shift(beta)
        mean, _ = quad(lambda x: x * float(ex.generalized_gumbel_pdf(beta, x)),
                       -40.0, 120.0, limit=500)
        assert mean + shift == pytest.approx(0.0, abs=1e-7)


def test_distributional_match_moderate_scale():
    # KS of Y(T) - (1/beta) log N(T) against the limit law at pool ~ 2e4
    rng = np.random.default_rng(5)
    beta = 1.0
    c = wave_c(beta)
    T = math.log(2e4 * beta * c) / (beta * c)
    smp = ex.sample_final_uncentered(beta, c, T, runs=800, rng=rng)
    ks = ms.ks_distance(smp, lambda x: ex.generalized_gumbel_cdf(beta, x))
    assert ks <= 0.05


def test_empirical_centering_correction():
    # adding psi(1/beta)/beta to the uncentered samples gives mean 0 +- 0.02
    rng = np.random.default_rng(7)
    beta = 1.0
    c = wave_c(beta)
    T = math.log(1e4 * beta * c) / (beta * c)
    smp = ex.sample_final_uncentered(beta, c, T, runs=10_000, rng=rng)
    centered = smp + center_shift(beta)
    assert abs(float(np.mean(centered))) <= 0.02


def test_record_jump_intensity_regression():
    # empirical jump intensity near time t, given Y(t) = y, is e^{beta(ct - y)}:
    # slope of log intensity on z = beta(ct - y) should be 1. Exposure before the
    # pool holds ~2000 variables is discarded (the discrete arrival staircase is
    # too coarse there for the continuous-intensity approximation).
    rng = np.random.default_rng(6)
    beta, c = 1.0, wave_c(1.0)
    T = math.log(50_000 * beta * c) / (beta * c)
    t_min = math.log(2000 * beta * c) / (beta * c)
    edges = np.linspace(-1.5, 1.5, 9)
    exposure = np.zeros(len(edges) - 1)
    hits = np.zeros(len(edges) - 1)
    for _ in range(600):
        path = ex.simulate_record(ex.new_pool(beta, c, rng), T, rng)
        tj, yj = path.times, path.values
        for i in range(len(tj)):
            t0 = max(tj[i], t_min)
            t1 = tj[i + 1] if i + 1 < len(tj) else T
            if t1 <= t_min:
                continue
            y = yj[i]
            # z(t) rises linearly on [t0, t1); accumulate exposure per z-bin
            z0, z1 = beta * (c * t0 - y), beta * (c * t1 - y)
            lo = np.clip(edges[:-1], z0, z1)
            hi = np.clip(edges[1:], z0, z1)
            exposure += (hi - lo) / (beta * c)
            if i + 1 < len(tj) and tj[i + 1] > t_min:
                b = np.searchsorted(edges, beta * (c * t1 - y)) - 1
                if 0 <= b < len(hits):
                    hits[b] += 1
    keep = (hits >= 40) & (exposure > 0)
    z_mid = 0.5 * (edges[:-1] + edges[1:])[keep]
    log_rate = np.log(hits[keep] / exposure[keep])
    slope = np.polyfit(z_mid, log_rate, 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)
