import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from scipy import stats

import flockjump as fj
from flockjump import measures as ms
from flockjump import sim
from flockjump.model import DomainError, ModelError, RateFamily
from flockjump.sim import StallError, UnsupportedSpecError, check_engine
from flockjump.two_particle import gap_chain, gap_stationary_pmf

from replay import replayed_states


def gap_occupancy(log):
    """Dwell-time-weighted occupancy of integer gap levels from an n=2 event log."""
    x1 = np.cumsum(log.lengths * (log.indices == 0))
    x2 = np.cumsum(log.lengths * (log.indices == 1))
    gap = np.rint(np.abs(x1 - x2)).astype(int)
    dwell = np.diff(log.times)
    occ = np.bincount(gap[:-1], weights=dwell)
    return occ / occ.sum()


def occupancy_tv(occ, pi):
    k = min(len(occ), len(pi))
    return 0.5 * (np.abs(occ[:k] - pi[:k]).sum() + occ[k:].sum() + pi[k:].sum())


# ---------------------------------------------------------------------------
# single-event primitives
# ---------------------------------------------------------------------------


def one_event(w, z, init, seed=1, engine="reference", **kwargs):
    return fj.simulate(w, z, len(init), max_events=1, seed=seed, init=np.asarray(init, dtype=float),
                       engine=engine, log_events=True, **kwargs)


def test_total_rate_examples():
    # The reference engine's first holding time is E/R, where E is the seed's
    # first standard exponential (explicit positions draw nothing).
    def total_rate(init, w, seed=1):
        res = one_event(w, fj.DeterministicJump(), init, seed)
        return np.random.default_rng(seed).standard_exponential() / res.log.times[0]

    w = fj.StepRate(2.0, 1.0)
    assert total_rate(np.zeros(2), w) == pytest.approx(2 * 1.0)     # both at the center, w(0)=b
    assert total_rate([7.3], w) == pytest.approx(1.0)               # lone particle sits at m
    # bounded rate: total <= n a
    spread = np.random.default_rng(0).normal(0, 3, 300)
    assert total_rate(spread, w) <= 300 * 2.0 * (1 + 1e-12)


def test_step_moves_exactly_one_particle_forward():
    before = np.array([0.0, 1.0, 2.0])
    for engine, w in (("reference", fj.ExponentialRate(1.0)),
                      ("exponential", fj.ExponentialRate(1.0)),
                      ("bounded", fj.ArccotRate())):
        res = one_event(w, fj.ExponentialJump(), before, engine=engine)
        i, length = res.log.indices[0], res.log.lengths[0]
        moved = res.state.positions != before
        assert res.events == 1 and moved.sum() == 1
        assert res.state.positions[i] == before[i] + length
        assert length >= 0
        assert res.final_time == res.log.times[0] > 0.0
        assert res.log.centers[0] - before.mean() == pytest.approx(length / 3, abs=1e-12)


def test_two_particle_first_transition_rates():
    # from gap k, the first move is up with probability w(k/2)/(w(k/2)+w(-k/2))
    w = fj.ExponentialRate(1.0)
    k = 2
    p_up_expected = math.exp(-1.0) / (math.exp(-1.0) + math.exp(1.0))
    rng = np.random.default_rng(3)
    ups = 0
    trials = 4000
    for _ in range(trials):
        res = one_event(w, fj.DeterministicJump(), [0.0, float(k)], seed=None, rng=rng)
        ups += 1 if res.log.indices[0] == 1 else 0
    phat = ups / trials
    se = math.sqrt(p_up_expected * (1 - p_up_expected) / trials)
    assert abs(phat - p_up_expected) < 4 * se + 1e-12


def test_lone_particle_holding_times():
    # a lone particle always sits at its own center: rate w(0)
    w = fj.StepRate(2.0, 1.0)
    res = fj.simulate(w, fj.DeterministicJump(), 1, max_events=40_000, seed=2,
                      engine="bounded", log_events=True)
    holds = np.diff(np.concatenate([[0.0], res.log.times]))
    assert holds.mean() == pytest.approx(1.0 / 1.0, rel=0.01)


# ---------------------------------------------------------------------------
# one-step exact law
# ---------------------------------------------------------------------------


def one_step_transforms(engine, w, n, seeds, steps):
    """Probability-integral transforms of each event's holding time and index.

    Each seed runs `steps` events from its own random explicit configuration.
    Given the configuration x just before an event, the holding time is
    Exp(R) with R = sum_i w(x_i - m) and the index is i with probability
    w(x_i - m)/R; the first event is the max_events=1 law, and the later ones
    see weights that a jump has changed. Under the exact law both transforms
    are iid Uniform(0, 1); the index one ranks the particles by rate and is
    randomized within the selected particle's cell.
    """
    z = fj.ExponentialJump()
    jitter = np.random.default_rng(20_000 + n)
    hold, index = [], []
    for seed in seeds:
        init = np.random.default_rng([n, seed]).uniform(0.0, 3.0, n)
        res = fj.simulate(w, z, n, max_events=steps, seed=1000 * n + seed, init=init,
                          engine=engine, log_events=True)
        assert len(res.log) == steps
        pos, t = init.copy(), 0.0
        for k in range(steps):
            rates = np.asarray(w.rate(pos - pos.mean()), dtype=float)
            R = rates.sum()
            hold.append(-math.expm1(-R * (res.log.times[k] - t)))
            # cells in decreasing-rate order, so that weights that are wrong
            # for the particles that jumped last shift the transform
            i = res.log.indices[k]
            order = np.argsort(-rates, kind="stable")
            j = int(np.flatnonzero(order == i)[0])
            cum = np.concatenate([[0.0], np.cumsum(rates[order]) / R])
            index.append(cum[j] + jitter.random() * (cum[j + 1] - cum[j]))
            pos[i] += res.log.lengths[k]
            t = res.log.times[k]
    return np.asarray(hold), np.asarray(index)


ONE_STEP_CASES = [
    ("reference", fj.ExponentialRate(1.0), 5),
    ("reference", fj.ArccotRate(), 5),
    ("bounded", fj.StepRate(2.0, 1.0), 5),
    ("bounded", fj.ArccotRate(), 7),
    ("exponential", fj.ExponentialRate(1.0), 2),        # sum tree: a power of two
    ("exponential", fj.ExponentialRate(2.0), 24),       # padded to 32 leaves
    ("exponential", fj.ExponentialRate(1.0), 25),       # padded to 32 leaves
    ("exponential", fj.ExponentialRate(1.0), 1000),     # padded to 1024 leaves
]


@pytest.mark.parametrize("engine, w, n", ONE_STEP_CASES,
                         ids=[f"{e}-{type(w).__name__}-n{n}" for e, w, n in ONE_STEP_CASES])
def test_one_step_exact_law(engine, w, n):
    # 200 seeds x 30 events; KS of the holding times against Exp(R) and
    # chi-square of the index against w_i/R in ten equiprobable cells, each
    # at the 0.999 level
    hold, index = one_step_transforms(engine, w, n, range(1, 201), 30)
    assert stats.kstest(hold, "uniform").pvalue > 1e-3
    counts, _ = np.histogram(index, bins=10, range=(0.0, 1.0))
    assert stats.chisquare(counts).pvalue > 1e-3


def test_stall_errors_name_the_true_cause():
    # two particles 1500 apart at beta = 1: the trailing weight is e^750, which
    # is not a finite double, at n = 2 and n = 25 on the exponential engine and
    # past the reference engine's clamp of beta*x at -EXP_CLAMP = -700
    w = fj.ExponentialRate(1.0)
    for engine in ("exponential", "reference"):
        for init in ([0.0, 1500.0], [0.0] + [1500.0] * 24):
            with np.errstate(over="ignore"), pytest.raises(StallError, match="overflowed"):
                fj.simulate(w, fj.DeterministicJump(), len(init), T=1.0, seed=1,
                            init=np.asarray(init), engine=engine)

    class Vanishing(RateFamily):
        # every weight underflows: a real underflow keeps its message. (The
        # exponential family cannot underflow: the rearmost weight is >= 1.)
        def rate(self, x):
            return np.exp(-800.0 - np.abs(x))

    with pytest.raises(StallError, match="underflowed to zero"):
        fj.simulate(Vanishing(), fj.DeterministicJump(), 2, T=1.0, seed=1, engine="reference")

    class Huge(RateFamily):
        # every rate is finite and their total is not
        def rate(self, x):
            return np.full(np.shape(x), 1e308)

    class Undefined(RateFamily):
        def rate(self, x):
            return np.full(np.shape(x), math.nan)

    # 1410 apart at beta = 1: the laggard's weight e^705 is a finite double,
    # which the exponential engine runs with, but rate() clamps it to e^700,
    # so the reference engine stalls already, with the overflow message
    init = np.array([0.0, 1410.0])
    res = fj.simulate(w, fj.DeterministicJump(), 2, T=1.0, max_events=5, seed=1, init=init,
                      engine="exponential")
    assert res.events == 5
    with pytest.raises(StallError, match="^total jump rate overflowed; configuration too spread out$"):
        fj.simulate(w, fj.DeterministicJump(), 2, T=1.0, max_events=5, seed=1, init=init,
                    engine="reference")

    # the reference engine stalls with the messages of the fast engines
    for family, message in ((Huge(), "total jump rate overflowed; configuration too spread out"),
                            (Undefined(), "total jump rate is NaN; positions must be finite")):
        with np.errstate(over="ignore"), pytest.raises(StallError, match=f"^{message}$"):
            fj.simulate(family, fj.DeterministicJump(), 2, T=1.0, seed=1, engine="reference")


# ---------------------------------------------------------------------------
# simulate(): horizons, observers, caps
# ---------------------------------------------------------------------------


def test_t_zero_observer_sees_initial_state_only():
    avg = ms.TimeAverager(-1.0, 1.0, 4, samples=1)
    res = fj.simulate(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 4, T=0.0, seed=4,
                      observer=avg, engine="bounded")
    assert res.events == 0
    assert avg.rows == 1
    assert avg.t[0] == 0.0 and avg.m[0] == 0.0
    assert avg.histogram(0).counts.tolist() == [0.0, 0.0, 4.0, 0.0]   # every x = 0


def test_event_cap_sets_truncation_flag():
    res = fj.simulate(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 10, T=1e9,
                      max_events=100, seed=5, engine="bounded")
    assert res.events == 100
    assert res.truncated
    res2 = fj.simulate(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 10,
                       max_events=100, seed=5, engine="bounded")
    assert not res2.truncated          # no horizon requested, cap is the stop rule


def test_observer_times_are_grid_and_state_advances():
    avg = ms.TimeAverager(-5.0, 5.0, 10, samples=11)
    res = fj.simulate(fj.ExponentialRate(1.0), fj.ExponentialJump(), 50, T=5.0, seed=6,
                      observer=avg, observations=11)
    times, centers = avg.t[:avg.rows], avg.m[:avg.rows]
    assert np.allclose(times, np.linspace(0, 5, 11))
    assert centers[0] == 0.0
    assert np.all(np.diff(centers) >= 0)
    assert centers[-1] <= res.final_center


@pytest.mark.parametrize("observations", [0, -3, 2.5, True])
def test_observer_grid_needs_an_integer_count_of_one_or_more(observations):
    def no_work(rng, n):
        raise AssertionError("initial state built before observations was checked")

    with pytest.raises(ModelError, match="^observations must be an integer >= 1, got "):
        fj.simulate(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 5, T=1.0, seed=1,
                    init=("iid", no_work), observer=ms.TimeAverager(-1.0, 1.0, 4, samples=10),
                    observations=observations)


def test_monotone_paths_and_center_bookkeeping():
    for engine, w in (("bounded", fj.StepRate(2.0, 1.0)),
                      ("exponential", fj.ExponentialRate(1.0)),
                      ("reference", fj.ArccotRate())):
        res = fj.simulate(w, fj.ExponentialJump(), 20, T=3.0, seed=7, engine=engine,
                          log_events=True)
        assert np.all(res.log.lengths >= 0)
        centers = np.concatenate([[res.initial_center], res.log.centers])
        dc = np.diff(centers)
        assert np.all(dc >= 0)
        assert np.max(np.abs(dc - res.log.lengths / 20)) <= 1e-12
        assert res.final_time == 3.0


def test_engine_validation():
    with pytest.raises(UnsupportedSpecError):
        fj.simulate(fj.ExponentialRate(1.0), fj.DeterministicJump(), 5, T=1.0,
                    seed=8, engine="bounded")
    with pytest.raises(UnsupportedSpecError):
        fj.simulate(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 5, T=1.0,
                    seed=8, engine="exponential")
    with pytest.raises(ModelError):
        fj.simulate(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 5, seed=8)

    def no_work(rng, n):
        raise AssertionError("initial state built before the engine was checked")

    with pytest.raises(UnsupportedSpecError, match="engine: unknown engine 'bogus'"):
        fj.simulate(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 5, T=1.0,
                    seed=8, engine="bogus", init=("iid", no_work))


def test_check_engine():
    step, expo = fj.StepRate(2.0, 1.0), fj.ExponentialRate(1.0)
    assert check_engine(step) == "bounded"
    assert check_engine(expo) == "exponential"
    assert check_engine(fj.ArccotRate()) == "bounded"
    for w in (step, expo):
        assert check_engine(w, "reference") == "reference"
    assert check_engine(step, "bounded") == "bounded"
    assert check_engine(expo, "exponential") == "exponential"
    with pytest.raises(UnsupportedSpecError, match="^engine: the bounded"):
        check_engine(expo, "bounded")
    with pytest.raises(UnsupportedSpecError, match="^engine: the exponential engine"):
        check_engine(step, "exponential")
    with pytest.raises(UnsupportedSpecError, match="^engine: unknown engine"):
        check_engine(step, ["bounded"])


@pytest.mark.parametrize("init", [np.array([math.inf, -math.inf, 0.0]),
                                  ("iid", lambda rng, n: [math.nan] * n)],
                         ids=["explicit", "iid"])
@pytest.mark.parametrize("engine, w", [("reference", fj.StepRate(2.0, 1.0)),
                                       ("bounded", fj.StepRate(2.0, 1.0)),
                                       ("exponential", fj.ExponentialRate(1.0))])
def test_non_finite_start_is_refused_before_the_engine_runs(engine, w, init):
    def never(*args):
        raise AssertionError("the engine ran on a non-finite start")

    with mock.patch.dict(sim.ENGINES, {engine: never}), \
            pytest.raises(DomainError, match="positions must be finite"):
        fj.simulate(w, fj.ExponentialJump(), 3, T=5.0, seed=1, init=init, engine=engine)


def test_explicit_initial_positions():
    for engine in ("bounded", "reference"):
        init = np.array([0.0, 5.0, 10.0])
        res = fj.simulate(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 3, T=0.5,
                          init=init, seed=9, engine=engine)
        assert res.initial_center == pytest.approx(5.0)
        assert np.all(res.state.positions >= init)      # paths are monotone
        assert np.all(init == np.array([0.0, 5.0, 10.0]))   # input not mutated


def test_event_count_dominated_by_poisson_bound():
    # with bounded w, events over [0, T] are dominated by Poisson(n a T)
    n, a, T = 40, 2.0, 5.0
    counts = []
    for seed in range(20):
        res = fj.simulate(fj.StepRate(2.0, 1.0), fj.ExponentialJump(), n, T=T,
                          seed=100 + seed, engine="bounded")
        counts.append(res.events)
    bound = n * a * T
    assert np.mean(counts) <= bound * (1 + 3.0 / math.sqrt(20 * bound))


# ---------------------------------------------------------------------------
# engine equivalence (distributional)
# ---------------------------------------------------------------------------


def test_engines_agree_on_two_particle_occupancy_step():
    w = fj.StepRate(2.0, 1.0)
    pi = gap_stationary_pmf(gap_chain(w))
    for engine in ("bounded", "reference"):
        res = fj.simulate(w, fj.DeterministicJump(), 2, max_events=150_000,
                          seed=11, engine=engine, log_events=True)
        assert occupancy_tv(gap_occupancy(res.log), pi) < 0.02


def test_engines_agree_on_two_particle_occupancy_exponential():
    w = fj.ExponentialRate(1.0)
    pi = gap_stationary_pmf(gap_chain(w))
    for engine in ("exponential", "reference"):
        res = fj.simulate(w, fj.DeterministicJump(), 2, max_events=150_000,
                          seed=12, engine=engine, log_events=True)
        assert occupancy_tv(gap_occupancy(res.log), pi) < 0.02


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_exponential_engine_runs_two_particles_at_their_exact_speed(beta):
    # With n = 2 and Exp(1) jumps the centre moves at cosh(beta g / 2) on
    # average, and the gap law is prop. to sech^(1 + 2/beta)(beta g / 2), so
    # the speed is v2 = Gamma(1/beta) Gamma(1 + 1/beta) / Gamma(1/beta + 1/2)^2:
    # 4/pi at beta = 1, pi/2 at beta = 2. The total rate averages 2 v2, so T
    # holds about 5e5 events; over 8 seeds the se is about 0.1% of v2.
    v2 = math.gamma(1 / beta) * math.gamma(1 + 1 / beta) / math.gamma(1 / beta + 0.5) ** 2
    assert v2 == pytest.approx({1.0: 4 / math.pi, 2.0: math.pi / 2}[beta], rel=1e-14)
    T = 2.5e5 / v2
    speeds = []
    for seed in range(2750, 2758):
        res = fj.simulate(fj.ExponentialRate(beta), fj.ExponentialJump(), 2, T=T, seed=seed,
                          engine="exponential")
        speeds.append((res.final_center - res.initial_center) / T)
    z = (np.mean(speeds) - v2) / (np.std(speeds, ddof=1) / math.sqrt(len(speeds)))
    assert abs(z) <= 4.0, (speeds, z)


@pytest.mark.parametrize("engine, w", [("exponential", fj.ExponentialRate(1.0)),
                                        ("bounded", fj.StepRate(2.0, 1.0)),
                                        ("reference", fj.ExponentialRate(1.0))])
def test_engines_draw_from_the_jump_law(engine, w):
    # Uniform[0, 2] lengths: mean 1, variance 1/3, never longer than 2.
    z = fj.CustomDensityJump(density=lambda u: np.where((u >= 0) & (u <= 2), 0.5, 0.0),
                             sampler=lambda rng, size: rng.uniform(0.0, 2.0, size),
                             third_moment=2.0, upper=2.0)
    res = fj.simulate(w, z, 50, max_events=5000, seed=1, engine=engine, log_events=True)
    assert np.all(res.log.lengths <= 2.0)
    se = math.sqrt(1.0 / 3.0 / len(res.log))
    assert abs(res.log.lengths.mean() - 1.0) < 4 * se


def test_exchangeability_of_labels():
    # permuting initial labels leaves the gap-process law invariant
    w = fj.StepRate(2.0, 1.0)
    occ = []
    for init in ([0.0, 1.0], [1.0, 0.0]):
        res = fj.simulate(w, fj.DeterministicJump(), 2, max_events=120_000,
                          seed=13, init=np.asarray(init), engine="bounded",
                          log_events=True)
        x1 = init[0] + np.cumsum(res.log.lengths * (res.log.indices == 0))
        x2 = init[1] + np.cumsum(res.log.lengths * (res.log.indices == 1))
        gap = np.rint(np.abs(x1 - x2)).astype(int)
        dwell = np.diff(res.log.times)
        o = np.bincount(gap[:-1], weights=dwell, minlength=30)[:30]
        occ.append(o / o.sum())
    assert occupancy_tv(occ[0], occ[1]) < 0.02


def test_mean_path_speed_matches_wave_speed():
    # n large enough that the center drifts at the mean-field speed
    w = fj.StepRate(2.0, 1.0)
    res = fj.simulate(w, fj.ExponentialJump(), 2000, T=50.0, seed=14, engine="bounded")
    assert (res.final_center - res.initial_center) / 50.0 == pytest.approx(1.5, rel=0.05)


def test_proposals_count_every_candidate():
    # every engine proposes at least once per event; the thinning engine
    # (bounded) rejects some proposals, the exact ones none
    z = fj.ExponentialJump()
    for engine, w, n, rejects in (("reference", fj.ExponentialRate(1.0), 20, False),
                                  ("bounded", fj.StepRate(2.0, 1.0), 20, True),
                                  ("exponential", fj.ExponentialRate(1.0), 2, False),
                                  ("exponential", fj.ExponentialRate(1.0), 1000, False)):
        res = fj.simulate(w, z, n, T=2.0, seed=22, engine=engine)
        assert res.events > 0
        assert res.proposals > res.events if rejects else res.proposals == res.events


def test_resum_interval_consistency():
    # run past the re-summation cadence and check the cached center stays true
    res = fj.simulate(fj.StepRate(2.0, 1.0), fj.ExponentialJump(), 5,
                      max_events=120_000, seed=15, engine="bounded")
    assert res.final_center == pytest.approx(float(res.state.positions.mean()), rel=1e-12)


CENTER_CASES = [("reference", fj.ArccotRate(), 7),
                ("bounded", fj.StepRate(2.0, 1.0), 7),
                ("exponential", fj.ExponentialRate(1.0), 7),
                ("exponential", fj.ExponentialRate(1.0), 30)]


@pytest.mark.parametrize("engine, w, n", CENTER_CASES,
                         ids=["reference", "bounded", "exponential-n7", "exponential-n30"])
def test_logged_centers_track_the_exact_center(engine, w, n):
    # With a resum every 97 events, replay the event log over the start. Every
    # logged center is within 97 roundings of the exact fsum(positions) * (1/n),
    # and the center logged at a resum is that exact value bit for bit: every
    # engine re-sums before it logs. Between resums every engine advances the
    # center by the same expression, length * (1/n).
    interval = 97
    init = np.random.default_rng(n).uniform(0.0, 3.0, n)
    with mock.patch.object(sim, "RESUM_INTERVAL", interval):
        res = fj.simulate(w, fj.ExponentialJump(), n, max_events=20 * interval + 1, seed=23,
                          init=init, engine=engine, log_events=True)
    pos, inv_n = init.tolist(), 1.0 / n
    exact = []
    for i, length in zip(res.log.indices, res.log.lengths):
        pos[i] += length
        exact.append(math.fsum(pos) * inv_n)
    exact, centers, lengths = np.asarray(exact), res.log.centers, res.log.lengths
    assert np.all(np.abs(centers - exact) <= interval * 2.0**-52 * np.maximum(1.0, np.abs(exact)))
    resums = np.arange(interval, len(exact), interval) - 1          # log rows of events 97 k
    assert len(resums) == 20
    assert np.array_equal(centers[resums], exact[resums])
    before = np.concatenate([[res.initial_center], centers[:-1]])
    stepped = np.setdiff1d(np.arange(len(centers)), resums)
    assert len(stepped) == len(centers) - 20
    assert np.array_equal(centers[stepped], before[stepped] + lengths[stepped] * inv_n)


# The reference engine's stream: (family, jump law, n, stop, observation times,
# resum interval, start). The runs stop by T, by the cap and by both (either
# first); the observation times fall between events, and one run starts off
# zero and re-sums every 97 events.
REFERENCE_RUNS = [
    (fj.ExponentialRate(1.0), fj.ExponentialJump(), 5, {"T": 3.0},
     np.linspace(0.0, 3.3, 12), 100_000, "zeros"),
    (fj.ArccotRate(), fj.ExponentialJump(), 12, {"max_events": 800},
     np.linspace(0.05, 20.0, 9), 100_000, "zeros"),
    (fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 8, {"T": 50.0, "max_events": 300},
     np.linspace(0.0, 50.0, 7), 100_000, "zeros"),
    (fj.StepRate(2.0, 1.0), fj.ExponentialJump(), 4, {"T": 2.0, "max_events": 10**6},
     np.linspace(0.0, 2.0, 5), 100_000, "zeros"),
    (fj.ExponentialRate(0.5), fj.ExponentialJump(), 30, {"max_events": 1000},
     np.linspace(0.01, 9.0, 4), 97, np.random.default_rng(30).uniform(0.0, 3.0, 30)),
]
REFERENCE_DIGEST = "0c5b7bbc4edda5a7234a755438f8b7fd9c9f847a67ac35c51e2a49f19d56a5db"


def test_reference_engine_digest():
    # sha256 over everything the reference runs show: the log columns, the
    # final positions, proposals, truncated, the final time and center, and
    # the state (t, positions, m) at every observation time the run reaches,
    # which the log replayed from the start rebuilds and the averager's rows
    # must hold. It pins the reference engine's random stream.
    digest = hashlib.sha256()
    for seed, (w, z, n, stop, times, interval, init) in enumerate(REFERENCE_RUNS, start=40):
        avg = ms.TimeAverager(-50.0, 50.0, 8, samples=len(times))
        with mock.patch.object(sim, "RESUM_INTERVAL", interval):
            res = fj.simulate(w, z, n, seed=seed, init=init, engine="reference", log_events=True,
                              observe_times=times, observer=avg, **stop)
        log = res.log
        for col in (log.times, log.indices, log.lengths, log.centers):
            digest.update(col.tobytes())
        digest.update(res.state.positions.tobytes())
        digest.update(repr((res.events, res.proposals, res.truncated, res.final_time.hex(),
                            float(res.final_center).hex())).encode())
        centers = []
        for t, pos, m in replayed_states(times, np.zeros(n) if isinstance(init, str) else init,
                                         res.initial_center, res.final_time,
                                         (log.times, log.indices, log.lengths, log.centers)):
            digest.update(np.float64(t).tobytes() + pos.tobytes() + np.float64(m).tobytes())
            centers.append(m)
        assert avg.t[:avg.rows].tolist() == times[:len(centers)].tolist()
        assert avg.m[:avg.rows].tolist() == centers
    assert digest.hexdigest() == REFERENCE_DIGEST


# ---------------------------------------------------------------------------
# event-log CSV
# ---------------------------------------------------------------------------


def test_event_log_csv_roundtrip(tmp_path):
    res = fj.simulate(fj.StepRate(2.0, 1.0), fj.ExponentialJump(), 5, T=2.0,
                      seed=16, engine="bounded", log_events=True)
    path = tmp_path / "events.csv"
    res.log.write_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "time,particle_index,jump_length,center_of_mass"
    assert len(rows) == len(res.log) + 1
    t, i, z, c = rows[1].split(",")
    assert float(t) == res.log.times[0]
    assert int(i) == res.log.indices[0]
    assert float(z) == res.log.lengths[0]       # 17 significant digits round-trip
    assert float(c) == res.log.centers[0]


# ---------------------------------------------------------------------------
# dominating coupled system
# ---------------------------------------------------------------------------


def test_coupled_requires_bounded_rate():
    with pytest.raises(UnsupportedSpecError):
        fj.simulate_coupled(fj.ExponentialRate(1.0), fj.DeterministicJump(), 5,
                            proposals=10, seed=17)


def test_coupled_dominance_zero_violations():
    cr = fj.simulate_coupled(fj.StepRate(2.0, 1.0), fj.ExponentialJump(), 50,
                             proposals=50_000, seed=18)
    assert cr.position_violations == 0
    assert cr.increment_violations == 0
    assert np.all(cr.dominating_positions >= cr.base_positions)


def test_coupled_flat_rate_identical_paths(flat_rate):
    flat = flat_rate(1.5)
    cr = fj.simulate_coupled(flat, fj.ExponentialJump(), 10, proposals=20_000, seed=19)
    assert cr.acceptance_fraction == 1.0
    assert np.array_equal(cr.base_positions, cr.dominating_positions)


def test_coupled_lone_particle_acceptance_fraction():
    # a lone particle sits at its own center, so acceptance = w(0)/a = b/a
    cr = fj.simulate_coupled(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 1,
                             proposals=100_000, seed=20)
    assert cr.acceptance_fraction == pytest.approx(0.5, abs=0.01)


def test_coupled_dominating_layer_rate():
    # dominating layer jumps at rate a per particle: proposals over [0, T] ~ Poisson(naT)
    cr = fj.simulate_coupled(fj.StepRate(2.0, 1.0), fj.DeterministicJump(), 25,
                             T=40.0, seed=21)
    lam = 25 * 2.0 * 40.0
    assert abs(cr.proposals - lam) < 4 * math.sqrt(lam)
