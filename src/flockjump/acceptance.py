"""Acceptance suite: one callable per criterion, each returning its checks.

A check is a tuple (label, statistic, tolerance), optionally followed by a
note for context the statistic does not carry. It passes when statistic <=
tolerance, so a NaN statistic fails; yes/no properties (monotone paths,
dominance, exact identities) are counted as violations against tolerance 0.
Every stochastic criterion runs under a fixed recorded seed so the suite is
deterministic. `run_acceptance` prints one PASS/FAIL line per criterion;
the pytest acceptance module drives the same registry.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import extremes as ex
from . import measures as ms
from . import mean_field as mf
from . import sim
from . import two_particle as tp
from .harness import preset_config, run_scenario
from .model import (
    ArccotRate,
    DeterministicJump,
    ExponentialJump,
    ExponentialRate,
    PiecewiseLinearRate,
    StepRate,
)

GAMMA = 0.5772156649015329


@dataclass
class CriterionResult:
    number: int
    title: str
    checks: list            # (label, statistic, tolerance) or (..., note)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(s <= t for _, s, t, *_ in self.checks)

    @property
    def detail(self) -> str:
        return "; ".join(", ".join([f"{label}: {_number(s)} (tol {_number(t)})", *filter(None, note)])
                         for label, s, t, *note in self.checks)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d}: {self.title} ({self.seconds:.1f}s) -- {self.detail}"


def _number(x) -> str:
    return str(x) if isinstance(x, numbers.Integral) else repr(float(x))


def _violations(*holds) -> int:
    """Count the entries where a property does not hold; a NaN counts."""
    return sum(np.count_nonzero(~np.asarray(h)) for h in holds)


# ---------------------------------------------------------------------------
# criteria: each returns its checks
# ---------------------------------------------------------------------------


def crit_01_wave_speed_step(quick=False):
    c = mf.wave_speed(StepRate(2.0, 1.0))
    return [("|c - 1.5|", abs(c - 1.5), 1e-6, f"c = {c:.9f}")]


def crit_02_wave_speed_arccot(quick=False):
    c = mf.wave_speed(ArccotRate())
    return [("|c - pi/2|", abs(c - math.pi / 2), 1e-6, f"c = {c:.9f}")]


def crit_03_wave_speed_exponential_three_way(quick=False):
    w = ExponentialRate(1.0)
    target = math.exp(GAMMA)
    c_root = mf.wave_speed(w)
    c_formula = mf.stationary_wave(w).c
    prof = mf.wave_profile(w, c_root)
    c_quad = mf.mean_speed_arrays(prof.grid, prof.values, prof.trapz_mean(), w)
    tol = 1e-4
    return [
        ("|root - e^gamma|", abs(c_root - target), tol, f"root {c_root:.7f}, e^gamma {target:.7f}"),
        ("|formula - e^gamma|", abs(c_formula - target), tol, f"formula {c_formula:.7f}"),
        ("|quadrature - root|", abs(c_quad - c_root), tol,
         f"quadrature {c_quad:.7f}; the printed constant e^-gamma = {math.exp(-GAMMA):.5f} "
         "disagrees with all three mutually consistent values"),
    ]


def crit_04_wave_equation_residual(quick=False):
    # the residual is linear in rho, so only the profile's mass sees a wrong log K
    checks = []
    for name, w in (("step", StepRate(2.0, 1.0)), ("pwlinear", PiecewiseLinearRate(2.0, 1.0)),
                    ("arccot", ArccotRate()), ("exponential", ExponentialRate(1.0))):
        c = mf.wave_speed(w)
        mass = mf.wave_profile(w, c, h=0.002, drop=50.0).trapz_mass()
        checks += [(f"{name} sup|residual|", mf.wave_equation_residual(w, c), 1e-6),
                   (f"{name} |trapezoid mass - 1|", abs(mass - 1.0), 1e-6)]
    return checks


def _gap(log):
    x1 = np.cumsum(log.lengths * (log.indices == 0))
    x2 = np.cumsum(log.lengths * (log.indices == 1))
    return np.abs(x1 - x2)


def _gap_occupancy(log):
    gap = np.rint(_gap(log)).astype(int)
    occ = np.bincount(gap[:-1], weights=np.diff(log.times))
    return occ / occ.sum()


def crit_05_two_particle_birth_death(quick=False):
    events = 200_000 if quick else 1_000_000
    checks = []
    violations = 0
    for name, w, engine in (("step(2,1)", StepRate(2.0, 1.0), "bounded"),
                            ("exp(beta=1)", ExponentialRate(1.0), "exponential")):
        res = sim.simulate(w, DeterministicJump(), 2, max_events=events, seed=505,
                           engine=engine, log_events=True)
        violations += _violations(res.log.lengths >= 0, np.diff(res.log.centers) > 0)
        occ = _gap_occupancy(res.log)
        chain = tp.gap_chain(w)
        pi = tp.gap_stationary_pmf(chain)
        k = min(len(occ), len(pi))
        tv = 0.5 * (np.abs(occ[:k] - pi[:k]).sum() + occ[k:].sum() + pi[k:].sum())
        pi_q = tp.gap_stationary_via_generator(chain)
        solver_gap = float(np.max(np.abs(pi - pi_q)))
        checks.append((f"{name} TV", tv, 0.01, f"{events} events"))
        checks.append((f"{name} max|pi - piQ|", solver_gap, 1e-10))
    checks.append(("non-monotone steps", violations, 0, "jumps >= 0, centers increasing"))
    return checks


def crit_06_two_particle_continuous_gap(quick=False):
    events = 200_000 if quick else 1_000_000
    checks = []
    for beta in (1.0, 2.0):
        w = ExponentialRate(beta)
        res = sim.simulate(w, ExponentialJump(), 2, max_events=events, seed=606,
                           engine="exponential", log_events=True)
        ks = ms.ks_distance(_gap(res.log)[:-1], tp.GapDensity(beta).cdf,
                            weights=np.diff(res.log.times))
        checks.append((f"beta={beta:g} KS", ks, 0.02,
                       "cdf = tanh g exactly" if beta == 2.0 else None))
    return checks


def crit_07_master_equation_residual(quick=False):
    tol = 1e-8
    checks = []
    for beta in (1.0, 2.0, 4.0):
        dens = tp.GapDensity(beta)
        worst = max(abs(tp.master_residual(dens.pdf, beta, g)) for g in (0.1, 1.0, 3.0))
        lhs, rhs = tp.boundary_limit_check(beta)
        checks.append((f"beta={beta:g} residual", worst, tol))
        checks.append((f"beta={beta:g} boundary |lhs - rhs|", abs(lhs - rhs), tol))
    return checks


def _preset_criterion(full_name, small_name, quick):
    checks = []
    runs = [(small_name, 0.05, 0.05)]
    if not quick:
        runs.insert(0, (full_name, 0.02, 0.02))
    for preset, ks_tol, slope_tol in runs:
        s = run_scenario(preset_config(preset)).summary
        checks.append((f"{preset} KS", s["ks_timeavg"], ks_tol))
        checks.append((f"{preset} speed rel err", s["speed_rel_err"], slope_tol,
                       f"fitted {s['fitted_speed']:.5f} vs model {s['wave_speed_model']:.5f}"))
    return checks


def crit_08_preset_fig4_6(quick=False):
    return _preset_criterion("fig4_6", "fig4_6_small", quick)


def crit_09_preset_fig7_9(quick=False):
    return _preset_criterion("fig7_9", "fig7_9_small", quick)


def crit_10_mean_field_pde(quick=False):
    w = ExponentialRate(1.0)
    c = mf.wave_speed(w)
    prof = mf.wave_profile(w, c)
    h, dt = 0.01, 1e-3
    grid = np.arange(-6.0, 25.0 + h / 2, h)

    # (a) + (c): wave-initialized run: mass budget and moving-frame drift
    f0 = mf.DensityField.from_profile(prof, grid=grid)
    final, diag = mf.pde_integrate(f0, w, T=10.0, dt=dt, samples=50, wave=prof)
    drift = diag.mass_drift_per_unit_time() + abs(diag.trimmed_mass) / 10.0
    checks = [
        ("mass drift per unit time", drift, 1e-8, f"h={h:g}, dt={dt:g}"),
        ("W1 moving frame", diag.w1_moving[-1], 5 * h, "over T=10"),
    ]

    # (b) differentiated mean vs the speed functional, step by step
    f = mf.DensityField.from_profile(prof, grid=np.arange(-5.5, 25.0, h))
    worst = 0.0
    for _ in range(50 if quick else 200):
        spd = mf.mean_speed_arrays(f.grid, f.values, f.mean, w)
        f2 = mf.pde_step(f, w, dt)
        worst = max(worst, abs((f2.mean - f.mean) / dt - spd))
        f = f2
    checks.append(("max |dm/dt - speed|", worst, 1e-5))

    # (d) narrow Gaussian converges to the wave
    T = 20.0 if quick else 50.0
    g0 = mf.DensityField.gaussian(grid, center=0.0, sigma=0.1)
    _, diag_g = mf.pde_integrate(g0, w, T=T, dt=dt, samples=20, wave=prof)
    checks.append((f"Gaussian to wave W1 (T={T:g})", diag_g.w1_shape[-1], 0.05))
    return checks


def crit_11_residual_scaling(quick=False):
    w, z = StepRate(2.0, 1.0), DeterministicJump()
    ns = [100, 400, 1600] if quick else [100, 400, 1600, 6400]
    seeds = 10 if quick else 20
    slope_tol = 0.25 if quick else 0.1          # quick mode has fewer points/seeds
    t = 10.0
    study = ms.residual_scaling(ns, seeds=seeds, t=t, w=w, z=z, base_seed=1100)
    checks = [("|slope + 0.5|", abs(study.slope + 0.5), slope_tol,
               f"slope {study.slope:.3f}, RMS " + ", ".join(f"{r:.4f}" for r in study.rms_sup))]
    a, ez2 = 2.0, 1.0
    for n in ns:
        vals = study.values[n]
        s2 = float(vals.var(ddof=1))
        bound = a * ez2 * t / n
        se = s2 * math.sqrt(2.0 / (len(vals) - 1))
        checks.append((f"n={n} variance", s2, bound + 3 * se,
                       f"aE(Z^2)t/n = {bound:.5f} plus 3se = {3 * se:.5f}"))
    return checks


def crit_12_coupling_dominance(quick=False):
    proposals = 20_000 if quick else 100_000
    cr = sim.simulate_coupled(StepRate(2.0, 1.0), ExponentialJump(), 50,
                              proposals=proposals, seed=1212)
    return [
        ("position dominance violations", cr.position_violations, 0,
         f"over {cr.proposals} proposals"),
        ("increment dominance violations", cr.increment_violations, 0, "exact fsum check"),
        ("final state violations", _violations(cr.dominating_positions >= cr.base_positions),
         0, f"acceptance fraction {cr.acceptance_fraction:.3f}"),
    ]


def crit_13_extreme_value_oracle(quick=False):
    runs = 400 if quick else 2000
    pool = 10_000 if quick else 100_000
    tol = 0.06 if quick else 0.03
    checks = []
    for beta, seed in ((1.0, 3), (0.5, 3)):
        c = mf.stationary_wave(ExponentialRate(beta)).c
        T = math.log(pool * beta * c) / (beta * c) + 1e-9
        rng = np.random.default_rng(seed)
        smp = ex.sample_final_uncentered(beta, c, T, runs=runs, rng=rng)
        ks = ms.ks_distance(smp, lambda x: ex.generalized_gumbel_cdf(beta, x))
        checks.append((f"beta={beta:g} KS", ks, tol, f"{runs} runs, pool {pool:,}, seed {seed}"))
    return checks


def crit_14_property_suites(quick=False):
    rng = np.random.default_rng(14)
    triangle_worst = 0.0
    asymmetric = 0
    for _ in range(1000):
        x = rng.normal(0, 1, 8)
        y = rng.normal(rng.uniform(-1, 1), 1.5, 8)
        zz = rng.standard_exponential(8)
        dxy = ms.wasserstein1(x, y)
        asymmetric += not (dxy == ms.wasserstein1(y, x) and ms.wasserstein1(x, x) == 0.0)
        triangle_worst = max(triangle_worst,
                             dxy - ms.wasserstein1(x, zz) - ms.wasserstein1(zz, y))
    checks = [("W1 symmetry violations", asymmetric, 0, "1000 triples, d(x, x) = 0 included"),
              ("W1 worst triangle slack", triangle_worst, 1e-12)]

    pos = rng.normal(0.0, 2.5, 20_000)
    hist = ms.build_histogram(pos, 0.0, -4.0, 4.0)
    ident = hist.values.sum() * hist.h + hist.out_count / hist.n_samples
    checks.append(("histogram counting identity violations",
                   _violations(hist.counts.sum() + hist.out_count == hist.n_samples), 0))
    checks.append(("histogram |float mass - 1|", abs(ident - 1.0), 1e-12))

    violations = 0
    for engine, w in (("bounded", StepRate(2.0, 1.0)),
                      ("exponential", ExponentialRate(1.0)),
                      ("reference", ArccotRate())):
        res = sim.simulate(w, ExponentialJump(), 30, T=5.0, seed=1414, engine=engine,
                           log_events=True)
        violations += _violations(res.log.lengths >= 0,
                                  np.diff(np.concatenate([[0.0], res.log.centers])) >= 0,
                                  np.diff(res.log.times) > 0)
    checks.append(("non-monotone steps", violations, 0,
                   "jumps >= 0, centers non-decreasing, times strictly increasing on all engines"))
    return checks


CRITERIA = [
    (1, "wave speed, step rates (c = 3/2)", crit_01_wave_speed_step),
    (2, "wave speed, arccot (c = pi/2)", crit_02_wave_speed_arccot),
    (3, "wave speed, exponential beta=1 (three-way)", crit_03_wave_speed_exponential_three_way),
    (4, "traveling-wave residual and mass, four families", crit_04_wave_equation_residual),
    (5, "two-particle birth-death occupancy and piQ = 0", crit_05_two_particle_birth_death),
    (6, "two-particle continuous gap, beta in {1, 2}", crit_06_two_particle_continuous_gap),
    (7, "master-equation residual and boundary identity", crit_07_master_equation_residual),
    (8, "preset fig4_6: exponential-rate histogram and speed match", crit_08_preset_fig4_6),
    (9, "preset fig7_9: step-rate histogram and speed match", crit_09_preset_fig7_9),
    (10, "mean-field PDE budgets (mass, mean identity, W1)", crit_10_mean_field_pde),
    (11, "martingale residual scaling (slope -1/2; variance bound)", crit_11_residual_scaling),
    (12, "coupling dominance", crit_12_coupling_dominance),
    (13, "extreme-value oracle, beta in {1, 1/2}", crit_13_extreme_value_oracle),
    (14, "property suites (W1 axioms, histogram identity, monotone paths)", crit_14_property_suites),
]


def run_criterion(number: int, quick: bool = False) -> CriterionResult:
    for num, title, fn in CRITERIA:
        if num == number:
            t0 = time.time()
            checks = fn(quick=quick)
            return CriterionResult(num, title, checks, seconds=time.time() - t0)
    raise ValueError(f"no criterion {number}")


def run_acceptance(quick: bool = False, only: int = None, out=print) -> int:
    if quick:
        out("# quick mode: scaled presets and reduced event counts "
            "(full tolerances need the default mode)")
    results = []
    for num, title, fn in CRITERIA:
        if only is not None and num != only:
            continue
        results.append(run_criterion(num, quick=quick))
        out(results[-1].line())
    failed = [r for r in results if not r.passed]
    out(f"# {len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; FAILED: {[r.number for r in failed]}" if failed else ""))
    return 1 if failed else 0
