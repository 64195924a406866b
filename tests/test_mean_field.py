import math

import numpy as np
import pytest
from scipy.integrate import quad

import flockjump as fj
from flockjump.mean_field import (
    DensityField,
    NonIntegrableError,
    SolverError,
    StepSizeError,
    closed_form_density,
    digamma,
    gumbel_wave_cdf,
    gumbel_wave_pdf,
    laplace_wave_cdf,
    laplace_wave_pdf,
    mean_speed_arrays,
    pde_integrate,
    pde_step,
    log_profile,
    profile_mean,
    profile_moments,
    stationary_wave,
    upper_gamma_regularized,
    wave_equation_residual,
    wave_profile,
    wave_speed,
)
from flockjump.model import RATE_FAMILIES, DomainError
from flockjump.sim import ENGINES, UnsupportedSpecError, check_engine

GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# digamma
# ---------------------------------------------------------------------------


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-GAMMA, abs=1e-10)
    assert digamma(0.5) == pytest.approx(-GAMMA - 2 * math.log(2), abs=1e-10)


def test_digamma_recurrence():
    for x in (0.5, 2.0, 10.0):
        assert digamma(x + 1) - digamma(x) == pytest.approx(1.0 / x, abs=1e-10)


def test_digamma_against_lgamma_finite_difference():
    # independent oracle: psi(x) ~ (lgamma(x+h) - lgamma(x-h)) / 2h
    for x in (0.3, 1.0, 2.7, 6.5, 40.0):
        h = 1e-5 * max(1.0, x)
        fd = (math.lgamma(x + h) - math.lgamma(x - h)) / (2 * h)
        assert digamma(x) == pytest.approx(fd, abs=1e-7 * max(1.0, abs(fd)))


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-2.0)


# ---------------------------------------------------------------------------
# wave speeds (acceptance criteria 1-3 at test scale)
# ---------------------------------------------------------------------------


def test_wave_speed_step():
    assert wave_speed(fj.StepRate(2.0, 1.0)) == pytest.approx(1.5, abs=1e-6)
    assert wave_speed(fj.StepRate(3.0, 0.5)) == pytest.approx(1.75, abs=1e-6)


def test_wave_speed_arccot():
    assert wave_speed(fj.ArccotRate()) == pytest.approx(math.pi / 2, abs=1e-6)


def test_wave_speed_piecewise_linear():
    assert wave_speed(fj.PiecewiseLinearRate(2.0, 1.0)) == pytest.approx(1.5, abs=1e-6)


def test_wave_speed_exponential_three_way():
    w = fj.ExponentialRate(1.0)
    c_root = wave_speed(w)
    c_formula = math.exp(-digamma(1.0))
    assert c_root == pytest.approx(math.exp(GAMMA), abs=1e-4)
    assert c_formula == pytest.approx(math.exp(GAMMA), abs=1e-10)
    prof = wave_profile(w, c_root)
    c_quad = mean_speed_arrays(prof.grid, prof.values, prof.trapz_mean(), w)
    assert c_quad == pytest.approx(c_root, abs=1e-4)


def test_wave_speed_reports_bracket():
    report = {}
    wave_speed(fj.StepRate(2.0, 1.0), report=report)
    c_lo, c_hi = report["bracket"]
    m_lo, m_hi = report["endpoint_means"]
    assert m_lo > 0 > m_hi
    assert report["moment_decreasing"]


def test_wave_speed_constant_rate_fails(flat_rate):
    with pytest.raises(SolverError):
        wave_speed(flat_rate(1.0))


def test_wave_speed_inside_limits():
    for w in (fj.StepRate(2.0, 1.0), fj.ExponentialRate(0.5), fj.ArccotRate(),
              fj.PiecewiseLinearRate(3.0, 1.0)):
        c = wave_speed(w)
        assert w.right_limit < c < w.left_limit


# Families over their admissible speed brackets (w(+inf), w(-inf)); the
# exponential rate is unbounded on the left, so 3 w(0) closes its bracket.
SPEED_BRACKETS = {
    "step": (fj.StepRate(2.0, 1.0), 1.0, 2.0),
    "pwl": (fj.PiecewiseLinearRate(2.0, 1.0), 1.0, 2.0),
    "arccot": (fj.ArccotRate(), 0.0, math.pi),
    "exp": (fj.ExponentialRate(1.0), 0.0, 3.0),
    "tabulated": (fj.TabulatedRate(grid=(-1.5, -0.5, 0.5, 1.5), values=(2.5, 2.0, 1.4, 1.0)),
                  1.0, 2.5),
}


@pytest.mark.parametrize("family", sorted(SPEED_BRACKETS))
def test_wave_speed_evaluation_budget(family):
    w = SPEED_BRACKETS[family][0]
    report = {}
    c = wave_speed(w, report=report)
    assert report["evaluations"] <= 20
    assert 0.0 <= report["bracket_width"] <= 1e-13 * max(1.0, abs(c))


def test_wave_speed_iteration_guard():
    with pytest.raises(SolverError, match="did not converge"):
        wave_speed(fj.ExponentialRate(1.0), max_iter=2)


@pytest.mark.parametrize("a,b", [(2.0, 1.0), (2.5, 1.18), (3.0, 0.5)])
def test_tabulated_speed_matches_piecewise_linear(a, b):
    # The two-point table interpolates linearly on [-1, 1] and is flat outside:
    # it is PiecewiseLinearRate(a, b), whose profile is symmetric at (a+b)/2.
    w = fj.TabulatedRate(grid=(-1.0, 1.0), values=(a, b))
    assert wave_speed(w) == pytest.approx(0.5 * (a + b), abs=1e-10)
    assert stationary_wave(w).c == pytest.approx(0.5 * (a + b), abs=1e-10)
    assert wave_equation_residual(w) <= 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1.01, 1.001])
def test_wave_speed_narrow_step_gap(a):
    # Tails decay at (a-1)/(a+1): the profile is thousands of units wide.
    assert wave_speed(fj.StepRate(a, 1.0)) == pytest.approx(0.5 * (a + 1.0), abs=1e-10)


# ---------------------------------------------------------------------------
# profile moments against an adaptive-quadrature reference
# ---------------------------------------------------------------------------


def _reference_moments(w, c, drop=60.0):
    """(log mass, mean) of exp(log_profile) by two adaptive Gauss-Kronrod
    passes split at the knots and the peak; the peak and the tail bounds come
    from scalar doubling and bisection."""
    lo, hi = -1.0, 1.0
    while float(w(lo)) <= c:
        lo *= 2.0
    while float(w(hi)) >= c:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(w(mid)) > c:
            lo = mid
        else:
            hi = mid
    x_star = 0.5 * (lo + hi)
    e_star = float(log_profile(w, c, x_star))
    target = e_star - drop

    def bound(direction):
        step = 1.0
        while float(log_profile(w, c, x_star + direction * step)) >= target:
            step *= 2.0
        inner, outer = x_star, x_star + direction * step
        for _ in range(80):
            mid = 0.5 * (inner + outer)
            if float(log_profile(w, c, mid)) < target:
                outer = mid
            else:
                inner = mid
        return outer

    x_lo, x_hi = bound(-1.0), bound(+1.0)

    def f0(x):
        return math.exp(float(log_profile(w, c, x)) - e_star)

    pts = sorted(p for p in (*w.knots, x_star) if x_lo < p < x_hi) or None
    i0, _ = quad(f0, x_lo, x_hi, points=pts, limit=400, epsabs=0.0, epsrel=1e-12)
    i1, _ = quad(lambda x: x * f0(x), x_lo, x_hi, points=pts, limit=400,
                 epsabs=1e-12 * i0, epsrel=1e-12)
    return math.log(i0) + e_star, i1 / i0


@pytest.mark.parametrize("frac", [0.1, 0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("family", sorted(SPEED_BRACKETS))
def test_profile_moments_match_adaptive_reference(family, frac):
    w, c_min, c_max = SPEED_BRACKETS[family]
    c = c_min + frac * (c_max - c_min)
    i0, i1, e_star = profile_moments(w, c)
    log_mass_ref, mean_ref = _reference_moments(w, c)
    assert abs(math.expm1(math.log(i0) + e_star - log_mass_ref)) <= 1e-12
    assert abs(i1 / i0 - mean_ref) <= 1e-12


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_speed_bracket_validation(flat_rate):
    with pytest.raises(NonIntegrableError):
        wave_profile(fj.StepRate(2.0, 1.0), 2.5)
    with pytest.raises(NonIntegrableError):
        wave_profile(flat_rate(1.0), 1.0)


def test_step_profile_is_laplace():
    prof = wave_profile(fj.StepRate(2.0, 1.0), 1.5)
    xs = np.linspace(-8, 8, 401)
    exact = (1.0 / 6.0) * np.exp(-np.abs(xs) / 3.0)
    assert np.max(np.abs(prof.density_at(xs) - exact)) <= 1e-8
    assert np.allclose(laplace_wave_pdf(2.0, 1.0, xs), exact, rtol=1e-12, atol=0)


def test_gumbel_profile_closed_form():
    c = math.exp(GAMMA)
    prof = wave_profile(fj.ExponentialRate(1.0), c)
    xs = np.linspace(-2, 10, 301)
    exact = np.exp(-(xs + GAMMA) - np.exp(-(xs + GAMMA)))
    assert np.max(np.abs(prof.density_at(xs) - exact)) <= 1e-6
    assert gumbel_wave_pdf(1.0, -GAMMA) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_profile_normalization_and_centering():
    for w in (fj.StepRate(2.0, 1.0), fj.ExponentialRate(1.0), fj.ArccotRate(),
              fj.PiecewiseLinearRate(2.0, 1.0)):
        c = wave_speed(w)
        prof = wave_profile(w, c)
        assert prof.trapz_mass() == pytest.approx(1.0, abs=1e-8)
        assert abs(prof.trapz_mean()) <= 1e-6
        assert np.all(prof.values >= 0)


def test_profile_tails_exponentially_dominated():
    # log-density eventually dominated by a linear decrease on both ends
    for w in (fj.StepRate(2.0, 1.0), fj.ExponentialRate(1.0)):
        c = wave_speed(w)
        prof = wave_profile(w, c)
        logs = np.log(np.maximum(prof.values, 1e-300))
        peak = int(np.argmax(logs))
        h = prof.h
        right = logs[peak:]
        drops = np.diff(right)
        tail = drops[len(drops) // 2:]
        assert np.all(tail <= -1e-3 * h)          # linear-or-faster right decay
        left = logs[:peak + 1][::-1]
        tail_l = np.diff(left)[len(left) // 2:]
        assert np.all(tail_l <= -1e-3 * h)


def test_laplace_coefficient():
    assert laplace_wave_pdf(2.0, 1.0, 0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert laplace_wave_cdf(2.0, 1.0, 0.0) == pytest.approx(0.5)
    xs = np.linspace(-20, 20, 101)
    cdf = laplace_wave_cdf(2.0, 1.0, xs)
    assert np.all(np.diff(cdf) >= 0) and cdf[0] < 1e-3 and cdf[-1] > 1 - 1e-3


def test_piecewise_gauss_exp_density():
    # continuous at |x| = 1 and matches the profile construction pointwise
    a, b = 2.0, 1.0

    def pdf(x):
        return closed_form_density("piecewise_gauss_exp", x, a=a, b=b)

    left = pdf(1.0 - 1e-12)
    right = pdf(1.0 + 1e-12)
    assert abs(left - right) <= 1e-12
    prof = wave_profile(fj.PiecewiseLinearRate(a, b), 1.5)
    xs = np.linspace(-6, 6, 201)
    assert np.max(np.abs(pdf(xs) - prof.density_at(xs))) < 1e-10
    from scipy.integrate import quad

    total, _ = quad(lambda x: float(pdf(x)), -90, 90, points=[-1, 0, 1], limit=300)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_arccot_density_symmetric():
    xs = np.linspace(0.1, 10, 40)
    assert np.allclose(closed_form_density("arccot", xs), closed_form_density("arccot", -xs),
                       rtol=1e-10)
    prof = wave_profile(fj.ArccotRate(), math.pi / 2)
    assert np.max(np.abs(closed_form_density("arccot", prof.grid)
                         - prof.density_at(prof.grid))) < 1e-12


def test_closed_form_dispatcher():
    assert closed_form_density("generalized_gumbel", 0.3, beta=1.0) == \
        pytest.approx(float(gumbel_wave_pdf(1.0, 0.3)))
    assert closed_form_density("laplace", 0.3, a=2.0, b=1.0) == \
        pytest.approx(float(laplace_wave_pdf(2.0, 1.0, 0.3)))
    with pytest.raises(DomainError):
        closed_form_density("nope", 0.0)


# One instance of every registered family; the table is the benchmark's base
# table. A family added to RATE_FAMILIES must be added here.
FAMILY_CASES = {
    "exponential": fj.ExponentialRate(0.8),
    "step": fj.StepRate(2.0, 1.0),
    "piecewise_linear": fj.PiecewiseLinearRate(2.0, 1.0),
    "arccot": fj.ArccotRate(),
    "tabulated": fj.TabulatedRate(grid=(-1.5, -0.5, 0.5, 1.5), values=(2.5, 2.0, 1.4, 1.0)),
}


def test_family_cases_cover_every_family():
    assert set(FAMILY_CASES) == set(RATE_FAMILIES)


@pytest.mark.parametrize("family", sorted(RATE_FAMILIES))
def test_every_family_has_a_stationary_wave_and_engines(family):
    w = FAMILY_CASES[family]
    wave = stationary_wave(w)
    assert abs(wave.c - wave_speed(w)) <= 1e-10
    cdf = wave.cdf(np.linspace(-80.0, 80.0, 4001))
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[0] <= 1e-6 and cdf[-1] >= 1.0 - 1e-6
    accepted = set()
    for engine in ("auto", *ENGINES):
        try:
            check_engine(w, engine)
            accepted.add(engine)
        except UnsupportedSpecError:
            pass
    assert accepted == {"auto", w.default_engine, "reference"}


@pytest.mark.parametrize("name, params, w", [
    ("generalized_gumbel", {"beta": 0.8}, fj.ExponentialRate(0.8)),
    ("laplace", {"a": 2.0, "b": 1.0}, fj.StepRate(2.0, 1.0)),
    ("piecewise_gauss_exp", {"a": 2.0, "b": 1.0}, fj.PiecewiseLinearRate(2.0, 1.0)),
    ("arccot", {}, fj.ArccotRate()),
])
def test_closed_form_density_is_the_stationary_wave_pdf(name, params, w):
    assert w.stationary_law() == (name, params)
    xs = np.linspace(-10.0, 30.0, 4001)
    assert np.array_equal(closed_form_density(name, xs, **params), stationary_wave(w).pdf(xs))


def test_gumbel_cdf_integer_k():
    # beta=1: standard Gumbel CDF exp(-e^{-(x - s)}) with s = psi(1)
    xs = np.linspace(-3, 8, 50)
    s = digamma(1.0)
    ref = np.exp(-np.exp(-(xs - s)))
    assert np.max(np.abs(gumbel_wave_cdf(1.0, xs) - ref)) < 1e-12
    # derivative of the cdf matches the pdf
    h = 1e-6
    mid = 0.7
    fd = (gumbel_wave_cdf(0.5, mid + h) - gumbel_wave_cdf(0.5, mid - h)) / (2 * h)
    assert fd == pytest.approx(float(gumbel_wave_pdf(0.5, mid)), rel=1e-5)


def test_upper_gamma_regularized():
    assert float(upper_gamma_regularized(1, 0.7)) == pytest.approx(math.exp(-0.7))
    # k=3 against the Poisson tail identity Q(3, z) = P(Poisson(z) <= 2)
    z = 1.9
    ref = math.exp(-z) * (1 + z + z * z / 2)
    assert float(upper_gamma_regularized(3, z)) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# mean speed
# ---------------------------------------------------------------------------


def test_mean_speed_constant_rate_exact(flat_rate):
    grid = np.linspace(-10, 10, 2001)
    vals = np.exp(-0.5 * grid ** 2)
    vals /= np.trapezoid(vals, grid)
    flat = flat_rate(1.7)
    assert mean_speed_arrays(grid, vals, 0.0, flat) == pytest.approx(1.7, abs=1e-12)


def test_mean_speed_bounded_by_sup():
    grid = np.linspace(-10, 10, 2001)
    rng = np.random.default_rng(0)
    vals = np.exp(-0.5 * (grid - rng.uniform(-2, 2)) ** 2 / 1.3)
    vals /= np.trapezoid(vals, grid)
    w = fj.StepRate(2.0, 1.0)
    s = mean_speed_arrays(grid, vals, float(np.trapezoid(grid * vals, grid)), w)
    assert 1.0 <= s <= 2.0


# ---------------------------------------------------------------------------
# traveling-wave equation residual (criterion 4 at test scale)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("w", [fj.StepRate(2.0, 1.0), fj.PiecewiseLinearRate(2.0, 1.0),
                               fj.ArccotRate(), fj.ExponentialRate(1.0)],
                         ids=["step", "pwl", "arccot", "exp"])
def test_wave_equation_residual_small(w):
    assert wave_equation_residual(w) <= 1e-6


# ---------------------------------------------------------------------------
# PDE
# ---------------------------------------------------------------------------


def _wave_setup(h=0.01):
    w = fj.ExponentialRate(1.0)
    c = wave_speed(w)
    prof = wave_profile(w, c)
    grid = np.arange(-6.0, 25.0 + h / 2, h)
    return w, c, prof, grid


def test_pde_mass_conservation_and_identity():
    w, c, prof, grid = _wave_setup()
    f = DensityField.from_profile(prof, grid=grid)
    final, diag = pde_integrate(f, w, T=2.0, dt=1e-3, samples=20, wave=prof)
    assert diag.mass_drift_per_unit_time() <= 1e-8
    assert abs(final.mass - 1.0) <= 1e-8


def test_pde_differentiated_mean_matches_speed():
    w, c, prof, grid = _wave_setup()
    f = DensityField.from_profile(prof, grid=np.arange(-5.5, 25.0, 0.01))
    worst = 0.0
    for _ in range(100):
        spd = mean_speed_arrays(f.grid, f.values, f.mean, w)
        f2 = pde_step(f, w, 1e-3)
        worst = max(worst, abs((f2.mean - f.mean) / 1e-3 - spd))
        f = f2
    assert worst <= 1e-5


def test_pde_stationarity_in_moving_frame():
    w, c, prof, grid = _wave_setup()
    f = DensityField.from_profile(prof, grid=grid)
    final, diag = pde_integrate(f, w, T=10.0, dt=1e-3, samples=20, wave=prof)
    assert diag.w1_moving[-1] <= 5 * 0.01


def test_pde_t0_identity():
    w, c, prof, grid = _wave_setup()
    f = DensityField.from_profile(prof, grid=grid)
    final, diag = pde_integrate(f, w, T=0.0, dt=1e-3, samples=5, wave=None)
    assert np.array_equal(final.values, f.values)
    assert final.time == 0.0


def test_pde_gaussian_converges_to_wave():
    w, c, prof, grid = _wave_setup()
    f0 = DensityField.gaussian(grid, center=0.0, sigma=0.1)
    final, diag = pde_integrate(f0, w, T=20.0, dt=1e-3, samples=20, wave=prof)
    assert diag.w1_shape[-1] <= 0.05


def test_pde_halving_h_halves_w1_error():
    w, c, prof, _ = _wave_setup()
    errs = {}
    for h in (0.02, 0.01):
        grid = np.arange(-6.0, 18.0 + h / 2, h)
        f = DensityField.from_profile(prof, grid=grid)
        final, diag = pde_integrate(f, w, T=3.0, dt=h / 20, samples=5, wave=prof)
        errs[h] = diag.w1_moving[-1]
    ratio = errs[0.02] / errs[0.01]
    assert 1.7 <= ratio <= 2.3


def test_pde_step_size_guard():
    w, c, prof, grid = _wave_setup()
    f = DensityField.from_profile(prof, grid=grid)
    with pytest.raises(StepSizeError):
        pde_step(f, w, dt=0.1)


def test_pde_step_bounded_rate_fixed_window():
    # Laplace tails decay at rate 1/3, so the window must be wide for the
    # mass budget; the left tail carries mass, so the left edge stays fixed
    # and the window widens.
    w = fj.StepRate(2.0, 1.0)
    c = wave_speed(w)
    prof = wave_profile(w, c)
    grid = np.arange(-60.0, 70.0, 0.02)
    f = DensityField.from_profile(prof, grid=grid)
    final, diag = pde_integrate(f, w, T=3.0, dt=1e-2, samples=10, wave=prof)
    assert final.grid[0] == grid[0]
    assert diag.mass_drift_per_unit_time() <= 1e-8
    assert diag.w1_moving[-1] <= 0.1


@pytest.mark.parametrize("T", [2.0, 5.0])
def test_pde_window_widens_only_as_far_as_the_mean_moves(T):
    # The left edge carries mass above 1e-30, so the window widens instead of
    # moving: by one cell for each cell the mean advances, not without end.
    w, h = fj.StepRate(2.0, 1.0), 0.02
    grid = np.arange(-3.0, 40.0 + h / 2, h)
    f0 = DensityField.gaussian(grid, center=-2.5, sigma=0.08)
    final, diag = pde_integrate(f0, w, T=T, dt=0.1)
    assert final.values[0] > 1e-30
    assert len(final.grid) <= len(grid) + math.ceil((final.mean - f0.mean) / h) + 1
    assert diag.mass_drift_per_unit_time() <= 1e-8


def jump_kernel_weights(phi, h: float, tail_tol: float = 1e-14, max_cells: int = 100_000):
    """Mass/mean-preserving node weights for a general jump density phi on [0, inf)."""
    weights = [0.0]
    d = 0
    total = 0.0
    while d < max_cells:
        lo, hi = d * h, (d + 1) * h
        mass, _ = quad(phi, lo, hi, limit=100)
        if mass > 0:
            m1, _ = quad(lambda u: u * phi(u), lo, hi, limit=100)
            theta = (m1 / mass - lo) / h
            weights[d] += (1.0 - theta) * mass
            weights.append(theta * mass)
        else:
            weights.append(0.0)
        total += mass
        if 1.0 - total < tail_tol and d > 2:
            break
        d += 1
    return np.asarray(weights)


def pde_step_general(field, w, kernel_weights, dt):
    """Euler step of the mean-field equation with an arbitrary jump-kernel
    weight vector, by an O(grid^2) convolution: an independent oracle for
    pde_step's O(grid) recursion."""
    s = np.asarray(w.rate(field.grid - field.mean), dtype=float) * field.values
    conv = np.convolve(s, kernel_weights)[: len(s)]
    return DensityField(grid=field.grid, values=field.values + dt * (conv - s),
                        time=field.time + dt)


def test_pde_general_kernel_matches_exponential():
    # the generic O(grid^2) path with phi = Exp(1) must agree with the fast path
    w = fj.StepRate(2.0, 1.0)
    h = 0.02
    grid = np.arange(-12.0, 15.0, h)
    prof = wave_profile(w, 1.5)
    f = DensityField.from_profile(prof, grid=grid)
    weights = jump_kernel_weights(lambda u: math.exp(-u), h)
    f_fast = pde_step(f, w, 1e-2)
    f_gen = pde_step_general(f, w, weights, 1e-2)
    assert np.max(np.abs(f_fast.values - f_gen.values)) < 1e-12
