import math
import re

import numpy as np
import pytest

import flockjump as fj
from flockjump.model import DomainError, ModelError

GAMMA = 0.5772156649015329

ALL_RATES = [
    fj.ExponentialRate(1.0),
    fj.ExponentialRate(2.5),
    fj.StepRate(2.0, 1.0),
    fj.PiecewiseLinearRate(2.0, 1.0),
    fj.ArccotRate(),
    fj.TabulatedRate(grid=(-2.0, -1.0, 0.0, 1.0, 2.0), values=(2.0, 1.8, 1.5, 1.2, 1.0)),
]


def test_rate_eval_examples():
    assert fj.ExponentialRate(1.0).rate(0.0) == 1.0
    assert fj.StepRate(2.0, 1.0).rate(-0.5) == 2.0
    assert fj.StepRate(2.0, 1.0).rate(0.0) == 1.0
    assert fj.ArccotRate().rate(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert fj.PiecewiseLinearRate(2.0, 1.0).rate(0.0) == pytest.approx(1.5)


@pytest.mark.parametrize("w", ALL_RATES, ids=lambda w: type(w).__name__)
def test_rates_positive_and_non_increasing_on_probe_grid(w):
    xs = np.linspace(-30.0, 30.0, 4001)
    vals = w.rate(xs)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 1e-15)


def test_tabulated_bounded_by_declared_sup():
    w = fj.TabulatedRate(grid=(-1.0, 1.0), values=(3.0, 1.0))
    xs = np.linspace(-50, 50, 999)
    assert np.all(w.rate(xs) <= 3.0)
    assert w.rate(-10.0) == 3.0 and w.rate(10.0) == 1.0  # flat extension


def test_tabulated_validation():
    with pytest.raises(ModelError):
        fj.TabulatedRate(grid=(0.0, 1.0), values=(1.0, 2.0))       # increasing
    with pytest.raises(ModelError):
        fj.TabulatedRate(grid=(1.0, 0.0), values=(2.0, 1.0))       # grid not ascending
    w = fj.TabulatedRate(grid=(0.0, 1.0), values=(2.0, 1.0))
    assert (w.left_limit, w.right_limit) == (2.0, 1.0)            # limits follow the table


def test_rate_parameter_validation():
    with pytest.raises(ModelError):
        fj.StepRate(1.0, 2.0)
    for beta in (-1.0, 10**400):                  # and an int past the float range
        with pytest.raises(DomainError, match="beta must be positive and finite"):
            fj.ExponentialRate(beta)
    with pytest.raises(ModelError):
        fj.PiecewiseLinearRate(1.0, 1.0)
    with pytest.raises(TypeError):
        fj.ArccotRate(knots=(3.0,))                # knots belong to the family, not the instance


# Each rate parameter is checked before the family's order checks, so that a
# value no run can use never builds a family.
NOT_FINITE = [math.inf, -math.inf, math.nan, 10**400, True]
NOT_FINITE_IDS = ["inf", "-inf", "nan", "10**400", "True"]


@pytest.mark.parametrize("bad", NOT_FINITE, ids=NOT_FINITE_IDS)
def test_step_rate_refuses_a_parameter_that_is_not_a_finite_number(bad):
    for name, args in (("a", (bad, 1.0)), ("b", (2.0, bad))):
        with pytest.raises(DomainError, match=f"^{name} must be a finite number, got "):
            fj.StepRate(*args)


@pytest.mark.parametrize("bad", NOT_FINITE, ids=NOT_FINITE_IDS)
def test_piecewise_linear_rate_refuses_a_parameter_that_is_not_a_finite_number(bad):
    for name, args in (("a", (bad, 1.0)), ("b", (2.0, bad))):
        with pytest.raises(DomainError, match=f"^{name} must be a finite number, got "):
            fj.PiecewiseLinearRate(*args)


@pytest.mark.parametrize("bad", NOT_FINITE, ids=NOT_FINITE_IDS)
def test_tabulated_rate_refuses_an_entry_that_is_not_a_finite_number(bad):
    for name, kwargs in (("grid[0]", dict(grid=(bad, 1.0), values=(2.0, 1.0))),
                         ("grid[1]", dict(grid=(0.0, bad), values=(2.0, 1.0))),
                         ("values[0]", dict(grid=(0.0, 1.0), values=(bad, 1.0))),
                         ("values[1]", dict(grid=(0.0, 1.0), values=(2.0, bad)))):
        with pytest.raises(DomainError, match=rf"^{re.escape(name)} must be a finite number"):
            fj.TabulatedRate(**kwargs)


@pytest.mark.parametrize("bad", NOT_FINITE, ids=NOT_FINITE_IDS)
def test_exponential_rate_refuses_a_beta_that_is_not_a_finite_number(bad):
    with pytest.raises(DomainError, match="^beta must be positive and finite"):
        fj.ExponentialRate(bad)


def test_rate_families_registry_and_engine_defaults():
    assert set(fj.model.RATE_FAMILIES) == {
        "exponential", "step", "piecewise_linear", "arccot", "tabulated"}
    assert all(issubclass(cls, fj.model.RateFamily) for cls in fj.model.RATE_FAMILIES.values())
    engines = {type(w).__name__: w.default_engine for w in ALL_RATES}
    assert engines == {"ExponentialRate": "exponential", "StepRate": "bounded",
                       "PiecewiseLinearRate": "bounded", "ArccotRate": "bounded",
                       "TabulatedRate": "bounded"}
    # the piecewise-linear family is the two-knot table, built from a and b
    w = fj.PiecewiseLinearRate(2.0, 1.0)
    assert isinstance(w, fj.TabulatedRate) and (w.grid, w.values) == ((-1.0, 1.0), (2.0, 1.0))


# a table whose grid does not hold 0, so that its segment table splits the
# segment around 0 in two
TABLE_WITHOUT_0 = fj.TabulatedRate(grid=(-1.37, -0.41, 0.62, 1.55), values=(2.6, 2.1, 1.3, 0.9))


@pytest.mark.parametrize("w", ALL_RATES + [TABLE_WITHOUT_0],
                         ids=lambda w: "TabulatedRate-without-0" if w is TABLE_WITHOUT_0
                         else type(w).__name__)
def test_scalar_rate_matches_vectorized_rate(w):
    knots = sorted(w.knots)
    mids = [0.5 * (lo + hi) for lo, hi in zip(knots, knots[1:])]
    tails = [-50.0, -5.0, -1.5, -0.3, 0.0, 0.3, 1.5, 5.0, 50.0, -math.inf, math.inf]
    if knots:
        tails += [knots[0] - 0.25, knots[-1] + 0.25]
    rate = w.scalar_rate()
    for x in knots + mids + tails:
        got = rate(x)
        assert type(got) is float
        assert got == pytest.approx(float(w.rate(x)), rel=1e-15, abs=1e-15), x
    # NaN in, NaN out; only the step rate's test d < 0 sends a NaN to b
    got, expected = rate(math.nan), float(w.rate(math.nan))
    assert type(got) is float
    assert math.isnan(got) and math.isnan(expected) or got == expected == w.right_limit
    assert math.isnan(got) is not isinstance(w, fj.StepRate)


@pytest.mark.parametrize("w", ALL_RATES, ids=lambda w: type(w).__name__)
def test_rate_integral_matches_quadrature(w):
    from scipy.integrate import quad

    for x in (-3.7, -1.0, -0.2, 0.0, 0.6, 1.0, 2.9, 8.0):
        lo, hi = min(0.0, x), max(0.0, x)
        pts = [k for k in w.knots if lo < k < hi] or None
        ref, _ = quad(lambda s: float(w.rate(s)), lo, hi, points=pts, limit=200)
        if x < 0:
            ref = -ref
        assert float(w.integral(x)) == pytest.approx(ref, abs=1e-9)


def old_tabulated_integral(w, x):
    """The per-call formula TabulatedRate.integral used before its segment
    table: cumulative trapezoid at the knots, the linear piece within one,
    flat beyond the ends, from the first knot, then differenced at 0."""
    g, v = np.asarray(w.grid), np.asarray(w.values)
    knot_cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * np.diff(g))])

    def cum_from_left(y):
        y = np.asarray(y, dtype=float)
        below = v[0] * (y - g[0])
        above = knot_cum[-1] + v[-1] * (y - g[-1])
        idx = np.clip(np.searchsorted(g, y, side="right") - 1, 0, len(g) - 2)
        gl, gr, vl, vr = g[idx], g[idx + 1], v[idx], v[idx + 1]
        frac = np.where(gr > gl, (y - gl) / (gr - gl), 0.0)
        inside = knot_cum[idx] + (vl + 0.5 * frac * (vr - vl)) * (y - gl)
        return np.where(y < g[0], below, np.where(y > g[-1], above, inside))

    return cum_from_left(x) - cum_from_left(0.0)


TABLES = [fj.TabulatedRate(grid=(-1.5, -0.5, 0.5, 1.5), values=(2.5, 2.0, 1.4, 1.0)),
          fj.TabulatedRate(grid=(-2.0, -1.0, 0.0, 1.0, 2.0), values=(2.0, 1.8, 1.5, 1.2, 1.0)),
          fj.TabulatedRate(grid=(0.5, 0.75, 3.0), values=(3.0, 3.0, 0.25)),      # 0 left of the knots
          fj.TabulatedRate(grid=(-4.0, -0.1), values=(1.25, 0.5))]               # 0 right of them


@pytest.mark.parametrize("w", TABLES, ids=lambda w: str(w.grid))
def test_tabulated_integral_is_the_old_formula_and_exact(w):
    import mpmath

    g = np.array(w.grid)
    mids = 0.5 * (g[1:] + g[:-1])
    x = np.concatenate([g, mids, g[1:] - 1e-9, [g[0] - 3.5, g[0] - 1e-3, g[-1] + 1e-3,
                                                 g[-1] + 7.25, 0.0, -0.3, 0.3]])
    got = w.integral(x)
    assert got.shape == x.shape and w.integral(0.0) == 0.0
    np.testing.assert_allclose(got, old_tabulated_integral(w, x), rtol=1e-14, atol=1e-14)
    def rate(s):
        return mpmath.mpf(float(w.rate(float(s))))

    with mpmath.workdps(30):
        for xi, gi in zip(x, got):
            lo, hi = sorted((0.0, float(xi)))
            pts = [lo, *(k for k in w.grid if lo < k < hi), hi]
            ref = float(mpmath.quad(rate, pts)) * (1 if xi >= 0 else -1)
            assert abs(gi - ref) <= 1e-14 * max(1.0, abs(ref)), xi
    for y in (1e308, -1e308, math.inf, -math.inf, math.nan):
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(w.integral(y), old_tabulated_integral(w, y), equal_nan=True), y
    assert type(w.integral(0.3)) is np.float64


def test_exponential_clamp_no_overflow():
    w = fj.ExponentialRate(1.0)
    assert math.isfinite(float(w.rate(-1e6)))
    assert float(w.rate(1e6)) > 0


def test_deterministic_jump():
    z = fj.DeterministicJump()
    rng = np.random.default_rng(0)
    draws = z.sample(rng, 1000)
    assert np.all(draws == 1.0)
    assert z.sample(rng) == 1.0


def test_exponential_jump_moments():
    z = fj.ExponentialJump()
    rng = np.random.default_rng(1)
    draws = z.sample(rng, 1_000_000)
    assert np.all(draws >= 0)
    assert draws.mean() == pytest.approx(1.0, abs=0.01)
    # Monte Carlo oracle: EZ^3 = 3! for the mean-one exponential
    assert np.mean(draws ** 3) == pytest.approx(6.0, abs=0.3)


def test_expect_shifted_closed_forms():
    zd = fj.DeterministicJump()
    ze = fj.ExponentialJump()
    f = lambda x: np.tanh(x)
    assert zd.expect_shifted(f, 0.5) == pytest.approx(math.tanh(1.5))
    # E tanh(x + Z) against quadrature for the exponential law
    from scipy.integrate import quad

    ref, _ = quad(lambda u: math.tanh(0.5 + u) * math.exp(-u), 0, 60, limit=200)
    assert float(ze.expect_shifted(f, 0.5)) == pytest.approx(ref, abs=1e-10)
    # identity: E (x + Z) - x = EZ = 1
    ident = lambda x: np.asarray(x, dtype=float)
    assert float(ze.expect_shifted(ident, 2.0)) == pytest.approx(3.0, abs=1e-8)


def test_custom_density_jump_validation():
    # density with mean 2 must be rejected (EZ = 1 normalization)
    bad = lambda u: 0.25 * u * np.exp(-u / 2.0) if np.isscalar(u) else 0.25 * u * np.exp(-u / 2.0)
    with pytest.raises(ModelError):
        fj.CustomDensityJump(density=bad, sampler=lambda rng, size: rng.gamma(2.0, 0.5, size),
                             third_moment=3.75)
    # valid: Gamma(2, 1/2) has mean 1, third moment 24/8 = 3
    dens = lambda u: 4.0 * u * np.exp(-2.0 * u)
    z = fj.CustomDensityJump(density=dens, sampler=lambda rng, size: rng.gamma(2.0, 0.5, size),
                             third_moment=3.0)
    rng = np.random.default_rng(2)
    draws = z.sample(rng, 200_000)
    assert draws.mean() == pytest.approx(1.0, abs=0.01)
    # negative sampler output is a model error
    zbad = fj.CustomDensityJump(density=dens, sampler=lambda rng, size: -np.ones(size),
                                third_moment=3.0)
    with pytest.raises(ModelError):
        zbad.sample(rng, 4)


def test_center_of_mass():
    st = fj.SystemState(positions=np.array([1.0, 2.0, 3.0]))
    assert st.center == pytest.approx(2.0)
    st1 = fj.SystemState(positions=np.array([4.2]))
    assert st1.center == 4.2
    with pytest.raises(DomainError):
        fj.SystemState(positions=np.array([]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="positions must be finite"):
            fj.SystemState(positions=np.array([0.0, bad]))


def test_initial_state_variants():
    assert np.all(fj.initial_state(5, "zeros").positions == 0)
    st = fj.initial_state(3, [1.0, 2.0, 3.0])
    assert st.center == pytest.approx(2.0)
    rng = np.random.default_rng(4)
    st2 = fj.initial_state(100, ("iid", lambda r, n: r.uniform(0, 1, n)), rng)
    assert st2.positions.shape == (100,)
    with pytest.raises(ModelError):
        fj.initial_state(3, [1.0, 2.0])
