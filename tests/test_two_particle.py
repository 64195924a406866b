import math

import numpy as np
import pytest

import flockjump as fj
from flockjump.two_particle import (
    GapDensity,
    NonNormalizableError,
    boundary_limit_check,
    gap_chain,
    gap_rates,
    gap_stationary_pmf,
    gap_stationary_via_generator,
    master_residual,
)
from flockjump.model import DomainError


def test_gap_rates_examples(flat_rate):
    w = fj.StepRate(2.0, 1.0)
    up0, _ = gap_rates(w, 0)
    assert up0 == pytest.approx(2 * 1.0)        # 2 w(0), w(0) = b
    we = fj.ExponentialRate(2.0)
    up, down = gap_rates(we, 1)
    assert up == pytest.approx(math.exp(-1.0))
    assert down == pytest.approx(math.exp(1.0))
    flat = flat_rate(1.3)
    up, down = gap_rates(flat, 3)
    assert up == down == pytest.approx(1.3)
    with pytest.raises(DomainError):
        gap_rates(w, -1)


def test_step_stationary_closed_form():
    # Example closed form: pi_k = 2 (a-b)/(a+b) (b/a)^k; a=2, b=1
    chain = gap_chain(fj.StepRate(2.0, 1.0))
    pi = gap_stationary_pmf(chain)
    assert pi[0] == pytest.approx(1 / 3, abs=1e-12)
    assert pi[1] == pytest.approx(1 / 3, abs=1e-12)
    assert pi[2] == pytest.approx(1 / 6, abs=1e-12)
    assert pi[3] == pytest.approx(1 / 12, abs=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-14)
    # exponential decay ratio b/a exactly, for k >= 1
    ratios = pi[2:8] / pi[1:7]
    assert np.allclose(ratios, 0.5, atol=1e-12)


def test_exponential_stationary_series():
    # pi_0 = 1 / (1 + 2 sum e^{-k^2/2}), truncated-series oracle
    chain = gap_chain(fj.ExponentialRate(1.0))
    pi = gap_stationary_pmf(chain)
    series = 1.0 + 2.0 * sum(math.exp(-k * k / 2.0) for k in range(1, 60))
    assert pi[0] == pytest.approx(1.0 / series, abs=1e-12)
    assert pi[0] == pytest.approx(0.3989, abs=5e-5)
    # Gaussian decay: log pi_k + beta k^2 / 2 constant in k
    ks = np.arange(1, 8)
    vals = np.log(pi[1:8]) + 0.5 * ks ** 2
    assert np.max(np.abs(vals - vals[0])) < 1e-9


def test_detailed_balance_identity():
    for w in (fj.StepRate(2.0, 1.0), fj.ExponentialRate(1.0), fj.ArccotRate()):
        chain = gap_chain(w)
        pi = gap_stationary_pmf(chain)
        for k in range(min(chain.kmax, 25)):
            lhs = pi[k] * chain.up[k]
            rhs = pi[k + 1] * chain.down[k + 1]
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_generator_solve_agrees():
    for w in (fj.StepRate(2.0, 1.0), fj.ExponentialRate(1.0)):
        chain = gap_chain(w)
        pi = gap_stationary_pmf(chain)
        pi_q = gap_stationary_via_generator(chain)
        assert np.max(np.abs(pi - pi_q)) < 1e-10


def test_constant_rate_not_normalizable(flat_rate):
    with pytest.raises(NonNormalizableError):
        gap_chain(flat_rate(1.0), hard_cap=2000)


def test_gap_density_beta2():
    dens = GapDensity(2.0)
    assert dens.pdf(0.0) == pytest.approx(1.0, abs=1e-10)       # 1/cosh^2(0), normalizer 1
    assert dens.normalizer == pytest.approx(1.0, abs=1e-9)
    # median: tanh(g) = 1/2
    g_med = math.atanh(0.5)
    assert g_med == pytest.approx(0.5493, abs=1e-4)
    assert dens.cdf(g_med) == pytest.approx(0.5, abs=1e-12)
    # asymptotic constant: sech^2(g) ~ 4 e^{-2g}
    g = 18.0
    assert dens.pdf(g) / math.exp(-2 * g) == pytest.approx(4.0, rel=1e-6)


def test_gap_density_normalization_all_betas():
    from scipy.integrate import quad

    for beta in (0.5, 1.0, 2.0, 4.0):
        dens = GapDensity(beta)
        total, _ = quad(dens.pdf, 0, 200, limit=400)
        assert total == pytest.approx(1.0, abs=1e-8)
    for beta in (-1.0, 10**400):                  # and an int past the float range
        with pytest.raises(DomainError, match="beta must be positive"):
            GapDensity(beta)


def _quad_inf(f):
    from scipy.integrate import quad

    return quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)[0]


@pytest.mark.parametrize("beta", [1e-3, 0.01, 0.05, 0.5, 1.0, 2.0, 4.0, 50.0])
def test_closed_form_normalizer_matches_quadrature(beta):
    from flockjump.two_particle import _unnormalized_gap_density

    mass = _quad_inf(lambda y: float(_unnormalized_gap_density(beta, y)))
    assert GapDensity(beta).normalizer == pytest.approx(1.0 / mass, rel=1e-11)


def test_closed_form_normalizer_is_two_over_pi_at_beta_1():
    assert GapDensity(1.0).normalizer == 2.0 / math.pi


@pytest.mark.parametrize("beta", [1e-3, 0.01, 0.03])
def test_small_beta_density_and_cdf_hold_their_whole_mass(beta):
    # the density's bulk spans ~ (2/beta)/sqrt(1 + 2/beta), far beyond the
    # tail-decay cut (18 ln 10 + 10)/(1 + beta/2) that large beta allows
    from scipy.integrate import quad

    dens = GapDensity(beta)
    assert _quad_inf(dens.pdf) == pytest.approx(1.0, abs=1e-10)
    for g in (1.0, 10.0, 50.0, 150.0, 400.0, 2000.0):
        exact = quad(dens.pdf, 0.0, g, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        assert dens.cdf(g) == pytest.approx(exact, abs=1e-8)


def test_master_residual_analytic_solutions():
    for beta in (1.0, 2.0, 4.0):
        dens = GapDensity(beta)
        for g in (0.1, 1.0, 3.0):
            assert abs(master_residual(dens.pdf, beta, g)) <= 1e-8


@pytest.mark.parametrize("beta", [1e-3, 0.01, 0.03, 0.1, 1.0, 4.0])
def test_master_residual_holds_at_small_beta_and_large_gaps(beta):
    # e^{-g} and cosh(g) sit inside the integrals, so quad's absolute tolerance
    # bounds the residual's own terms; at beta <= 0.1 and g = 30 the first
    # integral alone grows like e^{(1 - beta/2) g}
    dens = GapDensity(beta)
    for g in (0.1, 1.0, 3.0, 30.0):
        assert abs(master_residual(dens.pdf, beta, g)) <= 1e-13


def test_master_residual_detects_perturbation():
    # the operator is affine in p: a bump of mass eps moves the residual by Theta(eps)
    dens = GapDensity(2.0)
    base = abs(master_residual(dens.pdf, 2.0, 1.0))
    for eps in (1e-3, 1e-2):
        bumped = lambda y, e=eps: dens.pdf(y) + e * np.exp(-0.5 * ((np.asarray(y) - 1.0) / 0.2) ** 2)
        r = abs(master_residual(bumped, 2.0, 1.0))
        assert r > 50 * base
        assert 0.05 * eps < r < 20 * eps


def test_boundary_limit_identity():
    lhs, rhs = boundary_limit_check(2.0)
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert abs(lhs - rhs) <= 1e-8
    for beta in (1.0, 4.0):
        lhs, rhs = boundary_limit_check(beta)
        assert abs(lhs - rhs) <= 1e-8
