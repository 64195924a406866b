"""Stationary laws of the two-particle gap.

With deterministic unit jumps the gap is a birth-death chain on the integers
whose stationary distribution has a closed product form. With mean-one
exponential jumps and rate w(x) = exp(-beta*x) the gap has an explicit
stationary density p(g) = c sech(beta*g/2)^q on g >= 0, q = 1 + 2/beta. Its
normalizer is closed form: int_0^inf sech^q(u) du = B(1/2, q/2) / 2 (DLMF
5.12), so with a = 1/beta

    c = beta Gamma((q+1)/2) / (sqrt(pi) Gamma(q/2)) = Gamma(a) / (sqrt(pi) Gamma(a + 1/2))
      = 2^(2a-1) Gamma(a)^2 / (pi Gamma(2a)),

the last form by Legendre's duplication formula. It is evaluated in
log-gamma: exactly 2/pi at beta = 1, within 2e-14 relative for beta in
[0.05, 50] and 1e-12 at beta = 1e-3, where the log-gammas reach 10^4. The
CDF is a 60001-point trapezoid table on [0, G], G past both the tail-decay
bound and the point where sech^q(beta g/2) = 1e-18. The module also
evaluates the stationary master-equation residual and the g -> 0+ boundary
identity by adaptive quadrature (scipy), so the analytic family is checked
against a normalizer that nothing else derives the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mean_field import _numeric_cdf
from .model import DomainError, ModelError, is_finite_number

QUAD_ABS_TOL = 1e-10


class NonNormalizableError(ModelError):
    """The gap chain has no stationary distribution (e.g. constant rates)."""


# ---------------------------------------------------------------------------
# birth-death gap chain (deterministic unit jumps)
# ---------------------------------------------------------------------------


def gap_rates(w, k: int):
    """Transition rates of the gap chain at state k: (up, down).

    From 0 the gap can only grow, at rate 2*w(0) (either particle jumps);
    from k >= 1 the leader jumps with rate w(k/2), the laggard with w(-k/2).
    """
    if k < 0:
        raise DomainError("gap state must be >= 0")
    if k == 0:
        return 2.0 * float(w(0.0)), 0.0
    return float(w(0.5 * k)), float(w(-0.5 * k))


@dataclass(frozen=True)
class GapChain:
    w: object
    kmax: int
    up: np.ndarray      # up[k] = Q_{k,k+1}, 0 <= k < kmax
    down: np.ndarray    # down[k] = Q_{k,k-1}, 1 <= k <= kmax (down[0] = 0)


_TAIL_TOL = 1e-14       # gap_chain's truncation: see its docstring


def gap_chain(w, hard_cap: int = 20_000) -> GapChain:
    """Build the truncated gap chain, growing kmax until the stationary product
    term falls below _TAIL_TOL of the running sum (both example families
    decay at least geometrically). Constant rates never decay and raise."""
    # log of pi_k / pi_0: log 2 + sum log w(i/2) - sum log w(-i/2)
    log_term = math.log(2.0) + math.log(float(w(0.0))) - math.log(float(w(-0.5)))
    log_sum = float(np.logaddexp(0.0, log_term))
    kmax = 1
    while log_term - log_sum >= math.log(_TAIL_TOL):
        kmax += 1
        if kmax > hard_cap:
            raise NonNormalizableError(
                "gap chain tail does not decay; the chain is not positive recurrent "
                "(constant rates give a null-recurrent gap)")
        log_term += math.log(float(w(0.5 * (kmax - 1)))) - math.log(float(w(-0.5 * kmax)))
        log_sum = float(np.logaddexp(log_sum, log_term))
    up = np.empty(kmax + 1)
    down = np.empty(kmax + 1)
    for k in range(kmax + 1):
        up[k], down[k] = gap_rates(w, k)
    return GapChain(w=w, kmax=kmax, up=up, down=down)


def gap_stationary_pmf(chain: GapChain) -> np.ndarray:
    """Stationary pmf via the closed product formula, renormalized on the truncation.

    pi_k = 2 pi_0 prod_{i<k} w(i/2) / prod_{i<=k} w(-i/2); evaluated in log space
    so the exponential family's Gaussian tails cannot overflow.
    """
    kmax = chain.kmax
    log_pi = np.empty(kmax + 1)
    log_pi[0] = 0.0
    if kmax >= 1:
        # log pi_k - log pi_0 = log 2 + sum_{i=0}^{k-1} log w(i/2) - sum_{i=1}^{k} log w(-i/2)
        i = np.arange(1, kmax + 1)
        log_up = np.log(chain.w(0.5 * (i - 1.0)))
        log_down = np.log(chain.w(-0.5 * i))
        log_pi[1:] = math.log(2.0) + np.cumsum(log_up) - np.cumsum(log_down)
    if log_pi[kmax] > log_pi.max() + math.log(1e-12):
        raise NonNormalizableError(
            "truncated tail term is not negligible; chain is under-truncated or not positive recurrent")
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    return pi / pi.sum()


def gap_stationary_via_generator(chain: GapChain) -> np.ndarray:
    """Independent oracle: solve pi Q = 0 on the truncated chain directly."""
    kmax = chain.kmax
    Q = np.zeros((kmax + 1, kmax + 1))
    for k in range(kmax + 1):
        if k < kmax:
            Q[k, k + 1] = chain.up[k]
        if k > 0:
            Q[k, k - 1] = chain.down[k]
        Q[k, k] = -(Q[k].sum())
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(kmax + 1)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    return pi


# ---------------------------------------------------------------------------
# continuous gap density (exponential jumps, w = exp(-beta*x))
# ---------------------------------------------------------------------------


def _unnormalized_gap_density(beta: float, g):
    # sech(beta*g/2)^(1+2/beta), evaluated stably via logs for large g
    g = np.asarray(g, dtype=float)
    power = 1.0 + 2.0 / beta
    log_cosh = 0.5 * beta * np.abs(g) + np.log1p(np.exp(-beta * np.abs(g))) - math.log(2.0)
    return np.exp(-power * log_cosh)


def _gap_normalizer(beta: float) -> float:
    # 2^(2a-1) Gamma(a)^2 / (pi Gamma(2a)), a = 1/beta: see the module docstring
    a = 1.0 / beta
    log_c = (2.0 * a - 1.0) * math.log(2.0) + 2.0 * math.lgamma(a) - math.lgamma(2.0 * a)
    return math.exp(log_c) / math.pi


def _sech_cut(beta: float) -> float:
    """The g where sech(beta*g/2)^(1+2/beta) = 1e-18. Small beta spreads the
    density far past the cuts that its tail decay e^{-(1+beta/2) g} sets."""
    q = 1.0 + 2.0 / beta
    return 2.0 / beta * math.acosh(10.0 ** (18.0 / q))


@dataclass(frozen=True)
class GapDensity:
    """Stationary two-particle gap density for exponential jumps and rate e^{-beta x}."""

    beta: float

    def __post_init__(self):
        if not (is_finite_number(self.beta) and self.beta > 0):
            raise DomainError(f"beta must be positive, got {self.beta}")

    @property
    def normalizer(self) -> float:
        return _gap_normalizer(self.beta)

    def pdf(self, g):
        return self.normalizer * _unnormalized_gap_density(self.beta, g)

    def cdf(self, g):
        """CDF on [0, inf); exactly tanh(g) at beta = 2, dense-grid quadrature otherwise."""
        g = np.asarray(g, dtype=float)
        out = np.tanh(np.maximum(g, 0.0)) if self.beta == 2.0 else self._cdf()(g)
        return float(out) if out.ndim == 0 else out

    @lru_cache(maxsize=None)
    def _cdf(self):
        G = max((18.0 * math.log(10.0) + 10.0) / (1.0 + 0.5 * self.beta), _sech_cut(self.beta))
        return _numeric_cdf(self.pdf, 0.0, G, 60_001)


def master_residual(p, beta: float, g: float) -> float:
    """Right-hand side of the stationary gap master equation at g.

    residual(g) = -p(g) cosh(beta g / 2)
                  + e^{-g} int_0^g p(y) cosh((beta/2 - 1) y) dy
                  + cosh(g) int_g^inf p(y) e^{(beta/2 - 1) y} dy

    Vanishes iff p is stationary. e^{-g} and cosh(g) are taken inside the
    integrals, so each integral is a term of the residual itself, and the
    absolute tolerance 1e-10 of its adaptive quadrature bounds the error of
    the residual. (Applied outside, at small beta and large g, the first
    integral grows like e^{(1 - beta/2) g} before e^{-g} cancels it.) The
    improper tail converges because every admissible p decays like
    exp(-(1+beta/2) y), beating the e^{(beta/2 - 1) y} weight by e^{-2y}.
    """
    from scipy.integrate import quad

    if g < 0:
        raise DomainError("gap must be >= 0")
    half = 0.5 * beta
    term1 = -float(p(g)) * math.cosh(half * g)
    # e^{-g} cosh(a y) = (e^{a y - g} + e^{-a y - g}) / 2 and
    # cosh(g) e^{a y} = (e^{a y + g} + e^{a y - g}) / 2, a = beta/2 - 1
    a = half - 1.0
    int1, err1 = quad(lambda y: float(p(y)) * 0.5 * (math.exp(a * y - g) + math.exp(-a * y - g)),
                      0.0, g, epsabs=QUAD_ABS_TOL, limit=200)
    # Split the infinite tail where the integrand is ~1e-19 of its scale.
    G = max(g + (19.0 * math.log(10.0)) / 2.0 + 10.0, _sech_cut(beta))
    int2, err2 = quad(lambda y: float(p(y)) * 0.5 * (math.exp(a * y + g) + math.exp(a * y - g)),
                      g, G, epsabs=QUAD_ABS_TOL, limit=200)
    achieved = err1 + err2
    if achieved > 1e-7:
        raise ArithmeticError(f"master-equation quadrature did not converge (error {achieved:.3g})")
    return term1 + int1 + int2


def boundary_limit_check(beta: float):
    """Return (p(0+), int_0^inf p(y) e^{(beta/2-1) y} dy) for the analytic density.

    The two must agree: the master equation forces lim_{g->0+} p(g) to equal the
    weighted integral. The analytic density's decay rate 1 + beta/2 always beats
    the weight's growth rate beta/2 - 1, so the integral converges.
    """
    from scipy.integrate import quad

    dens = GapDensity(beta)
    lhs = float(dens.pdf(0.0))
    G = max((19.0 * math.log(10.0)) / 2.0 + 10.0, _sech_cut(beta))
    rhs, err = quad(lambda y: float(dens.pdf(y)) * math.exp((0.5 * beta - 1.0) * y), 0.0, G,
                    epsabs=QUAD_ABS_TOL, limit=200)
    if err > 1e-7:
        raise ArithmeticError(f"boundary quadrature did not converge (error {err:.3g})")
    return lhs, rhs
