"""Acceptance suite: every criterion at its stated tolerance and scale.

Each test prints one PASS/FAIL line (run with -s to see them live). The
full-size preset runs and long PDE/extreme-value runs carry the
`slow` marker; `pytest -m "not slow"` runs the criteria that finish in
seconds at their stated tolerances plus quick variants of the slow ones.
"""

import math
import numbers
from unittest import mock

import pytest

from flockjump import acceptance as acc
from flockjump import mean_field as mf

FULL = {num: (title, fn) for num, title, fn in acc.CRITERIA}

# criteria whose full-scale runs take minutes rather than seconds
SLOW = {5, 6, 8, 9, 10, 11, 13}


def _run(number, quick=False):
    result = acc.run_criterion(number, quick=quick)
    print()
    print(result.line())
    for label, s, t, *_ in result.checks:
        assert isinstance(s, numbers.Real) and isinstance(t, numbers.Real), label
    assert result.passed == all(s <= t for _, s, t, *_ in result.checks)
    assert result.passed, result.detail


def test_check_pass_rule_and_line():
    def result(*checks):
        return acc.CriterionResult(number=0, title="t", checks=list(checks))

    assert not result(("nan", math.nan, 1.0)).passed
    assert not result(("ok", 0.0, 1.0), ("nan", math.nan, 1.0)).passed
    assert not result(("over", 0.5000000000000001, 0.5)).passed
    assert result(("equal", 0.5, 0.5)).passed
    assert result(("count", 0, 0)).passed
    assert not result(("count", 1, 0)).passed
    line = result(("a", 0.25, 0.5, "note a"), ("b", 0, 0), ("c", 1e-9, 1e-8, None)).line()
    assert line.startswith("[PASS] criterion  0: t")
    assert line.endswith("-- a: 0.25 (tol 0.5), note a; b: 0 (tol 0); c: 1e-09 (tol 1e-08)")


@pytest.mark.parametrize("number", [n for n in FULL if n not in SLOW])
def test_criterion(number):
    _run(number)


@pytest.mark.slow
@pytest.mark.parametrize("number", sorted(SLOW))
def test_criterion_full(number):
    _run(number)


@pytest.mark.parametrize("number", sorted(SLOW))
def test_criterion_quick_variant(number):
    # reduced-scale smoke of the slow criteria so a fast pass still exercises them
    _run(number, quick=True)


def test_criterion_4_sees_a_profile_with_the_wrong_normalization():
    # the wave equation is linear in rho, so a profile e^7 too small still
    # passes every residual check; only its trapezoid mass shows it
    normalization = mf._normalization

    def lowered(w, c, drop):
        log_norm, x_lo, x_hi = normalization(w, c, drop)
        return log_norm - 7.0, x_lo, x_hi

    with mock.patch.object(mf, "_normalization", lowered):
        result = acc.run_criterion(4)
    assert not result.passed
    for label, s, t, *_ in result.checks:
        assert (s <= t) is label.endswith("sup|residual|"), (label, s)
