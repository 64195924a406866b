import pytest

import flockjump as fj


@pytest.fixture
def flat_rate():
    """Factory of the constant rate w == a: a two-point tabulated rate, the
    degenerate bounded family."""
    return lambda a: fj.TabulatedRate(grid=(-1.0, 1.0), values=(a, a))
