import math

import pytest

from ovwave import _scalar
from ovwave.errors import BracketError


def _counted(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


def test_no_sign_change_raises():
    with pytest.raises(BracketError, match="no sign change"):
        _scalar.solve(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15)


def test_exact_zero_at_either_end_is_returned_as_is():
    assert _scalar.solve(lambda x: x - 2.0, 2.0, 5.0, xtol=1e-15) == 2.0
    assert _scalar.solve(lambda x: x - 5.0, 2.0, 5.0, xtol=1e-15) == 5.0
    # known end values are trusted and not recomputed
    f, calls = _counted(lambda x: x - 3.0)
    assert _scalar.solve(f, 2.0, 5.0, f_lo=0.0, f_hi=2.0, xtol=1e-15) == 2.0
    assert calls == []


def test_newton_falls_back_to_bisection_where_it_diverges():
    # plain Newton from either end of [-10, 30] overshoots ever farther
    root = _scalar.solve(lambda x: math.atan(x - 1.0), -10.0, 30.0,
                         df=lambda x: 1.0 / (1.0 + (x - 1.0) ** 2), xtol=1e-15)
    assert root == pytest.approx(1.0, abs=1e-15)


def test_secant_converges_without_a_derivative():
    f, calls = _counted(lambda x: math.cos(x) - x)
    root = _scalar.solve(f, 0.0, 1.0, xtol=1e-15)
    assert abs(math.cos(root) - root) <= 2e-16
    assert len(calls) <= 12


def test_secant_bisects_next_to_an_infinite_end_value():
    # a secant through an infinite value has no slope; the solver bisects
    root = _scalar.solve(lambda x: math.inf if x > 2.0 else x - 1.0, 0.0, 3.0, xtol=1e-15)
    assert root == pytest.approx(1.0, abs=1e-15)


def test_newton_needs_far_fewer_evaluations_than_bisection():
    # bisection from width 10 down to 1e-15 relative takes about 50 steps
    f, calls = _counted(lambda x: x**3 - 2.0)
    root = _scalar.solve(f, 0.0, 10.0, df=lambda x: 3.0 * x * x, xtol=1e-15)
    assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
    assert len(calls) <= 15


def test_every_path_is_bounded_by_maxiter():
    f, calls = _counted(lambda x: x - math.pi)
    _scalar.solve(f, 0.0, 10.0, df=lambda x: 0.0, xtol=0.0, maxiter=7)
    assert len(calls) == 2 + 7
