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


def test_secant_converges_without_a_derivative():
    f, calls = _counted(lambda x: math.cos(x) - x)
    root = _scalar.solve(f, 0.0, 1.0, xtol=1e-15)
    assert abs(math.cos(root) - root) <= 2e-16
    assert len(calls) <= 12


def test_secant_bisects_next_to_an_infinite_end_value():
    # a secant through an infinite value has no slope; the solver bisects
    root = _scalar.solve(lambda x: math.inf if x > 2.0 else x - 1.0, 0.0, 3.0, xtol=1e-15)
    assert root == pytest.approx(1.0, abs=1e-15)


def test_every_path_is_bounded_by_maxiter():
    # a step at pi: each secant step bisects, and 100 of them leave the
    # bracket far wider than xtol = 0
    f, calls = _counted(lambda x: -1.0 if x < math.pi else 1.0)
    _scalar.solve(f, 0.0, 1e300, xtol=0.0)
    assert len(calls) == 2 + 100
