"""One scalar root finder: secant steps inside a sign-change bracket."""

from __future__ import annotations

import math

from .errors import BracketError

__all__ = ["solve"]


def solve(f, lo, hi, *, xtol):
    """A root of ``f`` on the sign-change bracket ``[lo, hi]``.

    Each step is the secant through the last two iterates; a step that would
    leave the current bracket is replaced by bisection, and every evaluation
    shrinks the bracket.  Stops on an exact zero, on a secant step below
    1e-15 relative to ``max(1, |x|)``, when the bracket is narrower than
    ``xtol``, or after 100 steps, returning the bracket end with the smaller
    ``|f|``.  Raises :class:`BracketError` when ``f`` does not change sign
    on the bracket.
    """
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise BracketError(f"no sign change on [{a}, {b}]: f={fa}, {fb}")
    # the last two iterates, the end with the smaller |f| last
    x0, f0, x1, f1 = (a, fa, b, fb) if abs(fb) <= abs(fa) else (b, fb, a, fa)
    for _ in range(100):
        if b - a <= xtol:
            break
        d = (f1 - f0) / (x1 - x0)
        x = x1 - f1 / d if 0.0 < abs(d) < math.inf else math.nan
        if a <= x <= b and abs(x - x1) <= 1e-15 * max(1.0, abs(x)):
            return x
        if not a < x < b:  # also true for NaN
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        fx = float(f(x))
        if fx == 0.0:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        x0, f0, x1, f1 = x1, f1, x, fx
    return a if abs(fa) <= abs(fb) else b
