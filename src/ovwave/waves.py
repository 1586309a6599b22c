"""Constant-speed wavefront profiles.

A speed ``c > 0`` with ``h V(c) = c`` yields the profile ``z(t) = -c t + d``;
in car coordinates all vehicles keep gap ``c`` and velocity ``c/h``.  For
each optimal velocity function there is a unique tangency pair
``(c_star, h_star)`` with ``h V(c) = c`` and ``h V'(c) = 1``; every other
solution lies on one of two branches over ``h``:

* branch 1: speeds in ``(d_s, c_star)``, slope product ``h V'(c) > 1``,
  strictly decreasing in ``h``, defined for ``h_star < h < h_hat``;
* branch 2: speeds in ``(c_star, infinity)``, slope product ``< 1``,
  strictly increasing in ``h``, defined for all ``h > h_star``.

So the speeds at ``h > h_star`` are the two branch points, found by
inverting the monotone ``c/V(c)`` on each branch's speed interval, and at
``h = h_star`` the tangency ``c_star`` alone; :func:`find_constant_speeds`
lists them through :func:`branch_eval` and :func:`critical_pair` and solves
``h V(c) = c`` nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._scalar import solve
from .errors import DomainError, NumericalError, ParameterError, SingularityError, check_finite
from .ovf import OvfSpec

__all__ = [
    "BRANCH1",
    "BRANCH2",
    "DEGENERATE",
    "WavefrontPoint",
    "CriticalPair",
    "find_constant_speeds",
    "critical_pair",
    "branch_eval",
    "branch_derivative",
]

BRANCH1 = "branch1"
BRANCH2 = "branch2"
DEGENERATE = "degenerate"

_RESIDUAL_TOL = 1e-10  # |h V(c) - c| <= tol * max(1, c)
_DEGENERACY_TOL = 1e-8  # |h V'(c) - 1| below this marks the tangent case


@dataclass(frozen=True)
class WavefrontPoint:
    """One constant-speed solution: parameter, speed, and branch identity."""

    h: float
    c: float
    slope_product: float  # h * V'(c)
    branch: str

    def __post_init__(self):
        check_finite("h", self.h, positive=True)
        check_finite("c", self.c)
        check_finite("slope_product", self.slope_product)
        if self.branch not in (BRANCH1, BRANCH2, DEGENERATE):
            raise ParameterError(
                f"unknown branch {self.branch!r}; use {BRANCH1!r}, {BRANCH2!r} or {DEGENERATE!r}"
            )

    def residual(self, spec: OvfSpec) -> float:
        return self.h * float(spec.eval(self.c)) - self.c


@dataclass(frozen=True)
class CriticalPair:
    """The unique tangency (c_star, h_star) and the upper end of branch 1."""

    c_star: float
    h_star: float
    h_hat: float  # may be math.inf


def _label(slope_product: float) -> str:
    if abs(slope_product - 1.0) <= _DEGENERACY_TOL:
        return DEGENERATE
    return BRANCH1 if slope_product > 1.0 else BRANCH2


def _point(spec: OvfSpec, h: float, c: float) -> WavefrontPoint:
    """The point at speed ``c``, labelled by its slope product ``h V'(c)``."""
    sp = h * float(spec.deriv(c))
    return WavefrontPoint(h=h, c=c, slope_product=sp, branch=_label(sp))


def find_constant_speeds(spec: OvfSpec, h: float) -> list[WavefrontPoint]:
    """All speeds c > 0 with ``h V(c) = c``, ascending; 0, 1, or 2 entries.

    By the branch theorem these are the two branch points of
    :func:`branch_eval` for ``h > h_star`` (branch 1 is dropped for
    ``h >= h_hat``), the tangency ``c_star`` alone when ``h`` lies on
    ``h_star`` within the residual tolerance, and nothing below it.  The
    trivial c = 0 (and any c <= d_s, where V vanishes) is excluded.  A tangent
    double root is reported once with branch label ``degenerate``, also when
    rounding splits it into two branch points.
    """
    h = check_finite("h", h, positive=True)
    cp = critical_pair(spec)
    if not h > cp.h_star:
        p = _point(spec, h, cp.c_star)
        return [p] if abs(p.residual(spec)) <= _RESIDUAL_TOL * max(1.0, p.c) else []

    points = [p for p in (branch_eval(spec, h, 1), branch_eval(spec, h, 2)) if p is not None]
    if len(points) == 2:
        p1, p2 = points
        # a tangent double root split by rounding noise is one point
        if abs(p1.c - p2.c) <= 1e-6 * max(1.0, p2.c) and all(
                abs(p.slope_product - 1.0) <= 1e-6 for p in points):
            points = [_point(spec, h, 0.5 * (p1.c + p2.c))]
    return points


@lru_cache(maxsize=64)
def critical_pair(spec: OvfSpec) -> CriticalPair:
    """The unique (c_star, h_star) with ``hV(c)=c`` and ``hV'(c)=1``.

    Solves ``c V'(c) / V(c) = 1`` beyond the inflection headway, where the
    ratio falls through 1 exactly once, then sets ``h_star = c/V(c)``.  As
    ``V <= v_max``, ``c_star = h_star V(c_star) <= v_max b/V(b)``, so the
    secant steps run inside the bracket ``[b, 2 v_max b/V(b)]``; a spec whose
    ``v_max`` understates ``V`` can leave the tangency outside it and raises
    :class:`BracketError` (exit 2).
    ``h_hat`` (the upper end of branch 1) is probed as the limit of
    ``c/V(c)`` for c just above the safety distance and reported as infinity
    when the probes keep growing past any plateau.
    """

    def ratio(c):
        return c * float(spec.deriv(c)) / float(spec.eval(c))

    b = spec.b
    if ratio(b) < 1.0 - 1e-12:
        raise NumericalError("slope ratio below 1 at the inflection point; "
                             "the velocity function violates the assumptions")
    hi = 2.0 * spec.v_max * b / float(spec.eval(b))
    c_star = solve(lambda c: ratio(c) - 1.0, b, hi, xtol=1e-15 * max(1.0, hi))
    v_star = float(spec.eval(c_star))
    h_star = c_star / v_star
    if abs(h_star * float(spec.deriv(c_star)) - 1.0) > _DEGENERACY_TOL:
        raise NumericalError("tangency refinement failed")

    probes = []
    for k in range(2, 11):
        c = spec.d_s + 10.0 ** (-k)
        v = float(spec.eval(c))
        probes.append(c / v if v > 0.0 else math.inf)
    if probes[-1] > 1e12 or probes[-1] > probes[-2] * (1.0 + 1e-9):
        h_hat = math.inf
    else:
        h_hat = probes[-1]
    return CriticalPair(c_star=float(c_star), h_star=float(h_star), h_hat=float(h_hat))


def _normalize_branch(which) -> str:
    if which in (BRANCH1, 1, "1"):
        return BRANCH1
    if which in (BRANCH2, 2, "2"):
        return BRANCH2
    raise ParameterError(f"unknown branch {which!r}; use 'branch1' or 'branch2'")


def branch_eval(spec: OvfSpec, h: float, which) -> WavefrontPoint | None:
    """The branch speed at parameter ``h``, or None above branch 1's domain.

    ``c/V(c)`` is strictly monotone on each branch's speed interval, so the
    inverse is its root there, found by secant steps inside a bracket:
    ``(d_s, c_star)`` closed by halving toward ``d_s`` on branch 1, and
    ``[c_star, 2 h v_max]`` on branch 2, as ``c = h V(c) <= h v_max``.  A
    spec whose ``v_max`` understates ``V`` can raise :class:`BracketError`
    (exit 2).  Raises :class:`DomainError` for ``h <= h_star``, where
    neither branch is defined, and :class:`ParameterError` for a non-finite
    ``h``.
    """
    h = check_finite("h", h)
    which = _normalize_branch(which)
    cp = critical_pair(spec)
    if not h > cp.h_star:
        raise DomainError(
            f"h={h} is at or below the branch onset h_star={cp.h_star}"
        )

    def offset(c):  # c/V(c) - h
        return c / float(spec.eval(c)) - h

    if which == BRANCH1:
        if h >= cp.h_hat:
            return None
        # c/V(c) decreases from h_hat to h_star on (d_s, c_star)
        step, hi = cp.c_star - spec.d_s, cp.c_star
        for k in range(1, 400):
            lo = spec.d_s + step * 0.5**k
            if offset(lo) > 0.0:
                break
        else:
            raise NumericalError("could not bracket the branch-1 speed")
    else:
        # the factor 2 keeps c/V(c) - h >= h at the end, beyond any rounding
        lo, hi = cp.c_star, 2.0 * h * spec.v_max

    c = solve(offset, lo, hi, xtol=1e-15 * max(1.0, hi))
    return _point(spec, h, c)


def branch_derivative(spec: OvfSpec, point: WavefrontPoint) -> float:
    """Rate of change of the branch speed, ``V(c) / (1 - h V'(c))``.

    Negative along branch 1, positive along branch 2; undefined at the
    tangency where the denominator vanishes.
    """
    sp = point.h * float(spec.deriv(point.c))
    if point.branch == DEGENERATE or abs(sp - 1.0) <= _DEGENERACY_TOL:
        raise SingularityError(
            f"branch derivative is singular at the degenerate point c={point.c}"
        )
    return float(spec.eval(point.c)) / (1.0 - sp)
