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

Root finding brackets sign changes of ``h V(c) - c`` on a geometric grid
augmented with the stationary points of the residual (the at most two
solutions of ``V'(c) = 1/h``), which guarantees every simple root is
bracketed even arbitrarily close to the tangency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._scalar import bisect, newton_polish
from .errors import DomainError, NumericalError, ParameterError, SingularityError, check_finite
from .ovf import OvfSpec, _eval_on

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


def _stationary_points(spec: OvfSpec, h: float) -> list[float]:
    """Solutions of V'(c) = 1/h, at most one on each side of b."""
    target = 1.0 / h
    d_b = float(spec.deriv(spec.b))
    if d_b < target:
        return []
    pts = []
    # rising side: V' strictly increasing on (d_s, b)
    lo = spec.d_s
    if float(spec.deriv(lo)) <= target <= d_b:
        pts.append(
            bisect(lambda c: float(spec.deriv(c)) - target, lo, spec.b,
                   xtol=1e-14 * max(1.0, spec.b))
        )
    # falling side: V' strictly decreasing on (b, inf)
    hi = spec.b + max(1.0, spec.b)
    for _ in range(200):
        if float(spec.deriv(hi)) < target:
            break
        hi *= 2.0
    else:
        raise NumericalError("could not bracket the falling solution of V'(c) = 1/h")
    pts.append(
        bisect(lambda c: float(spec.deriv(c)) - target, spec.b, hi,
               xtol=1e-14 * max(1.0, hi))
    )
    return pts


def find_constant_speeds(spec: OvfSpec, h: float) -> list[WavefrontPoint]:
    """All speeds c > 0 with ``h V(c) = c``, ascending; 0, 1, or 2 entries.

    The trivial c = 0 (and any c <= d_s, where V vanishes) is excluded.  An
    empty list is a valid outcome: it occurs exactly when ``V'(c) < 1/h``
    for every positive c.  A tangent double root is reported once with
    branch label ``degenerate``.
    """
    h = check_finite("h", h, positive=True)

    def residual(c):
        return h * float(spec.eval(c)) - c

    def residual_slope(c):
        return h * float(spec.deriv(c)) - 1.0

    # quick exit: max slope below 1/h means no intersections at all
    if h * float(spec.deriv(spec.b)) < 1.0:
        return []

    d_s = spec.d_s
    c_upper = h * spec.v_max  # every root satisfies c = h V(c) < h v_max
    if c_upper <= d_s:
        return []
    span = c_upper - d_s
    stationary = [c for c in _stationary_points(spec, h) if d_s < c < c_upper]

    # geometric grid in (c - d_s), extended downward until the residual is
    # negative so the smallest root is always bracketed from below
    g_lo, g_hi = span * 1e-6, span
    n_extend = 0
    while residual(d_s + g_lo) > 0.0 and n_extend < 200:
        g_lo /= 16.0
        n_extend += 1
    decades = max(1.0, math.log10(g_hi / g_lo))
    grid = d_s + np.geomspace(g_lo, g_hi, max(64, int(48 * decades)))
    nodes = np.unique(np.concatenate([grid, np.asarray(stationary)]))

    vals = h * _eval_on(spec.eval, nodes) - nodes
    roots: list[float] = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        c = bisect(residual, nodes[i], nodes[i + 1], f_lo=vals[i], f_hi=vals[i + 1],
                   xtol=1e-12 * max(1.0, nodes[i + 1]))
        c = newton_polish(residual, residual_slope, c,
                          bracket=(nodes[i], nodes[i + 1]))
        roots.append(c)
    roots.extend(float(c) for c in nodes[vals == 0.0] if c > d_s)
    roots = sorted(set(roots))

    # tangency: a stationary point of the residual sitting on zero is a
    # double root; a noise-split pair collapses to the same point
    if len(roots) == 2 and abs(roots[0] - roots[1]) <= 1e-6 * max(1.0, roots[1]):
        s0 = h * float(spec.deriv(roots[0]))
        s1 = h * float(spec.deriv(roots[1]))
        if abs(s0 - 1.0) <= 1e-6 and abs(s1 - 1.0) <= 1e-6:
            roots = [0.5 * (roots[0] + roots[1])]
    if not roots:
        for c_s in stationary:
            if abs(residual(c_s)) <= _RESIDUAL_TOL * max(1.0, c_s):
                c = newton_polish(residual_slope,
                                  lambda c: h * float(spec.deriv2(c)), c_s)
                if abs(residual(c)) <= _RESIDUAL_TOL * max(1.0, c):
                    roots.append(c)
        roots = sorted(set(roots))

    points = []
    for c in roots:
        sp = h * float(spec.deriv(c))
        points.append(WavefrontPoint(h=h, c=float(c), slope_product=sp, branch=_label(sp)))
    if len(points) > 2:
        raise NumericalError(f"more than two constant-speed roots reported: {points}")
    return points


@lru_cache(maxsize=64)
def critical_pair(spec: OvfSpec) -> CriticalPair:
    """The unique (c_star, h_star) with ``hV(c)=c`` and ``hV'(c)=1``.

    Solves ``c V'(c) / V(c) = 1`` beyond the inflection headway, where the
    ratio falls through 1 exactly once, then sets ``h_star = c/V(c)``.
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
    hi = b + max(1.0, b)
    for _ in range(200):
        if ratio(hi) < 1.0:
            break
        hi *= 2.0
    else:
        raise NumericalError("could not bracket the tangency speed")
    c_star = bisect(lambda c: ratio(c) - 1.0, b, hi, xtol=1e-15 * max(1.0, hi))
    c_star = newton_polish(
        lambda c: c * float(spec.deriv(c)) - float(spec.eval(c)),
        lambda c: c * float(spec.deriv2(c)),
        c_star,
        bracket=(spec.d_s, hi),
    )
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
    inverse is computed by bisection there and polished on the residual.
    Raises :class:`DomainError` for ``h <= h_star``, where neither branch is
    defined, and :class:`ParameterError` for a non-finite ``h``.
    """
    h = check_finite("h", h)
    which = _normalize_branch(which)
    cp = critical_pair(spec)
    if not h > cp.h_star:
        raise DomainError(
            f"h={h} is at or below the branch onset h_star={cp.h_star}"
        )

    def inv_speed(c):
        return c / float(spec.eval(c))

    def residual(c):
        return h * float(spec.eval(c)) - c

    def residual_slope(c):
        return h * float(spec.deriv(c)) - 1.0

    if which == BRANCH1:
        if h >= cp.h_hat:
            return None
        # inv_speed decreases from h_hat to h_star on (d_s, c_star)
        lo = None
        step = cp.c_star - spec.d_s
        for k in range(1, 400):
            cand = spec.d_s + step * 0.5**k
            if inv_speed(cand) > h:
                lo = cand
                break
        if lo is None:
            raise NumericalError("could not bracket the branch-1 speed")
        c = bisect(lambda c: inv_speed(c) - h, lo, cp.c_star,
                   xtol=1e-15 * max(1.0, cp.c_star))
        bracket = (spec.d_s, cp.c_star)
    else:
        hi = cp.c_star + max(1.0, cp.c_star)
        for _ in range(200):
            if inv_speed(hi) > h:
                break
            hi *= 2.0
        else:
            raise NumericalError("could not bracket the branch-2 speed")
        c = bisect(lambda c: inv_speed(c) - h, cp.c_star, hi,
                   xtol=1e-15 * max(1.0, hi))
        bracket = (cp.c_star, hi)

    c = newton_polish(residual, residual_slope, c, bracket=bracket)
    sp = h * float(spec.deriv(c))
    return WavefrontPoint(h=float(h), c=float(c), slope_product=sp, branch=_label(sp))


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
