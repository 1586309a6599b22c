"""Optimal velocity functions.

An optimal velocity function maps the headway (gap to the car in front) to
the speed a driver aims for.  The model's standing assumptions are

  1. nonnegative and nondecreasing,
  2. bounded by a maximum velocity ``v_max`` that is approached as the
     headway grows,
  3. zero at and below a safety distance ``d_s``, positive beyond it,
  4. continuously differentiable everywhere and twice continuously
     differentiable beyond ``d_s``, with the slope strictly increasing up to
     an inflection headway ``b`` and strictly decreasing after it.

:class:`OvfSpec` bundles such a function with its first two derivatives and
the three characteristic constants.  :func:`make_vq` builds the rational
reference family; user supplied functions can be wrapped in an ``OvfSpec``
directly and validated with :func:`ovf_axiom_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError, check_finite

__all__ = ["OvfSpec", "AxiomViolation", "make_vq", "ovf_axiom_check"]

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OvfSpec:
    """An optimal velocity function with derivatives and metadata.

    The callables must accept scalars and numpy arrays.  ``deriv`` and
    ``deriv2`` are the right-limit values at ``s = d_s`` (the derivatives
    may jump there) and zero below the safety distance.  Instances are
    immutable; all operations on them are pure.

    Attributes
    ----------
    v_max : supremum of the velocity, approached for large headway.
    d_s : safety distance below which the velocity is zero.
    b : inflection headway where the slope attains its maximum.
    eval, deriv, deriv2 : the function and its first two derivatives.
    """

    v_max: float
    d_s: float
    b: float
    eval: Callable
    deriv: Callable
    deriv2: Callable

    def __post_init__(self):
        for name in ("v_max", "d_s", "b"):
            check_finite(name, getattr(self, name), positive=name == "v_max")
        if self.d_s < 0:
            raise ParameterError(f"d_s must be nonnegative, got {self.d_s}")
        if not self.b > self.d_s:
            raise ParameterError(
                f"inflection point b={self.b} must exceed d_s={self.d_s}"
            )


@dataclass(frozen=True)
class AxiomViolation:
    """One detected violation of the optimal-velocity assumptions."""

    axiom: str  # "OVF1" .. "OVF4"
    location: float
    detail: str


def make_vq(v_max: float, d_s: float) -> OvfSpec:
    """Build the rational reference family.

    The function is ``v_max * u**2 / (1 + u**2)`` with ``u = s - d_s`` for
    ``s >= d_s`` and zero below.  Derivatives are analytic; the inflection
    headway is ``d_s + 1/sqrt(3)``.

    Raises
    ------
    ParameterError
        If ``v_max`` or ``d_s`` is not finite, ``v_max <= 0`` or ``d_s < 0``
        (checked by :class:`OvfSpec`).
    """
    vm = float(v_max)
    ds = float(d_s)

    def value(s):
        if isinstance(s, float) or np.ndim(s) == 0:
            u = float(s) - ds
            if u <= 0.0:
                return 0.0
            q = u * u
            return vm * q / (1.0 + q)
        u = np.maximum(np.asarray(s, dtype=float) - ds, 0.0)
        q = u * u
        return vm * q / (1.0 + q)

    def slope(s):
        if isinstance(s, float) or np.ndim(s) == 0:
            u = float(s) - ds
            if u <= 0.0:
                return 0.0
            q = 1.0 + u * u
            return 2.0 * vm * u / (q * q)
        u = np.maximum(np.asarray(s, dtype=float) - ds, 0.0)
        q = 1.0 + u * u
        return 2.0 * vm * u / (q * q)

    def curvature(s):
        # right limit at s == d_s, zero below
        if isinstance(s, float) or np.ndim(s) == 0:
            if s < ds:
                return 0.0
            u = float(s) - ds
            q = 1.0 + u * u
            return 2.0 * vm * (1.0 - 3.0 * u * u) / (q * q * q)
        s = np.asarray(s, dtype=float)
        u = np.maximum(s - ds, 0.0)
        q = 1.0 + u * u
        return np.where(s < ds, 0.0, 2.0 * vm * (1.0 - 3.0 * u * u) / (q * q * q))

    return OvfSpec(
        v_max=vm,
        d_s=ds,
        b=ds + 1.0 / math.sqrt(3.0),
        eval=value,
        deriv=slope,
        deriv2=curvature,
    )


def _eval_on(fn, xs: np.ndarray) -> np.ndarray:
    """Evaluate a possibly non-vectorized callable on an array."""
    try:
        out = np.asarray(fn(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except Exception:
        pass
    return np.array([float(fn(float(x))) for x in xs])


def ovf_axiom_check(spec: OvfSpec, grid) -> list[AxiomViolation]:
    """Check the four optimal-velocity assumptions on a probe grid.

    Returns an empty list when all assumption families hold on the grid
    within tolerance; otherwise one record per detected violation.  Never
    raises for a failing function, only for an unusable grid.

    The smoothness part of assumption 4 is verified by comparing ``deriv``
    against centered finite differences of ``eval`` (step
    ``max(1e-6, 1e-6*|s|)``) to relative tolerance 1e-6, or to the
    difference's rounding error ``eps * |V| / step`` where that is larger,
    skipping a small neighborhood of ``d_s`` where the second derivative jumps.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ParameterError("grid must be a one-dimensional array of >= 2 points")
    if not np.all(np.isfinite(grid)):
        raise ParameterError("grid must be finite")
    if not np.all(np.diff(grid) > 0):
        raise ParameterError("grid must be strictly increasing")

    out: list[AxiomViolation] = []
    vm, ds, b = spec.v_max, spec.d_s, spec.b
    atol = 1e-12 * max(1.0, vm)

    vals = _eval_on(spec.eval, grid)
    dvals = _eval_on(spec.deriv, grid)

    # OVF1: nonnegative, nondecreasing
    for s, v in zip(grid, vals):
        if v < -atol:
            out.append(AxiomViolation("OVF1", float(s), f"negative value {v}"))
    drops = np.diff(vals) < -atol
    for i in np.nonzero(drops)[0]:
        out.append(
            AxiomViolation(
                "OVF1",
                float(grid[i + 1]),
                f"decreasing: {vals[i]} -> {vals[i + 1]}",
            )
        )

    # OVF2: bounded by v_max, approached in the tail
    for s, v in zip(grid, vals):
        if v > vm * (1.0 + 1e-12) + atol:
            out.append(AxiomViolation("OVF2", float(s), f"value {v} exceeds v_max={vm}"))
    s_tail = max(float(grid[-1]), ds + 1e6)
    v_tail = float(spec.eval(s_tail))
    if v_tail < vm * (1.0 - 1e-2):
        out.append(
            AxiomViolation(
                "OVF2", s_tail, f"tail value {v_tail} does not approach v_max={vm}"
            )
        )

    # OVF3: zero up to the safety distance, positive beyond
    v_at_ds = float(spec.eval(ds))
    if abs(v_at_ds) > atol:
        out.append(AxiomViolation("OVF3", ds, f"value {v_at_ds} at safety distance"))
    edge = 1e-9 * max(1.0, ds)
    for s, v in zip(grid, vals):
        if s <= ds and abs(v) > atol:
            out.append(AxiomViolation("OVF3", float(s), f"nonzero value {v} at s <= d_s"))
        elif s > ds + edge and not v > 0.0:
            out.append(AxiomViolation("OVF3", float(s), "not positive beyond d_s"))

    # OVF4: slope unimodal with peak at b
    skirt = 1e-6 * max(1.0, b - ds)
    rising = [(s, d) for s, d in zip(grid, dvals) if ds + edge < s < b - skirt]
    for (s0, d0), (s1, d1) in zip(rising, rising[1:]):
        if d1 - d0 < -1e-9 * max(1.0, abs(d0)):
            out.append(
                AxiomViolation("OVF4", float(s1), f"slope not increasing below b: {d0} -> {d1}")
            )
    falling = [(s, d) for s, d in zip(grid, dvals) if s > b + skirt]
    for (s0, d0), (s1, d1) in zip(falling, falling[1:]):
        if d1 - d0 > 1e-9 * max(1.0, abs(d0)):
            out.append(
                AxiomViolation("OVF4", float(s1), f"slope not decreasing above b: {d0} -> {d1}")
            )

    # OVF4 smoothness: deriv vs centered differences of eval
    lo = max(1e-3, (b - ds) / 100.0)
    hi = max(100.0, 10.0 * b)
    probes = ds + np.geomspace(lo, hi, 25)
    for s in probes:
        step = max(1e-6, 1e-6 * abs(s))
        v_hi, v_lo = float(spec.eval(s + step)), float(spec.eval(s - step))
        fd = (v_hi - v_lo) / (2.0 * step)
        d = float(spec.deriv(s))
        # the difference cannot resolve less than its rounding error
        floor = _EPS * max(abs(v_hi), abs(v_lo)) / step
        if abs(fd - d) > max(1e-6 * max(abs(d), abs(fd)), floor):
            out.append(
                AxiomViolation(
                    "OVF4",
                    float(s),
                    f"deriv {d} disagrees with finite difference {fd}",
                )
            )

    return out
