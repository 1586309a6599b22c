"""Embedded third-order Runge-Kutta stepping with a cubic dense output.

The Bogacki-Shampine pair (third order propagated, second order embedded,
first stage reused from the previous accepted step) supplies the local error
estimate.  Accepted steps store state and slope at both endpoints, so any
interior value is reconstructed by a cubic Hermite interpolant whose
accuracy matches the integration order.

:class:`Rk23Driver` steps vector systems on numpy arrays; the finite
car-chain simulator uses it.  The step-size rules (:func:`initial_step`,
:func:`clip_step`, :func:`next_step`) and the dense-output evaluator
:func:`hermite` are shared with the scalar step loop of the delay pair in
:mod:`ovwave.solver`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, StepSizeError

__all__ = ["Rk23Driver", "hermite", "initial_step", "clip_step", "next_step", "MAX_STEPS"]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
MAX_STEPS = 5_000_000


def initial_step(d0, d1, cap):
    """First step size from the RMS norms of the scaled initial state and slope."""
    dt = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 1e-2 * d0 / d1
    return min(dt, cap)


def clip_step(dt_prop, max_step, t, target, span):
    """The step to attempt from ``t`` and whether it lands on ``target``.

    A proposal that would end close to the target is stretched or clipped
    onto it.  Raises :class:`StepSizeError` when the step falls below
    ``1e-12`` of the integration span.
    """
    dt = min(dt_prop, max_step)
    remaining = target - t
    hit = dt >= remaining * (1.0 - 1e-12) or dt > 0.9 * remaining
    if hit:
        dt = remaining
    if dt < 1e-12 * span:
        raise StepSizeError(
            f"step size underflow at t={t} (dt={dt}); dynamics too stiff"
        )
    return dt, hit


def next_step(dt, dt_prop, enorm, hit, rejected_last):
    """The step-size proposal after an attempt of size ``dt``.

    A rejected step (``enorm > 1``) shrinks.  An accepted step may grow, but
    not right after a rejection; a step clipped to land on a target grows
    from the proposal it was clipped from, not from its own size.
    """
    if enorm > 1.0:
        return dt * min(1.0, max(_MIN_FACTOR, _SAFETY * enorm ** (-1.0 / 3.0)))
    factor = _MAX_FACTOR if enorm == 0.0 else _SAFETY * enorm ** (-1.0 / 3.0)
    if rejected_last:
        factor = min(factor, 1.0)
    return (dt_prop if hit else dt) * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))


def hermite(ts, ys, fs, t):
    """Cubic Hermite dense output at the times ``t`` (one-dimensional).

    ``ts`` is the mesh (at least two points), ``ys`` and ``fs`` the states
    and slopes on it, shape ``(len(ts), dim)``.  Times outside the mesh use
    its first or last interval.  Returns shape ``(len(t), dim)``.
    """
    idx = np.minimum(np.maximum(np.searchsorted(ts, t, side="right") - 1, 0), ts.size - 2)
    dt = ts[idx + 1] - ts[idx]
    th = (t - ts[idx]) / dt
    th2 = th * th
    th3 = th2 * th
    h00 = 2.0 * th3 - 3.0 * th2 + 1.0
    h10 = (th3 - 2.0 * th2 + th) * dt
    h01 = -2.0 * th3 + 3.0 * th2
    h11 = (th3 - th2) * dt
    return (
        h00[:, None] * ys[idx]
        + h10[:, None] * fs[idx]
        + h01[:, None] * ys[idx + 1]
        + h11[:, None] * fs[idx + 1]
    )


class Rk23Driver:
    """Adaptive integrator with growing dense-output storage.

    Parameters
    ----------
    t0, y0 : initial time and state.
    t_end : final time (must exceed ``t0``).
    tol_rel, tol_abs : local error control per step.
    max_step : hard cap on the step size.
    breakpoints : times in ``(t0, t_end)`` the mesh must hit exactly.
    """

    def __init__(self, t0, y0, t_end, tol_rel, tol_abs, *, max_step=math.inf,
                 breakpoints=()):
        self.t0 = float(t0)
        self.t_end = float(t_end)
        self.tol_rel = float(tol_rel)
        self.tol_abs = float(tol_abs)
        self.max_step = float(max_step)
        y0 = np.asarray(y0, dtype=float)
        self.dim = y0.size

        bps = sorted({float(b) for b in breakpoints if self.t0 < b < self.t_end})
        self._targets = bps + [self.t_end]

        cap = 1024
        self.ts = np.empty(cap)
        self.ys = np.empty((cap, self.dim))
        self.fs = np.empty((cap, self.dim))
        self.ts[0] = self.t0
        self.ys[0] = y0
        self.n = 1

        self.naccept = 0
        self.nreject = 0
        self.nfev = 0

    def _grow(self):
        cap = 2 * self.ts.size
        self.ts = np.resize(self.ts, cap)
        self.ys = np.resize(self.ys, (cap, self.dim))
        self.fs = np.resize(self.fs, (cap, self.dim))

    def eval_array(self, t):
        """Vectorized dense output on ``[t0, t_end]``; shape ``t.shape + (dim,)``."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t0):
            raise DomainError("no history available before t0")
        n = self.n
        out = hermite(self.ts[:n], self.ys[:n], self.fs[:n], t.ravel())
        return out.reshape(t.shape + (self.dim,))

    def run(self, f):
        """Integrate ``y' = f(t, y)`` from ``t0`` to ``t_end``."""
        t = self.t0
        y = self.ys[0].copy()
        k1 = np.asarray(f(t, y), dtype=float)
        self.nfev += 1
        if not np.all(np.isfinite(k1)):
            raise DomainError(f"non-finite right-hand side at t={t}")
        self.fs[0] = k1

        target_i = 0
        span = self.t_end - self.t0
        sc = self.tol_abs + self.tol_rel * np.abs(y)
        dt_prop = initial_step(
            math.sqrt(float(np.mean((y / sc) ** 2))),
            math.sqrt(float(np.mean((k1 / sc) ** 2))),
            min(self.max_step, self._targets[0] - t),
        )
        rejected_last = False

        while t < self.t_end:
            if self.naccept + self.nreject > MAX_STEPS:
                raise NumericalError("step budget exhausted")
            target = self._targets[target_i]
            dt, hit = clip_step(dt_prop, self.max_step, t, target, span)

            k2 = np.asarray(f(t + 0.5 * dt, y + (0.5 * dt) * k1), dtype=float)
            k3 = np.asarray(f(t + 0.75 * dt, y + (0.75 * dt) * k2), dtype=float)
            y_new = y + dt * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
            t_new = target if hit else t + dt
            k4 = np.asarray(f(t_new, y_new), dtype=float)
            self.nfev += 3
            err = dt * (
                (-5.0 / 72.0) * k1 + (1.0 / 12.0) * k2 + (1.0 / 9.0) * k3 - (1.0 / 8.0) * k4
            )
            if not (np.all(np.isfinite(y_new)) and np.all(np.isfinite(err))):
                raise DomainError(f"non-finite right-hand side near t={t}")

            sc = self.tol_abs + self.tol_rel * np.maximum(np.abs(y), np.abs(y_new))
            enorm = math.sqrt(float(np.mean((err / sc) ** 2)))
            dt_prop = next_step(dt, dt_prop, enorm, hit, rejected_last)
            rejected_last = enorm > 1.0
            if rejected_last:
                self.nreject += 1
                continue
            t, y, k1 = t_new, y_new, k4
            if self.n == self.ts.size:
                self._grow()
            self.ts[self.n] = t
            self.ys[self.n] = y
            self.fs[self.n] = k4
            self.n += 1
            self.naccept += 1
            if hit:
                target_i = min(target_i + 1, len(self._targets) - 1)
        return self
