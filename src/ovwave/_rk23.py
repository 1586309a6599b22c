"""Embedded third-order Runge-Kutta stepping with a cubic dense output.

Shared driver for the delay integrator and the finite car-chain simulator.
A four-stage pair (third order propagated, second order embedded, first
stage reused from the previous accepted step) supplies the local error
estimate.  Accepted steps store state and slope at both endpoints, so any
interior value is reconstructed by a cubic Hermite interpolant whose
accuracy matches the integration order.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, StepSizeError

__all__ = ["Rk23Driver"]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class Rk23Driver:
    """Adaptive integrator with growing dense-output storage.

    Parameters
    ----------
    t0, y0 : initial time and state.
    t_end : final time (must exceed ``t0``).
    tol_rel, tol_abs : local error control per step.
    max_step : hard cap on the step size (the delay integrator caps at the
        delay so lagged lookups always fall into completed history).
    breakpoints : times in ``(t0, t_end)`` the mesh must hit exactly.
    prehistory : optional callable giving the state for ``t <= t0``.
    """

    def __init__(self, t0, y0, t_end, tol_rel, tol_abs, *, max_step=math.inf,
                 breakpoints=(), prehistory=None, max_steps=5_000_000):
        self.t0 = float(t0)
        self.t_end = float(t_end)
        self.tol_rel = float(tol_rel)
        self.tol_abs = float(tol_abs)
        self.max_step = float(max_step)
        self.prehistory = prehistory
        self.max_steps = int(max_steps)
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

    # -- storage ---------------------------------------------------------

    def _grow(self):
        cap = 2 * self.ts.size
        self.ts = np.resize(self.ts, cap)
        for name in ("ys", "fs"):
            old = getattr(self, name)
            new = np.empty((cap, self.dim))
            new[: self.n] = old[: self.n]
            setattr(self, name, new)

    # -- dense output ----------------------------------------------------

    def _hermite(self, t, i):
        ts, ys, fs = self.ts, self.ys, self.fs
        dt = ts[i + 1] - ts[i]
        th = (t - ts[i]) / dt
        th2 = th * th
        th3 = th2 * th
        h00 = 2.0 * th3 - 3.0 * th2 + 1.0
        h10 = th3 - 2.0 * th2 + th
        h01 = -2.0 * th3 + 3.0 * th2
        h11 = th3 - th2
        return h00 * ys[i] + (h10 * dt) * fs[i] + h01 * ys[i + 1] + (h11 * dt) * fs[i + 1]

    def eval_scalar(self, t):
        """Dense-output state at one time (prehistory for ``t <= t0``)."""
        if t <= self.t0:
            return np.asarray(self.prehistory(t), dtype=float)
        i = int(np.searchsorted(self.ts[: self.n], t, side="right")) - 1
        if i >= self.n - 1:
            i = self.n - 2
        return self._hermite(t, i)

    def eval_component(self, t, k):
        """Fast scalar path for one state component.

        ``t <= t0`` goes to the prehistory, which equals ``ys[0]`` at t0:
        before the first step is accepted there is no mesh interval to
        interpolate on.
        """
        if t <= self.t0:
            return float(self.prehistory(t)[k])
        ts = self.ts
        i = int(np.searchsorted(ts[: self.n], t, side="right")) - 1
        if i >= self.n - 1:
            i = self.n - 2
        dt = ts[i + 1] - ts[i]
        th = (t - ts[i]) / dt
        th2 = th * th
        th3 = th2 * th
        return (
            (2.0 * th3 - 3.0 * th2 + 1.0) * self.ys[i, k]
            + (th3 - 2.0 * th2 + th) * dt * self.fs[i, k]
            + (-2.0 * th3 + 3.0 * th2) * self.ys[i + 1, k]
            + (th3 - th2) * dt * self.fs[i + 1, k]
        )

    def eval_array(self, t):
        """Vectorized dense output; shape ``t.shape + (dim,)``."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty((flat.size, self.dim))
        past = flat < self.t0
        if np.any(past):
            if self.prehistory is None:
                raise DomainError("no history available before t0")
            vals = self.prehistory(flat[past])
            out[past] = np.asarray(vals, dtype=float).reshape(-1, self.dim)
        fut = ~past
        if np.any(fut):
            tf = flat[fut]
            idx = np.searchsorted(self.ts[: self.n], tf, side="right") - 1
            idx = np.clip(idx, 0, self.n - 2)
            dt = self.ts[idx + 1] - self.ts[idx]
            th = (tf - self.ts[idx]) / dt
            th2 = th * th
            th3 = th2 * th
            h00 = 2.0 * th3 - 3.0 * th2 + 1.0
            h10 = (th3 - 2.0 * th2 + th) * dt
            h01 = -2.0 * th3 + 3.0 * th2
            h11 = (th3 - th2) * dt
            out[fut] = (
                h00[:, None] * self.ys[idx]
                + h10[:, None] * self.fs[idx]
                + h01[:, None] * self.ys[idx + 1]
                + h11[:, None] * self.fs[idx + 1]
            )
        return out.reshape(t.shape + (self.dim,))

    # -- stepping --------------------------------------------------------

    def _initial_step(self, f0, cap):
        sc = self.tol_abs + self.tol_rel * np.abs(self.ys[0])
        d0 = math.sqrt(float(np.mean((self.ys[0] / sc) ** 2)))
        d1 = math.sqrt(float(np.mean((f0 / sc) ** 2)))
        if d0 < 1e-5 or d1 < 1e-5:
            dt = 1e-6
        else:
            dt = 1e-2 * d0 / d1
        return min(dt, cap)

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
        dt_prop = self._initial_step(k1, min(self.max_step, self._targets[0] - t))
        rejected_last = False

        while t < self.t_end:
            if self.naccept + self.nreject > self.max_steps:
                raise NumericalError("step budget exhausted")
            target = self._targets[target_i]
            dt = min(dt_prop, self.max_step)
            remaining = target - t
            hit = False
            if dt >= remaining * (1.0 - 1e-12) or dt > 0.9 * remaining:
                dt = remaining
                hit = True
            if dt < 1e-12 * span:
                raise StepSizeError(
                    f"step size underflow at t={t} (dt={dt}); dynamics too stiff"
                )

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

            if enorm <= 1.0:
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
                factor = _MAX_FACTOR if enorm == 0.0 else _SAFETY * enorm ** (-1.0 / 3.0)
                if rejected_last:
                    factor = min(factor, 1.0)
                # a step clipped to land on a target must not shrink the proposal
                base = dt_prop if hit else dt
                dt_prop = base * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                rejected_last = False
            else:
                self.nreject += 1
                rejected_last = True
                dt_prop = dt * min(1.0, max(_MIN_FACTOR, _SAFETY * enorm ** (-1.0 / 3.0)))
        return self
