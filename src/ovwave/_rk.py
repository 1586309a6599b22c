"""Embedded fifth-order Runge-Kutta stepping with a quartic dense output.

The Dormand-Prince 5(4) pair (fifth order propagated, fourth order embedded,
the slope at the new point reused as the first stage of the next step)
supplies the local error estimate.  Each accepted step from ``(t_i, y_i)``
stores four coefficients per component, the slope ``q1 = f(t_i, y_i)`` and
``q2..q4`` from Shampine's continuous extension, so any interior value is

    y(t_i + th*dt) = y_i + dt*th*(q1 + q2*th + q3*th^2 + q4*th^3),

a quartic that matches state and slope at both ends of the step and is
accurate to fourth order inside it, enough for fifth-order steps that read
their own lagged history.

:meth:`RkDriver.run` is the one step loop.  Every stage sum has real
coefficients, so a state may be a float array (the finite car chain of
:mod:`ovwave.lattice`) or a Python ``complex`` whose real and imaginary
parts step as two floats would (the delay pair of :mod:`ovwave.solver`).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NumericalError, StepSizeError

__all__ = ["RkDriver", "dense_coefficients", "quartic", "dense_output", "MAX_STEPS"]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_EXPONENT = -1.0 / 5.0  # the error estimate is of fourth order: O(dt^5)
MAX_STEPS = 5_000_000

# Dormand-Prince 5(4): nodes, stage coefficients and fifth-order weights
# (the weight of the second stage is zero; stage 6 sits at the step's end)
C2, C3, C4, C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
A21 = 1.0 / 5.0
A31, A32 = 3.0 / 40.0, 9.0 / 40.0
A41, A42, A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
A51, A52, A53, A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
A61, A62, A63, A64, A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                           49.0 / 176.0, -5103.0 / 18656.0)
B1, B3, B4, B5, B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# error weights: fifth- minus fourth-order solution, stage 7 the new slope
E1, E3, E4, E5, E6, E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                          -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# continuous extension: q_k = _P1k k1 + _P3k k3 + ... + _P7k k7 for k = 2, 3, 4
_P12, _P32, _P42, _P52, _P62, _P72 = (
    -8048581381.0 / 2820520608.0, 131558114200.0 / 32700410799.0,
    -1754552775.0 / 470086768.0, 127303824393.0 / 49829197408.0,
    -282668133.0 / 205662961.0, 40617522.0 / 29380423.0)
_P13, _P33, _P43, _P53, _P63, _P73 = (
    8663915743.0 / 2820520608.0, -68118460800.0 / 10900136933.0,
    14199869525.0 / 1410260304.0, -318862633887.0 / 49829197408.0,
    2019193451.0 / 616988883.0, -110615467.0 / 29380423.0)
_P14, _P34, _P44, _P54, _P64, _P74 = (
    -12715105075.0 / 11282082432.0, 87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0)


def dense_coefficients(k1, k3, k4, k5, k6, k7):
    """The coefficients ``(q1, q2, q3, q4)`` of one step from its stage slopes.

    Works on floats and on numpy arrays alike; ``q1`` is the slope ``k1``.
    """
    return (
        k1,
        _P12 * k1 + _P32 * k3 + _P42 * k4 + _P52 * k5 + _P62 * k6 + _P72 * k7,
        _P13 * k1 + _P33 * k3 + _P43 * k4 + _P53 * k5 + _P63 * k6 + _P73 * k7,
        _P14 * k1 + _P34 * k3 + _P44 * k4 + _P54 * k5 + _P64 * k6 + _P74 * k7,
    )


def quartic(y, dt, th, q1, q2, q3, q4):
    """The continuous extension at ``th`` in [0, 1] of a step of size ``dt``.

    Works on floats and on broadcastable numpy arrays alike.
    """
    return y + dt * th * (q1 + th * (q2 + th * (q3 + th * q4)))


def dense_output(ts, ys, qs, t):
    """Dense output at the times ``t`` (one-dimensional).

    ``ts`` is the mesh (at least two points), ``ys`` the states on it, shape
    ``(len(ts), dim)``, and ``qs`` the coefficients of each step, shape
    ``(len(ts) - 1, 4, dim)``.  Times outside the mesh use its first or
    last step.  Returns shape ``(len(t), dim)``.
    """
    idx = np.minimum(np.maximum(np.searchsorted(ts, t, side="right") - 1, 0), ts.size - 2)
    dt = ts[idx + 1] - ts[idx]
    th = ((t - ts[idx]) / dt)[:, None]
    q = qs[idx]
    return quartic(ys[idx], dt[:, None], th, q[:, 0], q[:, 1], q[:, 2], q[:, 3])


class RkDriver:
    """Adaptive integrator that keeps the dense output of every accepted step.

    Parameters
    ----------
    t0, y0 : initial time and state, a float array or a ``complex``.
    t_end : final time (must exceed ``t0``).
    tol_rel, tol_abs : local error control per step.
    max_step : hard cap on the step size.
    breakpoints : times in ``(t0, t_end)`` the mesh must hit exactly.

    While :meth:`run` works, ``ts``, ``ys`` and ``qs`` are lists of the
    accepted times, states and coefficient 4-tuples, which the right-hand
    side may read; :meth:`run` turns them into arrays, ``qs`` of shape
    ``(len(ts) - 1, 4) + y0.shape``.
    """

    def __init__(self, t0, y0, t_end, tol_rel, tol_abs, *, max_step=math.inf,
                 breakpoints=()):
        self.t0 = float(t0)
        self.t_end = float(t_end)
        self.tol_rel = float(tol_rel)
        self.tol_abs = float(tol_abs)
        self.max_step = float(max_step)
        bps = sorted({float(b) for b in breakpoints if self.t0 < b < self.t_end})
        self._targets = bps + [self.t_end]
        self.ts = [self.t0]
        self.ys = [y0 if isinstance(y0, complex) else np.asarray(y0, dtype=float)]
        self.qs = []
        self.naccept = 0
        self.nreject = 0
        self.nfev = 0

    def _norm(self, err, y, y_new):
        """RMS over components of ``err`` scaled by ``tol_abs + tol_rel*max(|y|, |y_new|)``.

        The components of a complex state are its real and imaginary parts.
        NaN unless ``y_new`` is finite.
        """
        rel, atol = self.tol_rel, self.tol_abs
        if isinstance(y_new, complex):
            if not cmath.isfinite(y_new):
                return math.nan
            a = err.real / (atol + rel * max(abs(y.real), abs(y_new.real)))
            b = err.imag / (atol + rel * max(abs(y.imag), abs(y_new.imag)))
            return math.sqrt((a * a + b * b) / 2.0)
        if not np.all(np.isfinite(y_new)):
            return math.nan
        sc = atol + rel * np.maximum(np.abs(y), np.abs(y_new))
        return math.sqrt(float(np.mean((err / sc) ** 2)))

    def run(self, f):
        """Integrate ``y' = f(t, y)`` from ``t0`` to ``t_end``.

        ``f`` returns the slope in the state's type.  Raises
        :class:`DomainError` when the state or the error estimate turns
        non-finite, :class:`StepSizeError` on step underflow and
        :class:`NumericalError` when the step budget runs out.
        """
        ts, ys, qs = self.ts, self.ys, self.qs
        t, y = self.t0, ys[0]
        k1 = f(t, y)
        naccept = nreject = 0
        nfev = 1
        targets = iter(self._targets)
        target = next(targets)
        span = self.t_end - self.t0
        # first step from the RMS norms of the scaled initial state and slope
        d0 = self._norm(y, y, y)
        d1 = self._norm(k1, y, y)
        if not math.isfinite(d1):
            raise DomainError(f"non-finite right-hand side at t={t}")
        dt_prop = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 1e-2 * d0 / d1
        dt_prop = min(dt_prop, self.max_step, target - t)
        rejected_last = False

        while t < self.t_end:
            if naccept + nreject > MAX_STEPS:
                raise NumericalError("step budget exhausted")
            # a proposal that would end close to the target is stretched or
            # clipped onto it; steps below 1e-12 of the span are an underflow
            dt = min(dt_prop, self.max_step)
            remaining = target - t
            hit = dt >= remaining * (1.0 - 1e-12) or dt > 0.9 * remaining
            if hit:
                dt = remaining
            if dt < 1e-12 * span:
                raise StepSizeError(
                    f"step size underflow at t={t} (dt={dt}); dynamics too stiff"
                )

            k2 = f(t + C2 * dt, y + dt * (A21 * k1))
            k3 = f(t + C3 * dt, y + dt * (A31 * k1 + A32 * k2))
            k4 = f(t + C4 * dt, y + dt * (A41 * k1 + A42 * k2 + A43 * k3))
            k5 = f(t + C5 * dt, y + dt * (A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4))
            k6 = f(t + dt, y + dt * (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4 + A65 * k5))
            y_new = y + dt * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6)
            t_new = target if hit else t + dt
            k7 = f(t_new, y_new)
            nfev += 6
            err = dt * (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7)
            enorm = self._norm(err, y, y_new)
            if not math.isfinite(enorm):
                raise DomainError(f"non-finite right-hand side near t={t}")

            # a rejected step shrinks; an accepted step may grow, but not right
            # after a rejection, and a step clipped to land on a target grows
            # from the proposal it was clipped from, not from its own size
            if enorm > 1.0:
                dt_prop = dt * min(1.0, max(_MIN_FACTOR, _SAFETY * enorm ** _EXPONENT))
                rejected_last = True
                nreject += 1
                continue
            factor = _MAX_FACTOR if enorm == 0.0 else _SAFETY * enorm ** _EXPONENT
            if rejected_last:
                factor = min(factor, 1.0)
            dt_prop = (dt_prop if hit else dt) * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            rejected_last = False
            qs.append(dense_coefficients(k1, k3, k4, k5, k6, k7))
            t, y, k1 = t_new, y_new, k7
            ts.append(t)
            ys.append(y)
            naccept += 1
            if hit:
                target = next(targets, target)

        dtype = np.result_type(y)
        self.ts, self.ys, self.qs = np.array(ts), np.array(ys, dtype), np.array(qs, dtype)
        self.naccept, self.nreject, self.nfev = naccept, nreject, nfev
        return self
