"""Forward integration of the delayed two-component system.

The scalar model ``z''(t) = h^2 V(z(t-1) - z(t)) + h z'(t)`` is integrated as
the first-order pair ``w = (z, z')`` with

    w'(t) = ( w2(t),  h^2 V(w1(t-1) - w1(t)) + h w2(t) ).

The delay is the unit of time, so steps are capped at 1 and every lagged
lookup falls into already-computed history (method of steps).  Derivative
jumps propagate from the initial segment at whole numbers; the mesh is
forced onto t = 1, 2, 3, 4, after which the solution is smooth enough for
the integration order.

:func:`integrate` steps the pair as one complex number ``z + i z'`` with the
Dormand-Prince 5(4) loop of :mod:`ovwave._rk`, the loop the car chain uses.
Each accepted step keeps four coefficients per component of the pair's
quartic continuous extension.  The lagged value ``z(t-1)`` comes from that
dense output, found by a cursor that walks forward with the lookups and
steps back after a rejected step; the same evaluator serves
:class:`Trajectory`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._rk import RkDriver, dense_output, quartic
from .errors import DomainError, ParameterError
from .ovf import OvfSpec

__all__ = [
    "Segment",
    "SolverStats",
    "Trajectory",
    "AffineTrajectory",
    "rhs",
    "integrate",
    "gronwall_report",
    "solution_offset_invariance_check",
    "trajectory_to_csv",
    "trajectory_metadata",
]

_SAMPLES_PER_UNIT = 64  # sup-norm sampling density for segment/history norms


class Segment:
    """Initial history on [-1, 0] as (position, velocity).

    Built from a closed form (:meth:`constant`, :meth:`affine`,
    :meth:`quasi_stationary`) or from samples with monotone-cubic
    interpolation (:meth:`from_samples`).  Evaluation outside [-1, 0] raises
    :class:`DomainError`.
    """

    def __init__(self, position, velocity, description):
        self._position = position
        self._velocity = velocity
        self.description = dict(description)

    @classmethod
    def constant(cls, d):
        d = float(d)
        return cls(
            lambda s: np.full_like(np.asarray(s, dtype=float), d),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            {"kind": "constant", "offset": d},
        )

    @classmethod
    def affine(cls, slope, offset=0.0):
        slope = float(slope)
        offset = float(offset)
        return cls(
            lambda s: slope * np.asarray(s, dtype=float) + offset,
            lambda s: np.full_like(np.asarray(s, dtype=float), slope),
            {"kind": "affine", "slope": slope, "offset": offset},
        )

    @classmethod
    def quasi_stationary(cls, speed, offset=0.0):
        """History of a constant-speed profile ``z(s) = -speed*s + offset``."""
        seg = cls.affine(-float(speed), offset)
        seg.description = {"kind": "quasi_stationary", "speed": float(speed), "offset": float(offset)}
        return seg

    @classmethod
    def from_samples(cls, s, z, dz=None):
        s, z = np.asarray(s, dtype=float), np.asarray(z, dtype=float)
        dz = None if dz is None else np.asarray(dz, dtype=float)
        if s.ndim != 1 or s.size < 2 or z.shape != s.shape:
            raise ParameterError("samples must be matching one-dimensional arrays")
        if dz is not None and dz.shape != s.shape:
            raise ParameterError("dz samples must match s")
        if not all(np.all(np.isfinite(a)) for a in (s, z, dz) if a is not None):
            raise ParameterError("samples must be finite")
        if not np.all(np.diff(s) > 0):
            raise ParameterError("sample abscissae must be strictly increasing")
        if s[0] > -1.0 + 1e-12 or s[-1] < -1e-12:
            raise ParameterError("samples must cover [-1, 0]")
        pos = PchipInterpolator(s, z)
        vel = pos.derivative() if dz is None else PchipInterpolator(s, dz)
        return cls(pos, vel, {"kind": "sampled", "n_samples": int(s.size)})

    def shifted(self, d):
        """The same history with the position component moved by ``d``."""
        d = float(d)
        pos, vel = self._position, self._velocity
        desc = dict(self.description)
        desc["shifted_by"] = desc.get("shifted_by", 0.0) + d
        return Segment(lambda s: pos(s) + d, vel, desc)

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        if np.any(arr < -1.0 - 1e-12) or np.any(arr > 1e-12):
            raise DomainError(f"segment evaluated outside [-1, 0]: s={s}")
        out = np.stack(
            [np.asarray(self._position(arr), dtype=float),
             np.asarray(self._velocity(arr), dtype=float)],
            axis=-1,
        )
        return out

    def sup_norm(self):
        """Sup of the Euclidean norm over [-1, 0], sampled 64 per unit."""
        s = np.linspace(-1.0, 0.0, _SAMPLES_PER_UNIT + 1)
        return float(np.max(np.linalg.norm(self(s), axis=-1)))


@dataclass
class SolverStats:
    steps: int
    rejected: int
    rhs_evals: int
    gronwall_ok: bool
    gronwall_log_margin: float
    dt_min: float
    dt_max: float


class Trajectory:
    """Dense numerical solution of the delayed pair on [-1, t_end].

    Holds the accepted ``mesh`` with the states ``ys`` on it, the quartic
    dense-output coefficients ``qs`` of each step (shape ``(len(mesh) - 1,
    4, 2)``) and the solver ``counts`` (steps, rejected steps, RHS
    evaluations).  Calling the trajectory with a scalar or array of times
    returns the state ``(z, z')``; times before t0 delegate to the initial
    segment.  The velocity component equals the derivative of the position
    interpolant at every mesh point by construction.  Instances are
    immutable by convention and safe to share between threads.
    """

    def __init__(self, mesh, ys, qs, counts, phi: Segment, ovf: OvfSpec, h: float,
                 tol_rel: float, tol_abs: float):
        self.mesh = mesh
        self._ys = ys
        self._qs = qs
        self.t0 = float(mesh[0])
        self.t_end = float(mesh[-1])
        self.phi = phi
        self.ovf = ovf
        self.h = h
        self.tol_rel = tol_rel
        self.tol_abs = tol_abs
        ok, margin = gronwall_report(self)
        steps = np.diff(mesh)
        self.stats = SolverStats(*counts, gronwall_ok=ok, gronwall_log_margin=margin,
                                 dt_min=float(steps.min()), dt_max=float(steps.max()))

    @property
    def domain(self):
        return (self.t0 - 1.0, self.t_end)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        lo, hi = self.domain
        slack = 1e-9 * max(1.0, hi - lo)
        if (arr < lo - slack).any() or (arr > hi + slack).any():
            raise DomainError(
                f"trajectory evaluated outside [{lo}, {hi}]"
            )
        flat = np.minimum(np.maximum(arr, lo), hi).ravel()
        out = dense_output(self.mesh, self._ys, self._qs, flat)
        past = flat < self.t0
        if past.any():
            out[past] = self.phi(flat[past])
        return out.reshape(arr.shape + (2,))


class AffineTrajectory:
    """Exact constant-slope profile with unbounded domain.

    Stands in for a numerically integrated trajectory wherever a known
    quasi-stationary solution should be used without discretization error.
    """

    def __init__(self, slope, offset=0.0):
        self.slope = float(slope)
        self.offset = float(offset)
        self.t0 = 0.0
        self.t_end = math.inf

    @property
    def domain(self):
        return (-math.inf, math.inf)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        return np.stack(
            [self.slope * arr + self.offset, np.full_like(arr, self.slope)],
            axis=-1,
        )


def _acceleration(spec: OvfSpec, h: float):
    """The acceleration law ``(gap, v) -> h^2 V(gap) + h v`` of the pair."""
    h2 = h * h
    value = spec.eval
    return lambda gap, v: h2 * value(gap) + h * v


def rhs(spec: OvfSpec, h: float, segment) -> tuple[float, float]:
    """Right-hand side of the delayed pair applied to one history segment.

    Returns ``(v, h^2 V(p(-1) - p(0)) + h v)`` where ``p`` and ``v`` are the
    position and velocity components of the segment and ``V`` the optimal
    velocity function.  :func:`integrate` steps with the same law.
    """
    if not h > 0:
        raise ParameterError(f"h must be positive, got {h}")
    tail = np.asarray(segment(-1.0), dtype=float)
    head = np.asarray(segment(0.0), dtype=float)
    gap = float(tail[0]) - float(head[0])
    v = float(head[1])
    return (v, _acceleration(spec, h)(gap, v))


def _check_tolerances(tol_rel, tol_abs, error=ParameterError) -> None:
    """The tolerance contract of every integration and configuration."""
    if not (1e-12 <= tol_rel < math.inf and 0 < tol_abs < math.inf):
        raise error(
            f"tolerances must be finite with rel >= 1e-12 and abs > 0, got ({tol_rel}, {tol_abs})"
        )


def integrate(spec: OvfSpec, h: float, phi: Segment, t_end: float,
              tol_rel: float = 1e-9, tol_abs: float = 1e-12) -> Trajectory:
    """Integrate the delayed pair from the initial segment up to ``t_end``.

    The pair ``(z, v)`` steps as one complex state ``z + i v`` on
    :class:`ovwave._rk.RkDriver` from t0 = 0, with ``max_step = 1`` and the
    mesh forced onto t = 1..4.  Lagged values come from the dense output of
    completed history.  Raises :class:`StepSizeError` on step underflow,
    :class:`NumericalError` when the step budget runs out and
    :class:`DomainError` if the right-hand side turns non-finite.
    """
    if not h > 0:
        raise ParameterError(f"h must be positive, got {h}")
    if not 0 < t_end < math.inf:
        raise ParameterError(f"t_end must be positive and finite, got {t_end}")
    _check_tolerances(tol_rel, tol_abs)
    accel = _acceleration(spec, h)
    position = phi._position  # lagged times in [-1, 0] need no domain check
    drv = RkDriver(0.0, complex(*phi(0.0)), t_end, tol_rel, tol_abs, max_step=1.0,
                   breakpoints=(1.0, 2.0, 3.0, 4.0))
    ts, ys, qs = drv.ts, drv.ys, drv.qs
    j = 0  # lag cursor: the mesh interval holding the last lagged time

    def slope(t, w):
        """The slope ``v + i a`` of the state ``w = z + i v`` at stage time ``t``."""
        nonlocal j
        z, v = w.real, w.imag
        s = t - 1.0
        if s <= 0.0:
            lagged = float(position(s))
        else:
            last = len(ts) - 2
            while j < last and ts[j + 1] <= s:
                j += 1
            while j > 0 and ts[j] > s:
                j -= 1
            t_j = ts[j]
            dt = ts[j + 1] - t_j
            q1, q2, q3, q4 = qs[j]
            lagged = quartic(ys[j].real, dt, (s - t_j) / dt, q1.real, q2.real, q3.real, q4.real)
        return complex(v, accel(lagged - z, v))

    drv.run(slope)
    n = drv.ts.size
    return Trajectory(drv.ts, drv.ys.view(float).reshape(n, 2),
                      drv.qs.view(float).reshape(n - 1, 4, 2),
                      (drv.naccept, drv.nreject, drv.nfev), phi, spec, h, drv.tol_rel, drv.tol_abs)


def gronwall_report(traj) -> tuple[bool, float]:
    """Check the a-priori growth bound of the history norm.

    With ``K = sqrt(1 + h^2) + 2 h^2 V'(b)``, the sliding sup of the
    Euclidean state norm over [t-1, t] must stay below
    ``||phi|| * exp(K (t - t0))``.  Compared in log space so long runs do
    not overflow; returns (ok, minimal log margin).  The first window,
    ``[t0 - 1, t0]``, is the history itself, where the bound holds with
    equality: it takes part in ``ok`` but not in the reported margin.
    """
    h = traj.h
    K = math.sqrt(1.0 + h * h) + 2.0 * h * h * float(traj.ovf.deriv(traj.ovf.b))
    lo = traj.t0 - 1.0
    n = int(math.floor((traj.t_end - lo) * _SAMPLES_PER_UNIT))
    grid = lo + np.arange(n + 1) / _SAMPLES_PER_UNIT
    norms = np.linalg.norm(traj(grid), axis=-1)
    win = _SAMPLES_PER_UNIT + 1
    if norms.size < win:
        return True, math.inf
    sup = np.max(np.lib.stride_tricks.sliding_window_view(norms, win), axis=-1)
    t = grid[win - 1:]
    phi_norm = traj.phi.sup_norm()
    if phi_norm == 0.0:
        ok = bool(np.max(sup) <= 10.0 * traj.tol_abs)
        return ok, math.inf if ok else -math.inf
    with np.errstate(divide="ignore"):
        lhs = np.log(np.maximum(sup, 1e-300))
    margins = math.log(phi_norm) + K * (t - traj.t0) - lhs
    ok = bool(np.min(margins) >= -1e-9)
    return ok, float(np.min(margins[1:])) if margins.size > 1 else math.inf


def solution_offset_invariance_check(traj: Trajectory, d: float) -> bool:
    """Re-integrate from the ``d``-shifted segment and compare the runs.

    True when the shifted run reproduces the shifted trajectory within ten
    times the run's tolerance, measured in the norm used throughout this
    module (sup over time of the Euclidean state norm, with the relative
    part scaled by the larger sup norm of the two runs).
    """
    shifted = integrate(
        traj.ovf, traj.h, traj.phi.shifted(d), traj.t_end, traj.tol_rel, traj.tol_abs
    )
    n = max(2, int(round(traj.t_end * 16)) + 1)
    grid = np.linspace(0.0, traj.t_end, n)
    a = traj(grid)
    b = shifted(grid)
    diff = float(np.max(np.linalg.norm(b - np.array([d, 0.0]) - a, axis=-1)))
    scale = float(np.max(np.linalg.norm(np.concatenate([a, b]), axis=-1)))
    return diff <= 10.0 * (traj.tol_abs + traj.tol_rel * scale)


def _column(values) -> np.ndarray:
    """The number format of every CSV: ``values`` flattened to an object array
    of 17-significant-digit strings, empty for None (only an object array holds
    None).  Each distinct bit pattern is formatted once, which keeps ``-0.0``
    apart from ``0.0``; a car lattice samples one profile and repeats values.
    """
    a = np.asarray(values)
    missing = np.equal(a, None) if a.dtype == object else np.zeros(a.shape, bool)
    bits = np.where(missing, 0.0, a).astype(np.float64).ravel().view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = ["%.17g" % x for x in keys.view(np.float64).tolist()]
    cells = np.array(text, dtype=object)[inverse]
    cells[missing.ravel()] = ""
    return cells


def _write_lines(path, lines: list[str]) -> None:
    """Write ``lines`` newline-terminated, creating the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_csv(path, header: str, columns) -> None:
    """Write the ``header`` line(s), then the rows of equal-length str ``columns``."""
    _write_lines(path, [header, *map(",".join, zip(*columns, strict=True))])


def trajectory_to_csv(traj: Trajectory, path, dt: float) -> None:
    """Write t, z, dz rows sampled every ``dt`` over the full domain."""
    if not 0 < dt < math.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    lo, hi = traj.domain
    n = int(math.floor((hi - lo) / dt + 1e-9))
    ts = lo + dt * np.arange(n + 1)
    _write_csv(path, "t,z,dz", [_column(ts), *map(_column, traj(ts).T)])


def trajectory_metadata(traj: Trajectory) -> dict:
    """Solver statistics and run parameters for a JSON sidecar."""
    return {
        "h": traj.h,
        "ovf": {"v_max": traj.ovf.v_max, "d_s": traj.ovf.d_s, "b": traj.ovf.b},
        "segment": traj.phi.description,
        "t_end": traj.t_end,
        "tol_rel": traj.tol_rel,
        "tol_abs": traj.tol_abs,
        "stats": asdict(traj.stats),
    }
