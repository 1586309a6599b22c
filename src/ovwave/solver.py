"""Forward integration of the delayed two-component system.

The scalar model ``z''(t) = h^2 V(z(t-1) - z(t)) + h z'(t)`` is integrated as
the first-order pair ``w = (z, z')`` with

    w'(t) = ( w2(t),  h^2 V(w1(t-1) - w1(t)) + h w2(t) ).

The delay is the unit of time, so steps are capped at 1 and every lagged
lookup falls into already-computed history (method of steps).  Derivative
jumps propagate from the initial segment at whole numbers; the mesh is
forced onto t = 1, 2, 3, 4, after which the solution is smooth enough for
the integration order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from ._rk23 import Rk23Driver
from .errors import DomainError, ParameterError
from .ovf import OvfSpec

__all__ = [
    "Segment",
    "SolverStats",
    "Trajectory",
    "AffineTrajectory",
    "affine_trajectory",
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
        s = np.asarray(s, dtype=float)
        z = np.asarray(z, dtype=float)
        if s.ndim != 1 or s.size < 2 or z.shape != s.shape:
            raise ParameterError("samples must be matching one-dimensional arrays")
        if not np.all(np.diff(s) > 0):
            raise ParameterError("sample abscissae must be strictly increasing")
        if s[0] > -1.0 + 1e-12 or s[-1] < -1e-12:
            raise ParameterError("samples must cover [-1, 0]")
        pos = PchipInterpolator(s, z)
        if dz is None:
            vel = pos.derivative()
        else:
            dz = np.asarray(dz, dtype=float)
            if dz.shape != s.shape:
                raise ParameterError("dz samples must match s")
            vel = PchipInterpolator(s, dz)
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


class Trajectory:
    """Dense numerical solution of the delayed pair on [-1, t_end].

    Calling the trajectory with a scalar or array of times returns the state
    ``(z, z')``; times in [-1, 0] delegate to the initial segment.  The
    velocity component equals the derivative of the position interpolant at
    every mesh point by construction.  Instances are immutable by
    convention and safe to share between threads.
    """

    def __init__(self, driver: Rk23Driver, phi: Segment, ovf: OvfSpec, h: float,
                 tol_rel: float, tol_abs: float):
        self._driver = driver
        self.t0 = driver.t0
        self.t_end = driver.t_end
        self.phi = phi
        self.ovf = ovf
        self.h = h
        self.tol_rel = tol_rel
        self.tol_abs = tol_abs
        self.mesh = driver.ts[: driver.n].copy()
        ok, margin = gronwall_report(self)
        self.stats = SolverStats(
            steps=driver.naccept,
            rejected=driver.nreject,
            rhs_evals=driver.nfev,
            gronwall_ok=ok,
            gronwall_log_margin=margin,
        )

    @property
    def domain(self):
        return (self.t0 - 1.0, self.t_end)

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        lo, hi = self.domain
        slack = 1e-9 * max(1.0, hi - lo)
        if np.any(arr < lo - slack) or np.any(arr > hi + slack):
            raise DomainError(
                f"trajectory evaluated outside [{lo}, {hi}]"
            )
        if arr.ndim == 0:
            return self._driver.eval_scalar(float(np.clip(arr, lo, hi)))
        return self._driver.eval_array(np.clip(arr, lo, hi))


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


def affine_trajectory(slope, offset=0.0) -> AffineTrajectory:
    return AffineTrajectory(slope, offset)


def rhs(spec: OvfSpec, h: float, segment) -> tuple[float, float]:
    """Right-hand side of the delayed pair applied to one history segment.

    Returns ``(v, h^2 V(p(-1) - p(0)) + h v)`` where ``p`` and ``v`` are the
    position and velocity components of the segment and ``V`` the optimal
    velocity function.
    """
    if not h > 0:
        raise ParameterError(f"h must be positive, got {h}")
    tail = np.asarray(segment(-1.0), dtype=float)
    head = np.asarray(segment(0.0), dtype=float)
    gap = float(tail[0]) - float(head[0])
    v = float(head[1])
    return (v, h * h * float(spec.eval(gap)) + h * v)


def integrate(spec: OvfSpec, h: float, phi: Segment, t_end: float,
              tol_rel: float = 1e-9, tol_abs: float = 1e-12) -> Trajectory:
    """Integrate the delayed pair from the initial segment up to ``t_end``.

    Local error per step is bounded through the embedded estimate; lagged
    values come from the dense output of completed history.  Raises
    :class:`StepSizeError` on step underflow and :class:`DomainError` if the
    right-hand side turns non-finite.
    """
    if not h > 0:
        raise ParameterError(f"h must be positive, got {h}")
    if not t_end > 0:
        raise ParameterError(f"t_end must be positive, got {t_end}")
    if tol_rel < 1e-12:
        raise ParameterError(f"tol_rel must be >= 1e-12, got {tol_rel}")
    if not tol_abs > 0:
        raise ParameterError(f"tol_abs must be positive, got {tol_abs}")

    y0 = np.asarray(phi(0.0), dtype=float)
    driver = Rk23Driver(
        0.0,
        y0,
        float(t_end),
        tol_rel,
        tol_abs,
        max_step=1.0,  # never step past the delay
        breakpoints=[k for k in (1.0, 2.0, 3.0, 4.0) if k < t_end],
        prehistory=lambda s: phi(s),
    )
    h2 = h * h
    value = spec.eval
    comp0 = driver.eval_component

    def f(t, y):
        gap = comp0(t - 1.0, 0) - y[0]
        v = y[1]
        return np.array([v, h2 * value(gap) + h * v])

    driver.run(f)
    return Trajectory(driver, phi, spec, h, tol_rel, tol_abs)


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
    part scaled by the trajectory's own sup norm).
    """
    shifted = integrate(
        traj.ovf, traj.h, traj.phi.shifted(d), traj.t_end, traj.tol_rel, traj.tol_abs
    )
    n = max(2, int(round(traj.t_end * 16)) + 1)
    grid = np.linspace(0.0, traj.t_end, n)
    a = traj(grid)
    b = shifted(grid) - np.array([d, 0.0])
    diff = float(np.max(np.linalg.norm(b - a, axis=-1)))
    scale = float(np.max(np.linalg.norm(a, axis=-1)))
    return diff <= 10.0 * (traj.tol_abs + traj.tol_rel * scale)


def _fmt(x) -> str:
    return f"{x:.17g}"


def trajectory_to_csv(traj: Trajectory, path, dt: float) -> None:
    """Write t, z, dz rows sampled every ``dt`` over the full domain."""
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    lo, hi = traj.domain
    n = int(math.floor((hi - lo) / dt + 1e-9))
    ts = lo + dt * np.arange(n + 1)
    w = traj(ts)
    lines = ["t,z,dz"]
    for t, (z, dz) in zip(ts, w):
        lines.append(f"{_fmt(t)},{_fmt(z)},{_fmt(dz)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def trajectory_metadata(traj: Trajectory) -> dict:
    """Solver statistics and run parameters for a JSON sidecar."""
    return {
        "h": traj.h,
        "ovf": {"v_max": traj.ovf.v_max, "d_s": traj.ovf.d_s, "b": traj.ovf.b},
        "segment": traj.phi.description,
        "t_end": traj.t_end,
        "tol_rel": traj.tol_rel,
        "tol_abs": traj.tol_abs,
        "stats": {
            "steps": traj.stats.steps,
            "rejected": traj.stats.rejected,
            "rhs_evals": traj.stats.rhs_evals,
            "gronwall_ok": traj.stats.gronwall_ok,
            "gronwall_log_margin": traj.stats.gronwall_log_margin,
        },
    }


def trajectory_metadata_json(traj: Trajectory) -> str:
    return json.dumps(trajectory_metadata(traj), indent=2, sort_keys=True)
