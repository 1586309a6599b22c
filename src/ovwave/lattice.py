"""Car trajectories from wavefront profiles, and direct chain simulation.

A profile ``z`` generates the car family ``x_j(t) = z(-t/h - j)``: larger
indices drive in front, and one unit of car index consumes one unit of the
profile's domain while one unit of observation time consumes ``1/h`` units.
Requests outside the profile's domain are reported, never extrapolated.

The direct simulation truncates the infinite chain by prescribing the
leading car and integrating the followers' equations

    x_j'' = V(x_{j+1} - x_j) - x_j'

as one ordinary system.  Coupling is strictly to the car in front, so the
truncation is exact rather than approximate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._rk import RkDriver
from .errors import DomainError, ParameterError, check_finite
from .ovf import OvfSpec
from .solver import _check_tolerances, _column, _write_csv

__all__ = [
    "LatticeRun",
    "wavefront_to_lattice",
    "simulate_followers",
    "leader_from_trajectory",
    "ansatz_residual",
    "lattice_to_csv",
]

_FD_STEP = 1e-4  # central-difference step for accelerations from a run's motion


@dataclass
class LatticeRun:
    """Car positions and velocities on a time grid, and the motion they sample.

    ``motion`` maps a one-dimensional time array to the ``(x, v)`` of the
    run's cars plus the car in front of the last one, shape ``(len(t),
    n_cars + 1, 2)``, with NaN where its source has no data.  ``ordering_ok``
    is False when some sampled gap is not positive, which flags physically
    unreasonable configurations (cars passing through each other); it is
    informational, not an error.
    """

    j_indices: np.ndarray
    times: np.ndarray
    positions: np.ndarray  # shape (n_times, n_cars)
    velocities: np.ndarray
    ordering_ok: bool
    motion: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def headways(self) -> np.ndarray:
        """Gaps to the car in front, shape (n_times, n_cars - 1)."""
        return self.positions[:, 1:] - self.positions[:, :-1]


def wavefront_to_lattice(traj, h: float, j_range, times) -> LatticeRun:
    """Evaluate the car family ``x_j(t) = z(-t/h - j)`` from a profile.

    ``traj`` is any dense profile exposing ``domain`` and call access to
    ``(z, z')``; ``j_range`` is the inclusive index interval ``(j_lo, j_hi)``.
    Every requested argument must fall inside the profile's domain,
    otherwise :class:`DomainError` lists the offending (j, t) pairs.
    """
    h = check_finite("h", h, positive=True)
    j_lo, j_hi = int(j_range[0]), int(j_range[1])
    if j_hi < j_lo:
        raise ParameterError(f"empty car index range {j_range}")
    j_idx = np.arange(j_lo, j_hi + 1)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a nonempty one-dimensional array")

    lo, hi = traj.domain
    j_motion = np.append(j_idx, j_hi + 1)

    def motion(t):
        args = -np.asarray(t, dtype=float)[:, None] / h - j_motion[None, :]
        inside = (args >= lo) & (args <= hi)
        w = traj(np.where(inside, args, lo)) / np.array([1.0, -h])
        w[~inside] = np.nan
        return w

    state = motion(times)[:, :-1]
    positions = state[..., 0]
    bad = np.isnan(positions)
    if np.any(bad):
        where = np.argwhere(bad)
        offending = [(int(j_idx[k]), float(times[i])) for i, k in where[:5]]
        raise DomainError(
            f"wavefront arguments outside profile domain [{lo}, {hi}] "
            f"for (j, t) pairs {offending}"
            + (" ..." if where.shape[0] > 5 else "")
        )
    return LatticeRun(
        j_indices=j_idx,
        times=times,
        positions=positions,
        velocities=state[..., 1],
        ordering_ok=bool(np.all(np.diff(positions, axis=1) > 0.0)),
        motion=motion,
    )


def leader_from_trajectory(traj, h: float, j: int = 0):
    """The car-``j`` motion of a profile as a leader callable t -> (x, v)."""
    h = check_finite("h", h, positive=True)

    def leader(t: float):
        w = np.asarray(traj(-t / h - j), dtype=float)
        return float(w[0]), float(-w[1] / h)

    return leader


def simulate_followers(spec: OvfSpec, leader, init, n_cars: int, t_end: float,
                       tol_rel: float = 1e-9, tol_abs: float = 1e-12,
                       times=None) -> LatticeRun:
    """Integrate ``n_cars`` followers behind a prescribed leading car.

    ``leader`` maps time to the leading car's (position, velocity); ``init``
    holds one (position, velocity) row per follower at t = 0, ordered back
    to front, strictly increasing and below the leader.  Error control
    matches the delay integrator's contract.  Follower indices are
    ``-n_cars .. -1``, the leader's 0.
    """
    if n_cars < 1:
        raise ParameterError(f"n_cars must be >= 1, got {n_cars}")
    t_end = check_finite("t_end", t_end, positive=True)
    _check_tolerances(tol_rel, tol_abs)
    init = np.asarray(init, dtype=float)
    if init.shape != (n_cars, 2):
        raise ParameterError(f"init must have shape ({n_cars}, 2), got {init.shape}")
    x0 = init[:, 0]
    lead0 = float(leader(0.0)[0])
    if not (np.isfinite(init).all() and np.all(np.diff(x0) > 0.0) and x0[-1] < lead0):
        raise ParameterError("initial states must be finite, with positions increasing "
                             "strictly up to the leader")

    value = spec.eval
    n = n_cars

    def f(t, y):
        x = y[:n]
        v = y[n:]
        gaps = np.empty(n)
        gaps[:-1] = x[1:] - x[:-1]
        gaps[-1] = leader(t)[0] - x[-1]
        acc = value(gaps) - v
        return np.concatenate([v, acc])

    driver = RkDriver(0.0, init.T.ravel(), t_end, tol_rel, tol_abs).run(f)
    t_hi = t_end * (1.0 + 1e-12)

    def motion(t):
        t = np.asarray(t, dtype=float)
        w = np.full((t.size, n + 1, 2), np.nan)
        inside = (t >= 0.0) & (t <= t_hi)
        states = driver.eval_array(t[inside])
        w[inside, :n] = states.reshape(-1, 2, n).transpose(0, 2, 1)
        w[inside, n] = [leader(s) for s in t[inside]]
        return w

    if times is None:
        times = np.linspace(0.0, t_end, 200)
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times <= t_hi)):
        raise ParameterError("output times must be finite and lie within [0, t_end]")
    state = motion(times)
    return LatticeRun(
        j_indices=np.arange(-n_cars, 0),
        times=times,
        positions=state[:, :n, 0],
        velocities=state[:, :n, 1],
        ordering_ok=bool(np.all(np.diff(state[..., 0], axis=1) > 0.0)),
        motion=motion,
    )


def ansatz_residual(run: LatticeRun, spec: OvfSpec) -> float:
    """Largest violation of the car-following law over the stored samples.

    Evaluates ``|x_j'' - V(x_{j+1} - x_j) + x_j'|`` with the stored
    positions and velocities; the acceleration is a central difference of
    ``run.motion``'s velocity, and the top car's front comes from
    ``run.motion``.  Samples whose stencil leaves the motion's data are
    skipped.  Raises :class:`DomainError` when no sample is usable.
    """
    t = run.times
    n = run.positions.shape[1]
    acc = (run.motion(t + _FD_STEP)[:, :n, 1] - run.motion(t - _FD_STEP)[:, :n, 1]) / (
        2.0 * _FD_STEP
    )
    front = np.column_stack([run.positions[:, 1:], run.motion(t)[:, n, 0]])
    resid = np.abs(acc - spec.eval(front - run.positions) + run.velocities)
    if np.all(np.isnan(resid)):
        raise DomainError("no (j, t) sample leaves room for the residual stencil")
    return float(np.nanmax(resid))


def lattice_to_csv(run: LatticeRun, path, headways: bool = False) -> None:
    """Long-format export: t, j, x, v rows (or t, j, headway rows)."""
    if headways:
        header, cars, values = "t,j,headway", run.j_indices[:-1], [run.headways()]
    else:
        header, cars, values = "t,j,x,v", run.j_indices, [run.positions, run.velocities]
    _write_csv(path, header, [
        np.repeat(_column(run.times), len(cars)),
        np.tile(np.array([str(j) for j in cars], dtype=object), len(run.times)),
        *map(_column, values),
    ])
