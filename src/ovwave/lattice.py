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

from dataclasses import dataclass, field

import numpy as np

from ._rk import RkDriver
from .errors import DomainError, ParameterError
from .ovf import OvfSpec
from .solver import _check_tolerances, _fmt, _write_lines

__all__ = [
    "LatticeRun",
    "wavefront_to_lattice",
    "simulate_followers",
    "leader_from_trajectory",
    "ansatz_residual",
    "lattice_to_csv",
]

_FD_STEP = 1e-4  # central-difference step for profile accelerations


@dataclass
class LatticeRun:
    """Car positions and velocities on a time grid.

    ``ordering_ok`` is False when some sampled gap is not positive, which
    flags physically unreasonable configurations (cars passing through each
    other); it is informational, not an error.
    """

    j_indices: np.ndarray
    times: np.ndarray
    positions: np.ndarray  # shape (n_times, n_cars)
    velocities: np.ndarray
    source: str  # "ansatz" | "direct_ode"
    ordering_ok: bool
    _context: dict = field(default_factory=dict, repr=False)

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
    if not h > 0:
        raise ParameterError(f"h must be positive, got {h}")
    j_lo, j_hi = int(j_range[0]), int(j_range[1])
    if j_hi < j_lo:
        raise ParameterError(f"empty car index range {j_range}")
    j_idx = np.arange(j_lo, j_hi + 1)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a nonempty one-dimensional array")

    args = -times[:, None] / h - j_idx[None, :]
    lo, hi = traj.domain
    bad = (args < lo) | (args > hi)
    if np.any(bad):
        where = np.argwhere(bad)
        offending = [(int(j_idx[k]), float(times[i])) for i, k in where[:5]]
        raise DomainError(
            f"wavefront arguments outside profile domain [{lo}, {hi}] "
            f"for (j, t) pairs {offending}"
            + (" ..." if where.shape[0] > 5 else "")
        )
    w = traj(args)
    positions = w[..., 0]
    velocities = -w[..., 1] / h
    ordering_ok = bool(np.all(np.diff(positions, axis=1) > 0.0))
    return LatticeRun(
        j_indices=j_idx,
        times=times,
        positions=positions,
        velocities=velocities,
        source="ansatz",
        ordering_ok=ordering_ok,
        _context={"traj": traj, "h": float(h)},
    )


def leader_from_trajectory(traj, h: float, j: int = 0):
    """The car-``j`` motion of a profile as a leader callable t -> (x, v)."""

    def leader(t: float):
        w = np.asarray(traj(-t / h - j), dtype=float)
        return float(w[0]), float(-w[1] / h)

    return leader


def simulate_followers(spec: OvfSpec, leader, init, n_cars: int, t_end: float,
                       tol_rel: float = 1e-9, tol_abs: float = 1e-12,
                       leader_index: int = 0, times=None) -> LatticeRun:
    """Integrate ``n_cars`` followers behind a prescribed leading car.

    ``leader`` maps time to the leading car's (position, velocity); ``init``
    holds one (position, velocity) row per follower at t = 0, ordered back
    to front, strictly increasing and below the leader.  Error control
    matches the delay integrator's contract.  Follower indices are
    ``leader_index - n_cars .. leader_index - 1``.
    """
    if n_cars < 1:
        raise ParameterError(f"n_cars must be >= 1, got {n_cars}")
    if not t_end > 0:
        raise ParameterError(f"t_end must be positive, got {t_end}")
    _check_tolerances(tol_rel, tol_abs)
    init = np.asarray(init, dtype=float)
    if init.shape != (n_cars, 2):
        raise ParameterError(f"init must have shape ({n_cars}, 2), got {init.shape}")
    x0 = init[:, 0]
    lead0 = float(leader(0.0)[0])
    if not (np.all(np.diff(x0) > 0.0) and x0[-1] < lead0):
        raise ParameterError(
            "initial positions must increase strictly up to the leader"
        )

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

    driver = RkDriver(0.0, init.T.ravel(), float(t_end), tol_rel, tol_abs).run(f)

    if times is None:
        times = np.linspace(0.0, float(t_end), 200)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0) or np.any(times > t_end * (1.0 + 1e-12)):
        raise ParameterError("output times must lie within [0, t_end]")
    states = driver.eval_array(times)
    positions = states[:, :n]
    velocities = states[:, n:]
    lead_pos = np.array([float(leader(t)[0]) for t in times])
    ordering_ok = bool(
        np.all(np.diff(positions, axis=1) > 0.0)
        and np.all(lead_pos - positions[:, -1] > 0.0)
    )
    return LatticeRun(
        j_indices=np.arange(leader_index - n_cars, leader_index),
        times=times,
        positions=positions,
        velocities=velocities,
        source="direct_ode",
        ordering_ok=ordering_ok,
        _context={"leader": leader, "driver": driver, "n": n},
    )


def ansatz_residual(run: LatticeRun, spec: OvfSpec) -> float:
    """Largest violation of the car-following law over the stored samples.

    Evaluates ``|x_j'' - V(x_{j+1} - x_j) + x_j'|``.  The acceleration comes
    from central differences of the velocity (both sources store position
    and velocity only): of the profile for profile-generated runs, of the
    integrator's dense output for direct runs.  For profile-generated runs
    the front car of each pair is evaluated from the profile, so the run's
    own top car is included whenever the profile's domain allows.  Samples
    whose stencil leaves the domain are skipped.  Raises
    :class:`DomainError` when no sample is usable.
    """
    if run.source == "ansatz":
        traj = run._context["traj"]
        h = run._context["h"]
        lo, hi = traj.domain
        times = run.times
        max_resid = 0.0
        usable = False
        for k, j in enumerate(run.j_indices):
            u = -times / h - j
            ok = (
                (u - _FD_STEP / h >= lo)
                & (u + _FD_STEP / h <= hi)
                & (u - 1.0 >= lo)
                & (u - 1.0 <= hi)
            )
            if not np.any(ok):
                continue
            usable = True
            uu = u[ok]
            x = run.positions[ok, k]
            v = run.velocities[ok, k]
            x_front = np.asarray(traj(uu - 1.0))[..., 0]
            v_plus = -np.asarray(traj(uu - _FD_STEP / h))[..., 1] / h
            v_minus = -np.asarray(traj(uu + _FD_STEP / h))[..., 1] / h
            acc = (v_plus - v_minus) / (2.0 * _FD_STEP)
            resid = np.abs(acc - spec.eval(x_front - x) + v)
            max_resid = max(max_resid, float(np.max(resid)))
        if not usable:
            raise DomainError(
                "no (j, t) sample leaves room for the residual stencil "
                "inside the profile domain"
            )
        return max_resid

    leader = run._context["leader"]
    driver = run._context["driver"]
    n = run._context["n"]
    ok = (run.times - _FD_STEP >= driver.t0) & (run.times + _FD_STEP <= driver.t_end)
    if not np.any(ok):
        raise DomainError(
            "no sample leaves room for the residual stencil inside [0, t_end]"
        )
    times = run.times[ok]
    v_plus = driver.eval_array(times + _FD_STEP)[:, n:]
    v_minus = driver.eval_array(times - _FD_STEP)[:, n:]
    acc = (v_plus - v_minus) / (2.0 * _FD_STEP)
    positions = run.positions[ok]
    gaps = np.empty_like(positions)
    gaps[:, :-1] = np.diff(positions, axis=1)
    gaps[:, -1] = np.array([float(leader(t)[0]) for t in times]) - positions[:, -1]
    resid = np.abs(acc - spec.eval(gaps) + run.velocities[ok])
    return float(np.max(resid))


def lattice_to_csv(run: LatticeRun, path, headways: bool = False) -> None:
    """Long-format export: t, j, x, v rows (or t, j, headway rows)."""
    lines = []
    if headways:
        lines.append("t,j,headway")
        gaps = run.headways()
        for i, t in enumerate(run.times):
            for k, j in enumerate(run.j_indices[:-1]):
                lines.append(f"{_fmt(t)},{j},{_fmt(gaps[i, k])}")
    else:
        lines.append("t,j,x,v")
        for i, t in enumerate(run.times):
            for k, j in enumerate(run.j_indices):
                lines.append(
                    f"{_fmt(t)},{j},{_fmt(run.positions[i, k])},{_fmt(run.velocities[i, k])}"
                )
    _write_lines(path, lines)
