"""The finite-argument contract of the public API.

Every float argument of a public entry point is either accepted, with a
result free of NaN, or rejected with an error of the exit-code-2 family
(:class:`ParameterError` or :class:`DomainError`).  No other exception type
and no numpy warning may escape.
"""

import functools
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

import ovwave as ow


@functools.cache
def _fixtures():
    vq = ow.make_vq(100.0, 0.0)
    return SimpleNamespace(
        vq=vq, vq2841=ow.make_vq(2.841, 0.0), params=ow.StabilityParams(-0.2, 0.4),
        traj=ow.integrate(vq, 0.2, ow.Segment.constant(1.0), 2.0),  # a run on [-1, 2]
    )


def _segment_samples(seg):
    return seg(np.linspace(-1.0, 0.0, 5))


def _followers(vq, t_end=2.0, tol_rel=1e-9, tol_abs=1e-12, x0=0.0, v0=0.0):
    run = ow.simulate_followers(vq, lambda t: (1.0, 0.0), [[x0, v0]], 1, t_end,
                                tol_rel, tol_abs)
    return run.positions, run.velocities


def _lattice(traj, h=0.2, t=0.0):
    run = ow.wavefront_to_lattice(traj, h, (-1, 0), [t])
    return run.positions, run.velocities


# entry -> (call, the names of its float arguments); a call takes the
# fixtures ``f`` and one argument by keyword, the rest keeping valid defaults
_ENTRIES = {
    "make_vq": (lambda f, v_max=100.0, d_s=0.0: ow.make_vq(v_max, d_s).eval(np.arange(4.0)),
                ("v_max", "d_s")),
    "OvfSpec": (lambda f, b=1.0: ow.OvfSpec(1.0, 0.0, b, abs, abs, abs).b, ("b",)),
    "Segment.constant": (lambda f, d=1.0: _segment_samples(ow.Segment.constant(d)), ("d",)),
    "Segment.affine": (lambda f, slope=-1.0, offset=0.0:
                       _segment_samples(ow.Segment.affine(slope, offset)), ("slope", "offset")),
    "Segment.quasi_stationary": (lambda f, speed=1.0, offset=0.0: _segment_samples(
        ow.Segment.quasi_stationary(speed, offset)), ("speed", "offset")),
    "Segment.from_samples": (lambda f, z=0.0: _segment_samples(
        ow.Segment.from_samples([-1.0, -0.5, 0.0], [z, 0.0, 0.0])), ("z",)),
    "Segment.shifted": (lambda f, d=1.0: _segment_samples(ow.Segment.constant(1.0).shifted(d)),
                        ("d",)),
    "Segment.__call__": (lambda f, s=-0.5: ow.Segment.affine(-1.0)(s), ("s",)),
    "Trajectory.__call__": (lambda f, t=1.0: f.traj(t), ("t",)),
    "AffineTrajectory": (lambda f, slope=-1.0, offset=0.0:
                         ow.AffineTrajectory(slope, offset)(np.linspace(-2.0, 2.0, 5)),
                         ("slope", "offset")),
    "AffineTrajectory.__call__": (lambda f, t=1.0: ow.AffineTrajectory(0.0)(t), ("t",)),
    "rhs": (lambda f, h=0.2: ow.rhs(f.vq, h, ow.Segment.constant(1.0)), ("h",)),
    "integrate": (lambda f, h=0.2, t_end=2.0, tol_rel=1e-9, tol_abs=1e-12: ow.integrate(
        f.vq, h, ow.Segment.constant(1.0), t_end, tol_rel, tol_abs).mesh,
        ("h", "t_end", "tol_rel", "tol_abs")),
    "solution_offset_invariance_check": (
        lambda f, d=0.5: ow.solution_offset_invariance_check(f.traj, d), ("d",)),
    "trajectory_to_csv": (lambda f, dt=0.5: ow.trajectory_to_csv(f.traj, os.devnull, dt),
                          ("dt",)),
    "find_constant_speeds": (
        lambda f, h=0.2: [(p.h, p.c, p.slope_product) for p in ow.find_constant_speeds(f.vq, h)],
        ("h",)),
    "branch_eval": (lambda f, h=0.2: ow.branch_eval(f.vq, h, 1).c, ("h",)),
    "WavefrontPoint": (lambda f, h=0.2, c=1.0, slope_product=2.0: ow.branch_derivative(
        f.vq, ow.WavefrontPoint(h, c, slope_product, ow.BRANCH1)), ("h", "c", "slope_product")),
    "StabilityParams": (lambda f, alpha=-0.2, beta=0.4: ow.region_classify(
        ow.StabilityParams(alpha, beta)), ("alpha", "beta")),
    "char_eval": (lambda f, lam=0.5: ow.char_eval(f.params, lam), ("lam",)),
    "char_deriv": (lambda f, lam=0.5: ow.char_deriv(f.params, lam), ("lam",)),
    "c1_curve": (lambda f, nu=1.0: ow.c1_curve(nu), ("nu",)),
    "c1_boundary_beta": (lambda f, alpha=-1.0: ow.c1_boundary_beta(alpha), ("alpha",)),
    "rightmost_roots": (lambda f, sigma=-0.5: ow.rightmost_roots(f.params, sigma), ("sigma",)),
    "hopf_crossing": (lambda f, h_lo=0.72, h_hi=1.5: ow.hopf_crossing(f.vq2841, h_lo, h_hi),
                      ("h_lo", "h_hi")),
    "wavefront_to_lattice": (lambda f, h=0.2, t=0.0: _lattice(f.traj, h, t), ("h", "t")),
    "leader_from_trajectory": (lambda f, h=0.2, t=0.0: ow.leader_from_trajectory(f.traj, h)(t),
                               ("h", "t")),
    "simulate_followers": (lambda f, **kw: _followers(f.vq, **kw),
                           ("t_end", "tol_rel", "tol_abs", "x0", "v0")),
    "ExperimentConfig": (lambda f, **kw: ow.ExperimentConfig(**kw).as_dict(),
                         ("v_max", "d_s", "h", "c", "slope", "offset", "t_end", "tol_rel",
                          "tol_abs", "dt", "speed_offset", "amplitude")),
}
_ARGUMENTS = [(entry, name) for entry, (_, names) in _ENTRIES.items() for name in names]
_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0)


def _has_nan(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_nan(v) for v in value)
    if value is None or isinstance(value, str):
        return False
    return bool(np.isnan(np.asarray(value, dtype=complex)).any())


@settings(deadline=None, derandomize=True, database=None, max_examples=2 * len(_ARGUMENTS))
@given(argument=st.sampled_from(_ARGUMENTS))
def test_float_arguments_work_or_fail_with_exit_code_2(argument):
    entry, name = argument
    call, _ = _ENTRIES[entry]
    for value in _SPECIAL:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(_fixtures(), **{name: value})
            except (ow.ParameterError, ow.DomainError):
                continue
        assert not _has_nan(result), (entry, name, value, result)
