import numpy as np
import pytest

import ovwave as ow
from ovwave._rk23 import Rk23Driver


def _branch1_speed(spec, h):
    return ow.branch_eval(spec, h, 1).c


# -- right-hand side ---------------------------------------------------------


def test_rhs_constant_segment_is_fixed_point(vq100):
    for d in (-2.0, 0.0, 7.5):
        assert ow.rhs(vq100, 0.2, ow.Segment.constant(d)) == (0.0, 0.0)


def test_rhs_quasi_stationary_segment(vq100):
    c = _branch1_speed(vq100, 0.2)
    v, a = ow.rhs(vq100, 0.2, ow.Segment.quasi_stationary(c, 3.0))
    assert v == pytest.approx(-c, abs=0.0)
    assert abs(a) < 1e-12


def test_rhs_unit_headway_example(vq100):
    # segment s -> (-s, 1): headway 1, half-max velocity 50
    seg = ow.Segment(
        lambda s: -np.asarray(s, dtype=float),
        lambda s: np.ones_like(np.asarray(s, dtype=float)),
        {"kind": "test"},
    )
    v, a = ow.rhs(vq100, 0.2, seg)
    assert v == 1.0
    assert a == pytest.approx(0.04 * 50.0 + 0.2 * 1.0, rel=1e-14)


def test_rhs_rejects_nonpositive_h(vq100):
    with pytest.raises(ow.ParameterError):
        ow.rhs(vq100, 0.0, ow.Segment.constant(1.0))


# -- segments ----------------------------------------------------------------


def test_segment_domain_enforced():
    seg = ow.Segment.affine(-1.0, 0.0)
    with pytest.raises(ow.DomainError):
        seg(0.5)
    with pytest.raises(ow.DomainError):
        seg(-1.5)
    assert seg(-1.0).shape == (2,)


def test_sampled_segment_reproduces_affine():
    s = np.linspace(-1.0, 0.0, 17)
    seg = ow.Segment.from_samples(s, -2.0 * s + 1.0)
    probe = np.linspace(-1.0, 0.0, 101)
    vals = seg(probe)
    assert np.allclose(vals[:, 0], -2.0 * probe + 1.0, atol=1e-12)
    assert np.allclose(vals[:, 1], -2.0, atol=1e-9)


def test_sampled_segment_must_cover_unit_interval():
    with pytest.raises(ow.ParameterError):
        ow.Segment.from_samples([-0.5, 0.0], [0.0, 1.0])


def test_segment_shift_moves_position_only():
    seg = ow.Segment.quasi_stationary(0.3, 1.0).shifted(2.5)
    w = seg(-0.5)
    assert w[0] == pytest.approx(0.3 * 0.5 + 1.0 + 2.5)
    assert w[1] == pytest.approx(-0.3)


# -- integration -------------------------------------------------------------


def test_constant_history_stays_constant(vq100):
    traj = ow.integrate(vq100, 0.2, ow.Segment.constant(4.0), 10.0)
    t = np.linspace(-1.0, 10.0, 200)
    w = traj(t)
    assert np.max(np.abs(w[:, 0] - 4.0)) <= 1e-12
    assert np.max(np.abs(w[:, 1])) <= 1e-12


def test_quasi_stationary_run_is_exact(vq100):
    c = _branch1_speed(vq100, 0.2)
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c), 20.0)
    t = np.linspace(0.0, 20.0, 500)
    assert np.max(np.abs(traj(t)[:, 1] + c)) <= 1e-6
    assert traj.stats.gronwall_ok


def test_lookup_at_t0_before_the_first_step_reads_the_history():
    history = lambda t: np.array([1.0, 2.0])
    drv = Rk23Driver(0.0, history(0.0), 3.0, 1e-9, 1e-12, prehistory=history)
    # storage past the first mesh point is unset until steps are accepted
    drv.ts[1:] = np.nan
    drv.ys[1:] = np.nan
    drv.fs[:] = np.nan
    assert drv.eval_component(0.0, 0) == 1.0
    assert drv.eval_scalar(0.0).tolist() == [1.0, 2.0]


def test_first_step_spanning_the_delay(vq100):
    # the offset history is a fixed point, so the first step covers the
    # whole delay and its last stage looks up t - 1 = t0 while the mesh
    # holds a single point
    c = _branch1_speed(vq100, 0.2)
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c, 5.0), 3.0)
    assert traj.mesh.tolist() == [0.0, 1.0, 2.0, 3.0]
    t = np.linspace(0.0, 3.0, 31)
    exact = np.stack([5.0 - c * t, np.full_like(t, -c)], axis=-1)
    assert np.max(np.abs(traj(t) - exact)) <= 1e-12


def test_perturbed_run_attracted_to_wavefront(vq100):
    c = _branch1_speed(vq100, 0.2)
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c - 0.005), 40.0)
    assert abs(traj(40.0)[1] + c) < 1e-3


def test_mesh_hits_delay_multiples_and_step_cap(vq100):
    c = _branch1_speed(vq100, 0.2)
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c - 0.01), 6.0)
    for b in (1.0, 2.0, 3.0, 4.0):
        assert b in traj.mesh
    assert np.max(np.diff(traj.mesh)) <= 1.0 + 1e-15
    assert traj.mesh[-1] == 6.0


def test_velocity_component_is_position_derivative_at_mesh(vq100):
    c = _branch1_speed(vq100, 0.2)
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c - 0.05), 8.0)
    eps = 1e-7
    for t in traj.mesh[1:-1:5]:
        fd = (traj(t + eps)[0] - traj(t - eps)[0]) / (2.0 * eps)
        assert fd == pytest.approx(traj(t)[1], rel=1e-5, abs=1e-8)


def test_convergence_under_tolerance_halving(vq100):
    c = _branch1_speed(vq100, 0.2)
    phi = ow.Segment.quasi_stationary(c - 0.005)
    ref = ow.integrate(vq100, 0.2, phi, 10.0, 1e-12, 1e-14)
    grid = np.linspace(0.0, 10.0, 301)
    wref = ref(grid)
    errs = []
    for tol in (1e-5, 5e-6, 2.5e-6, 1.25e-6):
        traj = ow.integrate(vq100, 0.2, phi, 10.0, tol, tol * 1e-3)
        errs.append(np.max(np.abs(traj(grid) - wref)))
    assert all(a > b for a, b in zip(errs, errs[1:])), errs


def test_offset_invariance(vq100, vq2841):
    traj = ow.integrate(vq100, 0.2, ow.Segment.constant(2.0), 10.0)
    assert ow.solution_offset_invariance_check(traj, 1.0)

    c = _branch1_speed(vq100, 0.2)
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c), 20.0)
    assert ow.solution_offset_invariance_check(traj, 5.0)

    c3 = _branch1_speed(vq2841, 1.5)
    traj = ow.integrate(vq2841, 1.5, ow.Segment.quasi_stationary(c3 + 1e-3), 30.0)
    assert ow.solution_offset_invariance_check(traj, 0.3)


def test_gronwall_bound_reported(vq2841):
    c = _branch1_speed(vq2841, 1.5)
    traj = ow.integrate(vq2841, 1.5, ow.Segment.quasi_stationary(c + 0.01), 25.0)
    ok, margin = ow.gronwall_report(traj)
    assert ok
    assert margin >= -1e-9


def test_trajectory_domain_errors(vq100):
    traj = ow.integrate(vq100, 0.2, ow.Segment.constant(0.5), 5.0)
    with pytest.raises(ow.DomainError):
        traj(5.5)
    with pytest.raises(ow.DomainError):
        traj(-1.2)


def test_integrate_validates_arguments(vq100):
    phi = ow.Segment.constant(1.0)
    with pytest.raises(ow.ParameterError):
        ow.integrate(vq100, -0.2, phi, 5.0)
    with pytest.raises(ow.ParameterError):
        ow.integrate(vq100, 0.2, phi, 0.0)
    with pytest.raises(ow.ParameterError):
        ow.integrate(vq100, 0.2, phi, 5.0, tol_rel=1e-13)
    with pytest.raises(ow.ParameterError):
        ow.integrate(vq100, 0.2, phi, 5.0, tol_abs=0.0)


def test_step_underflow_raises():
    from ovwave._rk23 import Rk23Driver

    # the error estimate stays enormous at every step size, so the
    # controller must hit the underflow guard instead of looping
    f = lambda t, y: np.array([1e30 * np.sin(t * 1e18)])
    with pytest.raises(ow.StepSizeError):
        Rk23Driver(0.0, [0.0], 1.0, 1e-9, 1e-12).run(f)


def test_nan_in_rhs_is_domain_error():
    bad = ow.OvfSpec(
        v_max=1.0, d_s=0.0, b=1.0,
        eval=lambda s: np.where(np.asarray(s) > 0.1, np.nan, 0.0),
        deriv=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        deriv2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    with pytest.raises(ow.DomainError):
        ow.integrate(bad, 1.0, ow.Segment.quasi_stationary(1.0), 5.0)


def test_trajectory_csv_export(tmp_path, vq100):
    traj = ow.integrate(vq100, 0.2, ow.Segment.constant(1.0), 2.0)
    out = tmp_path / "series.csv"
    ow.trajectory_to_csv(traj, out, 0.5)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,z,dz"
    assert len(lines) == 1 + 7  # t = -1, -0.5, ..., 2
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    assert float(first[1]) == pytest.approx(1.0)
