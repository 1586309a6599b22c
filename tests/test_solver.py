import bisect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import ovwave as ow
from ovwave._rk import RkDriver, quartic
from ovwave.cli import EXAMPLES, _integrate_config
from ovwave.config import ExperimentConfig
from ovwave.solver import _column, _write_csv


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


def test_lookup_at_t0_before_the_first_step_reads_the_history(vq100):
    # the first step spans the delay, so its last stage looks up t - 1 = t0
    # while the mesh holds a single point
    c = _branch1_speed(vq100, 0.2)
    phi = ow.Segment.quasi_stationary(c, 5.0)
    traj = ow.integrate(vq100, 0.2, phi, 3.0)
    assert traj.mesh[1] == 1.0
    assert traj(0.0).tolist() == phi(0.0).tolist()
    s = np.array([-1.0, -0.5, 0.0])
    assert traj(s).tolist() == phi(s).tolist()


def _real_pair_run(spec, h, phi, t_end):
    """The delay pair as a real 2-array on ``RkDriver``, lagged values by bisection."""
    drv = RkDriver(0.0, phi(0.0), t_end, 1e-9, 1e-12, max_step=1.0,
                   breakpoints=[k for k in (1.0, 2.0, 3.0, 4.0) if k < t_end])

    def lagged_position(s):
        if s <= 0.0:
            return float(phi(s)[0])
        i = min(bisect.bisect_right(drv.ts, s) - 1, len(drv.ts) - 2)
        dt = drv.ts[i + 1] - drv.ts[i]
        q = [c[0] for c in drv.qs[i]]
        return quartic(drv.ys[i][0], dt, (s - drv.ts[i]) / dt, q[0], q[1], q[2], q[3])

    def f(t, y):
        v = y[1]
        return np.array([v, h * h * spec.eval(lagged_position(t - 1.0) - y[0]) + h * v])

    return drv.run(f)


def _bumped_history(speed, bump):
    return ow.Segment(
        lambda s: -speed * np.asarray(s) + bump * np.sin(np.pi * np.asarray(s)),
        lambda s: -speed + bump * np.pi * np.cos(np.pi * np.asarray(s)),
        {"kind": "bumped"},
    )


@pytest.mark.parametrize("case", ["bumped_example3", "constant", "first_step_spans_delay"])
def test_complex_pair_matches_real_array_pair(case, vq100, vq2841):
    if case == "bumped_example3":
        spec, h, t_end = vq2841, 1.5, 20.0
        phi = _bumped_history(_branch1_speed(vq2841, 1.5) + 0.005, 0.017)
    elif case == "constant":
        spec, h, t_end = vq100, 0.2, 10.0
        phi = ow.Segment.constant(2.0)
    else:
        spec, h, t_end = vq100, 0.2, 3.0
        phi = ow.Segment.quasi_stationary(_branch1_speed(vq100, 0.2), 5.0)
    traj = ow.integrate(spec, h, phi, t_end)
    drv = _real_pair_run(spec, h, phi, t_end)
    assert np.array_equal(traj.mesh, drv.ts)
    assert np.array_equal(traj._ys, drv.ys)
    # the first coefficient of each step is the slope at its start
    assert np.array_equal(traj._qs, drv.qs)
    stats = traj.stats
    assert (stats.steps, stats.rejected, stats.rhs_evals) == (drv.naccept, drv.nreject, drv.nfev)
    if case == "bumped_example3":
        assert drv.nreject > 0  # retries from the same t send the lag cursor back
    if case == "first_step_spans_delay":
        assert drv.ts[1] == 1.0


@pytest.mark.parametrize("name, counts", [
    ("example1", (46, 0, 277)), ("example2", (209, 0, 1255)), ("example3", (3193, 279, 20833)),
])
def test_example_step_counts(name, counts):
    # the cross-check above moves with the shared step loop; fixed counts do not
    cfg = ExperimentConfig().with_overrides(**EXAMPLES[name])
    stats = _integrate_config(cfg)[2].stats
    assert (stats.steps, stats.rejected, stats.rhs_evals) == counts


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
    # a ladder on which error control binds: at 1e-5 and just below, every
    # fifth-order step is capped at max_step = 1 and the error stays put
    c = _branch1_speed(vq100, 0.2)
    phi = ow.Segment.quasi_stationary(c - 0.005)
    ref = ow.integrate(vq100, 0.2, phi, 10.0, 1e-12, 1e-14)
    grid = np.linspace(0.0, 10.0, 301)
    wref = ref(grid)
    scale = np.max(np.abs(wref))
    errs, steps = [], []
    for tol in (1e-5, 1e-7, 5e-8, 2.5e-8, 1.25e-8):
        traj = ow.integrate(vq100, 0.2, phi, 10.0, tol, tol * 1e-3)
        err = np.max(np.abs(traj(grid) - wref))
        assert err <= 10.0 * (tol * 1e-3 + tol * scale), (tol, err)
        errs.append(err)
        steps.append(traj.stats.steps)
    errs, steps = errs[1:], steps[1:]
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert all(a < b for a, b in zip(steps, steps[1:])), steps


@pytest.mark.parametrize("case", ["branch1", "branch2", "perturbed", "constant"])
def test_stable_runs_agree_with_a_reference_run(case, vq100):
    # example 1 on both branches, a history off the branch-1 speed and a
    # constant history, each to t = 40 at the reference tolerances, against
    # a 1e-12 / 1e-14 run; sampled on the mesh and in the middle of each
    # step, where only the dense output is seen
    h = 0.2
    if case == "constant":
        phi = ow.Segment.constant(2.0)
    else:
        c = ow.branch_eval(vq100, h, 2 if case == "branch2" else 1).c
        phi = ow.Segment.quasi_stationary(c - 0.005 if case == "perturbed" else c)
    traj = ow.integrate(vq100, h, phi, 40.0)
    ref = ow.integrate(vq100, h, phi, 40.0, 1e-12, 1e-14)
    mesh = traj.mesh
    t = np.concatenate([mesh, mesh[:-1] + 0.5 * np.diff(mesh)])
    wref = ref(t)
    dev = np.max(np.abs(traj(t) - wref))
    assert dev <= 10.0 * (traj.tol_abs + traj.tol_rel * np.max(np.abs(wref))), dev


def test_offset_invariance(vq100, vq2841):
    traj = ow.integrate(vq100, 0.2, ow.Segment.constant(2.0), 10.0)
    assert ow.solution_offset_invariance_check(traj, 1.0)

    c = _branch1_speed(vq100, 0.2)
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c), 20.0)
    assert ow.solution_offset_invariance_check(traj, 5.0)

    c3 = _branch1_speed(vq2841, 1.5)
    traj = ow.integrate(vq2841, 1.5, ow.Segment.quasi_stationary(c3 + 1e-3), 30.0)
    assert ow.solution_offset_invariance_check(traj, 0.3)


def test_offset_invariance_for_a_shift_beyond_the_run():
    # the shifted run's error control is relative to its own, larger
    # positions, so its deviation is measured on that scale too
    spec = ow.make_vq(31.00021025511204, 0.5568512242015466)
    traj = ow.integrate(spec, 0.1081112244797336,
                        ow.Segment.quasi_stationary(1.408156126715965), 5.0)
    assert ow.solution_offset_invariance_check(traj, -15.466820332562387)


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(
    v_max=st.floats(1.0, 100.0),
    d_s=st.floats(0.0, 2.0),
    h_factor=st.floats(1.01, 4.0),
    speed_offset=st.one_of(st.just(0.0), st.floats(-0.01, 0.01)),
    offset=st.one_of(st.just(0.0), st.floats(10.0, 200.0)),
    shift=st.floats(-30.0, 30.0),
)
def test_offset_invariance_property(v_max, d_s, h_factor, speed_offset, offset, shift):
    # branch-1 wavefronts inside S, started off their speed; offsets of
    # tens of speeds or more make the first attempted step span the delay.
    # Shifts reach far beyond the unshifted run's own scale.
    spec = ow.make_vq(v_max, d_s)
    h = h_factor * ow.critical_pair(spec).h_star
    point = ow.branch_eval(spec, h, 1)
    assume(point is not None)
    assume(ow.region_classify(ow.stability_params(spec, point)) == ow.INSIDE_S)
    c, t_end = point.c, 4.0
    phi = ow.Segment.quasi_stationary(c * (1.0 + speed_offset), offset * c)
    traj = ow.integrate(spec, h, phi, t_end)
    assert ow.solution_offset_invariance_check(traj, shift * max(offset * c, c * t_end))


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
    for bad in ({"t_end": math.inf}, {"tol_rel": math.inf}, {"tol_abs": math.inf}):
        with pytest.raises(ow.ParameterError):
            ow.integrate(vq100, 0.2, phi, **{"t_end": 5.0, **bad})


def test_step_underflow_raises():
    # the error estimate stays enormous at every step size, so the
    # controller must hit the underflow guard instead of looping
    f = lambda t, y: np.array([1e30 * np.sin(t * 1e18)])
    with pytest.raises(ow.StepSizeError):
        RkDriver(0.0, [0.0], 1.0, 1e-9, 1e-12).run(f)


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


def test_column_matches_the_scalar_format():
    special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, -0.0, 1e308, 0.1]
    bits = np.random.default_rng(7).integers(-2**63, 2**63 - 1, size=2000, dtype=np.int64)
    values = np.concatenate([special, bits.view(np.float64), bits[:500].view(np.float64)])
    assert _column(values).tolist() == [f"{x:.17g}" for x in values.tolist()]
    assert _column(values.reshape(-1, 3)).tolist() == _column(values).tolist()
    assert _column([1.5, None, -0.0, None]).tolist() == ["1.5", "", "-0", ""]
    assert _column(np.array([])).tolist() == []


def test_write_csv_is_byte_identical_to_per_row_format(tmp_path):
    values = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1, -0.0, 0.1]
    labels = [f"r{i}" for i in range(len(values))]
    out = tmp_path / "table.csv"
    _write_csv(out, "# note\nx,label", [_column(values), labels])
    rows = [f"{x:.17g},{label}" for x, label in zip(values, labels)]
    assert out.read_bytes() == "\n".join(["# note", "x,label", *rows]).encode() + b"\n"
    with pytest.raises(ValueError):
        _write_csv(out, "x,label", [_column(values), labels[:-1]])


def test_trajectory_csv_is_byte_identical_to_per_row_format(tmp_path, vq100):
    c = _branch1_speed(vq100, 0.2)
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c), 10.0)
    out = tmp_path / "series.csv"
    ow.trajectory_to_csv(traj, out, 0.037)
    lo, hi = traj.domain
    ts = lo + 0.037 * np.arange(int(math.floor((hi - lo) / 0.037 + 1e-9)) + 1)
    rows = [f"{t:.17g},{z:.17g},{dz:.17g}" for t, (z, dz) in zip(ts, traj(ts))]
    assert out.read_bytes() == "\n".join(["t,z,dz", *rows]).encode() + b"\n"


@pytest.mark.parametrize("dt", [0.0, -0.5, math.inf, math.nan])
def test_trajectory_csv_rejects_bad_dt(tmp_path, vq100, dt):
    traj = ow.integrate(vq100, 0.2, ow.Segment.constant(1.0), 2.0)
    with pytest.raises(ow.ParameterError):
        ow.trajectory_to_csv(traj, tmp_path / "series.csv", dt)
    assert not (tmp_path / "series.csv").exists()
