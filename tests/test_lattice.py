import math

import numpy as np
import pytest

import ovwave as ow


def _exact_wavefront(vq, h):
    c = ow.branch_eval(vq, h, 1).c
    return c, ow.AffineTrajectory(-c, 0.0)


def test_quasi_stationary_lattice_identities(vq100):
    # x_j(t) = (c/h) t + c j + d for the constant-speed profile
    c, prof = _exact_wavefront(vq100, 0.2)
    times = np.linspace(0.0, 20.0, 41)
    run = ow.wavefront_to_lattice(prof, 0.2, (-5, 5), times)
    expected = (c / 0.2) * times[:, None] + c * run.j_indices[None, :]
    assert np.max(np.abs(run.positions - expected)) <= 1e-13
    assert np.max(np.abs(run.headways() - c)) <= 1e-13
    assert np.max(np.abs(run.velocities - c / 0.2)) <= 1e-15 * max(1.0, c / 0.2)
    assert np.all(run.velocities == run.velocities[0, 0])
    assert run.ordering_ok


def test_lattice_shift_equivariance(vq100):
    c, _ = _exact_wavefront(vq100, 0.2)
    times = np.linspace(0.0, 5.0, 11)
    base = ow.wavefront_to_lattice(ow.AffineTrajectory(-c, 0.0), 0.2, (-3, 2), times)
    shifted = ow.wavefront_to_lattice(ow.AffineTrajectory(-c, 4.0), 0.2, (-3, 2), times)
    assert np.allclose(shifted.positions, base.positions + 4.0, atol=1e-13)
    assert np.array_equal(shifted.velocities, base.velocities)


def test_lattice_index_relabeling(vq100):
    c, prof = _exact_wavefront(vq100, 0.2)
    times = np.linspace(0.0, 5.0, 7)
    a = ow.wavefront_to_lattice(prof, 0.2, (-4, 0), times)
    b = ow.wavefront_to_lattice(prof, 0.2, (-3, 1), times)
    assert np.allclose(a.positions[:, 1:], b.positions[:, :-1], atol=1e-13)


def test_domain_violation_lists_offenders(vq100):
    c = ow.branch_eval(vq100, 0.2, 1).c
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c), 5.0)
    with pytest.raises(ow.DomainError) as err:
        ow.wavefront_to_lattice(traj, 0.2, (0, 3), np.linspace(0.0, 2.0, 5))
    assert "(j, t)" in str(err.value)


def test_lattice_from_integrated_profile(vq100):
    c = ow.branch_eval(vq100, 0.2, 1).c
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c), 20.0)
    times = np.linspace(0.0, 3.0, 16)  # -t/h - j stays in [0, 16] for these j
    run = ow.wavefront_to_lattice(traj, 0.2, (-16, -15), times)
    assert np.max(np.abs(run.headways() - c)) <= 1e-9
    assert run.ordering_ok


def test_ansatz_residual_quasi_stationary(vq100):
    c, prof = _exact_wavefront(vq100, 0.2)
    run = ow.wavefront_to_lattice(prof, 0.2, (-5, 5), np.linspace(0.0, 20.0, 21))
    assert ow.ansatz_residual(run, vq100) < 1e-8


def test_ansatz_residual_perturbed_after_transient(vq100):
    c = ow.branch_eval(vq100, 0.2, 1).c
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c - 0.005), 30.0)
    times = np.linspace(1.0, 4.0, 13)
    run = ow.wavefront_to_lattice(traj, 0.2, (-24, -21), times)
    assert ow.ansatz_residual(run, vq100) < 1e-4


def test_increasing_profile_flags_ordering(vq100):
    # slope +v0 keeps the gap below the safety distance, so the optimal
    # velocity term vanishes and z' = v0*exp(h t) solves the model exactly
    # while violating the front-to-back ordering
    h, v0 = 0.2, 0.5
    traj = ow.integrate(vq100, h, ow.Segment.affine(v0, 0.0), 10.0)
    # keep the profile argument at 1 or above: below 0 the profile is the
    # prescribed history, which does not satisfy the model law
    times = np.linspace(0.0, 1.0, 6)
    run = ow.wavefront_to_lattice(traj, h, (-8, -6), times)
    assert not run.ordering_ok
    assert ow.ansatz_residual(run, vq100) < 1e-6


def test_oscillatory_profile_headways_oscillate_about_wavefront_gap(vq2841):
    # once the instability has saturated, gaps between cars swing around the
    # constant-speed value instead of settling on it
    h = 1.5
    c = ow.branch_eval(vq2841, h, 1).c
    traj = ow.integrate(vq2841, h, ow.Segment.quasi_stationary(c - 1e-4), 140.0,
                        1e-6, 1e-9)
    # car indices whose profile argument stays in the saturated window
    times = np.linspace(0.0, 3.0, 40)
    run = ow.wavefront_to_lattice(traj, h, (-130, -110), times)
    gaps = run.headways()
    assert np.max(gaps) - np.min(gaps) > 0.05 * c
    assert np.min(gaps) < c < np.max(gaps)


def test_followers_on_ansatz_stay_on_it(vq100):
    c, prof = _exact_wavefront(vq100, 0.2)
    leader = ow.leader_from_trajectory(prof, 0.2, j=0)
    n = 5
    init = np.stack([c * np.arange(-n, 0), np.full(n, c / 0.2)], axis=1)
    run = ow.simulate_followers(vq100, leader, init, n, 20.0)
    expected = (c / 0.2) * run.times[:, None] + c * run.j_indices[None, :]
    assert np.max(np.abs(run.positions - expected)) < 1e-6
    assert run.ordering_ok
    assert run.j_indices.tolist() == [-5, -4, -3, -2, -1]


def test_follower_behind_stopped_leader_halts(vq_half):
    leader = lambda t: (0.5, 0.0)
    run = ow.simulate_followers(vq_half, leader, np.array([[0.0, 0.3]]), 1, 15.0)
    assert abs(run.velocities[-1, 0]) < 1e-6


def test_follower_keeps_matched_headway(vq_half):
    # V(s*) = v has the fixed point s* = d_s + sqrt(v/(v_max - v))
    v = 0.4
    s_star = 0.5 + math.sqrt(v / (1.0 - v))
    leader = lambda t: (5.0 + v * t, v)
    run = ow.simulate_followers(vq_half, leader, np.array([[5.0 - s_star, v]]), 1, 20.0)
    gaps = np.array([leader(t)[0] for t in run.times]) - run.positions[:, 0]
    assert np.max(np.abs(gaps - s_star)) < 1e-6
    assert np.max(np.abs(run.velocities - v)) < 1e-6


def test_cross_validation_ansatz_vs_direct(vq100):
    c, prof = _exact_wavefront(vq100, 0.2)
    leader = ow.leader_from_trajectory(prof, 0.2, j=0)
    n = 4
    init = np.stack([c * np.arange(-n, 0), np.full(n, c / 0.2)], axis=1)
    sim = ow.simulate_followers(vq100, leader, init, n, 20.0)
    ansatz = ow.wavefront_to_lattice(prof, 0.2, (-n, -1), sim.times)
    scale = np.max(np.abs(ansatz.positions))
    bound = 10.0 * (1e-12 + 1e-9 * scale)
    assert np.max(np.abs(sim.positions - ansatz.positions)) <= bound
    assert ow.ansatz_residual(sim, vq100) <= bound
    # the residual measures the run: velocities off by 1% break the law
    sim.velocities *= 1.01
    assert ow.ansatz_residual(sim, vq100) > 1e3 * bound



def test_ansatz_residual_reads_profile_run_samples(vq100):
    c = ow.branch_eval(vq100, 0.2, 1).c
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c), 20.0)
    run = ow.wavefront_to_lattice(traj, 0.2, (-16, -14), np.linspace(0.0, 3.0, 16))
    bound = 10.0 * (1e-12 + 1e-9 * np.max(np.abs(run.positions)))
    assert ow.ansatz_residual(run, vq100) <= bound
    # the residual measures the stored run, not only the profile behind it
    velocities = run.velocities.copy()
    run.velocities *= 1.01
    assert ow.ansatz_residual(run, vq100) > 1e3 * bound
    run.velocities = velocities
    run.positions[:, 0] -= 0.1 * c
    assert ow.ansatz_residual(run, vq100) > 1e3 * bound


def test_ansatz_residual_without_usable_sample(vq100):
    c = ow.branch_eval(vq100, 0.2, 1).c
    leader = lambda t: (c * t / 0.2, c / 0.2)
    init = np.array([[-c, c / 0.2]])
    sim = ow.simulate_followers(vq100, leader, init, 1, 2.0, times=[0.0, 2.0])
    with pytest.raises(ow.DomainError):
        ow.ansatz_residual(sim, vq100)
    # car 1 at t = 0 sits on the left end of the profile's domain [-1, 5]
    traj = ow.integrate(vq100, 0.2, ow.Segment.quasi_stationary(c), 5.0)
    run = ow.wavefront_to_lattice(traj, 0.2, (1, 1), [0.0])
    with pytest.raises(ow.DomainError):
        ow.ansatz_residual(run, vq100)

def test_simulate_followers_validates_input(vq100):
    leader = lambda t: (1.0, 0.0)
    with pytest.raises(ow.ParameterError):
        ow.simulate_followers(vq100, leader, np.array([[2.0, 0.0]]), 1, 5.0)
    with pytest.raises(ow.ParameterError):
        ow.simulate_followers(
            vq100, leader, np.array([[0.5, 0.0], [0.2, 0.0]]), 2, 5.0
        )
    with pytest.raises(ow.ParameterError):
        ow.simulate_followers(vq100, leader, np.array([[0.0, 0.0]]), 0, 5.0)


def test_lattice_csv_export(tmp_path, vq100):
    c, prof = _exact_wavefront(vq100, 0.2)
    run = ow.wavefront_to_lattice(prof, 0.2, (-2, 0), np.linspace(0.0, 1.0, 3))
    out = tmp_path / "lat.csv"
    ow.lattice_to_csv(run, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,j,x,v"
    assert len(lines) == 1 + 3 * 3
    ow.lattice_to_csv(run, out, headways=True)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,j,headway"
    assert len(lines) == 1 + 3 * 2
    gap = float(lines[1].split(",")[2])
    assert gap == pytest.approx(c, abs=1e-13)
