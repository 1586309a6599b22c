"""Acceptance suite: eleven gate criteria, one test each.

Every test prints one ``criterion NN <label>: PASS|FAIL`` line (visible with
``pytest -s`` or in captured output on failure) and then asserts.  Expected
values tagged as derived are frozen from the independent oracles coded
here (closed-form quadratic speeds, symbolic tangency, scalar bisection,
finite differences, tolerance-halving references); no expected value is
asserted that was not recomputed by its oracle.

Every trajectory produced here goes through :func:`_integrate`, which also
enforces the growth-bound invariant on each run (criterion 7).
"""

import math

import numpy as np

import ovwave as ow
from ovwave.cli import measure_oscillation, run_sweep
from ovwave.config import ExperimentConfig
from ovwave.stability import c1_curve
from conftest import boundary_distance, quadratic_speeds

GRONWALL_RUNS: list[tuple[str, bool]] = []


def _integrate(label, spec, h, phi, t_end, tol_rel=1e-9, tol_abs=1e-12):
    traj = ow.integrate(spec, h, phi, t_end, tol_rel, tol_abs)
    GRONWALL_RUNS.append((label, traj.stats.gronwall_ok))
    return traj


def _report(num: int, label: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_01_branch_roots(vq100):
    points = ow.find_constant_speeds(vq100, 0.2)
    oracle = quadratic_speeds(100.0, 0.2)  # h*v/2 -+ sqrt((h*v)^2/4 - 1)
    checks = {
        "two roots": len(points) == 2,
        "low matches reference 0.0501 to 1e-4": abs(points[0].c - 0.0501) <= 1e-4,
        "high matches reference 19.9499 to 1e-4": abs(points[1].c - 19.9499) <= 1e-4,
        "low matches quadratic to 1e-10": abs(points[0].c - oracle[0]) <= 1e-10,
        "high matches quadratic to 1e-10": abs(points[1].c - oracle[1]) <= 1e-10,
    }
    _report(1, "branch roots", checks)


def test_criterion_02_critical_pair():
    checks = {}
    for v_max in (100.0, 2.841, 1.0):
        cp = ow.critical_pair(ow.make_vq(v_max, 0.0))
        checks[f"c_star=1 for v_max={v_max}"] = abs(cp.c_star - 1.0) <= 1e-8
        checks[f"h_star=2/v_max for v_max={v_max}"] = abs(cp.h_star - 2.0 / v_max) <= 1e-8
    _report(2, "critical pair", checks)


def test_criterion_03_stability_parameters(vq100, vq2841):
    beta1 = ow.stability_params(vq100, ow.branch_eval(vq100, 0.2, 1)).beta
    beta3 = ow.stability_params(vq2841, ow.branch_eval(vq2841, 1.5, 1)).beta
    checks = {
        "example 1 beta = 0.39899 +- 1e-4": abs(beta1 - 0.39899) <= 1e-4,
        "example 3 beta = 2.8245 +- 1e-3": abs(beta3 - 2.8245) <= 1e-3,
    }
    _report(3, "stability parameters", checks)


def test_criterion_04_verdicts(vq100, vq2841):
    v1 = ow.classify_wavefront(vq100, ow.branch_eval(vq100, 0.2, 1))
    v2 = ow.classify_wavefront(vq100, ow.branch_eval(vq100, 0.2, 2))
    v3 = ow.classify_wavefront(vq2841, ow.branch_eval(vq2841, 1.5, 1))
    checks = {
        "example 1 stable inside": (v1.classification, v1.region) == (ow.STABLE, ow.INSIDE_S),
        "example 2 unstable below diagonal": v2.classification == ow.UNSTABLE
        and v2.params.beta < -v2.params.alpha,
        "example 3 unstable outside": (v3.classification, v3.region)
        == (ow.UNSTABLE, ow.OUTSIDE_S),
    }
    _report(4, "verdicts", checks)


def test_criterion_05_region_boundary():
    checks = {
        "endpoint at alpha=0": abs(ow.c1_boundary_beta(0.0) - math.pi**2 / 2) <= 1e-9,
        "endpoint at alpha=-2": abs(ow.c1_boundary_beta(-2.0) - 2.0) <= 1e-9,
    }
    # self-consistency of every sampled curve point: recover the parameter
    # from beta alone, then both coordinates must reproduce to 1e-10
    worst = 0.0
    for alpha in np.linspace(-1.999, -0.001, 200):
        beta = ow.c1_boundary_beta(float(alpha))
        lo, hi = 1e-9, math.pi - 1e-9
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if c1_curve(mid)[1] < beta:
                lo = mid
            else:
                hi = mid
        a_chk, b_chk = c1_curve(0.5 * (lo + hi))
        worst = max(worst, abs(a_chk - alpha), abs(b_chk - beta))
    checks["all sampled points consistent to 1e-10"] = worst <= 1e-10
    _report(5, "region boundary", checks)


def test_criterion_06_root_finder():
    params = ow.StabilityParams(-0.2, 0.0010026)

    # oracle: scalar bisection of the characteristic function on (0, 0.2)
    f = lambda x: ow.char_eval(params, x)
    lo, hi = 1e-8, 0.2
    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    oracle_root = 0.5 * (lo + hi)

    roots = ow.rightmost_roots(params, sigma=-0.05)
    real_pos = [z for z in roots if z.real > 1e-6]
    checks = {
        "one strictly unstable root": len(real_pos) == 1,
        "root is real": real_pos and real_pos[0].imag == 0.0,
        "root within 1e-4 of the bisection oracle": real_pos
        and abs(real_pos[0].real - oracle_root) <= 1e-4,
        "characteristic residual below 1e-10": real_pos
        and abs(ow.char_eval(params, real_pos[0])) <= 1e-10,
    }

    disagreements = 0
    checked = 0
    for alpha in np.linspace(-3.0, 0.0, 20):
        for beta in np.linspace(0.0, 6.0, 20):
            if boundary_distance(float(alpha), float(beta)) <= 1e-3:
                continue
            p = ow.StabilityParams(float(alpha), float(beta))
            region = ow.region_classify(p)
            has_unstable = any(z.real > 1e-6 for z in ow.rightmost_roots(p))
            if (region == ow.OUTSIDE_S) != has_unstable:
                disagreements += 1
            checked += 1
    checks["grid points actually checked"] = checked >= 300
    checks["zero classifier/root disagreements"] = disagreements == 0
    _report(6, "root finder", checks)


def test_criterion_07_solver_fidelity(vq100):
    c = ow.branch_eval(vq100, 0.2, 1).c
    traj = _integrate("qs-50", vq100, 0.2, ow.Segment.quasi_stationary(c), 50.0)
    t = np.linspace(0.0, 50.0, 2001)
    checks = {
        "|z'+c| <= 1e-6 on [0,50]": float(np.max(np.abs(traj(t)[:, 1] + c))) <= 1e-6,
    }

    # the ladder sits where error control binds (at 1e-5 every step is
    # capped at max_step = 1); each run must also meet its own tolerance
    phi = ow.Segment.quasi_stationary(c - 0.005)
    ref = _integrate("conv-ref", vq100, 0.2, phi, 10.0, 1e-12, 1e-14)
    grid = np.linspace(0.0, 10.0, 301)
    wref = ref(grid)
    scale = float(np.max(np.abs(wref)))
    errs, steps = [], []
    for tol in (1e-5, 1e-7, 5e-8, 2.5e-8, 1.25e-8):
        run = _integrate(f"conv-{tol}", vq100, 0.2, phi, 10.0, tol, tol * 1e-3)
        err = float(np.max(np.abs(run(grid) - wref)))
        checks[f"error at {tol} within 10x its tolerance"] = (
            err <= 10.0 * (tol * 1e-3 + tol * scale)
        )
        errs.append(err)
        steps.append(run.stats.steps)
    errs, steps = errs[1:], steps[1:]  # the halving ladder
    checks["errors decrease monotonically over 3 halvings"] = all(
        a > b for a, b in zip(errs, errs[1:])
    )
    checks["step count rises over 3 halvings"] = all(a < b for a, b in zip(steps, steps[1:]))
    checks["growth bound holds on every run so far"] = all(ok for _, ok in GRONWALL_RUNS)
    _report(7, "solver fidelity", checks)


def test_criterion_08_attraction(vq100):
    c = ow.branch_eval(vq100, 0.2, 1).c
    traj = _integrate(
        "attract", vq100, 0.2, ow.Segment.quasi_stationary(c - 0.005), 40.0
    )
    checks = {
        "terminal |z'(40)+c| < 1e-3": abs(float(traj(40.0)[1]) + c) < 1e-3,
    }
    _report(8, "attraction", checks)


def test_criterion_09_instability_phenomenology(vq2841):
    c = ow.branch_eval(vq2841, 1.5, 1).c
    traj = _integrate(
        "osc", vq2841, 1.5, ow.Segment.quasi_stationary(c - 1e-8), 320.0
    )
    osc = measure_oscillation(traj, vq2841, 1.5, c, n_cycles=10)
    checks = {
        "oscillation grows by over 100x": osc["late_max_deviation"]
        > 100.0 * osc["early_max_deviation"],
        "at least 10 full cycles measured": len(osc["last_amplitudes"]) >= 10,
        "last-10-cycle amplitudes vary < 1%": osc["rel_variation"] < 0.01,
    }
    _report(9, "instability phenomenology", checks)


def test_criterion_10_hopf_crossing(vq2841, tmp_path):
    cp = ow.critical_pair(vq2841)
    h_lo, h_hi = cp.h_star + 0.01, 1.5

    # sign scan on a 200-point grid: the offset from the boundary curve
    # must change sign exactly once
    flips = 0
    prev = None
    for h in np.linspace(h_lo, h_hi, 200):
        pt = ow.branch_eval(vq2841, float(h), 1)
        s = pt.h**2 * vq2841.deriv(pt.c) - ow.c1_boundary_beta(-pt.h)
        sign = s > 0
        if prev is not None and sign != prev:
            flips += 1
        prev = sign
    h_H, omega = ow.hopf_crossing(vq2841, h_lo, h_hi)
    params = ow.stability_params(vq2841, ow.branch_eval(vq2841, h_H, 1))
    below = ow.classify_wavefront(vq2841, ow.branch_eval(vq2841, h_H - 1e-3, 1))
    above = ow.classify_wavefront(vq2841, ow.branch_eval(vq2841, h_H + 1e-3, 1))
    checks = {
        "exactly one region flip": flips == 1,
        "crossing inside the bracket": h_lo < h_H < h_hi,
        "|chi(i omega)| < 1e-8": abs(ow.char_eval(params, 1j * omega)) < 1e-8,
        "stable below the crossing": below.classification == ow.STABLE,
        "unstable above the crossing": above.classification == ow.UNSTABLE,
    }
    # the sweep harness reports the same single crossing
    cfg = ExperimentConfig().with_overrides(v_max=2.841, d_s=0.0, h=1.0)
    summary = run_sweep(cfg, h_lo, h_hi, 100, tmp_path)
    checks["sweep reports one flip"] = summary["n_region_flips"] == 1
    checks["sweep crossing agrees"] = abs(summary["h_H"] - h_H) <= 1e-8
    _report(10, "hopf crossing", checks)


def test_criterion_11_lattice_consistency(vq100):
    h = 0.2
    c = ow.branch_eval(vq100, h, 1).c
    profile = ow.AffineTrajectory(-c, 0.0)

    leader = ow.leader_from_trajectory(profile, h, j=0)
    n = 5
    init = np.stack([c * np.arange(-n, 0), np.full(n, c / h)], axis=1)
    sim = ow.simulate_followers(vq100, leader, init, n, 20.0)
    expected = (c / h) * sim.times[:, None] + c * sim.j_indices[None, :]

    run = ow.wavefront_to_lattice(profile, h, (-5, 5), np.linspace(0.0, 20.0, 41))
    checks = {
        "followers stay within 1e-6 over [0,20]": float(
            np.max(np.abs(sim.positions - expected))
        ) <= 1e-6,
        "quasi-stationary residual < 1e-8": ow.ansatz_residual(run, vq100) < 1e-8,
        "headways equal c to machine precision": float(
            np.max(np.abs(run.headways() - c))
        ) <= 1e-13,
        "velocities equal c/h to machine precision": float(
            np.max(np.abs(run.velocities - c / h))
        ) <= 1e-15 * max(1.0, c / h),
    }
    _report(11, "lattice consistency", checks)
