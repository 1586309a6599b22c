"""The three workloads: seeded inputs, one op each, and the checks of its output.

An op calls only names exported by ``ovwave`` and ``ovwave.cli.main``, looked
up at call time so that the traced run sees its wrappers.  Each workload
makes one round of inputs from the seed; a run repeats that round whole, so
every run attempts the same ops in the same proportions.  Checks run after
each op, outside its timing, and compare against ``reference``, which does
not use ovwave.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

import ovwave as ow
import ovwave.cli
import reference as ref

TOL_REL = 1e-9
TOL_ABS = 1e-12


def _eps(values) -> float:
    """Local error allowance of one step on the largest state component."""
    return TOL_REL * float(np.max(np.abs(values))) + TOL_ABS


def read_csv(path):
    """Header and float columns of a CSV written by ovwave."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    values = np.fromstring(body.strip().replace("\n", ","), sep=",")  # strtod: exact
    return header, values.reshape(-1, len(header))


class Context:
    """What one run shares between its ops: output directory, OVF factory,
    references computed once, and values compared across ops."""

    def __init__(self, out_dir: Path, tracer=None):
        self.out = Path(out_dir)
        self.tracer = tracer
        self.cache = {}
        self.seen = {}

    def spec(self, v_max, d_s):
        spec = ow.make_vq(v_max, d_s)
        return self.tracer.counting_spec(spec) if self.tracer else spec


# -- delay_limit_cycle ---------------------------------------------------------


class DelayLimitCycle:
    """The unstable example-3 wavefront integrated until its oscillation saturates."""

    name = "delay_limit_cycle"
    V_MAX, D_S, H, T_END, DT_CSV = 2.841, 0.0, 1.5, 80.0, 0.1

    def make_inputs(self, seed: int):
        # bumps of at least 0.015 leave a transient below 6.1e-7 in the
        # period at t = 80 (measured with reference.rk4_extrema)
        rng = np.random.default_rng([seed, 1])
        return [
            {"k": k, "speed_offset": float(rng.uniform(-0.01, 0.01)),
             "bump": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.015, 0.02))}
            for k in range(2)
        ]

    def op(self, inp, ctx):
        spec = ctx.spec(self.V_MAX, self.D_S)
        point = ow.branch_eval(spec, self.H, 1)
        speed = point.c + inp["speed_offset"]
        bump = inp["bump"]
        history = ow.Segment(
            lambda s: -speed * np.asarray(s) + bump * np.sin(math.pi * np.asarray(s)),
            lambda s: -speed + bump * math.pi * np.cos(math.pi * np.asarray(s)),
            {"kind": "bumped", "speed": speed, "bump": bump},
        )
        traj = ow.integrate(spec, self.H, history, self.T_END, TOL_REL, TOL_ABS)
        t = np.arange(self.T_END - 16.0, self.T_END, 0.01)
        samples = traj(t)
        csv = ctx.out / f"series-{inp['k']}.csv"
        ow.trajectory_to_csv(traj, csv, self.DT_CSV)
        return {"traj": traj, "t": t, "w": samples, "lagged": traj(t - 1.0), "csv": csv}

    def _accel(self, traj, t):
        z, dz = traj(t)
        return self.H ** 2 * ref.vq(float(traj(t - 1.0)[0]) - float(z), self.V_MAX, self.D_S) \
            + self.H * float(dz)

    def cycle(self, res):
        """Amplitude and period of z' over the last cycle of the dense output."""
        from scipy.optimize import brentq

        t, w, lag = res["t"], res["w"], res["lagged"]
        acc = self.H ** 2 * ref.vq_array(lag[:, 0] - w[:, 0], self.V_MAX, self.D_S) \
            + self.H * w[:, 1]
        extrema = []
        for i in np.nonzero(np.sign(acc[:-1]) * np.sign(acc[1:]) < 0)[0]:
            tc = brentq(lambda s: self._accel(res["traj"], s), t[i], t[i + 1], xtol=1e-13)
            extrema.append((tc, float(res["traj"](tc)[1]), acc[i] > 0))
        return ref.last_cycle(extrema)

    def reference_cycle(self, ctx):
        if "cycle" not in ctx.cache:
            speed = ref.branch1_speed(self.V_MAX, self.D_S, self.H)
            ctx.cache["cycle"] = ref.limit_cycle(self.V_MAX, self.D_S, self.H, speed)
        return ctx.cache["cycle"]

    def check(self, inp, res, ctx):
        problems = []
        traj = res["traj"]
        grid = np.arange(-1.0, self.T_END, 0.05)
        eps = _eps(traj(grid))
        amp, period = self.cycle(res)
        ref_amp, ref_period, _ = self.reference_cycle(ctx)
        # 100 eps covers the solver's error on the cycle (below 10 eps
        # measured) and the transient left at t = 80
        if abs(amp - ref_amp) > 100 * eps:
            problems.append(f"amplitude {amp!r} differs from the RK4 reference {ref_amp!r}")
        if abs(period - ref_period) > 100 * eps:
            problems.append(f"period {period!r} differs from the RK4 reference {ref_period!r}")
        ctx.seen.setdefault("amplitudes", []).append(amp)
        amps = ctx.seen["amplitudes"]
        if max(amps) - min(amps) > 100 * eps:
            problems.append(f"amplitudes disagree between ops: {min(amps)!r}..{max(amps)!r}")

        # z'' by central differences of the dense z', off the breakpoints
        s = np.arange(0.00537, self.T_END - 0.01, 0.01)
        d = 1e-5
        w, lag = traj(s), traj(s - 1.0)
        zpp = (traj(s + d)[:, 1] - traj(s - d)[:, 1]) / (2.0 * d)
        law = self.H ** 2 * ref.vq_array(lag[:, 0] - w[:, 0], self.V_MAX, self.D_S) \
            + self.H * w[:, 1]
        resid = float(np.max(np.abs(zpp - law)))
        if not resid <= 100 * eps:
            problems.append(f"dense-output residual {resid!r} above {100 * eps!r}")
        problems += check_series_csv(res["csv"], traj, -1.0, self.T_END, self.DT_CSV)
        return problems


def check_series_csv(path, traj, lo, hi, dt):
    header, data = read_csv(path)
    if header != ["t", "z", "dz"]:
        return [f"{path.name}: header {header}"]
    n = int(math.floor((hi - lo) / dt + 1e-9)) + 1
    if data.shape[0] != n or np.max(np.abs(data[:, 0] - (lo + dt * np.arange(n)))) > 1e-12:
        return [f"{path.name}: time column is not the grid {lo}:{dt}:{hi}"]
    if not np.array_equal(data[:, 1:], traj(data[:, 0])):
        return [f"{path.name}: values differ from the trajectory in memory"]
    return []


# -- stability_sweep -------------------------------------------------------------


ROOT_RECT = (-0.5, 5.0, -30.0, 30.0)


def h_star(v_max: float, d_s: float) -> float:
    """Onset of both branches: ``u^3 - u - 2 d_s = 0`` with ``u = c - d_s``,
    from ``c V'(c) = V(c)``; then ``h* = c / V(c)``."""
    roots = [r.real for r in np.roots([1.0, 0.0, -1.0, -2.0 * d_s])
             if abs(r.imag) < 1e-9 and r.real > 0.0]
    c = d_s + max(roots)
    return c / ref.vq(c, v_max, d_s)


class StabilitySweep:
    """Both branches classified over an h grid, like ``ovwave sweep`` without the file."""

    name = "stability_sweep"
    N_H = 30
    # (v_max, d_s): every h grid from 1.02 h* to 1.8 crosses C1 once
    CLASSES = [(2.841, 0.0), (3.3, 0.0), (3.0, 0.3), (4.0, 0.5)]
    FAILING = {"k": -1, "v_max": 1.0, "d_s": 0.0, "hs": list(np.linspace(5.5, 8.0, 30))}

    def make_inputs(self, seed: int):
        # two seeded members of each class, jittered little so that the
        # cost of an op, and so the median, depends little on the seed
        rng = np.random.default_rng([seed, 2])
        fams = []
        for v_max, d_s in self.CLASSES + self.CLASSES:
            v_max *= float(rng.uniform(0.95, 1.05))
            d_s *= float(rng.uniform(0.9, 1.1))
            lo = 1.02 * h_star(v_max, d_s)
            fams.append({"k": len(fams), "v_max": v_max, "d_s": d_s,
                         "hs": [float(h) for h in np.linspace(lo, 1.8, self.N_H)]})
        # branch 2 here has a real root near lambda = h, right of the
        # default root rectangle: every op on this family fails today
        return fams + [self.FAILING]

    def op(self, fam, ctx):
        spec = ctx.spec(fam["v_max"], fam["d_s"])
        rows = []
        for h in fam["hs"]:
            speeds = ow.find_constant_speeds(spec, h)
            p1 = ow.branch_eval(spec, h, 1)
            p2 = ow.branch_eval(spec, h, 2)
            v1 = ow.classify_wavefront(spec, p1) if p1 is not None else None
            v2 = ow.classify_wavefront(spec, p2)
            rows.append((h, speeds, p1, p2, v1, v2))
        inside_outside = ("inside_S", "outside_S")
        flip = hopf = None
        for i in range(len(rows) - 1):
            a, b = rows[i][4], rows[i + 1][4]
            if a and b and a.region in inside_outside and b.region in inside_outside \
                    and a.region != b.region:
                flip = i
                hopf = ow.hopf_crossing(spec, rows[i][0], rows[i + 1][0])
                break
        return {"rows": rows, "flip": flip, "hopf": hopf}

    def check(self, fam, res, ctx):
        problems = []
        v_max, d_s = fam["v_max"], fam["d_s"]
        expected = []
        for h, speeds, p1, p2, v1, v2 in res["rows"]:
            where = f"v_max={v_max} d_s={d_s} h={h}"
            c1 = ref.branch1_speed(v_max, d_s, h)
            if d_s == 0.0:
                closed = ref.speeds_ds0(v_max, h)
                got = [p.c for p in speeds]
                if len(got) != 2 or any(abs(g - c) > 1e-10 * c for g, c in zip(got, closed)):
                    problems.append(f"{where}: speeds {got} != closed form {closed}")
                if abs(p2.c - closed[1]) > 1e-10 * closed[1]:
                    problems.append(f"{where}: branch-2 speed {p2.c!r} != {closed[1]!r}")
            for p in speeds + [p2]:
                if abs(h * ref.vq(p.c, v_max, d_s) - p.c) > 1e-12 * max(1.0, p.c):
                    problems.append(f"{where}: speed {p.c!r} does not solve h V(c) = c")
            if p1 is None or abs(p1.c - c1) > 1e-10 * c1:
                problems.append(f"{where}: branch-1 speed {p1 and p1.c!r} != {c1!r}")
                expected.append(None)
                continue
            if v2.classification != "unstable":
                problems.append(f"{where}: branch 2 classified {v2.classification}")
            alpha, beta1 = -h, h * h * ref.vq_slope(c1, v_max, d_s)
            stable = ref.region_stable(alpha, beta1)
            expected.append(stable)
            if stable is not None and v1.classification != ("stable" if stable else "unstable"):
                problems.append(f"{where}: branch 1 classified {v1.classification}, "
                                f"the region test says {'stable' if stable else 'unstable'}")
            beta2 = h * h * ref.vq_slope(p2.c, v_max, d_s)
            for beta, verdict in ((beta1, v1), (beta2, v2)):
                problems += check_roots(alpha, beta, verdict, where)

        ref_flip = next((i for i in range(len(expected) - 1)
                         if expected[i] is not None and expected[i + 1] is not None
                         and expected[i] != expected[i + 1]), None)
        if res["flip"] != ref_flip:
            problems.append(f"first region flip at {res['flip']}, the region test says {ref_flip}")
        elif ref_flip is not None:
            hs = fam["hs"]
            h_ref = ref.hopf_h(v_max, d_s, hs[ref_flip], hs[ref_flip + 1])
            h_lib = res["hopf"][0]
            if abs(h_lib - h_ref) > 1e-10 * max(1.0, h_ref):
                problems.append(f"h_H {h_lib!r} differs from brentq {h_ref!r}")
        return problems


def check_roots(alpha, beta, verdict, where):
    """Roots solve chi, pair up, match an independent count, fit the verdict."""
    problems = []
    roots = list(verdict.rightmost_roots)
    for z in roots:
        if abs(ref.chi(alpha, beta, z)) > 1e-9 * ref.chi_scale(alpha, beta, z):
            problems.append(f"{where}: {z} is not a root of chi")
        if z.imag != 0.0 and not any(abs(w - z.conjugate()) <= 1e-9 * (1.0 + abs(z))
                                     for w in roots):
            problems.append(f"{where}: root {z} has no conjugate")
    if not any(z == 0 for z in roots):
        problems.append(f"{where}: the zero root is missing")
    a, b, c, d = ROOT_RECT
    inside = [z for z in roots if a < z.real < b and c < z.imag < d]
    count = ref.count_roots(alpha, beta, ROOT_RECT)
    if count is not None and count != len(inside):
        problems.append(f"{where}: {len(inside)} roots reported, the winding count is {count}")
    unstable = any(z.real > 1e-8 for z in roots)
    if verdict.classification == "stable" and unstable:
        problems.append(f"{where}: stable verdict with an unstable root")
    if verdict.classification == "unstable" and not unstable:
        problems.append(f"{where}: unstable verdict without an unstable root")
    return problems


# -- chain_export ------------------------------------------------------------------


class ChainExport:
    """Stable wavefronts exported as car chains, a follower chain, and the CLI."""

    name = "chain_export"
    V_MAX, D_S, H, T_END = 100.0, 0.0, 0.2, 40.0
    J_RANGE = (-36, -5)  # cars whose arguments stay inside [-1, 40] for t <= 1.2
    N_FOLLOWERS, T_FOLLOW = 6, 4.0

    def make_inputs(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        return [{"k": k, "gap_scale": [float(x) for x in
                                       1.0 + 0.1 * rng.uniform(-1.0, 1.0, self.N_FOLLOWERS)]}
                for k in range(4)]

    def op(self, inp, ctx):
        spec = ctx.spec(self.V_MAX, self.D_S)
        h = self.H
        times = np.linspace(0.0, 1.2, 181)
        res = {"waves": []}
        for branch in (1, 2):
            point = ow.branch_eval(spec, h, branch)
            traj = ow.integrate(spec, h, ow.Segment.quasi_stationary(point.c), self.T_END,
                                TOL_REL, TOL_ABS)
            run = ow.wavefront_to_lattice(traj, h, self.J_RANGE, times)
            resid = ow.ansatz_residual(run, spec)
            lat_csv = ctx.out / f"lattice-{branch}.csv"
            ser_csv = ctx.out / f"series-{branch}.csv"
            ow.lattice_to_csv(run, lat_csv)
            ow.trajectory_to_csv(traj, ser_csv, 0.1)
            res["waves"].append((point, traj, run, resid, lat_csv, ser_csv))

        c = res["waves"][0][0].c
        n = self.N_FOLLOWERS
        gaps = c * np.asarray(inp["gap_scale"])
        x0 = -np.cumsum(gaps[::-1])[::-1]
        init = np.stack([x0, np.full(n, c / h)], axis=1)
        res["init"] = init
        res["followers"] = ow.simulate_followers(
            spec, lambda t: (c * t / h, c / h), init, n, self.T_FOLLOW, TOL_REL, TOL_ABS,
            times=np.linspace(0.0, self.T_FOLLOW, 81))

        cli_out = ctx.out / "cli"
        res["cli"] = (
            ovwave.cli.main(["example", "1", "--out", str(cli_out)]),
            ovwave.cli.main(["lattice", "--v-max", "100", "--d-s", "0", "--h", "0.2",
                             "--branch", "1", "--t-end", "10", "--j-min", "-8",
                             "--j-max", "-2", "--out", str(cli_out)]),
        )
        res["cli_out"] = cli_out
        return res

    def check(self, inp, res, ctx):
        problems = []
        h = self.H
        speeds = ref.speeds_ds0(self.V_MAX, h)
        for (point, traj, run, resid, lat_csv, ser_csv), c in zip(res["waves"], speeds):
            if abs(point.c - c) > 1e-10 * c:
                problems.append(f"speed {point.c!r} != closed form {c!r}")
            eps = _eps(traj(np.linspace(-1.0, self.T_END, 401)))
            exact = c * (run.times[:, None] / h + run.j_indices[None, :])
            dev = float(np.max(np.abs(run.positions - exact)))
            if dev > 100 * eps:
                problems.append(f"lattice positions off x_j = c(t/h + j) by {dev!r}")
            if float(np.max(np.abs(run.velocities - c / h))) > 100 * eps:
                problems.append("lattice velocities differ from c/h")
            if not resid <= 100 * eps:
                problems.append(f"car-following residual {resid!r} above {100 * eps!r}")
            problems += check_lattice_csv(lat_csv, run)
            problems += check_series_csv(ser_csv, traj, -1.0, self.T_END, 0.1)

        problems += self.check_followers(res, speeds[0])

        if res["cli"] != (0, 0):
            problems.append(f"cli exit codes {res['cli']}")
            return problems
        traj1 = res["waves"][0][1]
        problems += check_series_csv(res["cli_out"] / "example1_series.csv", traj1,
                                     -1.0, self.T_END, 0.1)
        header, data = read_csv(res["cli_out"] / "lattice.csv")
        c = speeds[0]
        eps = TOL_REL * 10.0 * c + TOL_ABS  # that profile ends at t = 10, z = -10 c
        if header != ["t", "j", "x", "v"]:
            problems.append(f"cli lattice.csv header {header}")
        elif float(np.max(np.abs(data[:, 2] - c * (data[:, 0] / h + data[:, 1])))) > 100 * eps:
            problems.append("cli lattice positions differ from x_j = c(t/h + j)")
        return problems

    def check_followers(self, res, c):
        """The follower chain against scipy's DOP853 on the same equations."""
        from scipy.integrate import solve_ivp

        run = res["followers"]
        n, h = self.N_FOLLOWERS, self.H
        v_max, d_s = self.V_MAX, self.D_S

        def rhs(t, y):
            x, v = y[:n], y[n:]
            gaps = np.append(x[1:] - x[:-1], c * t / h - x[-1])
            return np.concatenate([v, ref.vq_array(gaps, v_max, d_s) - v])

        init = res["init"]
        sol = solve_ivp(rhs, (0.0, self.T_FOLLOW), np.concatenate([init[:, 0], init[:, 1]]),
                        method="DOP853", rtol=1e-12, atol=1e-14, t_eval=run.times)
        eps = _eps(sol.y)
        # global error of ~2e3 steps; below 70 eps measured
        dx = float(np.max(np.abs(sol.y[:n].T - run.positions)))
        dv = float(np.max(np.abs(sol.y[n:].T - run.velocities)))
        if not (sol.success and max(dx, dv) <= 1e3 * eps):
            return [f"follower chain differs from DOP853 by {max(dx, dv)!r} (eps {eps!r})"]
        return []


def check_lattice_csv(path, run):
    header, data = read_csv(path)
    if header != ["t", "j", "x", "v"]:
        return [f"{path.name}: header {header}"]
    nt, nj = run.positions.shape
    if data.shape[0] != nt * nj:
        return [f"{path.name}: {data.shape[0]} rows for {nt * nj} samples"]
    cols = (np.repeat(run.times, nj), np.tile(run.j_indices, nt),
            run.positions.ravel(), run.velocities.ravel())
    if not all(np.array_equal(data[:, i], col) for i, col in enumerate(cols)):
        return [f"{path.name}: values differ from the run in memory"]
    return []


WORKLOADS = {w.name: w for w in (DelayLimitCycle(), StabilitySweep(), ChainExport())}
