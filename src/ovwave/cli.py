"""Experiment harness: reference examples, sweeps, and data export.

Everything emits plain CSV/JSON with fixed 17-significant-digit formatting,
so identical configurations produce byte-identical artifacts.  Plotting is
left to external tools; series files use a two-column time/value convention
per quantity (t, z, dz).

Exit codes: 0 success, 2 configuration or domain error, 3 numerical
failure, 4 consistency error (classifier and root finder disagree).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .errors import (
    ConfigError,
    ConsistencyError,
    DomainError,
    NumericalError,
    OvwaveError,
    ParameterError,
)
from .lattice import lattice_to_csv, wavefront_to_lattice
from .solver import (
    _acceleration,
    _fmt,
    _write_lines,
    integrate,
    trajectory_metadata,
    trajectory_to_csv,
)
from .stability import (
    StabilityParams,
    classify_wavefront,
    hopf_crossing,
    region_boundary_samples,
    region_classify,
)
from .waves import branch_eval, critical_pair

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONSISTENCY = 4

EXAMPLES = {
    "example1": {"v_max": 100.0, "d_s": 0.0, "h": 0.2, "branch": 1, "t_end": 40.0},
    "example2": {"v_max": 100.0, "d_s": 0.0, "h": 0.2, "branch": 2, "t_end": 200.0},
    # rounding alone sets off example 3's instability too slowly to show the
    # oscillation by t = 300; a speed 1e-8 below the wavefront's seeds it
    "example3": {"v_max": 2.841, "d_s": 0.0, "h": 1.5, "branch": 1, "t_end": 300.0,
                 "speed_offset": -1e-8},
}


def _write_json(path: Path, obj) -> None:
    _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


def _verdict_record(point, verdict) -> dict:
    return {
        "h": point.h,
        "c": point.c,
        "slope_product": point.slope_product,
        "branch": point.branch,
        "alpha": verdict.params.alpha,
        "beta": verdict.params.beta,
        "region": verdict.region,
        "classification": verdict.classification,
        "rightmost_roots": [[z.real, z.imag] for z in verdict.rightmost_roots],
    }


# -- oscillation measurement -------------------------------------------------


def measure_oscillation(traj, spec, h: float, c: float, n_cycles: int = 10,
                        dt: float = 0.01) -> dict:
    """Envelope statistics of the velocity component's oscillation.

    Extrema of z' are the sign changes of z'' (reconstructed from the model
    law, not by differencing); each successive maximum/minimum pair gives a
    peak-to-peak amplitude.  Reports growth of the deviation |z' + c| over
    the run's thirds and the relative spread of the last ``n_cycles``
    amplitudes, which is small once the oscillation has become regular.
    """
    t = np.arange(0.0, traj.t_end, dt)
    w = traj(t)
    z, dz = w[:, 0], w[:, 1]
    z_delay = traj(t - 1.0)[:, 0]
    acc = _acceleration(spec, h)(z_delay - z, dz)
    dev = np.abs(dz + c)

    sgn = np.sign(acc)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    kinds = ["max" if acc[i] > 0 else "min" for i in flips]
    t_ext = t[flips] - acc[flips] * (t[flips + 1] - t[flips]) / (acc[flips + 1] - acc[flips])
    v_ext = traj(t_ext)[:, 1]

    amplitudes = []
    for k in range(len(flips) - 1):
        if kinds[k] == "max" and kinds[k + 1] == "min":
            amplitudes.append(v_ext[k] - v_ext[k + 1])

    third = max(1, t.size // 3)
    early = float(np.max(dev[:third]))
    late = float(np.max(dev[-third:]))

    last = amplitudes[-n_cycles:]
    if len(last) >= 2 and np.mean(last) > 0:
        rel_variation = float((np.max(last) - np.min(last)) / np.mean(last))
    else:
        rel_variation = math.inf
    return {
        "n_extrema": len(flips),
        "n_amplitudes": len(amplitudes),
        "last_amplitudes": [float(a) for a in last],
        "rel_variation": rel_variation,
        "saturated": len(last) >= n_cycles and rel_variation < 0.01,
        "early_max_deviation": early,
        "late_max_deviation": late,
    }


# -- high-level runs ---------------------------------------------------------


def run_example(name: str, out_dir, t_end: float | None = None,
                tol_rel: float | None = None, tol_abs: float | None = None,
                dt: float | None = None) -> dict:
    """Reproduce one of the three reference experiments.

    Integrates the quasi-stationary history of the selected branch point
    (at the example's speed offset), classifies it, and writes the time
    series plus a JSON verdict bundle.
    """
    if name not in EXAMPLES:
        raise ParameterError(f"unknown example {name!r}; use example1..example3")
    cfg = ExperimentConfig().with_overrides(**EXAMPLES[name]).with_overrides(
        t_end=t_end, tol_rel=tol_rel, tol_abs=tol_abs, dt=dt
    )
    spec = cfg.build_ovf()
    point = branch_eval(spec, cfg.h, cfg.branch)
    verdict = classify_wavefront(spec, point)
    traj = integrate(spec, cfg.h, cfg.build_segment(point.c), cfg.t_end,
                     cfg.tol_rel, cfg.tol_abs)

    out_dir = Path(out_dir)
    series = out_dir / f"{name}_series.csv"
    trajectory_to_csv(traj, series, cfg.dt)
    record = {
        "example": name,
        "config": cfg.as_dict(),
        "verdict": _verdict_record(point, verdict),
        "solver": trajectory_metadata(traj),
        "series_csv": series.name,
        "notes": [],
    }
    if name == "example3":
        value_form = cfg.h**2 * float(spec.eval(point.c))
        record["notes"].append(
            "beta uses the slope form h^2*V'(c) = "
            f"{verdict.params.beta:.6g}; the value form h^2*V(c) = "
            f"{value_form:.6g} would not reproduce the expected magnitude"
        )
    _write_json(out_dir / f"{name}_verdict.json", record)
    return record


def run_perturbed(cfg: ExperimentConfig, out_dir) -> dict:
    """Integrate a perturbed history and report the deviation statistics."""
    spec = cfg.build_ovf()
    speed = cfg.resolve_speed(spec)
    if speed is None:
        raise ConfigError("perturbed runs need a branch or an explicit c")
    seg = cfg.build_segment(speed)
    traj = integrate(spec, cfg.h, seg, cfg.t_end, cfg.tol_rel, cfg.tol_abs)

    t = np.arange(0.0, cfg.t_end, cfg.dt)
    dev = np.abs(traj(t)[:, 1] + speed)
    terminal = float(np.abs(traj(cfg.t_end)[1] + speed))
    osc = measure_oscillation(traj, spec, cfg.h, speed)

    out_dir = Path(out_dir)
    series = out_dir / "perturbed_series.csv"
    trajectory_to_csv(traj, series, cfg.dt)
    record = {
        "config": cfg.as_dict(),
        "speed": speed,
        "sup_deviation": float(np.max(dev)),
        "terminal_deviation": terminal,
        "oscillation": osc,
        "solver": trajectory_metadata(traj),
        "series_csv": series.name,
    }
    _write_json(out_dir / "perturbed_report.json", record)
    return record


def _h_grid(h_lo: float, h_hi: float, samples: int) -> np.ndarray:
    """``samples`` evenly spaced h values from ``h_lo`` to ``h_hi``."""
    if not (h_lo < h_hi) or samples < 2:
        raise ParameterError(f"invalid h range ({h_lo}, {h_hi}, {samples} samples)")
    return np.linspace(h_lo, h_hi, samples)


def run_sweep(cfg: ExperimentConfig, h_lo: float, h_hi: float, samples: int,
              out_dir) -> dict:
    """Classify branch points across an h-range and locate boundary crossings."""
    spec = cfg.build_ovf()
    cp = critical_pair(spec)
    hs = _h_grid(h_lo, h_hi, samples)
    if h_lo <= cp.h_star:
        raise DomainError(
            f"sweep range must lie above h_star={cp.h_star}, got h_lo={h_lo}"
        )

    rows = []
    for h in hs:
        p1 = branch_eval(spec, float(h), 1)
        p2 = branch_eval(spec, float(h), 2)
        if p1 is not None:
            verdict = classify_wavefront(spec, p1)
            rows.append(
                (float(h), p1.c, p2.c if p2 else None, verdict.params.alpha,
                 verdict.params.beta, verdict.region, verdict.classification)
            )
        else:
            rows.append((float(h), None, p2.c if p2 else None, None, None, None, None))

    flips = []
    for i in range(len(rows) - 1):
        a, b = rows[i][5], rows[i + 1][5]  # the region column
        if a in ("inside_S", "outside_S") and b in ("inside_S", "outside_S") and a != b:
            flips.append((float(hs[i]), float(hs[i + 1])))
    h_H = omega = None
    if flips:
        h_H, omega = hopf_crossing(spec, flips[0][0], flips[0][1])

    out_dir = Path(out_dir)
    lines = [
        f"# c_star={_fmt(cp.c_star)} h_star={_fmt(cp.h_star)} h_hat={_fmt(cp.h_hat)}",
        "h,c1,c2,alpha,beta,region,verdict",
    ]
    for h, c1, c2, alpha, beta, region, verdict in rows:
        lines.append(
            f"{_fmt(h)},{_fmt(c1)},{_fmt(c2)},{_fmt(alpha)},{_fmt(beta)},"
            f"{region or ''},{verdict or ''}"
        )
    _write_lines(out_dir / "sweep.csv", lines)
    record = {
        "config": cfg.as_dict(),
        "h_range": [h_lo, h_hi],
        "samples": samples,
        "c_star": cp.c_star,
        "h_star": cp.h_star,
        "h_hat": cp.h_hat if math.isfinite(cp.h_hat) else None,  # None: unbounded
        "n_region_flips": len(flips),
        "h_H": h_H,
        "omega": omega,
    }
    _write_json(out_dir / "sweep.json", record)
    return record


# -- subcommand handlers -----------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    names = ("v_max", "d_s", "h", "branch", "c", "t_end", "tol_rel", "tol_abs", "dt")
    return cfg.with_overrides(**{name: getattr(args, name, None) for name in names})


def _cmd_branches(args) -> int:
    cfg = _load_config(args)
    spec = cfg.build_ovf()
    cp = critical_pair(spec)
    hs = _h_grid(args.h_min, args.h_max, args.samples)
    lines = [
        f"# c_star={_fmt(cp.c_star)} h_star={_fmt(cp.h_star)} h_hat={_fmt(cp.h_hat)}",
        "h,c1,c2,hVp_c1,hVp_c2",
    ]
    for h in hs:
        c1 = c2 = s1 = s2 = None
        if h > cp.h_star:
            p1 = branch_eval(spec, float(h), 1)
            p2 = branch_eval(spec, float(h), 2)
            if p1 is not None:
                c1, s1 = p1.c, p1.slope_product
            if p2 is not None:
                c2, s2 = p2.c, p2.slope_product
        lines.append(f"{_fmt(float(h))},{_fmt(c1)},{_fmt(c2)},{_fmt(s1)},{_fmt(s2)}")
    _write_lines(Path(args.out) / "branches.csv", lines)
    return EXIT_OK


def _cmd_stability_region(args) -> int:
    if args.grid_n < 1:
        raise ParameterError(f"grid_n must be at least 1, got {args.grid_n}")
    out = Path(args.out)
    lines = ["curve,param,alpha,beta"]
    for curve, param, alpha, beta in region_boundary_samples(args.boundary_n):
        lines.append(f"{curve},{_fmt(param)},{_fmt(alpha)},{_fmt(beta)}")
    _write_lines(out / "region_boundary.csv", lines)

    lines = ["alpha,beta,region"]
    for alpha in np.linspace(-3.0, 0.0, args.grid_n):
        for beta in np.linspace(0.0, 6.0, args.grid_n):
            region = region_classify(StabilityParams(float(alpha), float(beta)))
            lines.append(f"{_fmt(float(alpha))},{_fmt(float(beta))},{region}")
    _write_lines(out / "region_grid.csv", lines)
    return EXIT_OK


def _cmd_classify(args) -> int:
    cfg = _load_config(args)
    spec = cfg.build_ovf()
    point = branch_eval(spec, cfg.h, cfg.branch if cfg.branch else 1)
    if point is None:
        raise DomainError(f"branch {cfg.branch} undefined at h={cfg.h}")
    verdict = classify_wavefront(spec, point)
    record = _verdict_record(point, verdict)
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.out:
        _write_json(Path(args.out) / "classify.json", record)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    spec = cfg.build_ovf()
    speed = cfg.resolve_speed(spec)
    seg = cfg.build_segment(speed)
    traj = integrate(spec, cfg.h, seg, cfg.t_end, cfg.tol_rel, cfg.tol_abs)
    out = Path(args.out)
    trajectory_to_csv(traj, out / "series.csv", cfg.dt)
    _write_json(out / "series_meta.json", trajectory_metadata(traj))
    return EXIT_OK


def _cmd_perturb(args) -> int:
    cfg = _load_config(args)
    run_perturbed(cfg, args.out)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    if args.n_times < 1:
        raise ParameterError(f"n_times must be at least 1, got {args.n_times}")
    cfg = _load_config(args)
    spec = cfg.build_ovf()
    speed = cfg.resolve_speed(spec)
    seg = cfg.build_segment(speed)
    traj = integrate(spec, cfg.h, seg, cfg.t_end, cfg.tol_rel, cfg.tol_abs)
    t_max = args.t_max if args.t_max is not None else cfg.h
    times = np.linspace(0.0, t_max, args.n_times)
    run = wavefront_to_lattice(traj, cfg.h, (args.j_min, args.j_max), times)
    lattice_to_csv(run, Path(args.out) / "lattice.csv", headways=args.headways)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    run_sweep(cfg, args.h_min, args.h_max, args.samples, args.out)
    return EXIT_OK


def _cmd_example(args) -> int:
    run_example(
        f"example{args.number}", args.out,
        t_end=args.t_end, tol_rel=args.tol_rel, tol_abs=args.tol_abs, dt=args.dt,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovwave",
        description="Constant-speed wavefronts of a delayed car-following model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--v-max", dest="v_max", type=float, default=None)
        p.add_argument("--d-s", dest="d_s", type=float, default=None)
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--branch", type=int, default=None)
        p.add_argument("--c", type=float, default=None)
        p.add_argument("--t-end", dest="t_end", type=float, default=None)
        p.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
        p.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
        p.add_argument("--dt", type=float, default=None)

    p = sub.add_parser("branches", help="tabulate both branch speeds over h")
    common(p)
    p.add_argument("--h-min", type=float, required=True)
    p.add_argument("--h-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_branches)

    p = sub.add_parser("stability-region", help="sample the region boundary and a grid")
    p.add_argument("--out", default=".")
    p.add_argument("--boundary-n", type=int, default=200)
    p.add_argument("--grid-n", type=int, default=61)
    p.set_defaults(func=_cmd_stability_region)

    p = sub.add_parser("classify", help="stability verdict for one branch point")
    common(p)
    p.set_defaults(func=_cmd_classify, out=None)  # prints; writes only with --out

    p = sub.add_parser("simulate", help="integrate a configured run and export series")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("perturb", help="integrate a perturbed history, report deviations")
    common(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("lattice", help="car trajectories from a wavefront profile")
    common(p)
    p.add_argument("--j-min", type=int, default=-5)
    p.add_argument("--j-max", type=int, default=0)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--n-times", type=int, default=200)
    p.add_argument("--headways", action="store_true")
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("sweep", help="branch classification across an h-range")
    common(p)
    p.add_argument("--h-min", type=float, required=True)
    p.add_argument("--h-max", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("example", help="reproduce a reference experiment")
    p.add_argument("number", choices=["1", "2", "3"])
    p.add_argument("--out", default=".")
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
    p.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, DomainError) as exc:
        print(f"ovwave: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"ovwave: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConsistencyError as exc:
        print(f"ovwave: consistency error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except OvwaveError as exc:  # pragma: no cover - safety net
        print(f"ovwave: error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    raise SystemExit(main())
