"""Experiment harness: reference examples, sweeps, and data export.

CSV cells carry 17 significant digits and JSON numbers the shortest exact
repr, so identical configurations produce byte-identical artifacts.  Plotting is
left to external tools; series files use a two-column time/value convention
per quantity (t, z, dz).

Exit codes: 0 success, 2 configuration or domain error, 3 numerical
failure, 4 consistency error (classifier and root finder disagree).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .errors import (
    MAX_SAMPLES,
    ConfigError,
    ConsistencyError,
    DomainError,
    NumericalError,
    OvwaveError,
    ParameterError,
    check_finite,
)
from .lattice import lattice_to_csv, wavefront_to_lattice
from .solver import (
    _acceleration,
    _column,
    _write_csv,
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


def _integrate_config(cfg: ExperimentConfig):
    """The run pipeline: config -> OVF -> speed -> history -> trajectory.

    Returns ``(spec, speed, traj)``; ``speed`` is None when the config names
    neither a branch nor an explicit c.
    """
    spec = cfg.build_ovf()
    speed = cfg.resolve_speed(spec)
    traj = integrate(spec, cfg.h, cfg.build_segment(speed), cfg.t_end,
                     cfg.tol_rel, cfg.tol_abs)
    return spec, speed, traj


def _write_series(traj, path: Path, dt: float) -> dict:
    """Write the series CSV; return the sidecar entries that describe it."""
    trajectory_to_csv(traj, path, dt)
    return {"solver": trajectory_metadata(traj), "series_csv": path.name}


def run_example(name: str, out_dir, **overrides) -> dict:
    """Reproduce one of the three reference experiments.

    Integrates the quasi-stationary history of the selected branch point
    (at the example's speed offset), classifies it, and writes the time
    series plus a JSON verdict bundle.  ``overrides`` are config fields
    that replace the example's; None values are ignored.
    """
    if name not in EXAMPLES:
        raise ParameterError(f"unknown example {name!r}; use example1..example3")
    cfg = ExperimentConfig().with_overrides(**EXAMPLES[name]).with_overrides(**overrides)
    spec, _, traj = _integrate_config(cfg)
    point = branch_eval(spec, cfg.h, cfg.branch)
    verdict = classify_wavefront(spec, point)

    out_dir = Path(out_dir)
    record = {
        "example": name,
        "config": cfg.as_dict(),
        "verdict": _verdict_record(point, verdict),
        **_write_series(traj, out_dir / f"{name}_series.csv", cfg.dt),
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
    if cfg.branch is None and cfg.c is None:
        raise ConfigError("perturbed runs need a branch or an explicit c")
    spec, speed, traj = _integrate_config(cfg)

    t = np.arange(0.0, cfg.t_end, cfg.dt)
    dev = np.abs(traj(t)[:, 1] + speed)
    terminal = float(np.abs(traj(cfg.t_end)[1] + speed))
    osc = measure_oscillation(traj, spec, cfg.h, speed)

    out_dir = Path(out_dir)
    record = {
        "config": cfg.as_dict(),
        "speed": speed,
        "sup_deviation": float(np.max(dev)),
        "terminal_deviation": terminal,
        "oscillation": osc,
        **_write_series(traj, out_dir / "perturbed_series.csv", cfg.dt),
    }
    _write_json(out_dir / "perturbed_report.json", record)
    return record


def _check_count(name: str, count: int, cells: int = 1) -> None:
    """A count from the command line sizes arrays: at least 1, ``cells`` times it <= 1e7."""
    if not (count >= 1 and count * cells <= MAX_SAMPLES):
        raise ParameterError(f"{name}={count}: need {name} >= 1 and {cells} x {name} <= 1e7")


def _branch_table(cfg: ExperimentConfig, h_lo: float, h_hi: float, samples: int,
                  above_onset: bool = False):
    """Both branch points on an evenly spaced h grid of 2 to ``MAX_SAMPLES`` points.

    Returns ``(spec, cp, header, rows)``: the OVF, its critical pair, the
    ``# c_star=...`` first line of the CSV, and one ``(h, p1, p2)`` row per
    grid point (``None`` where a branch is undefined).  With
    ``above_onset`` the whole range must lie above ``h_star``.
    """
    spec = cfg.build_ovf()
    cp = critical_pair(spec)
    if not (-math.inf < h_lo < h_hi < math.inf) or not 2 <= samples <= MAX_SAMPLES:
        raise ParameterError(f"invalid h range ({h_lo}, {h_hi}, {samples} samples)")
    if above_onset and h_lo <= cp.h_star:
        raise DomainError(
            f"sweep range must lie above h_star={cp.h_star}, got h_lo={h_lo}"
        )
    rows = [(h, branch_eval(spec, h, 1), branch_eval(spec, h, 2)) if h > cp.h_star
            else (h, None, None) for h in np.linspace(h_lo, h_hi, samples).tolist()]
    header = "# c_star={} h_star={} h_hat={}".format(*_column([cp.c_star, cp.h_star, cp.h_hat]))
    return spec, cp, header, rows


def run_sweep(cfg: ExperimentConfig, h_lo: float, h_hi: float, samples: int,
              out_dir) -> dict:
    """Classify branch points across an h-range and locate boundary crossings."""
    spec, cp, header, rows = _branch_table(cfg, h_lo, h_hi, samples, above_onset=True)
    verdicts = [classify_wavefront(spec, p1) if p1 else None for _, p1, _ in rows]
    regions = [v.region if v else None for v in verdicts]
    flips = [(a[0], b[0]) for a, b, ra, rb in zip(rows, rows[1:], regions, regions[1:])
             if {ra, rb} == {"inside_S", "outside_S"}]
    h_H = omega = None
    if flips:
        h_H, omega = hopf_crossing(spec, flips[0][0], flips[0][1])

    numbers = zip(*[(h, p1 and p1.c, p2 and p2.c, v and v.params.alpha, v and v.params.beta)
                    for (h, p1, p2), v in zip(rows, verdicts)])
    labels = zip(*[(v.region, v.classification) if v else ("", "") for v in verdicts])
    out_dir = Path(out_dir)
    _write_csv(out_dir / "sweep.csv", f"{header}\nh,c1,c2,alpha,beta,region,verdict",
               [*map(_column, numbers), *labels])
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

# the config fields a subcommand may take as flags, with their types
_CONFIG_FLAGS = {"v_max": float, "d_s": float, "h": float, "branch": int, "c": float,
                 "t_end": float, "tol_rel": float, "tol_abs": float, "dt": float}


def _overrides(args) -> dict:
    """The config fields among the parsed flags; None where a flag was not given."""
    return {name: value for name, value in vars(args).items() if name in _CONFIG_FLAGS}


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    return cfg.with_overrides(**_overrides(args))


def _cmd_branches(args) -> None:
    _, _, header, rows = _branch_table(_load_config(args), args.h_min, args.h_max,
                                       args.samples)
    numbers = zip(*[(h, p1 and p1.c, p2 and p2.c, p1 and p1.slope_product,
                     p2 and p2.slope_product) for h, p1, p2 in rows])
    _write_csv(Path(args.out) / "branches.csv", f"{header}\nh,c1,c2,hVp_c1,hVp_c2",
               map(_column, numbers))


def _cmd_stability_region(args) -> None:
    _check_count("grid_n", args.grid_n, args.grid_n)
    _check_count("boundary_n", args.boundary_n, 3)  # three curves
    out = Path(args.out)
    curves, *numbers = zip(*region_boundary_samples(args.boundary_n))
    _write_csv(out / "region_boundary.csv", "curve,param,alpha,beta",
               [curves, *map(_column, numbers)])

    alphas = np.repeat(np.linspace(-3.0, 0.0, args.grid_n), args.grid_n)
    betas = np.tile(np.linspace(0.0, 6.0, args.grid_n), args.grid_n)
    regions = [region_classify(StabilityParams(a, b))
               for a, b in zip(alphas.tolist(), betas.tolist())]
    _write_csv(out / "region_grid.csv", "alpha,beta,region",
               [_column(alphas), _column(betas), regions])


def _cmd_classify(args) -> None:
    cfg = _load_config(args)
    spec = cfg.build_ovf()
    point = branch_eval(spec, cfg.h, cfg.branch)
    if point is None:
        raise DomainError(f"branch {cfg.branch} undefined at h={cfg.h}")
    verdict = classify_wavefront(spec, point)
    record = _verdict_record(point, verdict)
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.out:
        _write_json(Path(args.out) / "classify.json", record)


def _cmd_simulate(args) -> None:
    cfg = _load_config(args)
    _, _, traj = _integrate_config(cfg)
    sidecar = _write_series(traj, Path(args.out) / "series.csv", cfg.dt)
    _write_json(Path(args.out) / "series_meta.json", sidecar["solver"])


def _cmd_perturb(args) -> None:
    run_perturbed(_load_config(args), args.out)


def _cmd_lattice(args) -> None:
    _check_count("n_times", args.n_times, args.j_max - args.j_min + 2)  # the cars and leader
    cfg = _load_config(args)
    _, _, traj = _integrate_config(cfg)
    t_max = check_finite("t_max", args.t_max if args.t_max is not None else cfg.h)
    times = np.linspace(0.0, t_max, args.n_times)
    run = wavefront_to_lattice(traj, cfg.h, (args.j_min, args.j_max), times)
    lattice_to_csv(run, Path(args.out) / "lattice.csv", headways=args.headways)


def _cmd_sweep(args) -> None:
    run_sweep(_load_config(args), args.h_min, args.h_max, args.samples, args.out)


def _cmd_example(args) -> None:
    run_example(f"example{args.number}", args.out, **_overrides(args))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ovwave`` parser, built once per process; shared, so never add to it.

    Each subcommand takes only the flags its handler reads, unabbreviated.
    """
    parser = argparse.ArgumentParser(
        prog="ovwave", allow_abbrev=False,
        description="Constant-speed wavefronts of a delayed car-following model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(*names, config=True, out="."):
        def add(p):
            if config:
                p.add_argument("--config", help="INI config file")
            p.add_argument("--out", default=out, help="output directory")
            for name in names:
                p.add_argument("--" + name.replace("_", "-"), type=_CONFIG_FLAGS[name])
        return add

    def h_range(p):
        p.add_argument("--h-min", type=float, required=True)
        p.add_argument("--h-max", type=float, required=True)
        p.add_argument("--samples", type=int, default=100)

    def region(p):
        p.add_argument("--boundary-n", type=int, default=200)
        p.add_argument("--grid-n", type=int, default=61)

    def cars(p):
        p.add_argument("--j-min", type=int, default=-5)
        p.add_argument("--j-max", type=int, default=0)
        p.add_argument("--t-max", type=float, default=None)
        p.add_argument("--n-times", type=int, default=200)
        p.add_argument("--headways", action="store_true")

    for name, help_text, func, *groups in (
        ("branches", "tabulate both branch speeds over h", _cmd_branches,
         flags("v_max", "d_s"), h_range),
        ("stability-region", "sample the region boundary and a grid",
         _cmd_stability_region, flags(config=False), region),
        # classify prints its verdict and writes a file only with --out
        ("classify", "stability verdict for one branch point", _cmd_classify,
         flags("v_max", "d_s", "h", "branch", out=None)),
        ("simulate", "integrate a configured run and export series", _cmd_simulate,
         flags(*_CONFIG_FLAGS)),
        ("perturb", "integrate a perturbed history, report deviations", _cmd_perturb,
         flags(*_CONFIG_FLAGS)),
        ("lattice", "car trajectories from a wavefront profile", _cmd_lattice,
         flags(*[name for name in _CONFIG_FLAGS if name != "dt"]), cars),  # no series
        ("sweep", "branch classification across an h-range", _cmd_sweep,
         flags("v_max", "d_s"), h_range),
        ("example", "reproduce a reference experiment", _cmd_example,
         lambda p: p.add_argument("number", choices=["1", "2", "3"]),
         flags("t_end", "tol_rel", "tol_abs", "dt", config=False)),
    ):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for group in groups:
            group(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return EXIT_OK
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


if __name__ == "__main__":
    entrypoint()
