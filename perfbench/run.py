"""Benchmark of ovwave: one workload per process, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload delay_limit_cycle --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the ovwave under ``src/`` is imported,
never an installed copy.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from spans around the calls into each layer.  See
README.md for the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import os

# one thread: set before numpy is imported, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 9


def _import_library():
    """Put the tree's ``src`` first on the path and import ovwave from it."""
    src = ROOT / "src"
    if not (src / "ovwave" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ovwave sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import ovwave

    if Path(ovwave.__file__).resolve().parent != (src / "ovwave").resolve():
        sys.exit(f"perfbench: imported ovwave from {ovwave.__file__}, not from {src}")
    import workloads

    return workloads


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(args) -> float:
    """Time from process start until the first op could begin.

    The probe is a fresh interpreter that imports ovwave, numpy and scipy
    and generates the inputs, then reports the monotonic clock, which is
    shared between processes.
    """
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def run(args, workloads):
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    if args.setup_probe:
        print(time.monotonic_ns())
        return None

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    out_root = BENCH_DIR / "_out"
    out_dir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(out_dir, tracer)
    times, ok_idx, problems, reported, setup = [], [], [], set(), []
    n_probes = 0 if args.trace else SETUP_PROBES
    attempted = failed = 0
    timed = 0.0
    gc.collect()
    gc.freeze()  # the collections between ops then skip everything imported
    try:
        while timed < args.seconds or attempted == 0:
            for inp in inputs:
                # the set-up probes are spread over the timed phase, between
                # ops, since the machine's speed drifts over tens of seconds
                while len(setup) < n_probes and len(setup) * args.seconds <= n_probes * timed:
                    setup.append(probe_setup(args))
                gc.collect()
                if tracer:
                    tracer.begin_op()
                t0 = time.perf_counter()
                try:
                    res = workload.op(inp, ctx)
                except Exception as exc:  # a failed op is counted, not fatal
                    res = None
                    err = exc
                dt = time.perf_counter() - t0
                if tracer:
                    tracer.end_op(dt)
                attempted += 1
                timed += dt
                times.append(dt)
                if res is None:
                    failed += 1
                    if repr(err) not in reported:
                        reported.add(repr(err))
                        print(f"op {inp['k']} failed: {err!r}", file=sys.stderr)
                        if not isinstance(err, workloads.ow.OvwaveError):
                            traceback.print_exception(err, file=sys.stderr)
                    continue
                ok_idx.append(len(times) - 1)
                try:
                    problems += workload.check(inp, res, ctx)
                except Exception as exc:  # an output the checks cannot read is wrong
                    traceback.print_exception(exc, file=sys.stderr)
                    problems.append(f"op {inp['k']}: check raised {exc!r}")
        while len(setup) < n_probes:
            setup.append(probe_setup(args))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    ok_times = [times[i] for i in ok_idx] or [0.0]
    if tracer:
        metrics = tracer.metrics(ok_idx)
        for name in tracer.absent:
            print(f"layer absent: {name}", file=sys.stderr)
        tracer.write(out_root / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_p50_ms": (1e3 * statistics.median(ok_times), "ms"),
            "ops_per_s": (len(ok_idx) / timed, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    workloads = _import_library()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    result = run(args, workloads)
    if result is not None:
        print(json.dumps(result))


if __name__ == "__main__":
    main()
