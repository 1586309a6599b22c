"""Spans around the calls into ovwave's public functions, for the traced run.

The traced run replaces each public function named in ``LAYERS`` by a
wrapper, in every ovwave module that holds it, so that calls made inside the
library are timed as well as the benchmark's own.  Each span records its
name, start, end and parent; a layer's self time is its span's time minus
the time of its child spans.  Optimal-velocity calls are far too many to
keep one span each: ``counting_spec`` wraps the callables of an ``OvfSpec``
and adds their time and number to the enclosing span instead.

A public function that no longer exists is reported as absent and its
metrics read 0; the run goes on.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

# (metric prefix, module, attribute); a dotted attribute names a method
LAYERS = [
    ("solver.integrate", "ovwave.solver", "integrate"),
    ("solver.gronwall_report", "ovwave.solver", "gronwall_report"),
    ("solver.dense_eval", "ovwave.solver", "Trajectory.__call__"),
    ("solver.trajectory_to_csv", "ovwave.solver", "trajectory_to_csv"),
    ("waves.find_constant_speeds", "ovwave.waves", "find_constant_speeds"),
    ("waves.branch_eval", "ovwave.waves", "branch_eval"),
    ("waves.critical_pair", "ovwave.waves", "critical_pair"),
    ("stability.classify_wavefront", "ovwave.stability", "classify_wavefront"),
    ("stability.region_classify", "ovwave.stability", "region_classify"),
    ("stability.rightmost_roots", "ovwave.stability", "rightmost_roots"),
    ("stability.hopf_crossing", "ovwave.stability", "hopf_crossing"),
    ("lattice.wavefront_to_lattice", "ovwave.lattice", "wavefront_to_lattice"),
    ("lattice.simulate_followers", "ovwave.lattice", "simulate_followers"),
    ("lattice.ansatz_residual", "ovwave.lattice", "ansatz_residual"),
    ("lattice.lattice_to_csv", "ovwave.lattice", "lattice_to_csv"),
    ("cli.main", "ovwave.cli", "main"),
]
OVF_EVAL = "ovf.eval"

# per-op counts, reported as their mean over the run's whole rounds
COUNTS = [
    "solver.steps", "solver.rejected", "solver.rhs_evals",
    "stability.roots_found", "solver.csv_bytes", "lattice.csv_bytes",
]
CALLS = ["ovf.eval", "waves.branch_eval", "stability.rightmost_roots"]


class Tracer:
    """Span stack and per-op aggregates; inactive outside timed ops."""

    def __init__(self):
        self.active = False
        self.stack = []  # frames: [span id, name, child seconds]
        self.spans = []  # (id, parent id, op index, name, start, end)
        self.ops = []  # per op: {name: [self seconds, calls]} and counts
        self.op_times = []
        self.absent = []
        self._restore = []
        self._cur = None
        self._next_id = 0

    # -- installation -----------------------------------------------------

    def install(self):
        for name, modname, attr in LAYERS:
            mod = sys.modules.get(modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, leaf, wrapper)
                continue
            for mname, m in list(sys.modules.items()):
                if m is None or not (mname == "ovwave" or mname.startswith("ovwave.")):
                    continue
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def counting_spec(self, spec):
        """The same ``OvfSpec`` with ``eval`` timed and counted."""
        fn = spec.eval
        tracer = self

        def counted(s):
            if not tracer.active:
                return fn(s)
            t0 = time.perf_counter()
            out = fn(s)
            dt = time.perf_counter() - t0
            tracer.stack[-1][2] += dt
            agg = tracer._cur["layers"].setdefault(OVF_EVAL, [0.0, 0])
            agg[0] += dt
            agg[1] += 1
            return out

        return type(spec)(v_max=spec.v_max, d_s=spec.d_s, b=spec.b, eval=counted,
                          deriv=spec.deriv, deriv2=spec.deriv2)

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1]
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                parent[2] += t1 - t0
                agg = tracer._cur["layers"].setdefault(name, [0.0, 0])
                agg[0] += (t1 - t0) - frame[2]
                agg[1] += 1
                tracer.spans.append((frame[0], parent[0], len(tracer.ops), name, t0, t1))
            tracer._count(name, args, out)
            return out

        return wrapper

    def _count(self, name, args, out):
        counts = self._cur["counts"]
        if name == "solver.integrate":
            stats = getattr(out, "stats", None)
            for key in ("steps", "rejected", "rhs_evals"):
                counts["solver." + key] = counts.get("solver." + key, 0) + getattr(stats, key, 0)
        elif name == "stability.rightmost_roots":
            counts["stability.roots_found"] = counts.get("stability.roots_found", 0) + len(out)
        elif name in ("solver.trajectory_to_csv", "lattice.lattice_to_csv"):
            key = name.split(".")[0] + ".csv_bytes"
            counts[key] = counts.get(key, 0) + os.path.getsize(args[1])

    def begin_op(self):
        self._cur = {"layers": {}, "counts": {}}
        self.stack = [[self._next_id, "op", 0.0]]
        self._next_id += 1
        self.active = True

    def end_op(self, seconds):
        self.active = False
        self.ops.append(self._cur)
        self.op_times.append(seconds)
        self._cur = None

    # -- results ----------------------------------------------------------

    def metrics(self, successful):
        """Per-layer metrics over the successful ops (indices)."""
        ops = [self.ops[i] for i in successful] or [{"layers": {}, "counts": {}}]
        n = len(ops)
        out = {}
        for name in [layer[0] for layer in LAYERS] + [OVF_EVAL]:
            selfs = [op["layers"].get(name, [0.0, 0])[0] for op in ops]
            out[name + ".ms"] = (1e3 * statistics.median(selfs), "ms")
        for name in CALLS:
            out[name + ".calls"] = (sum(op["layers"].get(name, [0.0, 0])[1] for op in ops) / n,
                                    "count")
        totals = {k: sum(op["counts"].get(k, 0) for op in ops) for k in COUNTS}
        for key in COUNTS:
            unit = "B" if key.endswith("bytes") else "count"
            out[key] = (totals[key] / n, unit)
        tried = totals["solver.steps"] + totals["solver.rejected"]
        out["solver.accept_ratio"] = (totals["solver.steps"] / tried if tried else 0.0, "ratio")
        integ = sum(op["layers"].get("solver.integrate", [0.0, 0])[0] for op in ops)
        out["solver.rhs_evals_per_s"] = (totals["solver.rhs_evals"] / integ if integ else 0.0,
                                         "1/s")
        times = [self.op_times[i] for i in successful] or [0.0]
        out["trace.op_p50_ms"] = (1e3 * statistics.median(times), "ms")
        return out

    def write(self, path, extra):
        """Spans and per-op aggregates as one JSON document."""
        doc = dict(extra)
        doc["absent"] = self.absent
        doc["spans"] = [
            {"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
             "start": s[4], "end": s[5]} for s in self.spans
        ]
        doc["ops"] = [
            {"seconds": t, "layers": op["layers"], "counts": op["counts"]}
            for t, op in zip(self.op_times, self.ops)
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
