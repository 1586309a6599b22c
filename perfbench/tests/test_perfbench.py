"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench/tests``.

One round of each workload, as the benchmark runs it, must pass its checks,
and each check must reject a corrupted result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ovwave as ow  # noqa: E402
import reference as ref  # noqa: E402
import workloads as W  # noqa: E402


def _round(name, tmp_path, seed=0):
    workload = W.WORKLOADS[name]
    ctx = W.Context(tmp_path)
    done = []
    for inp in workload.make_inputs(seed):
        try:
            done.append((inp, workload.op(inp, ctx)))
        except ow.ConsistencyError:
            # the branch-2 family whose root lies outside the default
            # rectangle fails until that fault is mended
            assert inp is W.StabilitySweep.FAILING
    return workload, ctx, done


@pytest.fixture(scope="module")
def delay(tmp_path_factory):
    return _round("delay_limit_cycle", tmp_path_factory.mktemp("delay"))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _round("stability_sweep", tmp_path_factory.mktemp("sweep"))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    return _round("chain_export", tmp_path_factory.mktemp("chain"))


@pytest.mark.parametrize("fixture", ["delay", "sweep", "chain"])
def test_round_passes_its_checks(fixture, request):
    workload, ctx, done = request.getfixturevalue(fixture)
    assert done
    for inp, res in done:
        assert workload.check(inp, res, ctx) == []


class _ScaledVelocity:
    """A trajectory whose z' is off by a relative ``factor``."""

    def __init__(self, traj, factor):
        self._traj, self._factor = traj, factor
        self.domain = traj.domain

    def __call__(self, t):
        w = self._traj(t).copy()
        w[..., 1] *= self._factor
        return w


def test_shifted_amplitude_is_rejected(delay):
    workload, ctx, done = delay
    inp, res = done[0]
    bad = dict(res, traj=_ScaledVelocity(res["traj"], 1.0 + 1e-4))
    bad["w"] = bad["traj"](res["t"])
    problems = workload.check(inp, bad, W.Context(ctx.out))
    assert any(p.startswith("amplitude") for p in problems)


def test_reference_cycle_matches_stored_figure():
    speed = ref.branch1_speed(2.841, 0.0, 1.5)
    amp, period, change = ref.limit_cycle(2.841, 0.0, 1.5, speed)
    assert abs(amp - 0.303837) < 5e-7
    assert abs(period - 3.900264) < 5e-7
    assert change < 1e-7


def _with_row(res, i, **changes):
    rows = list(res["rows"])
    h, speeds, p1, p2, v1, v2 = rows[i]
    row = dict(h=h, speeds=speeds, p1=p1, p2=p2, v1=v1, v2=v2)
    row.update(changes)
    rows[i] = tuple(row.values())
    return dict(res, rows=rows)


def test_dropped_root_pair_is_rejected(sweep):
    workload, ctx, done = sweep
    inp, res = done[0]
    for i, row in enumerate(res["rows"]):
        roots = row[4].rightmost_roots
        pair = [z for z in roots if z.imag != 0.0][:2]
        if pair:
            kept = tuple(z for z in roots if z not in pair)
            bad = _with_row(res, i, v1=dataclasses.replace(row[4], rightmost_roots=kept))
            problems = workload.check(inp, bad, ctx)
            assert any("winding count" in p for p in problems)
            return
    pytest.fail("no complex root pair in the sweep")


def test_wrong_verdict_is_rejected(sweep):
    workload, ctx, done = sweep
    inp, res = done[0]
    v1 = res["rows"][0][4]
    flipped = "unstable" if v1.classification == "stable" else "stable"
    bad = _with_row(res, 0, v1=dataclasses.replace(v1, classification=flipped))
    problems = workload.check(inp, bad, ctx)
    assert any("branch 1 classified" in p for p in problems)


def _change_digit(path: Path):
    """Change the fourth digit of the last number in the first data row."""
    text = path.read_text()
    end = text.index("\n", text.index("\n") + 1)
    i = text.rindex(",", 0, end) + 5
    assert text[i].isdigit()
    digit = "1" if text[i] != "1" else "2"
    path.write_text(text[:i] + digit + text[i + 1:])


@pytest.mark.parametrize("which", [4, 5])
def test_changed_csv_digit_is_rejected(chain, which, tmp_path):
    workload, ctx, done = chain
    inp, res = done[0]
    waves = list(res["waves"])
    wave = list(waves[0])
    copy = tmp_path / wave[which].name
    shutil.copy(wave[which], copy)
    _change_digit(copy)
    wave[which] = copy
    waves[0] = tuple(wave)
    problems = workload.check(inp, dict(res, waves=waves), ctx)
    assert any(copy.name in p for p in problems)


def _run(tmp_root: Path, *args):
    return subprocess.run(
        [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "chain_export", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "stability_sweep", "--seed", "3",
                "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # only the out-of-rectangle family, one op in nine, may fail
    assert result["failed"] * 9 in (0, result["attempted"])
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in spec[section]} == \
        {k: v["unit"] for k, v in metrics.items()}


def test_tracer_reports_absent_layers_and_restores(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + [
        ("solver.gone", "ovwave.solver", "no_such_function"),
        ("solver.gone_method", "ovwave.solver", "Trajectory.no_such_method"),
    ])
    original = ow.integrate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ow.integrate is not original
        assert ow.solver.integrate is ow.integrate
    finally:
        tracer.uninstall()
    assert tracer.absent == ["solver.gone", "solver.gone_method"]
    assert ow.integrate is original and ow.solver.integrate is original
    metrics = tracer.metrics([])
    assert metrics["solver.gone.ms"] == (0.0, "ms")
