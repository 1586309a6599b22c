import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ovwave as ow
import ovwave.cli as cli
from ovwave.cli import main
from ovwave.config import ExperimentConfig


CONFIG_TEXT = """\
[ovf]
kind = vq
v_max = 100.0
d_s = 0.0

[run]
h = 0.2
branch = 1
t_end = 5.0

[tolerances]
rel = 1e-9
abs = 1e-12

[output]
dt = 0.5

[perturbation]
speed_offset = -0.005
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG_TEXT)
    return path


def test_config_parsing(config_file):
    cfg = ExperimentConfig.from_file(config_file)
    assert cfg.v_max == 100.0
    assert cfg.branch == 1
    assert cfg.t_end == 5.0
    assert cfg.dt == 0.5
    assert cfg.speed_offset == -0.005


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nhh = 0.2\n")
    with pytest.raises(ow.ConfigError):
        ExperimentConfig.from_file(path)


def test_config_rejects_bad_values(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[tolerances]\nrel = 1e-15\n")
    with pytest.raises(ow.ConfigError):
        ExperimentConfig.from_file(path)



@pytest.mark.parametrize("bad", [{"t_end": -1.0}, {"branch": None}, {"tol_rel": 0.0},
                                 {"d_s": math.nan}, {"c": -math.inf}, {"offset": math.inf}])
def test_config_validates_on_construction(bad):
    with pytest.raises(ow.ConfigError):
        ExperimentConfig(**bad)


@pytest.mark.parametrize("samples_text", [
    None,  # no such file
    "s,z\n-1,0\n0,0\n",  # a header row
    "-1,0\n0,zero\n",  # a non-numeric cell
    "-1,0\n-0.5,nan\n0,0\n",  # a non-finite position
    "-1,0,1\n-0.5,0,inf\n0,0,1\n",  # a non-finite velocity
    "-1,0\n0,0\ninf,1\n",  # a non-finite abscissa
])
def test_bad_samples_file_exits_config(tmp_path, samples_text):
    samples = tmp_path / "history.csv"
    if samples_text is not None:
        samples.write_text(samples_text)
    config = tmp_path / "run.ini"
    config.write_text(f"[run]\nsegment = sampled\nsamples = {samples}\nt_end = 1.0\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert list(out.iterdir()) == []

def test_example1_bundle(tmp_path):
    record = cli.run_example("example1", tmp_path, t_end=10.0)
    assert record["verdict"]["classification"] == "stable"
    assert record["verdict"]["region"] == "inside_S"
    assert record["verdict"]["beta"] == pytest.approx(0.39899, abs=1e-4)
    # the margin after the history window moves with the run
    stats = record["solver"]["stats"]
    assert stats["gronwall_ok"] and stats["gronwall_log_margin"] > 0.0
    assert 0.0 < stats["dt_min"] <= stats["dt_max"] <= 1.0
    data = json.loads((tmp_path / "example1_verdict.json").read_text())
    assert data["verdict"]["classification"] == "stable"
    series = (tmp_path / "example1_series.csv").read_text().splitlines()
    assert series[0] == "t,z,dz"


def test_example2_bundle(tmp_path):
    record = cli.run_example("example2", tmp_path, t_end=10.0)
    assert record["verdict"]["classification"] == "unstable"
    assert record["verdict"]["c"] == pytest.approx(19.9499, abs=1e-4)


def test_example3_bundle(tmp_path):
    record = cli.run_example("example3", tmp_path, t_end=10.0)
    assert record["verdict"]["classification"] == "unstable"
    assert record["verdict"]["alpha"] == -1.5
    assert record["verdict"]["beta"] == pytest.approx(2.8245, abs=1e-3)
    assert record["notes"]  # the slope-vs-value form discrepancy is recorded


def test_example_cli_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["example", "1", "--t-end", "5", "--dt", "0.25"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "example1_series.csv").read_bytes() == (
        out2 / "example1_series.csv"
    ).read_bytes()


def test_perturb_zero_offset_stays_on_wavefront(tmp_path):
    cfg = ExperimentConfig().with_overrides(t_end=10.0, speed_offset=0.0)
    record = cli.run_perturbed(cfg, tmp_path)
    assert record["terminal_deviation"] < 1e-6


def test_perturb_reference_attraction(tmp_path):
    cfg = ExperimentConfig().with_overrides(t_end=40.0, speed_offset=-0.005)
    record = cli.run_perturbed(cfg, tmp_path)
    assert record["terminal_deviation"] < 1e-3
    assert record["sup_deviation"] <= 0.005 + 1e-6


def test_branches_csv(tmp_path):
    rc = main([
        "branches", "--v-max", "100", "--d-s", "0",
        "--h-min", "0.015", "--h-max", "0.3", "--samples", "10",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "branches.csv").read_text().splitlines()
    assert lines[0].startswith("# c_star=1 h_star=0.02")
    assert lines[1] == "h,c1,c2,hVp_c1,hVp_c2"
    below = lines[2].split(",")
    assert below[1] == "" and below[2] == ""  # h below onset has no branches
    spec = ow.make_vq(100.0, 0.0)
    expected = []
    for h in np.linspace(0.015, 0.3, 10).tolist():
        p1, p2 = (ow.branch_eval(spec, h, b) for b in (1, 2)) if h > 0.02 else (None, None)
        row = [h, p1 and p1.c, p2 and p2.c, p1 and p1.slope_product, p2 and p2.slope_product]
        expected.append(",".join("" if x is None else f"{x:.17g}" for x in row))
    assert lines[2:] == expected


def test_classify_cli_json(tmp_path, capsys):
    rc = main([
        "classify", "--v-max", "100", "--d-s", "0", "--h", "0.2",
        "--branch", "2", "--out", str(tmp_path),
    ])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["classification"] == "unstable"
    assert record["branch"] == "branch2"
    assert json.loads((tmp_path / "classify.json").read_text()) == record


def test_classify_without_out_writes_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["classify", "--v-max", "100", "--d-s", "0", "--h", "0.2", "--branch", "1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "stable"
    assert list(tmp_path.iterdir()) == []


def test_simulate_with_config(tmp_path, config_file):
    rc = main(["simulate", "--config", str(config_file), "--out", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "series_meta.json").read_text())
    assert meta["stats"]["gronwall_ok"] is True
    lines = (tmp_path / "series.csv").read_text().splitlines()
    assert len(lines) == 1 + 13  # [-1, 5] at dt = 0.5


def test_lattice_cli(tmp_path):
    rc = main([
        "lattice", "--v-max", "100", "--d-s", "0", "--h", "0.2", "--branch", "1",
        "--t-end", "10", "--j-min", "-5", "--j-max", "0", "--n-times", "5",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    lines = (tmp_path / "lattice.csv").read_text().splitlines()
    assert lines[0] == "t,j,x,v"
    assert len(lines) == 1 + 5 * 6


def test_sweep_reports_single_crossing(tmp_path):
    rc = main([
        "sweep", "--v-max", "2.841", "--d-s", "0",
        "--h-min", "0.72", "--h-max", "1.5", "--samples", "30",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["n_region_flips"] == 1
    assert summary["h_H"] == pytest.approx(1.4192372969, abs=1e-6)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1] == "h,c1,c2,alpha,beta,region,verdict"
    verdicts = [r.split(",")[6] for r in rows[2:]]
    assert "stable" in verdicts and "unstable" in verdicts


def test_sweep_all_inside_for_low_beta_branch(tmp_path):
    rc = main([
        "sweep", "--v-max", "100", "--d-s", "0",
        "--h-min", "0.021", "--h-max", "0.03", "--samples", "10",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    assert all(r.split(",")[5] == "inside_S" for r in rows)
    summary = json.loads((tmp_path / "sweep.json").read_text())
    assert summary["n_region_flips"] == 0 and summary["h_H"] is None


def test_sweep_invalid_range_exits_config(tmp_path):
    rc = main([
        "sweep", "--v-max", "100", "--d-s", "0",
        "--h-min", "0.3", "--h-max", "0.2", "--samples", "5",
        "--out", str(tmp_path),
    ])
    assert rc == 2


@pytest.mark.parametrize("args", [
    ["branches", "--v-max", "100", "--h-min", "0.1", "--h-max", "0.3", "--samples", "-1"],
    ["branches", "--v-max", "100", "--h-min", "2", "--h-max", "1"],
    ["stability-region", "--grid-n", "-1"],
    ["lattice", "--v-max", "100", "--h", "0.2", "--branch", "1", "--n-times", "-3"],
    ["simulate", "--dt", "inf", "--t-end", "2"],
    ["simulate", "--v-max", "inf"],
    ["simulate", "--t-end", "inf"],
    ["branches", "--h-min", "0.1", "--h-max", "inf"],
    ["sweep", "--v-max", "2.841", "--h-min", "0.8", "--h-max", "inf"],
    ["lattice", "--v-max", "100", "--t-max", "inf"],
])
def test_bad_counts_and_ranges_exit_config(tmp_path, args):
    assert main(args + ["--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_sweep_below_onset_exits_config(tmp_path, capsys):
    rc = main([
        "sweep", "--v-max", "2.841", "--d-s", "0",
        "--h-min", "0.1", "--h-max", "0.5", "--samples", "5",
        "--out", str(tmp_path),
    ])
    assert rc == 2


def test_missing_config_file_exits_config(tmp_path):
    rc = main([
        "simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path),
    ])
    assert rc == 2


def test_stability_region_takes_no_config(tmp_path):
    # the region depends on (alpha, beta) only; there is no model to configure
    with pytest.raises(SystemExit) as exc:
        main(["stability-region", "--config", str(tmp_path / "missing.ini"),
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_exit_code_mapping(monkeypatch, tmp_path):
    monkeypatch.setattr(
        cli, "run_example", lambda *a, **k: (_ for _ in ()).throw(ow.NumericalError("x"))
    )
    assert main(["example", "1", "--out", str(tmp_path)]) == 3
    monkeypatch.setattr(
        cli, "run_example", lambda *a, **k: (_ for _ in ()).throw(ow.ConsistencyError("x"))
    )
    assert main(["example", "1", "--out", str(tmp_path)]) == 4


def test_measure_oscillation_on_settled_run(vq2841):
    c = ow.branch_eval(vq2841, 1.5, 1).c
    traj = ow.integrate(vq2841, 1.5, ow.Segment.quasi_stationary(c - 1e-4), 120.0,
                        1e-6, 1e-9)
    osc = cli.measure_oscillation(traj, vq2841, 1.5, c)
    assert osc["late_max_deviation"] > 10.0 * osc["early_max_deviation"]
    assert osc["n_amplitudes"] > 5


def _flag(name, strategy):
    """An optional ``--name=value`` flag, or nothing."""
    return st.one_of(st.just([]), strategy.map(lambda v: [f"{name}={v!r}"]))


def _spoiler(*bad):
    """Nothing, or one of the given invalid flags."""
    return st.one_of(st.just([]), st.sampled_from(bad).map(lambda flag: [flag]))


# mostly valid values, so that runs get past validation; a trailing invalid
# flag overrides its valid twin in some examples
_MODEL_FLAGS = st.tuples(
    _flag("--v-max", st.floats(0.5, 150.0)),
    _flag("--d-s", st.floats(0.0, 2.0)),
    _flag("--h", st.floats(0.05, 3.0)),
    _flag("--branch", st.sampled_from([1, 2])),
    _flag("--c", st.floats(0.01, 50.0)),
    _flag("--t-end", st.floats(0.5, 6.0)),
    _spoiler("--v-max=-1", "--d-s=-0.1", "--h=0", "--branch=3", "--t-end=0", "--c=-2"),
).map(lambda parts: sum(parts, []))

_H_RANGE = st.tuples(
    st.floats(0.01, 3.0), st.floats(0.05, 2.0), st.integers(2, 8),
    _spoiler("--samples=1", "--samples=-1", "--h-max=0.001"),
).map(lambda r: [f"--h-min={r[0]!r}", f"--h-max={r[0] + r[1]!r}", f"--samples={r[2]}"]
      + r[3])

_CARS = st.tuples(
    st.integers(-8, 0), st.integers(0, 4), st.integers(1, 12), st.booleans(),
    _spoiler("--n-times=0", "--j-max=-20", "--j-min=3"),
).map(lambda r: [f"--j-min={r[0]}", f"--j-max={r[0] + r[1]}", f"--n-times={r[2]}"]
      + (["--headways"] if r[3] else []) + r[4])

_ARGV = st.one_of(
    st.tuples(st.sampled_from(["simulate", "perturb", "classify"]), _MODEL_FLAGS)
    .map(lambda a: [a[0]] + a[1]),
    st.tuples(_MODEL_FLAGS, _CARS).map(lambda a: ["lattice"] + a[0] + a[1]),
    st.tuples(st.sampled_from(["branches", "sweep"]), _MODEL_FLAGS, _H_RANGE)
    .map(lambda a: [a[0]] + a[1] + a[2]),
)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(argv=_ARGV)
def test_main_exit_code_contract(argv):
    # every run either works or fails with a documented exit code (argparse
    # itself exits with 2 on a value it cannot parse)
    with tempfile.TemporaryDirectory() as out:
        try:
            rc = main(argv + ["--out", out])
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 2, 3, 4)
