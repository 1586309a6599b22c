import dataclasses
import math

import numpy as np
import pytest

import ovwave as ow
from conftest import gaussian_ovf
from ovwave.ovf import AxiomViolation


def test_value_at_safety_distance_is_zero():
    spec = ow.make_vq(1.0, 0.5)
    assert spec.eval(0.5) == 0.0
    assert spec.eval(0.2) == 0.0
    assert spec.eval(-3.0) == 0.0


def test_value_one_unit_beyond_safety_distance_is_half_max():
    spec = ow.make_vq(1.0, 0.5)
    assert spec.eval(1.5) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("v_max,d_s", [(1.0, 0.0), (100.0, 0.0), (2.841, 0.0),
                                       (7.3, 0.25), (0.4, 2.0)])
def test_half_max_identity_for_any_parameters(v_max, d_s):
    spec = ow.make_vq(v_max, d_s)
    assert spec.eval(d_s + 1.0) == pytest.approx(v_max / 2.0, rel=1e-14)


def test_inflection_point_location(vq100):
    # oracle: the analytic curvature of the rational family is proportional
    # to (1 - 3u^2), so it vanishes at u = 1/sqrt(3)
    assert vq100.b == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
    assert vq100.b == pytest.approx(0.57735, abs=1e-5)
    # confirm by sign scan of the reported curvature on a log-spaced grid
    grid = np.geomspace(1e-3, 1e3, 400)
    signs = np.sign(vq100.deriv2(grid))
    changes = np.nonzero(np.diff(signs) != 0)[0]
    assert len(changes) == 1
    assert grid[changes[0]] < vq100.b < grid[changes[0] + 1]


def test_deriv2_right_limit_at_safety_distance():
    spec = ow.make_vq(3.0, 1.0)
    assert spec.deriv2(1.0) == pytest.approx(2.0 * 3.0, rel=1e-12)
    assert spec.deriv2(0.999) == 0.0


def test_slope_peaks_at_inflection(vq100):
    grid = np.geomspace(1e-3, 1e3, 2000)
    assert vq100.deriv(vq100.b) >= np.max(vq100.deriv(grid))


def test_deriv_matches_finite_differences(vq100):
    for s in np.geomspace(0.01, 50.0, 30):
        step = max(1e-6, 1e-6 * s)
        fd = (vq100.eval(s + step) - vq100.eval(s - step)) / (2.0 * step)
        assert fd == pytest.approx(vq100.deriv(s), rel=1e-6)


def test_scalar_and_array_evaluation_agree(vq100):
    s = np.linspace(-1.0, 5.0, 23)
    arr = vq100.eval(s)
    assert arr.shape == s.shape
    for si, vi in zip(s, arr):
        assert vq100.eval(float(si)) == vi


@pytest.mark.parametrize("v_max,d_s", [(1.0, 0.0), (100.0, 1.0), (2.841, 0.37)])
def test_scalar_path_matches_array_path_bit_for_bit(v_max, d_s):
    spec = ow.make_vq(v_max, d_s)
    headways = [d_s - 2.0, d_s - 1e-12, d_s, d_s + 1e-12, d_s + 0.25, d_s + 1.0,
                d_s + 1.0 / 3.0, d_s + math.pi / 4.0, d_s + math.e, d_s + 7.897971988133104,
                d_s + 1e4, 0, 1, 3]
    for fn in (spec.eval, spec.deriv, spec.deriv2):
        ref = fn(np.array(headways, dtype=float))
        for s, want in zip(headways, ref):
            inputs = [float(s), np.float64(s), np.array(float(s))]
            if float(s).is_integer():
                inputs.append(int(s))
            for x in inputs:
                got = fn(x)
                assert np.float64(got).tobytes() == want.tobytes(), (fn, x, got, want)


def test_make_vq_rejects_bad_parameters():
    with pytest.raises(ow.ParameterError):
        ow.make_vq(0.0, 0.0)
    with pytest.raises(ow.ParameterError):
        ow.make_vq(-1.0, 0.0)
    with pytest.raises(ow.ParameterError):
        ow.make_vq(1.0, -0.5)
    for v_max, d_s in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ow.ParameterError):
            ow.make_vq(v_max, d_s)
    zero = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    for fields in ({"v_max": math.inf}, {"d_s": math.nan}, {"b": math.inf}):
        with pytest.raises(ow.ParameterError):
            ow.OvfSpec(**{"v_max": 1.0, "d_s": 0.0, "b": 1.0, **fields},
                       eval=zero, deriv=zero, deriv2=zero)


def test_axiom_check_passes_for_reference_family():
    spec = ow.make_vq(1.0, 0.5)
    assert ow.ovf_axiom_check(spec, np.linspace(0.0, 10.0, 100)) == []


def test_axiom_check_flags_constant_function():
    spec = ow.OvfSpec(
        v_max=1.0, d_s=0.0, b=1.0,
        eval=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        deriv=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
        deriv2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    report = ow.ovf_axiom_check(spec, np.linspace(0.0, 10.0, 50))
    assert any(v.axiom == "OVF3" for v in report)


def test_axiom_check_flags_decreasing_function():
    spec = ow.OvfSpec(
        v_max=5.0, d_s=0.0, b=1.0,
        eval=lambda s: 5.0 - 0.1 * np.asarray(s, dtype=float),
        deriv=lambda s: np.full_like(np.asarray(s, dtype=float), -0.1),
        deriv2=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
    )
    report = ow.ovf_axiom_check(spec, np.linspace(0.0, 10.0, 50))
    assert any(v.axiom == "OVF1" for v in report)


def test_axiom_check_flags_wrong_derivative(vq100):
    spec = ow.OvfSpec(
        v_max=vq100.v_max, d_s=0.0, b=vq100.b,
        eval=vq100.eval,
        deriv=lambda s: 1.02 * np.asarray(vq100.deriv(s)),
        deriv2=vq100.deriv2,
    )
    report = ow.ovf_axiom_check(spec, np.linspace(0.0, 10.0, 50))
    assert any(v.axiom == "OVF4" and "finite difference" in v.detail for v in report)


@pytest.mark.parametrize("v_max,d_s", [(1.0, 0.0), (2.841, 0.5), (100.0, 2.0)])
def test_axiom_check_smoothness_probe_has_a_rounding_floor(v_max, d_s):
    # where the slope falls below the rounding error of the difference of
    # eval (u above about 4), a correct derivative must not be flagged
    grid = np.linspace(0.0, 20.0, 400)
    assert ow.ovf_axiom_check(gaussian_ovf(v_max, d_s), grid) == []
    report = ow.ovf_axiom_check(gaussian_ovf(v_max, d_s, slope_scale=1.02), grid)
    assert any(v.axiom == "OVF4" and "finite difference" in v.detail for v in report)


def test_axiom_check_rejects_bad_grid(vq100):
    with pytest.raises(ow.ParameterError):
        ow.ovf_axiom_check(vq100, [1.0])
    with pytest.raises(ow.ParameterError):
        ow.ovf_axiom_check(vq100, [2.0, 1.0])
    for grid in ([0.0, 1.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(ow.ParameterError, match="grid must be finite"):
            ow.ovf_axiom_check(vq100, grid)


@pytest.mark.parametrize("slope_scale", [1.0, 1.02])
def test_axiom_check_scalar_only_spec_matches_vectorised(vq100, slope_scale):
    # an OVF that takes only scalars is evaluated point by point on the grid
    spec = dataclasses.replace(vq100, deriv=lambda s: slope_scale * vq100.deriv(s))
    scalar_only = dataclasses.replace(spec, eval=lambda s: spec.eval(float(s)),
                                      deriv=lambda s: spec.deriv(float(s)))
    grid = np.linspace(0.0, 10.0, 50)
    report = ow.ovf_axiom_check(spec, grid)
    assert bool(report) == (slope_scale != 1.0)
    assert ow.ovf_axiom_check(scalar_only, grid) == report


def test_violation_record_fields():
    v = AxiomViolation("OVF1", 2.0, "example")
    assert v.axiom == "OVF1" and v.location == 2.0
