import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ovwave as ow
from conftest import gaussian_ovf, quadratic_speeds


def test_two_speeds_match_quadratic_oracle(vq100):
    points = ow.find_constant_speeds(vq100, 0.2)
    oracle = quadratic_speeds(100.0, 0.2)
    assert len(points) == 2
    assert points[0].c == pytest.approx(oracle[0], abs=1e-10)
    assert points[1].c == pytest.approx(oracle[1], abs=1e-10)
    assert points[0].branch == ow.BRANCH1
    assert points[1].branch == ow.BRANCH2


def test_no_speeds_below_onset(vq100):
    assert ow.find_constant_speeds(vq100, 0.01) == []


def test_tangency_reported_once_as_degenerate(vq100):
    points = ow.find_constant_speeds(vq100, 0.02)
    assert len(points) == 1
    assert points[0].branch == ow.DEGENERATE
    assert points[0].c == pytest.approx(1.0, abs=1e-8)


def test_residual_invariant_on_returned_points(vq100, vq2841, vq_half):
    for spec, hs in ((vq100, (0.03, 0.2, 1.0)), (vq2841, (0.8, 1.5)), (vq_half, (3.0, 8.0))):
        for h in hs:
            for p in ow.find_constant_speeds(spec, h):
                assert abs(p.residual(spec)) <= 1e-10 * max(1.0, p.c)
                assert p.h == pytest.approx(p.c / spec.eval(p.c), rel=1e-10)


def test_never_more_than_two_speeds(vq100, vq_half):
    rng = np.random.default_rng(7)
    for _ in range(40):
        h = float(10.0 ** rng.uniform(-2.5, 2.0))
        for spec in (vq100, vq_half):
            assert len(ow.find_constant_speeds(spec, h)) <= 2


def test_slope_ordering_property(vq100, vq_half):
    # a speed with slope product above one is always accompanied by a larger one
    rng = np.random.default_rng(11)
    for _ in range(30):
        h = float(10.0 ** rng.uniform(-2.0, 1.5))
        for spec in (vq100, vq_half):
            points = ow.find_constant_speeds(spec, h)
            for p in points:
                if p.slope_product > 1.0 + 1e-8:
                    assert any(q.c > p.c for q in points)


@pytest.mark.parametrize("v_max", [100.0, 2.841, 1.0])
def test_critical_pair_symbolic_oracle(v_max):
    # for the rational family with zero safety distance the slope ratio is
    # c*V'/V = 2/(1+c^2), so the tangency sits at c = 1 with h = 2/v_max
    spec = ow.make_vq(v_max, 0.0)
    cp = ow.critical_pair(spec)
    assert cp.c_star == pytest.approx(1.0, abs=1e-8)
    assert cp.h_star == pytest.approx(2.0 / v_max, abs=1e-8)
    assert cp.h_hat == math.inf


def test_critical_pair_residuals_with_safety_distance(vq_half):
    cp = ow.critical_pair(vq_half)
    assert abs(cp.h_star * vq_half.eval(cp.c_star) - cp.c_star) <= 1e-10
    assert abs(cp.h_star * vq_half.deriv(cp.c_star) - 1.0) <= 1e-8
    assert cp.h_hat == math.inf  # positive safety distance always diverges


def _bando():
    """Bando's ``V = 2 (tanh(s - 2) + tanh 2)`` for ``s >= 0``: ``V'(0) > 0``."""
    t2 = math.tanh(2.0)

    def gap(s):
        return np.maximum(np.asarray(s, dtype=float), 0.0)

    def beyond(s, values):
        return np.where(np.asarray(s) < 0.0, 0.0, values)

    return ow.OvfSpec(
        v_max=2.0 * (1.0 + t2), d_s=0.0, b=2.0,
        eval=lambda s: 2.0 * (np.tanh(gap(s) - 2.0) + t2),
        deriv=lambda s: beyond(s, 2.0 / np.cosh(gap(s) - 2.0) ** 2),
        deriv2=lambda s: beyond(s, -4.0 * np.tanh(gap(s) - 2.0) / np.cosh(gap(s) - 2.0) ** 2),
    )


def test_h_hat_is_the_limit_of_c_over_v(vq100, vq_half):
    # c/V(c) -> 1/V'(0) = cosh(2)^2 / 2 as c -> 0+, where branch 1 ends
    spec = _bando()
    h_hat = ow.critical_pair(spec).h_hat
    exact = math.cosh(2.0) ** 2 / 2.0
    assert abs(h_hat - exact) <= 2.0 * math.ulp(exact)
    assert ow.branch_eval(spec, h_hat, 1) is None
    point = ow.branch_eval(spec, 0.99 * h_hat, 1)
    assert point.branch == ow.BRANCH1 and 0.0 < point.c < ow.critical_pair(spec).c_star
    # V and V' both vanish at d_s in these families, so branch 1 never ends
    for other in (vq100, vq_half, gaussian_ovf(1.0, 0.0), gaussian_ovf(2.841, 0.5)):
        assert ow.critical_pair(other).h_hat == math.inf


def test_branch_eval_reference_points(vq100, vq2841):
    p1 = ow.branch_eval(vq100, 0.2, 1)
    p2 = ow.branch_eval(vq100, 0.2, 2)
    assert p1.c == pytest.approx(0.0501, abs=1e-4)
    assert p2.c == pytest.approx(19.9499, abs=1e-4)
    assert p1.slope_product > 1.0 > p2.slope_product
    p3 = ow.branch_eval(vq2841, 1.5, 1)
    assert p3.c == pytest.approx(0.2492, abs=1e-4)


def test_branch_eval_matches_root_list(vq100, vq_half):
    # both entries against the cubic oracle, to 1e-12 relative
    for spec, hs in ((vq100, (0.05, 0.2, 0.7)), (vq_half, (2.9, 3.0, 8.0))):
        for h in hs:
            oracle = quadratic_speeds(spec.v_max, h, spec.d_s)
            assert len(oracle) == 2
            roots = ow.find_constant_speeds(spec, h)
            assert [p.c for p in roots] == pytest.approx(oracle, rel=1e-12)
            for which, c in ((1, oracle[0]), (2, oracle[1])):
                assert ow.branch_eval(spec, h, which).c == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("v_max,d_s", [(100.0, 0.0), (2.841, 0.0), (1.0, 0.5)])
def test_tangency_counts_and_labels(v_max, d_s):
    # h = h_star (1 -+ 10^-k): below, no speed until the residual at c_star
    # is within 1e-10; above, two branch points until they merge into one
    spec = ow.make_vq(v_max, d_s)
    h_star = ow.critical_pair(spec).h_star
    cases = [(h_star, [ow.DEGENERATE]), (math.nextafter(h_star, math.inf), [ow.DEGENERATE])]
    for k in range(2, 15):
        cases.append((h_star * (1.0 - 10.0**-k), [] if k <= 10 else [ow.DEGENERATE]))
        cases.append((h_star * (1.0 + 10.0**-k),
                      [ow.BRANCH1, ow.BRANCH2] if k <= 12 else [ow.DEGENERATE]))
    for h, labels in cases:
        points = ow.find_constant_speeds(spec, h)
        assert [p.branch for p in points] == labels, h / h_star - 1.0
        for p in points:
            assert abs(h * spec.eval(p.c) - p.c) <= 1e-10 * max(1.0, p.c)


def test_branch_eval_domain_error_at_or_below_onset(vq100):
    cp = ow.critical_pair(vq100)
    with pytest.raises(ow.DomainError):
        ow.branch_eval(vq100, cp.h_star, 1)
    with pytest.raises(ow.DomainError):
        ow.branch_eval(vq100, 0.5 * cp.h_star, 2)
    for h in (math.nan, math.inf):
        for which in (1, 2):
            with pytest.raises(ow.ParameterError, match="h must be finite"):
                ow.branch_eval(vq100, h, which)


def test_branch_eval_makes_one_deriv_call(vq2841):
    # the only slope evaluated is the slope product of the returned point
    calls = []

    def deriv(s):
        calls.append(s)
        return vq2841.deriv(s)

    spec = dataclasses.replace(vq2841, deriv=deriv)
    ow.critical_pair(spec)  # cached per spec, so not counted below
    for h in (0.8, 1.0, 1.4, 3.0):
        for which in (1, 2):
            calls.clear()
            ow.branch_eval(spec, h, which)
            assert len(calls) == 1, (h, which)


@pytest.mark.parametrize("v_max,d_s", [(1.0, 0.0), (2.841, 0.5), (100.0, 2.0)])
def test_gaussian_family_up_to_thirty_times_onset(v_max, d_s):
    # 1 - exp(-u^2) rounds to exactly 1 for u above about 6, so c/V(c) - h
    # at the end h v_max of the branch-2 bracket can round below zero
    spec = gaussian_ovf(v_max, d_s)
    cp = ow.critical_pair(spec)
    assert abs(cp.h_star * float(spec.deriv(cp.c_star)) - 1.0) <= 1e-8
    for h in np.geomspace(cp.h_star * (1.0 + 1e-6), 30.0 * cp.h_star, 30):
        for which in (1, 2):
            p = ow.branch_eval(spec, float(h), which)
            assert abs(h * float(spec.eval(p.c)) - p.c) <= 1e-10 * max(1.0, p.c)


def test_understated_v_max_raises_bracket_error():
    # the rational family with v_max = 1 reaches 0.99 at c = 10; told its
    # supremum is 0.25, branch 2's closed-form bracket misses the speed
    spec = dataclasses.replace(ow.make_vq(1.0, 0.0), v_max=0.25)
    assert ow.critical_pair(spec).c_star == 1.0
    for h in (2.5, 4.0, 20.0):
        with pytest.raises(ow.BracketError):
            ow.branch_eval(spec, h, 2)


def test_branch_ordering_and_monotonicity(vq100):
    cp = ow.critical_pair(vq100)
    hs = np.linspace(cp.h_star + 0.005, 1.0, 25)
    c1s = [ow.branch_eval(vq100, float(h), 1).c for h in hs]
    c2s = [ow.branch_eval(vq100, float(h), 2).c for h in hs]
    for a, b in zip(c1s, c2s):
        assert a < cp.c_star < b
    assert all(x > y for x, y in zip(c1s, c1s[1:]))  # branch 1 decreasing
    assert all(x < y for x, y in zip(c2s, c2s[1:]))  # branch 2 increasing


def test_branch_derivative_sign_and_finite_difference(vq100):
    dh = 1e-5
    for h, which, sign in ((0.2, 1, -1.0), (0.2, 2, 1.0)):
        p = ow.branch_eval(vq100, h, which)
        d = ow.branch_derivative(vq100, p)
        assert math.copysign(1.0, d) == sign
        fd = (
            ow.branch_eval(vq100, h + dh, which).c
            - ow.branch_eval(vq100, h - dh, which).c
        ) / (2.0 * dh)
        assert d == pytest.approx(fd, rel=1e-4)


def test_branch_derivative_singular_at_tangency(vq100):
    point = ow.WavefrontPoint(h=0.02, c=1.0, slope_product=1.0, branch=ow.DEGENERATE)
    with pytest.raises(ow.SingularityError):
        ow.branch_derivative(vq100, point)


def test_wavefront_point_rejects_unknown_branch():
    for branch in ("bogus", 1, None):
        with pytest.raises(ow.ParameterError, match="unknown branch"):
            ow.WavefrontPoint(h=0.2, c=1.0, slope_product=2.0, branch=branch)


def test_find_constant_speeds_validates_h(vq100):
    with pytest.raises(ow.ParameterError):
        ow.find_constant_speeds(vq100, 0.0)


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(
    v_max=st.floats(0.5, 100.0),
    d_s=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    h_factor=st.floats(0.2, 30.0),
)
def test_speeds_and_branches_property(v_max, d_s, h_factor):
    spec = ow.make_vq(v_max, d_s)
    h_star = ow.critical_pair(spec).h_star
    h = h_factor * h_star
    points = ow.find_constant_speeds(spec, h)
    for p in points:
        assert abs(h * spec.eval(p.c) - p.c) <= 1e-10 * max(1.0, p.c)
        assert p.slope_product == h * spec.deriv(p.c)
        if p.slope_product > 1.0 + 1e-8:
            assert p.branch == ow.BRANCH1
        elif p.slope_product < 1.0 - 1e-8:
            assert p.branch == ow.BRANCH2
        else:
            assert p.branch == ow.DEGENERATE
    # every speed satisfies h = c/V(c) >= h_star
    if h_factor < 1.0 - 1e-6:
        assert points == []
    if h_factor <= 1.0 + 1e-6:
        return
    assert [p.branch for p in points] == [ow.BRANCH1, ow.BRANCH2]
    # both entries against the cubic oracle, to 1e-12 relative
    oracle = quadratic_speeds(v_max, h, d_s)
    assert [p.c for p in points] == pytest.approx(oracle, rel=1e-12)
    for which, c in ((1, oracle[0]), (2, oracle[1])):
        q = ow.branch_eval(spec, h, which)
        assert q.branch == points[which - 1].branch
        assert q.c == pytest.approx(c, rel=1e-12)
