import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ovwave as ow
from ovwave import stability
from ovwave.cli import main
from ovwave.stability import c1_curve
from conftest import boundary_distance

P = ow.StabilityParams


# -- characteristic function ---------------------------------------------------


def test_zero_is_always_a_root():
    for alpha, beta in ((-0.2, 0.39899), (-1.5, 2.8245), (0.0, 0.0), (-3.0, 6.0)):
        assert ow.char_eval(P(alpha, beta), 0.0) == 0.0


def test_beta_zero_reduces_to_quadratic():
    assert ow.char_eval(P(-0.2, 0.0), 0.2) == 0.0


def test_real_root_against_bisection_oracle():
    params = P(-0.2, 0.0010026)
    # oracle: plain bisection of the characteristic function on (0, 0.2)
    f = lambda x: ow.char_eval(params, x)
    a, b = 1e-8, 0.2
    fa = f(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        if (f(m) > 0) == (fa > 0):
            a = m
        else:
            b = m
    root = 0.5 * (a + b)
    assert root == pytest.approx(0.1990908978536169, abs=1e-12)
    assert abs(ow.char_eval(params, root)) < 1e-6
    assert abs(ow.char_eval(params, 0.19897)) > 1e-6  # nearby values are not roots


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(25):
        params = P(-float(rng.uniform(0, 3)), float(rng.uniform(0, 6)))
        lam = complex(rng.normal(), rng.normal())
        a = ow.char_eval(params, lam.conjugate())
        b = ow.char_eval(params, lam).conjugate()
        assert cmath.isclose(a, b, rel_tol=1e-13, abs_tol=1e-13)


def test_params_from_branch_points(vq100, vq2841):
    pt = ow.branch_eval(vq100, 0.2, 1)
    params = ow.stability_params(vq100, pt)
    assert params.alpha == -0.2
    assert params.beta == pytest.approx(0.39899, abs=1e-4)
    pt3 = ow.branch_eval(vq2841, 1.5, 1)
    params3 = ow.stability_params(vq2841, pt3)
    assert params3.alpha == -1.5
    assert params3.beta == pytest.approx(2.8245, abs=1e-3)


def test_params_zero_slope_gives_zero_beta(vq_half):
    # any speed at or below the safety distance has V'(c) = 0
    point = ow.WavefrontPoint(h=1.0, c=0.2, slope_product=0.0, branch=ow.BRANCH1)
    params = ow.stability_params(vq_half, point)
    assert params == P(-1.0, 0.0)


def test_params_validate_signs():
    with pytest.raises(ow.DomainError):
        P(0.1, 1.0)
    with pytest.raises(ow.DomainError):
        P(-1.0, -0.1)
    for alpha, beta in ((math.nan, 1.0), (-1.0, math.inf), (-math.inf, 1.0), (-1.0, math.nan)):
        with pytest.raises(ow.DomainError):
            P(alpha, beta)


# -- boundary curve -------------------------------------------------------------


def test_boundary_curve_endpoints():
    assert ow.c1_boundary_beta(0.0) == pytest.approx(math.pi**2 / 2.0, abs=1e-9)
    assert ow.c1_boundary_beta(-2.0) == pytest.approx(2.0, abs=1e-9)
    assert ow.c1_boundary_beta(-2.1) is None
    assert ow.c1_boundary_beta(0.1) is None
    assert ow.c1_boundary_beta(-math.inf) is None
    assert ow.c1_boundary_beta(math.inf) is None
    with pytest.raises(ow.ParameterError, match="alpha") as err:
        ow.c1_boundary_beta(math.nan)
    assert err.type is ow.ParameterError  # not the root finder's BracketError


def test_boundary_curve_at_the_ends_of_its_parameter():
    # nu^2 underflows for nu below about 1e-154, where the curve is at (-2, 2)
    for nu in (1e-200, 1e-310, 5e-324):
        assert c1_curve(nu) == pytest.approx((-2.0, 2.0), abs=1e-12)
    alpha, beta = c1_curve(math.nextafter(math.pi, 0.0))
    assert alpha == pytest.approx(0.0, abs=1e-12)
    assert beta == pytest.approx(math.pi**2 / 2.0, rel=1e-12)


def test_boundary_curve_just_left_of_the_beta_axis():
    # alpha in (-1.6e-9, -1e-11) lies beyond the root finder's bracket end at
    # nu = pi - 1e-9; there beta = pi^2/2 + 2 alpha to double precision
    for alpha in (-1.5e-9, -1e-9, -1e-10, -1e-11):
        beta = ow.c1_boundary_beta(alpha)
        assert beta == pytest.approx(math.pi**2 / 2.0 + 2.0 * alpha, abs=1e-15)
    assert ow.region_classify(P(-1e-9, 5.0)) == ow.OUTSIDE_S
    assert ow.region_classify(P(-1.5e-9, 3.0)) == ow.INSIDE_S


def test_boundary_curve_self_consistency():
    # recover the curve parameter from beta alone and check the alpha
    # coordinate; also compare against the literal parametrization where the
    # tangent form is well conditioned
    for alpha in (-1.9, -1.5, -1.0, -0.5, -0.1):
        beta = ow.c1_boundary_beta(alpha)
        lo, hi = 1e-6, math.pi - 1e-6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if c1_curve(mid)[1] < beta:
                lo = mid
            else:
                hi = mid
        nu = 0.5 * (lo + hi)
        a_check, b_check = c1_curve(nu)
        assert abs(a_check - alpha) <= 1e-10
        assert abs(b_check - beta) <= 1e-10
        if nu < math.pi - 0.3:
            assert -nu / math.tan(nu / 2.0) == pytest.approx(alpha, abs=1e-10)
            lit = nu**2 / (math.tan(nu / 2.0) ** 2 * (1.0 + math.cos(nu)))
            assert lit == pytest.approx(beta, abs=1e-10)


def _label_from_inverted_curve(alpha, beta):
    # the region rule with the boundary beta from c1_boundary_beta's inversion
    tol, beta_c1 = 1e-9, ow.c1_boundary_beta(alpha)
    if abs(beta - beta_c1) <= tol:
        return ow.BOUNDARY_C1
    if abs(alpha) <= tol:
        return ow.BOUNDARY_OTHER if beta <= math.pi**2 / 2.0 + tol else ow.OUTSIDE_S
    if abs(beta + alpha) <= tol:
        return ow.BOUNDARY_OTHER
    return ow.INSIDE_S if -2.0 < alpha < 0.0 and -alpha < beta < beta_c1 else ow.OUTSIDE_S


def test_region_side_of_c1_in_closed_form():
    # on C1, 2 beta = alpha^2 + nu^2, which region_classify reads without
    # inverting the curve; its labels match those from the inversion on both
    # sides of the tolerance band, along the curve and at both corners
    nus = [1e-4, 1e-2, *np.linspace(0.05, math.pi - 0.05, 60).tolist(), math.pi - 1e-2,
           math.pi - 1e-4, math.pi - 1e-6]
    for nu in nus:
        alpha, beta = c1_curve(nu)
        assert 2.0 * beta == pytest.approx(alpha * alpha + nu * nu, rel=1e-14)
    for alpha in [-2.0, -1e-10, 0.0, *(c1_curve(nu)[0] for nu in nus)]:
        beta_c1 = ow.c1_boundary_beta(alpha)
        assert ow.region_classify(P(alpha, beta_c1)) == ow.BOUNDARY_C1
        for offset in (-1e-6, -2e-9, 2e-9, 1e-6):
            label = ow.region_classify(P(alpha, beta_c1 + offset))
            assert label == _label_from_inverted_curve(alpha, beta_c1 + offset), (alpha, offset)
            if -1.9 < alpha < -1e-6:  # away from the corners
                assert label == (ow.INSIDE_S if offset < 0.0 else ow.OUTSIDE_S)


def test_boundary_points_carry_imaginary_pair():
    alpha = -1.5
    beta = ow.c1_boundary_beta(alpha)
    lo, hi = 1e-6, math.pi - 1e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if c1_curve(mid)[1] < beta:
            lo = mid
        else:
            hi = mid
    omega = 0.5 * (lo + hi)
    assert abs(ow.char_eval(P(alpha, beta), 1j * omega)) < 1e-8


# -- region classification -------------------------------------------------------


def test_reference_example_regions():
    assert ow.region_classify(P(-0.2, 0.39899)) == ow.INSIDE_S
    assert ow.region_classify(P(-0.2, 0.0010026)) == ow.OUTSIDE_S
    assert ow.region_classify(P(-1.5, 2.8245)) == ow.OUTSIDE_S


def test_boundary_labels():
    assert ow.region_classify(P(-1.0, 1.0)) == ow.BOUNDARY_OTHER  # diagonal edge
    assert ow.region_classify(P(0.0, 3.0)) == ow.BOUNDARY_OTHER  # beta axis
    assert ow.region_classify(P(0.0, 6.0)) == ow.OUTSIDE_S  # above the axis segment
    assert ow.region_classify(P(-2.0, 2.0)) == ow.BOUNDARY_C1  # shared corner
    beta = ow.c1_boundary_beta(-0.5)
    assert ow.region_classify(P(-0.5, beta)) == ow.BOUNDARY_C1
    assert ow.region_classify(P(-2.5, 3.0)) == ow.OUTSIDE_S


# -- rightmost roots --------------------------------------------------------------


def test_roots_for_unstable_reference_point():
    params = P(-0.2, 0.0010026)
    roots = ow.rightmost_roots(params, sigma=-0.05)
    assert len(roots) == 2
    assert any(z == 0 for z in roots)
    real_pos = [z for z in roots if z.real > 0]
    assert len(real_pos) == 1
    assert real_pos[0].imag == 0.0
    assert real_pos[0].real == pytest.approx(0.1990908978536169, abs=1e-10)
    assert abs(ow.char_eval(params, real_pos[0])) <= 1e-10


def test_no_unstable_roots_for_stable_reference_point():
    assert ow.rightmost_roots(P(-0.2, 0.39899), sigma=1e-6) == []


def test_zero_root_reported_in_default_window():
    roots = ow.rightmost_roots(P(-0.2, 0.39899))
    assert any(z == 0 for z in roots)
    assert all(z.real <= 1e-8 for z in roots)


def test_boundary_point_has_conjugate_imaginary_pair():
    alpha = -1.5
    params = P(alpha, ow.c1_boundary_beta(alpha))
    roots = ow.rightmost_roots(params, sigma=-0.5)
    pair = sorted((z for z in roots if abs(z.imag) > 1e-6), key=lambda z: z.imag)
    assert len(pair) == 2
    assert pair[0] == pair[1].conjugate()
    assert abs(pair[1].real) <= 1e-8
    assert abs(ow.char_eval(params, pair[1])) <= 1e-10


def test_rightmost_roots_validates_rectangle():
    # left of Re = -2 the collocation no longer resolves every root
    with pytest.raises(ow.ParameterError):
        ow.rightmost_roots(P(-0.2, 0.4), sigma=-2.5)
    with pytest.raises(ow.ParameterError):
        ow.rightmost_roots(P(-0.2, 0.4), sigma=math.nan)


def test_count_on_a_line_through_a_root_fails():
    with pytest.raises(ow.RootFinderError):
        stability._half_plane_count(-0.2, 0.0010026, 0.1990908978536169)


def test_count_proves_a_close_pair_next_to_the_line():
    # D has a double root at 1.454301 + 7.725252i for these parameters; 1e-3
    # more beta splits it into two roots 0.023 apart; along a line 2e-3 left
    # of the nearer one, uniform grids of up to 8192 points do not settle the
    # phase count, and the bound on |D'| needs steps down to 3e-6 (w / 2**22)
    alpha, beta = -4.908602646533848, 66.70311092949919 + 1e-3
    roots = ow.rightmost_roots(P(alpha, beta), sigma=0.0)
    line = min(z.real for z in roots if abs(z - (1.454301 + 7.725252j)) < 0.05) - 2e-3
    assert sum(z.real > line for z in roots) == 4
    assert stability._half_plane_count(alpha, beta, line) == 4


@settings(deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.0, 100.0), s=st.floats(-2.0, 1.0))
@example(beta=100.0, s=0.0)
@example(beta=100.0, s=-5e-4)
def test_slope_bound_holds_along_the_line(beta, s):
    # D'(z) = 1 - beta * (integral of u exp(-z u) over u in [0, 1]) does not
    # depend on alpha; 48-point Gauss-Legendre sums it to rounding for
    # |Im z| <= 40, past the top w < 35 of every count with alpha in [-8, 0]
    u, weights = np.polynomial.legendre.leggauss(48)
    u, weights = 0.5 * (u + 1.0), 0.5 * weights
    z = s + 1j * np.linspace(0.0, 40.0, 2001)
    slope = 1.0 - beta * (np.exp(-np.outer(z, u)) * u) @ weights
    assert np.max(np.abs(slope)) <= stability._slope_bound(beta, s) * (1.0 + 1e-12)


@pytest.mark.parametrize("shift", [0.25, 0.2509091021463831, 0.5])
def test_counting_line_is_placed_away_from_a_root(shift):
    # the window [sigma - 0.5, sigma] holds the real root 0.199 (shift 0.25
    # puts it at the window's middle, 0.5 at its left end; sigma = 0.45
    # between them); a line through it could not be counted on
    sigma = 0.1990908978536169 + shift
    assert ow.rightmost_roots(P(-0.2, 0.0010026), sigma=sigma) == []


def test_classifier_and_roots_agree_on_small_grid():
    for alpha in np.linspace(-2.8, -0.2, 5):
        for beta in np.linspace(0.2, 5.8, 5):
            if boundary_distance(float(alpha), float(beta)) <= 1e-3:
                continue
            params = P(float(alpha), float(beta))
            region = ow.region_classify(params)
            roots = ow.rightmost_roots(params)
            has_unstable = any(z.real > 1e-6 for z in roots)
            assert (region == ow.OUTSIDE_S) == has_unstable, (alpha, beta, roots)


def test_default_window_reaches_branch2_root_beyond_five(tmp_path, capsys):
    # on branch 2 the unstable real root sits near lambda = h, well past Re = 5
    rc = main(["classify", "--v-max", "1", "--d-s", "0", "--h", "6", "--branch", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["classification"] == ow.UNSTABLE
    real = [re for re, im in record["rightmost_roots"] if im == 0.0 and re > 0.0]
    assert real == [pytest.approx(5.942, abs=1e-3)]


@settings(deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(-8.0, 0.0), beta=st.floats(0.0, 100.0))
def test_roots_certified_paired_and_bounded(alpha, beta):
    params = P(alpha, beta)
    roots = ow.rightmost_roots(params)
    # for Re(lambda) >= 0 a root satisfies |lambda| (|lambda| - |alpha|) <= 2 beta
    radius = 0.5 * (abs(alpha) + math.sqrt(alpha * alpha + 8.0 * beta))
    for z in roots:
        assert abs(ow.char_eval(params, z)) <= 1e-10
        if z.real >= 0.0:
            assert abs(z) <= radius * (1.0 + 1e-12), (z, radius)
        if z.imag != 0.0:
            assert z.conjugate() in roots
    if boundary_distance(alpha, beta) > 1e-3:
        has_unstable = any(z.real > 1e-6 for z in roots)
        assert (ow.region_classify(params) == ow.OUTSIDE_S) == has_unstable, roots


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(alpha=st.floats(-8.0, 0.0), beta=st.floats(0.0, 100.0))
def test_roots_match_the_count_on_a_deeper_rectangle(alpha, beta):
    # the count is taken on a line through the widest gap between the
    # reported real parts in [-2, -1.5], away from every root
    roots = ow.rightmost_roots(P(alpha, beta), sigma=-2.0)
    edges = sorted([-2.0, -1.5] + [z.real for z in roots if z.real < -1.5])
    lo, hi = max(zip(edges, edges[1:]), key=lambda e: e[1] - e[0])
    line = 0.5 * (lo + hi)
    count = stability._half_plane_count(alpha, beta, line)
    nonzero = [z for z in roots if z != 0 and z.real > line]
    # D = chi/lambda keeps any root at 0 in its count, which is reported as
    # the zero root; elsewhere roots are simple away from measure-zero curves
    if abs(alpha + beta) > 1e-6:
        assert len(nonzero) == count
    else:
        assert count - 2 <= len(nonzero) <= count
    for z in roots:
        assert abs(ow.char_eval(P(alpha, beta), z)) <= 1e-10
        if z.imag != 0.0:
            assert z.conjugate() in roots


def test_triple_zero_root_at_the_corner_is_reported_once():
    # chi = lambda^3/3 + O(lambda^4) at (-2, 2): D = chi/lambda has a double root at 0
    roots = ow.rightmost_roots(P(-2.0, 2.0))
    assert [z for z in roots if abs(z) < 1e-3] == [0j]


def test_double_real_root_is_reported_once():
    # D(z) = D'(z) = 0 at z0 = -0.7 for beta = -1/E'(z0), alpha = -z0 - beta E(z0)
    # with E(z) = (1 - exp(-z))/z
    z0 = -0.7
    e = (1.0 - math.exp(-z0)) / z0
    e_d = (math.exp(-z0) * (1.0 + z0) - 1.0) / (z0 * z0)
    beta = -1.0 / e_d
    alpha = -z0 - beta * e
    roots = ow.rightmost_roots(P(alpha, beta), sigma=-2.0)
    near = [z for z in roots if abs(z - z0) < 1e-3]
    assert len(near) == 1
    assert abs(near[0] - z0) <= 1e-12


# (alpha, beta, sigma, roots) frozen from the array-based Newton polish: the
# reference examples 1-3, a deep window at the corner of the property tests,
# a point on C1, the corner (-2, 2), the double real root at -0.7, beta = 0,
# and both branches at the ends of the sweep family make_vq(1, 0), h in [5.5, 8]
_PINNED_ROOTS = [
    (-0.2, 0.398997487421324, -0.5, [0j, -0.25432405814444403 + 0j]),
    (-0.2, 0.001002512578676009, -0.5, [0.19909097715728047 + 0j, 0j]),
    (-1.5, 2.8245435885245658, -0.5,
     [0.07679776938165633 - 1.8613391853130385j, 0.07679776938165633 + 1.8613391853130385j, 0j]),
    (-8.0, 100.0, -2.0,
     [3.9840063303647666 - 9.26485840461365j, 3.9840063303647666 + 9.26485840461365j,
      0.36197412589343125 - 7.122653238597716j, 0.36197412589343125 + 7.122653238597716j, 0j,
      -0.577725423423793 - 14.840809713158865j, -0.577725423423793 + 14.840809713158865j,
      -1.4240135546438983 - 21.398164465651675j, -1.4240135546438983 + 21.398164465651675j,
      -1.9921983653109618 - 27.80256259636891j, -1.9921983653109618 + 27.80256259636891j]),
    (-1.5, 2.552140395779481, -0.5,
     [0j, -3.56126041204098e-16 - 1.6894616869165637j,
      -3.56126041204098e-16 + 1.6894616869165637j]),
    (-2.0, 2.0, -0.5, [0j]),
    (-1.092556618168791, 1.2377669854506372, -2.0, [0j, -0.7000000000000304 + 0j]),
    (-0.2, 0.0, -0.5, [0.2 + 0j, 0j]),
    (-5.5, 10.623475382979802, -0.5,
     [2.5239512692635135 - 1.8234248725894704j, 2.5239512692635135 + 1.8234248725894704j, 0j]),
    (-5.5, 0.3765246170202009, -0.5, [5.430974471907228 + 0j, 0j]),
    (-8.0, 15.745966692414834, -0.5, [4.637554285673836 + 0j, 2.9692387850767585 + 0j, 0j]),
    (-8.0, 0.25403330758516623, -0.5, [7.9681298707033426 + 0j, 0j]),
]


@pytest.mark.parametrize("alpha, beta, sigma, pinned", _PINNED_ROOTS)
def test_roots_match_pinned_values(alpha, beta, sigma, pinned):
    roots = ow.rightmost_roots(P(alpha, beta), sigma)
    assert len(roots) == len(pinned)
    for z, ref in zip(roots, pinned):  # same order, the zero root exactly
        assert abs(z - ref) <= 1e-13 * abs(ref), (z, ref)


@pytest.fixture()
def track_sizes(monkeypatch):
    """Wrap ``_eigen_roots`` so that it records each collocation size tried and
    passes its roots through ``alter(roots, n)``; returns the record."""
    found = stability._eigen_roots

    def install(alter=lambda roots, n: roots):
        sizes = []

        def recorded(alpha, beta, lo, n):
            sizes.append(n)
            return alter(found(alpha, beta, lo, n), n)

        monkeypatch.setattr(stability, "_eigen_roots", recorded)
        return sizes

    return install


def test_simple_root_polished_twice_fails_the_certificate(track_sizes):
    def one_root_twice(roots, n):
        roots[1] = roots[0]
        return roots

    sizes = track_sizes(one_root_twice)
    with pytest.raises(ow.RootFinderError, match="same simple root at collocation size 64"):
        ow.rightmost_roots(P(-1.5, 2.8245))
    assert sizes == list(stability._CHEB_NODES)


def test_dropped_eigenvalue_root_fails_the_certificate(track_sizes):
    sizes = track_sizes(lambda roots, n: roots[1:])
    with pytest.raises(ow.RootFinderError, match="phase count is 2 at collocation size 64"):
        ow.rightmost_roots(P(-1.5, 2.8245))
    assert sizes == list(stability._CHEB_NODES)


def test_a_root_missed_at_the_first_size_comes_from_the_next(track_sizes):
    alpha, beta, sigma, pinned = _PINNED_ROOTS[2]
    sizes = track_sizes(lambda roots, n: roots[1:] if n == 8 else roots)
    roots = ow.rightmost_roots(P(alpha, beta), sigma)
    assert sizes == [8, 16]
    assert len(roots) == len(pinned)
    for z, ref in zip(roots, pinned):
        assert abs(z - ref) <= 1e-13 * abs(ref), (z, ref)


def test_the_sweep_family_settles_at_the_first_size(vq2841, track_sizes):
    # both branches on the benchmark's h grid: a change that needs more
    # nodes there would multiply the cost of a sweep
    sizes, cp = track_sizes(), ow.critical_pair(vq2841)
    for h in np.linspace(1.02 * cp.h_star, 1.8, 30).tolist():
        for branch in (1, 2):
            ow.classify_wavefront(vq2841, ow.branch_eval(vq2841, h, branch))
    assert sizes == [8] * 60


# points of ROADMAP item 1's grid (and one it names) where 25 nodes miss roots
_LARGE_BETA = [(-20.0, 1000.0), (-12.5, 1778.2794100389228), (-6.0, 2371.373705661655),
               (-2.5, 3162.2776601683795), (0.0, 4216.965034285822), (-110.0, 2700.0)]


@pytest.mark.parametrize("alpha, beta", _LARGE_BETA)
def test_roots_at_large_beta_match_the_count(alpha, beta):
    roots = ow.rightmost_roots(P(alpha, beta))  # those right of sigma = -0.5
    nonzero = [z for z in roots if z != 0]  # D = chi/lambda has no root at 0 here
    assert len(nonzero) == stability._half_plane_count(alpha, beta, -0.5) > 10
    for z in roots:
        assert abs(ow.char_eval(P(alpha, beta), z)) <= 1e-10


@pytest.mark.parametrize("alpha, beta", _LARGE_BETA)
def test_the_old_size_alone_misses_roots_at_large_beta(alpha, beta, monkeypatch):
    monkeypatch.setattr(stability, "_CHEB_NODES", (24,))
    monkeypatch.setitem(stability._COLLOCATION, 24, stability._collocation_generator(24))
    with pytest.raises(ow.RootFinderError, match="phase count"):
        ow.rightmost_roots(P(alpha, beta))


def test_classify_resolves_the_large_beta_family(capsys):
    # make_vq(0.5, 3) reaches beta = 2,685 on branch 1 at h = 110
    rc = main(["classify", "--v-max", "0.5", "--d-s", "3", "--h", "110", "--branch", "1"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert record["beta"] > 2000.0 and len(record["rightmost_roots"]) == 13


# -- verdicts and crossings --------------------------------------------------------


def test_reference_verdicts(vq100, vq2841):
    v1 = ow.classify_wavefront(vq100, ow.branch_eval(vq100, 0.2, 1))
    assert v1.classification == ow.STABLE and v1.region == ow.INSIDE_S
    v2 = ow.classify_wavefront(vq100, ow.branch_eval(vq100, 0.2, 2))
    assert v2.classification == ow.UNSTABLE
    v3 = ow.classify_wavefront(vq2841, ow.branch_eval(vq2841, 1.5, 1))
    assert v3.classification == ow.UNSTABLE and v3.region == ow.OUTSIDE_S
    for v in (v1, v2, v3):
        assert any(z == 0 for z in v.rightmost_roots)


def test_degenerate_point_is_undetermined(vq100):
    pts = ow.find_constant_speeds(vq100, 0.02)
    verdict = ow.classify_wavefront(vq100, pts[0])
    assert verdict.classification == ow.UNDETERMINED


def test_hopf_crossing_location(vq2841):
    cp = ow.critical_pair(vq2841)
    h_H, omega = ow.hopf_crossing(vq2841, cp.h_star + 0.01, 1.5)
    assert h_H == pytest.approx(1.4192372969, abs=1e-6)
    assert omega > 0
    pt = ow.branch_eval(vq2841, h_H, 1)
    params = ow.stability_params(vq2841, pt)
    assert abs(ow.char_eval(params, 1j * omega)) <= 1e-8
    # verdicts flip across the crossing
    lo = ow.classify_wavefront(vq2841, ow.branch_eval(vq2841, h_H - 1e-3, 1))
    hi = ow.classify_wavefront(vq2841, ow.branch_eval(vq2841, h_H + 1e-3, 1))
    assert lo.classification == ow.STABLE
    assert hi.classification == ow.UNSTABLE
    # past h = 2 the offset is +inf, which the secant cannot step through
    assert ow.hopf_crossing(vq2841, 1.3, 2.5)[0] == pytest.approx(h_H, rel=1e-13)


def test_hopf_crossing_requires_sign_flip(vq2841):
    with pytest.raises(ow.BracketError):
        ow.hopf_crossing(vq2841, 0.9, 1.1)


def test_no_crossing_for_low_beta_branch(vq100):
    # region sweep on (0.021, 0.2) stays inside the stability region (the
    # boundary offset peaks at about -4.1), so the bracket cannot flip
    with pytest.raises(ow.BracketError):
        ow.hopf_crossing(vq100, 0.021, 0.2)


def test_region_boundary_samples_shape():
    from ovwave.stability import region_boundary_samples

    rows = region_boundary_samples(50)
    curves = {r[0] for r in rows}
    assert curves == {"G0", "G1", "C1"}
    assert len(rows) == 150
