"""Linearized stability of constant-speed wavefront profiles.

Linearizing the delayed pair along a constant-speed profile gives the
characteristic function

    chi(lambda) = lambda^2 + alpha*lambda + beta*(1 - exp(-lambda)),

with ``alpha = -h`` and ``beta = h^2 V'(c)``.  Zero is always a root (the
model is invariant under position shifts).  In the (alpha, beta) quadrant
``alpha <= 0 <= beta`` there is a region S where every other root has
negative real part; its boundary consists of the segment on the beta axis
up to pi^2/2, the diagonal ``beta = -alpha`` down to (-2, 2), and the curve
C1 parametrized by ``nu in (0, pi)``:

    alpha = -nu / tan(nu/2),   beta = nu^2 / (tan(nu/2)^2 (1 + cos nu)),

on which a simple pure imaginary pair ``+-i nu`` exists (the oscillatory,
Hopf-type boundary).  Branch-2 profiles always satisfy ``beta < -alpha``
and are unstable; branch-1 profiles are stable inside S and unstable
outside its closure.

Roots come from the eigenvalues of a Chebyshev collocation of the
infinitesimal generator of ``y' = -alpha y - beta * (integral of y over
[t-1, t])``, solved by ``y = x'`` (Breda, Maset & Vermiglio 2005), the few
that matter polished by scalar Newton steps.  Its characteristic function
is the zero-deflated ``D = chi(lambda)/lambda``.  One phase count certifies
them: the roots of D right of a vertical line, counted from the phase of D
along it (Stepan's formula) and proven by a bound on ``|D'|``, must be the
roots found there, an m-fold root counting m times; the line passes through
the widest root-free gap left of the requested real part, and roots may
coincide only where D' vanishes to rounding level.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from ._scalar import solve
from .errors import (
    ConsistencyError,
    DomainError,
    NumericalError,
    ParameterError,
    RootFinderError,
    check_finite,
)
from .ovf import OvfSpec
from .waves import BRANCH1, BRANCH2, DEGENERATE, WavefrontPoint, branch_eval

__all__ = [
    "INSIDE_S",
    "BOUNDARY_C1",
    "BOUNDARY_OTHER",
    "OUTSIDE_S",
    "STABLE",
    "UNSTABLE",
    "MARGINAL_HOPF",
    "UNDETERMINED",
    "StabilityParams",
    "StabilityVerdict",
    "char_eval",
    "char_deriv",
    "stability_params",
    "c1_boundary_beta",
    "c1_curve",
    "region_classify",
    "region_boundary_samples",
    "rightmost_roots",
    "classify_wavefront",
    "hopf_crossing",
]

INSIDE_S = "inside_S"
BOUNDARY_C1 = "boundary_C1"
BOUNDARY_OTHER = "boundary_other"
OUTSIDE_S = "outside_S"

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL_HOPF = "marginal_hopf"
UNDETERMINED = "undetermined"

_BETA_AXIS_TOP = math.pi * math.pi / 2.0
_BOUNDARY_TOL = 1e-9
_CHI_RESIDUAL_TOL = 1e-10
_CHEB_NODES = 24
_MULTIPLE_DP = 1e-12  # |D'| at a multiple root, relative to 1 + beta


@dataclass(frozen=True)
class StabilityParams:
    """Characteristic-function parameters (alpha, beta) of one profile."""

    alpha: float
    beta: float

    def __post_init__(self):
        if check_finite("alpha", self.alpha, error=DomainError) > 0:
            raise DomainError(f"alpha must be <= 0, got {self.alpha}")
        if check_finite("beta", self.beta, error=DomainError) < 0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class StabilityVerdict:
    """Region membership, rightmost roots, and the resulting classification."""

    params: StabilityParams
    region: str
    rightmost_roots: tuple
    classification: str


def char_eval(params: StabilityParams, lam):
    """chi(lambda) = lambda^2 + alpha*lambda + beta*(1 - exp(-lambda)), lambda real or complex."""
    check_finite("|lambda|", abs(lam), error=DomainError)
    lam = np.asarray(lam)
    return (lam * lam + params.alpha * lam + params.beta * (1.0 - np.exp(-lam))).item()


def char_deriv(params: StabilityParams, lam):
    """chi'(lambda) = 2*lambda + alpha + beta*exp(-lambda), lambda real or complex."""
    check_finite("|lambda|", abs(lam), error=DomainError)
    lam = np.asarray(lam)
    return (2.0 * lam + params.alpha + params.beta * np.exp(-lam)).item()


def stability_params(spec: OvfSpec, point: WavefrontPoint) -> StabilityParams:
    """Parameters (-h, h^2 V'(c)) of the linearization along a profile."""
    return StabilityParams(alpha=-point.h, beta=point.h**2 * float(spec.deriv(point.c)))


# -- the oscillatory boundary curve ---------------------------------------


def _c1_alpha(nu: float) -> float:
    # -nu/tan(nu/2), written with sin/cos so both endpoints stay accurate
    return -nu * math.cos(0.5 * nu) / math.sin(0.5 * nu)


def _c1_beta(nu: float) -> float:
    # nu^2/(tan^2(nu/2)*(1+cos nu)) simplifies to nu^2/(2 sin^2(nu/2))
    s = math.sin(0.5 * nu)
    return nu * nu / (2.0 * s * s)


def c1_curve(nu: float) -> tuple[float, float]:
    """The boundary-curve point (alpha, beta) at parameter ``nu`` in (0, pi)."""
    if not 0.0 < nu < math.pi:
        raise ParameterError(f"nu must lie in (0, pi), got {nu}")
    if nu < 1e-150:  # nu^2 underflows below ~1e-154; the curve is at its limit there
        return -2.0, 2.0
    return _c1_alpha(nu), _c1_beta(nu)


_C1_ALPHA_TOP = _c1_alpha(math.pi - 1e-9)


def _c1_side(alpha: float, beta: float) -> float:
    """``_c1_alpha(sqrt(min(2 beta - alpha^2, 4 pi)))``, or -inf if ``2 beta <= alpha^2``.

    On C1 ``2 beta = alpha^2 + nu^2``.  ``_c1_alpha`` increases from -2 to 0.72
    on (0, sqrt(4 pi)], so for alpha in [-2, 0] this is alpha on C1, less than
    alpha under it and more over it."""
    arg = 2.0 * beta - alpha * alpha
    return _c1_alpha(math.sqrt(min(arg, 4.0 * math.pi))) if arg > 0.0 else -math.inf


def c1_boundary_beta(alpha: float):
    """Beta coordinate of the oscillatory boundary above ``alpha``.

    Defined for alpha in [-2, 0] with limit values 2 at -2 and pi^2/2 at 0;
    returns None outside that interval and raises ParameterError for NaN.
    """
    if math.isnan(alpha):
        raise ParameterError(f"alpha must be a number, got {alpha}")
    if alpha < -2.0 or alpha > 0.0:
        return None
    # the curve parameter degenerates at both ends.  Left of -2 + 1e-13 the
    # limit 2 is exact within the slope 2 times the snap; right of the
    # solver's bracket on nu (nu = pi - d, alpha ~ -pi d / 2 for d <= 1e-9) the
    # curve is beta = pi^2/2 + 2 alpha + O(d^2), exact in double precision
    if alpha > _C1_ALPHA_TOP:
        return _BETA_AXIS_TOP + 2.0 * alpha
    if alpha < -2.0 + 1e-13:
        return 2.0
    # alpha increases with nu from -2 to 0
    return _c1_beta(solve(lambda nu: _c1_alpha(nu) - alpha, 1e-9, math.pi - 1e-9,
                          xtol=1e-15 * math.pi))


def region_classify(params: StabilityParams) -> str:
    """Locate (alpha, beta) relative to the stability region.

    ``inside_S`` requires ``-2 < alpha < 0`` and ``-alpha < beta`` below the
    oscillatory boundary; points within 1e-9 in beta of that curve are
    ``boundary_C1``; the two straight edges and their corners report
    ``boundary_other``; everything else is ``outside_S``.  Classification
    within the boundary tolerance is numerically meaningless, so callers
    near the curve should consult :func:`rightmost_roots` instead.  The
    side of C1 is read off in closed form (:func:`_c1_side`).
    """
    a, bt, tol = params.alpha, params.beta, _BOUNDARY_TOL
    below_c1 = _c1_side(a, bt + tol) < a
    if -2.0 - tol <= a <= 0.0 and not below_c1 and _c1_side(a, bt - tol) <= a:
        return BOUNDARY_C1
    if abs(a) <= tol:
        return BOUNDARY_OTHER if bt <= _BETA_AXIS_TOP + tol else OUTSIDE_S
    if abs(bt + a) <= tol and a >= -2.0 - tol:
        return BOUNDARY_OTHER
    if -2.0 < a < 0.0 and -a < bt and below_c1:
        return INSIDE_S
    return OUTSIDE_S


def region_boundary_samples(n: int = 200) -> list[tuple[str, float, float, float]]:
    """Labeled samples of the three boundary pieces: (curve, param, alpha, beta)."""
    if n < 2:
        raise ParameterError("n must be at least 2")
    rows = []
    for b in np.linspace(0.0, _BETA_AXIS_TOP, n):
        rows.append(("G0", float(b), 0.0, float(b)))
    for a in np.linspace(-2.0, 0.0, n):
        rows.append(("G1", float(a), float(a), float(-a)))
    for nu in np.linspace(1e-6, math.pi - 1e-6, n):
        rows.append(("C1", float(nu), _c1_alpha(nu), _c1_beta(nu)))
    return rows


# -- deflated characteristic function and the phase count -----------------


def _d(alpha: float, beta: float, z: complex) -> tuple[complex, complex]:
    """Zero-deflated function D = chi/lambda at one point, and its derivative.

    ``D(z) = z + alpha + beta*E(z)`` with ``E(z) = (1 - exp(-z))/z``, the
    integral of ``exp(-z u)`` over u in [0, 1]; where ``|z| < 1e-2`` the
    removable singularity is filled by the series of E and E'.
    """
    if abs(z) < 1e-2:
        e = 1.0 - z / 2.0 + z**2 / 6.0 - z**3 / 24.0 + z**4 / 120.0 - z**5 / 720.0
        e_d = -0.5 + z / 3.0 - z**2 / 8.0 + z**3 / 30.0 - z**4 / 144.0
    else:
        ez = cmath.exp(-z)
        e = (1.0 - ez) / z
        e_d = (ez * (1.0 + z) - 1.0) / (z * z)
    return z + alpha + beta * e, 1.0 + beta * e_d


def _slope_bound(beta: float, s: float) -> float:
    """Bound M on ``|D'|`` along ``Re z = s``: ``|E'(z)|``, the modulus of the
    integral of ``u exp(-z u)`` over u in [0, 1], is at most its value
    ``(1 - exp(-s)(1 + s))/s^2`` at ``z = s`` (a series near ``s = 0``)."""
    if abs(s) < 1e-3:
        return 1.0 + beta * (0.5 - s / 3.0 + s * s / 8.0 - s**3 / 30.0)
    return 1.0 + beta * (-math.expm1(-s) - s * math.exp(-s)) / (s * s)


def _half_plane_count(alpha: float, beta: float, s: float) -> int:
    """Number of roots of D with ``Re > s``, proven from the phase of D along ``Re z = s``.

    For ``|z| >= w``, ``|D/z - 1| < 1``, so D turns like z there, and with
    ``delta`` the phase change of ``D(s + i omega)`` for omega from 0 to
    infinity the argument principle on the half-plane gives
    ``N = 1/2 - delta/pi`` (Stepan 1989); conjugate symmetry covers omega < 0.
    delta is the closed-form tail beyond w plus principal phase steps over
    [0, w].  A step is exact when M (:func:`_slope_bound`) times its length
    is below ``|D|`` at one of its ends: D then stays in a disc that excludes
    0.  Unproven steps are halved, starting from [0, w]; one still unproven
    at length ``w / 2**30`` (``|D|`` far above its rounding) means a root on
    or next to the line, and :class:`RootFinderError` is raised.
    """
    w = 0.5 * (abs(alpha) + math.sqrt(alpha * alpha + 4.0 * beta * (1.0 + math.exp(-s)))) + 1.0
    top = complex(s, w)
    d_hi = _d(alpha, beta, top)[0]
    delta = 0.5 * math.pi - cmath.phase(top) - cmath.phase(d_hi / top)
    bound = _slope_bound(beta, s)
    lo, d_lo, hi = 0.0, _d(alpha, beta, complex(s, 0.0))[0], w
    pending = []  # right halves still to walk, the nearest last
    while True:
        if bound * (hi - lo) < max(abs(d_lo), abs(d_hi)):
            delta += cmath.phase(d_hi / d_lo)
            if not pending:
                return round(0.5 - delta / math.pi)
            lo, d_lo = hi, d_hi
            hi, d_hi = pending.pop()
        elif hi - lo > w * 2.0**-30:
            pending.append((hi, d_hi))
            hi = 0.5 * (lo + hi)
            d_hi = _d(alpha, beta, complex(s, hi))[0]
        else:
            raise RootFinderError(f"no proven phase count on Re z = {s}; a root may lie on it")


def _collocation_generator(n: int) -> tuple[np.ndarray, np.ndarray]:
    """d/dtheta at n + 1 Chebyshev nodes on [-1, 0], and their quadrature weights.

    Node 0 is theta = 0 and node n is theta = -1.  Row 0, ``y'(0) = -alpha
    y(0) - beta * (integral of y over [-1, 0])``, depends on (alpha, beta) and
    is filled in per call.  The Clenshaw-Curtis weights integrate the
    Chebyshev polynomials T_0 .. T_n exactly; with theta = (x - 1)/2 the
    derivative doubles and the weights halve.
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    w = np.r_[2.0, np.ones(n - 1), 2.0] * (-1.0) ** np.arange(n + 1)
    diff = np.outer(w, 1.0 / w) / (x[:, None] - x[None, :] + np.eye(n + 1))
    diff -= np.diag(diff.sum(axis=1))
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2.0)
    return 2.0 * diff, 0.5 * np.linalg.solve(chebvander(x, n).T, moments)


_GENERATOR, _WEIGHTS = _collocation_generator(_CHEB_NODES)


def _eigen_roots(alpha: float, beta: float, lo: float) -> list[complex]:
    """Roots of D with ``Re >= lo``, from the eigenvalues of the generator.

    Only the eigenvalues with ``Im >= 0`` and ``Re > lo - 1``, one to three
    in a sweep, are polished by Newton steps on D in scalar arithmetic; the
    conjugates of the non-real results are added afterwards, so non-real
    roots come in exact pairs.
    Newton converges only linearly to an m-fold root and stalls about 1e-8
    from it; the mean of the m eigenvalues, polished by ``z - m D/D'``,
    replaces all m iterates once ``|D'|`` is at rounding level.
    """
    gen = _GENERATOR.copy()
    gen[0] = -beta * _WEIGHTS
    gen[0, 0] -= alpha
    lam = np.linalg.eigvals(gen)
    found = []  # (root, eigenvalue it was polished from)
    for start in lam[(lam.imag >= 0.0) & (lam.real > lo - 1.0)].tolist():
        z = start
        try:
            for _ in range(20):
                dval, dpval = _d(alpha, beta, z)
                step = dval / dpval
                z -= step
                # a step below 1e-13 leaves the root at the rounding floor, which
                # the caller's |chi| check relies on; a NaN fails every test below
                if not abs(step) > 1e-13 * (1.0 + abs(z)):
                    break
        except (OverflowError, ZeroDivisionError):
            continue  # a diverging start: the phase count misses its root
        found.append((z, start))
        if z.imag != 0.0:
            found.append((z.conjugate(), start.conjugate()))
    roots = [z for z, _ in found]
    for z, _ in found:
        row = [j for j, (y, _) in enumerate(found) if abs(z - y) <= 1e-6 * (1.0 + abs(y))]
        if len(row) < 2:
            continue
        zc = sum(found[j][1] for j in row) / len(row)
        for _ in range(8):  # a simple root stays as polished
            dval, dpval = _d(alpha, beta, zc)
            if not abs(dpval) > _MULTIPLE_DP * (1.0 + beta):
                for j in row:
                    roots[j] = zc
                break
            zc -= len(row) * dval / dpval
    return [z for z in roots if z.real >= lo]


def rightmost_roots(params: StabilityParams, sigma: float = -0.5) -> list[complex]:
    """All characteristic roots with real part above ``sigma``, count-certified.

    The ever-present zero root is handled by deflation so it cannot
    contaminate counts of nearby roots; it is reported whenever
    ``sigma < 0``.  The roots, polished by scalar Newton steps, must match
    the proven phase count of :func:`_half_plane_count`.  Each returned root
    satisfies ``|chi(root)| <= 1e-10`` and non-real roots come in conjugate
    pairs.  Roots are sorted by descending real part.

    Raises
    ------
    ParameterError
        For ``sigma`` below -2, where the collocation no longer resolves
        every root, or not a number.
    RootFinderError
        When located roots cannot be reconciled with the phase count.
    """
    if not -2.0 <= sigma < math.inf:
        raise ParameterError(f"sigma must be a number in [-2, inf), got {sigma}")
    alpha, beta = params.alpha, params.beta
    roots = _eigen_roots(alpha, beta, sigma - 0.5)
    # count on the line through the widest root-free gap of [sigma - 0.5, sigma]
    edges = sorted([sigma - 0.5, sigma] + [z.real for z in roots if z.real < sigma])
    left, right = max(zip(edges, edges[1:]), key=lambda e: e[1] - e[0])
    line = 0.5 * (left + right)
    roots = [z for z in roots if z.real > line]
    count = _half_plane_count(alpha, beta, line)
    if len(roots) != count:
        raise RootFinderError(
            f"located {len(roots)} roots right of Re z = {line} but the phase count is {count}"
        )
    # two eigenvalues polished onto one simple root would hide a missed root
    for z in roots:
        if sum(abs(z - y) <= 1e-9 for y in roots) > 1 \
                and abs(_d(alpha, beta, z)[1]) > _MULTIPLE_DP * (1 + beta):
            raise RootFinderError("two eigenvalues were polished onto the same simple root")
    resid = [abs(char_eval(params, z)) for z in roots]
    if resid and max(resid) > _CHI_RESIDUAL_TOL:
        raise RootFinderError(f"roots {roots} have characteristic residuals {resid}")

    # a multiple root is reported once; a root of D at zero is the zero root
    final = [z for z in set(roots) if abs(z) > 1e-9 and z.real > sigma]
    if sigma < 0.0:
        final.append(0j)
    final.sort(key=lambda z: (-z.real, abs(z.imag), z.imag))
    return final


# -- classification ---------------------------------------------------------


def classify_wavefront(spec: OvfSpec, point: WavefrontPoint) -> StabilityVerdict:
    """Stability verdict for one constant-speed profile.

    Branch-2 profiles are always unstable.  Branch-1 profiles follow the
    region: stable inside, unstable outside, marginal on the oscillatory
    boundary.  Degenerate (tangency) points are reported as undetermined:
    the zero root is then multiple and neither verdict can be justified.
    The verdict is cross-checked against the computed roots; disagreement
    raises :class:`ConsistencyError`.
    """
    params = stability_params(spec, point)
    region = region_classify(params)
    roots = rightmost_roots(params)
    has_unstable = any(z.real > 1e-8 for z in roots)

    if point.branch == DEGENERATE:
        classification = UNDETERMINED
    elif point.branch == BRANCH2:
        classification = UNSTABLE
        if region != OUTSIDE_S:
            raise ConsistencyError(
                f"branch-2 point classified {region}; expected outside_S"
            )
    else:
        classification = {
            INSIDE_S: STABLE,
            OUTSIDE_S: UNSTABLE,
            BOUNDARY_C1: MARGINAL_HOPF,
            BOUNDARY_OTHER: UNDETERMINED,
        }[region]

    if classification == STABLE and has_unstable:
        raise ConsistencyError(
            f"region says stable but roots {roots} contain an unstable one"
        )
    if classification == UNSTABLE and not has_unstable:
        raise ConsistencyError(
            "region says unstable but no root with positive real part was found"
        )
    return StabilityVerdict(
        params=params,
        region=region,
        rightmost_roots=tuple(roots),
        classification=classification,
    )


def hopf_crossing(spec: OvfSpec, h_lo: float, h_hi: float) -> tuple[float, float]:
    """Locate the oscillatory-boundary crossing of branch 1 on [h_lo, h_hi].

    Solves ``h + _c1_side(-h, beta(h)) = 0`` by secant steps inside the bracket;
    it has the sign of ``beta(h)``'s offset from the boundary curve, and the
    endpoints must straddle it, otherwise :class:`BracketError` is raised.
    Returns ``(h_H, omega)``, ``omega^2 = 2 beta - h_H^2``, with
    ``|chi(i omega)| <= 1e-8`` at the crossing parameters.
    """
    if not check_finite("h_lo", h_lo, positive=True) < check_finite("h_hi", h_hi):
        raise ParameterError(f"need 0 < h_lo < h_hi, got ({h_lo}, {h_hi})")

    def signed_offset(h: float) -> float:
        pt = branch_eval(spec, h, BRANCH1)
        if pt is None:
            raise ParameterError(f"branch 1 undefined at h={h}")
        if h > 2.0:
            return math.inf  # alpha below -2: everything there is outside
        return h + _c1_side(-h, stability_params(spec, pt).beta)

    h_H = solve(signed_offset, h_lo, h_hi, xtol=1e-13 * max(1.0, h_hi))

    params = stability_params(spec, branch_eval(spec, h_H, BRANCH1))
    omega = math.sqrt(max(0.0, 2.0 * params.beta - h_H * h_H))
    resid = abs(char_eval(params, 1j * omega))
    if resid > 1e-8:
        raise NumericalError(
            f"crossing residual |chi(i omega)| = {resid} exceeds 1e-8"
        )
    return float(h_H), float(omega)
