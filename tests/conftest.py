import functools
import math

import numpy as np
import pytest

import ovwave as ow


@pytest.fixture(scope="session")
def vq100():
    return ow.make_vq(100.0, 0.0)


@pytest.fixture(scope="session")
def vq2841():
    return ow.make_vq(2.841, 0.0)


@pytest.fixture(scope="session")
def vq_half():
    return ow.make_vq(1.0, 0.5)


def gaussian_ovf(v_max, d_s, slope_scale=1.0):
    """``V = v (1 - exp(-u^2))`` with ``u = s - d_s``, inflection at ``d_s + 1/sqrt(2)``."""

    def gap(s):
        return np.maximum(np.asarray(s, dtype=float) - d_s, 0.0)

    return ow.OvfSpec(
        v_max=v_max, d_s=d_s, b=d_s + 1.0 / math.sqrt(2.0),
        eval=lambda s: v_max * (1.0 - np.exp(-gap(s) ** 2)),
        deriv=lambda s: slope_scale * 2.0 * v_max * gap(s) * np.exp(-gap(s) ** 2),
        deriv2=lambda s: np.where(np.asarray(s) < d_s, 0.0, 2.0 * v_max
                                  * (1.0 - 2.0 * gap(s) ** 2) * np.exp(-gap(s) ** 2)),
    )


def quadratic_speeds(v_max: float, h: float, d_s: float = 0.0) -> list[float]:
    """Speeds of the rational family from its polynomial form, ascending.

    With ``u = c - d_s > 0`` and ``V = v*u^2/(1+u^2)``, ``h*V(c) = c`` reduces
    to the cubic ``u^3 + (d_s - h*v)*u^2 + u + d_s = 0``; for ``d_s = 0`` it
    is ``u`` times the quadratic ``u^2 - h*v*u + 1``.  The speeds are
    ``d_s + u`` for its positive real roots, taken from ``np.roots`` and
    polished by Newton steps on the cubic.  Independent of the library's
    root finders.
    """
    a = d_s - h * v_max
    speeds = []
    for r in np.roots([1.0, a, 1.0, d_s]):
        if abs(r.imag) > 1e-9 * abs(r) or not r.real > 0.0:
            continue
        u = float(r.real)
        for _ in range(4):
            slope = (3.0 * u + 2.0 * a) * u + 1.0
            if slope == 0.0:
                break
            u -= (((u + a) * u + 1.0) * u + d_s) / slope
        speeds.append(d_s + u)
    return sorted(speeds)


@functools.cache
def _c1_sample() -> np.ndarray:
    from ovwave.stability import c1_curve

    nus = np.linspace(1e-6, math.pi - 1e-6, 4001)
    return np.array([c1_curve(float(nu)) for nu in nus])


def boundary_distance(alpha: float, beta: float) -> float:
    """Euclidean distance of (alpha, beta) to the stability region boundary."""
    top = math.pi * math.pi / 2.0
    d_g0 = math.hypot(alpha, beta - min(max(beta, 0.0), top))
    t = np.clip((-2.0 * alpha + 2.0 * beta) / 8.0, 0.0, 1.0)
    d_g1 = math.hypot(alpha + 2.0 * t, beta - 2.0 * t)
    pts = _c1_sample()
    d_c1 = float(np.min(np.hypot(pts[:, 0] - alpha, pts[:, 1] - beta)))
    return min(d_g0, d_g1, d_c1)
