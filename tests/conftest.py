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


def quadratic_speeds(v_max: float, h: float) -> list[float]:
    """Closed-form speeds for the rational family with zero safety distance.

    h*V(c) = c with V = v*c^2/(1+c^2) reduces to c^2 - h*v*c + 1 = 0, so the
    speeds are h*v/2 -+ sqrt((h*v)^2/4 - 1).  Independent of the library's
    bracketing root finder.
    """
    disc = (h * v_max) ** 2 / 4.0 - 1.0
    if disc < 0:
        return []
    r = math.sqrt(disc)
    return [h * v_max / 2.0 - r, h * v_max / 2.0 + r]


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
