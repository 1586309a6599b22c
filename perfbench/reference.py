"""Reference computations that share no code with ovwave.

Every function here recomputes a quantity from the model's closed forms or
with a different numerical method, so that a check comparing the library
against it can fail.  Nothing in this module imports ovwave.

Recompute the stored figures quoted in README.md with

    python3 perfbench/reference.py
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# -- the rational optimal-velocity family ----------------------------------


def vq(s: float, v_max: float, d_s: float) -> float:
    """``v_max u^2 / (1 + u^2)`` with ``u = s - d_s``, zero below ``d_s``."""
    u = s - d_s
    if u <= 0.0:
        return 0.0
    q = u * u
    return v_max * q / (1.0 + q)


def vq_slope(s: float, v_max: float, d_s: float) -> float:
    u = s - d_s
    if u <= 0.0:
        return 0.0
    q = 1.0 + u * u
    return 2.0 * v_max * u / (q * q)


def vq_array(s, v_max: float, d_s: float):
    u = np.maximum(np.asarray(s, dtype=float) - d_s, 0.0)
    q = u * u
    return v_max * q / (1.0 + q)


# -- the delay equation: fixed-step RK4 by the method of steps -------------


def rk4_extrema(v_max, d_s, h, speed, bump, t_end, n_per_delay):
    """Extrema of z' for ``z'' = h^2 V(z(t-1) - z(t)) + h z'``.

    The history on [-1, 0] is ``z(s) = -speed*s + bump*sin(pi*s)``.  The
    step ``1/n_per_delay`` divides the delay, so every lagged node is a
    stored node; the lag at a half step comes from the cubic Hermite
    interpolant of the stored (z, z'), which is fourth-order accurate like
    the step itself.  Each extremum of z' is the stationary point of the
    cubic Hermite interpolant of z' with slopes z''.  Returns a list of
    ``(t, z', is_max)``.
    """
    dt = 1.0 / n_per_delay
    n = int(round(t_end * n_per_delay))
    h2 = h * h

    def hist(s):
        return -speed * s + bump * math.sin(math.pi * s)

    z = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    acc = [0.0] * (n + 1)
    z[0] = hist(0.0)
    v[0] = -speed + bump * math.pi

    def lag_node(k):
        j = k - n_per_delay
        return hist(j * dt) if j <= 0 else z[j]

    def lag_mid(k):
        j = k - n_per_delay
        if j < 0:
            return hist((j + 0.5) * dt)
        return 0.5 * (z[j] + z[j + 1]) + dt * (v[j] - v[j + 1]) / 8.0

    for k in range(n):
        zk, vk = z[k], v[k]
        a1 = h2 * vq(lag_node(k) - zk, v_max, d_s) + h * vk
        acc[k] = a1
        zm = lag_mid(k)
        z2, v2 = zk + 0.5 * dt * vk, vk + 0.5 * dt * a1
        a2 = h2 * vq(zm - z2, v_max, d_s) + h * v2
        z3, v3 = zk + 0.5 * dt * v2, vk + 0.5 * dt * a2
        a3 = h2 * vq(zm - z3, v_max, d_s) + h * v3
        z4, v4 = zk + dt * v3, vk + dt * a3
        a4 = h2 * vq(lag_node(k + 1) - z4, v_max, d_s) + h * v4
        z[k + 1] = zk + dt / 6.0 * (vk + 2.0 * v2 + 2.0 * v3 + v4)
        v[k + 1] = vk + dt / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    acc[n] = h2 * vq(lag_node(n) - z[n], v_max, d_s) + h * v[n]

    out = []
    for k in range(n):
        if acc[k] == 0.0 or (acc[k] > 0.0) == (acc[k + 1] > 0.0):
            continue
        v0, v1, s0, s1 = v[k], v[k + 1], acc[k] * dt, acc[k + 1] * dt
        # p(th) is the Hermite cubic of z'; p'(th) = qa th^2 + qb th + qc
        qa = 3.0 * (2.0 * v0 + s0 - 2.0 * v1 + s1)
        qb = 2.0 * (-3.0 * v0 - 2.0 * s0 + 3.0 * v1 - s1)
        qc = s0
        if qa == 0.0:
            th = -qc / qb
        else:
            disc = math.sqrt(max(qb * qb - 4.0 * qa * qc, 0.0))
            cands = [(-qb + disc) / (2.0 * qa), (-qb - disc) / (2.0 * qa)]
            th = min(cands, key=lambda x: abs(x - 0.5))
        th2, th3 = th * th, th * th * th
        val = ((2 * th3 - 3 * th2 + 1) * v0 + (th3 - 2 * th2 + th) * s0
               + (-2 * th3 + 3 * th2) * v1 + (th3 - th2) * s1)
        out.append(((k + th) * dt, val, acc[k] > 0.0))
    return out


def last_cycle(extrema):
    """Peak-to-peak amplitude and period of the last complete cycle.

    The amplitude is the last maximum minus the minimum that follows it;
    the period is the time between the last two maxima.
    """
    amps = [a[1] - b[1] for a, b in zip(extrema, extrema[1:]) if a[2] and not b[2]]
    maxima = [e[0] for e in extrema if e[2]]
    if not amps or len(maxima) < 2:
        raise ValueError("fewer than two maxima: the oscillation has not developed")
    return amps[-1], maxima[-1] - maxima[-2]


def limit_cycle(v_max, d_s, h, speed, t_end=160.0, n_per_delay=200):
    """Amplitude and period of z' on the limit cycle, from RK4 to ``t_end``.

    Started from the bumped quasi-stationary history; the limit cycle does
    not depend on the history, and by t = 160 the transient is below 1e-11.
    Also returns the change against half the step count, which bounds the
    discretisation error of the figures.
    """
    fine = last_cycle(rk4_extrema(v_max, d_s, h, speed, 0.02, t_end, n_per_delay))
    coarse = last_cycle(rk4_extrema(v_max, d_s, h, speed, 0.02, t_end, n_per_delay // 2))
    change = max(abs(fine[0] - coarse[0]), abs(fine[1] - coarse[1]))
    return fine[0], fine[1], change


# -- wave speeds ------------------------------------------------------------


def speeds_ds0(v_max: float, h: float):
    """Both speeds with ``h V(c) = c`` when ``d_s = 0``.

    ``c^2 - h v c + 1 = 0`` gives ``hv/2 -+ sqrt((hv)^2/4 - 1)``; the small
    root is taken as the reciprocal of the large one (their product is 1)
    to avoid cancellation.
    """
    hv = h * v_max
    disc = hv * hv / 4.0 - 1.0
    if disc < 0.0:
        return []
    big = hv / 2.0 + math.sqrt(disc)
    return [1.0 / big, big]


def branch1_speed(v_max: float, d_s: float, h: float) -> float:
    """The branch-1 speed (``h V'(c) > 1``) from the cubic in ``u = c - d_s``.

    ``h V(c) = c`` is ``u^3 + (d_s - h v) u^2 + u + d_s = 0``; its roots come
    from the companion matrix and one Newton step per root polishes them.
    """
    if d_s == 0.0:
        return speeds_ds0(v_max, h)[0]
    coeffs = [1.0, d_s - h * v_max, 1.0, d_s]
    cands = []
    for r in np.roots(coeffs):
        if abs(r.imag) > 1e-9 * max(1.0, abs(r)) or r.real <= 0.0:
            continue
        u = float(r.real)
        for _ in range(3):
            p = ((u + coeffs[1]) * u + 1.0) * u + d_s
            dp = (3.0 * u + 2.0 * coeffs[1]) * u + 1.0
            u -= p / dp
        c = d_s + u
        if h * vq_slope(c, v_max, d_s) > 1.0:
            cands.append(c)
    if len(cands) != 1:
        raise ValueError(f"expected one branch-1 speed at h={h}, got {cands}")
    return cands[0]


# -- the stability region -----------------------------------------------------


def c1_point(nu: float):
    """The oscillatory boundary C1: ``alpha = -nu/tan(nu/2)``,
    ``beta = nu^2 / (tan(nu/2)^2 (1 + cos nu))``."""
    t = math.tan(0.5 * nu)
    return -nu / t, nu * nu / (t * t * (1.0 + math.cos(nu)))


def c1_beta(alpha: float) -> float:
    """Beta on C1 above ``alpha`` in (-2, 0), by brentq on the parameter."""
    from scipy.optimize import brentq

    nu = brentq(lambda x: -x / math.tan(0.5 * x) - alpha, 1e-9, math.pi - 1e-9, xtol=1e-15)
    return c1_point(nu)[1]


def region_stable(alpha: float, beta: float, margin: float = 1e-7):
    """True inside S, False outside its closure, None within ``margin``.

    S is ``-2 < alpha < 0`` with ``-alpha < beta < C1(alpha)``.
    """
    if alpha <= -2.0 + margin or alpha >= -margin:
        if abs(alpha + 2.0) <= margin or abs(alpha) <= margin:
            return None
        return False
    top = c1_beta(alpha)
    if abs(beta + alpha) <= margin or abs(beta - top) <= margin:
        return None
    return -alpha < beta < top


def hopf_h(v_max: float, d_s: float, h_lo: float, h_hi: float) -> float:
    """The root of ``beta(h) - C1(-h)`` on branch 1, by scipy brentq."""
    from scipy.optimize import brentq

    def offset(h):
        c = branch1_speed(v_max, d_s, h)
        return h * h * vq_slope(c, v_max, d_s) - c1_beta(-h)

    return brentq(offset, h_lo, h_hi, xtol=1e-15, rtol=1e-15)


# -- characteristic roots -------------------------------------------------------


def chi(alpha: float, beta: float, lam: complex) -> complex:
    return lam * lam + alpha * lam + beta * (1.0 - cmath.exp(-lam))


def chi_scale(alpha: float, beta: float, lam: complex) -> float:
    """Size of the terms of chi, the yardstick for its rounding error."""
    return abs(lam) ** 2 + abs(alpha * lam) + abs(beta) * (1.0 + abs(cmath.exp(-lam)))


def count_roots(alpha: float, beta: float, rect, max_points: int = 1 << 17):
    """Zeros of chi inside ``rect = (re_lo, re_hi, im_lo, im_hi)``.

    The winding number of chi around the rectangle, with the sampling
    halved until no phase step exceeds 0.5 rad.  Returns None when that
    does not happen, which means a root lies on or very near the contour.
    """
    a, b, c, d = rect
    corners = [complex(a, c), complex(b, c), complex(b, d), complex(a, d)]
    spacing = 0.125
    while True:
        parts = []
        for p, q in zip(corners, corners[1:] + corners[:1]):
            m = max(8, math.ceil(abs(q - p) / spacing))
            parts.append(p + (q - p) * (np.arange(m) / m))
        path = np.concatenate(parts + [np.array([corners[0]])])
        if path.size > max_points:
            return None
        vals = path * path + alpha * path + beta * (1.0 - np.exp(-path))
        if np.min(np.abs(vals)) == 0.0:
            return None
        steps = np.angle(vals[1:] / vals[:-1])
        if np.max(np.abs(steps)) < 0.5:
            return int(round(float(np.sum(steps)) / (2.0 * math.pi)))
        spacing /= 2.0


if __name__ == "__main__":
    c3 = branch1_speed(2.841, 0.0, 1.5)
    amp, period, change = limit_cycle(2.841, 0.0, 1.5, c3)
    print(f"example 3 branch-1 speed   {c3:.15f}")
    print(f"limit-cycle amplitude of z' {amp:.12f}")
    print(f"limit-cycle period of z'    {period:.12f}")
    print(f"change at half the steps    {change:.3e}")
