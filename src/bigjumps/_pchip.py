"""Monotone piecewise-cubic Hermite interpolation (Fritsch & Carlson 1980, SIAM J. Numer. Anal. 17:238).

Inner knot slopes are the weighted harmonic mean of the two secant slopes (0 where they differ in
sign or one is 0), the ends take the shape-preserving three-point rule (Moler, Numerical Computing
with MATLAB, 3.6).  Each operation follows scipy's PchipInterpolator in order: the bits agree.
"""

from __future__ import annotations

import numpy as np


def _end_slope(h0, h1, m0, m1):
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    return 3.0 * m0 if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0) else d


def coefficients(x, y) -> np.ndarray:
    """Power-basis coefficients in s = q - x_i of each interval, highest degree first, shape (4, m - 1)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2 or not np.all(np.isfinite(x) & np.isfinite(y)):
        raise ValueError("pchip needs two or more finite knots and as many finite values")
    hk = np.diff(x)
    if not np.all(hk > 0.0):
        raise ValueError("pchip knots must be strictly increasing")
    mk = np.diff(y) / hk
    dk = np.concatenate((mk[:1], mk[-1:]))
    if x.size > 2:
        w1, w2 = 2.0 * hk[1:] + hk[:-1], hk[1:] + 2.0 * hk[:-1]
        flat = (np.sign(mk[1:]) != np.sign(mk[:-1])) | (mk[1:] == 0.0) | (mk[:-1] == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.where(flat, 0.0, 1.0 / ((w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)))
        dk = np.concatenate(([_end_slope(hk[0], hk[1], mk[0], mk[1])], inner, [_end_slope(hk[-1], hk[-2], mk[-1], mk[-2])]))
    t = (dk[:-1] + dk[1:] - 2.0 * mk) / hk
    return np.stack((t / hk, (mk - dk[:-1]) / hk - t, dk[:-1], y[:-1]))


def pchip(x, y):
    """The interpolant of y at strictly increasing knots x and its derivative, as two callables.

    Interval i is [x_i, x_(i+1)); points past either end take the end cubic.
    """
    c0, c1, c2, c3 = coefficients(x, y)
    e0, e1, x = 3.0 * c0, 2.0 * c1, np.asarray(x, dtype=float)
    # guide table: the interval holding the left edge of each of m - 1 equal bins of [x_0, x_last]
    last, scale = x.size - 2, (x.size - 1) / (x[-1] - x[0])
    guide = np.clip(np.searchsorted(x, x[0] + np.arange(last + 1) / scale, "right") - 1, 0, last)

    def locate(q):
        # step from the guide to searchsorted(x, q, "right") - 1 clipped to [0, m - 2]
        q = np.asarray(q, dtype=float)
        i = guide[np.fmin(np.fmax((q - x[0]) * scale, 0.0), last).astype(np.intp)]
        while (step := ((q >= x[i + 1]) & (i < last)).astype(np.intp) - ((q < x[i]) & (i > 0))).any():
            i = i + step
        return i, q - x[i]

    def value(q):
        i, s = locate(q)
        return c3[i] + c2[i] * s + c1[i] * (s * s) + c0[i] * (s * s * s)

    def derivative(q):
        i, s = locate(q)
        return c2[i] + e1[i] * s + e0[i] * (s * s)

    return value, derivative
