"""Root finding on certified brackets: many falling roots at once by
bracketed Newton, and one scalar root by bisection through the same loop."""

from __future__ import annotations

import math

import numpy as np


def bisect_root(f, lo, hi, *, xtol=1e-12):
    """Locate the sign change of f on [lo, hi] by bisection.

    f at the ends gives only their signs (an end where f is 0 is returned, an
    infinite value counts by its sign); the bracket, oriented so that f falls,
    goes to falling_roots with a NaN slope, so every point is the midpoint.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    sign = math.copysign(1.0, flo)
    if sign == math.copysign(1.0, fhi):
        raise ValueError(f"no sign change on [{lo}, {hi}] (f: {flo} .. {fhi})")
    root = falling_roots(lambda x: (sign * f(float(x[0])), math.nan), [lo], [hi], xtol=xtol)
    return float(root[0])


def falling_roots(f, lo, hi, *params, xtol):
    """Roots of f on every bracket (lo[i], hi[i]) at once, by bracketed Newton.

    f(x, *params) maps an array of points, one per bracket, to (values,
    slopes); each entry of params is an array aligned with the brackets and
    reaches f restricted to the brackets still open.  f must be positive just
    inside lo[i] and negative just inside hi[i] (a falling crossing).  It is
    evaluated only strictly inside the current bracket, so bracket ends may
    sit on poles, and the sign of each value moves one end of its bracket
    onto the point.  The first point is the midpoint; the next one is the
    Newton step from the last point, pushed max(xtol/4, 2 ulp) past the root
    so that the bracket closes from both sides (Bunch, Nielsen & Sorensen,
    Numer. Math. 31 (1978)), or the midpoint when that step is not finite,
    leaves the bracket or comes from a slope that is not finite (an infinite
    slope makes a zero step, which would only creep by the push).  A bracket
    is done when it is at most xtol wide or cannot be split in floating
    point; every round strictly shrinks the brackets still open, which ends
    the loop.  Returns the final midpoints.  A root depends only on its own
    bracket and parameters, never on the other brackets of the call.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    params = [np.asarray(p) for p in params]
    x = 0.5 * (lo + hi)
    todo = np.arange(lo.size)
    while True:
        a, b = lo[todo], hi[todo]
        mid = 0.5 * (a + b)
        todo = todo[(b - a > xtol) & (a < mid) & (mid < b)]
        if todo.size == 0:
            return 0.5 * (lo + hi)
        t = x[todo]
        value, slope = f(t, *(p[todo] for p in params))
        above = value > 0.0
        a = lo[todo] = np.where(above, t, lo[todo])
        b = hi[todo] = np.where(above, hi[todo], t)
        push = np.maximum(0.25 * xtol, 2.0 * np.spacing(np.abs(t)))
        with np.errstate(all="ignore"):  # a zero, infinite or NaN slope
            step = -value / slope
            y = t + step + np.copysign(push, step)
        x[todo] = np.where(np.isfinite(slope) & (a < y) & (y < b), y, 0.5 * (a + b))


def dist_to_multiple(x, step):
    """Distance from x to the nearest integer multiple of step; x may be an array."""
    return np.abs(x - step * np.rint(x / step))
