"""Bisection on certified brackets, one scalar root at a time or many at once."""

from __future__ import annotations

import math

import numpy as np


def bisect_root(f, lo, hi, *, xtol=1e-12, flo=None, fhi=None):
    """Locate the sign change of f on [lo, hi] by bisection.

    Endpoint values may be passed to avoid re-evaluation.  Infinite endpoint
    values are legal; they only contribute their sign.  The bracket is halved
    until it is narrower than xtol or cannot be split in floating point, so
    the result is never an unconverged midpoint; returns the midpoint of the
    final bracket.
    """
    if flo is None:
        flo = f(lo)
    if fhi is None:
        fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise ValueError(f"no sign change on [{lo}, {hi}] (f: {flo} .. {fhi})")
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or not lo < mid < hi:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid


def bisect_falling(f, lo, hi, *params, xtol):
    """Roots of f on every bracket (lo[i], hi[i]) at once, by bisection.

    f(x, *params) maps an array of points, one per bracket, to values; each
    entry of params is an array aligned with the brackets and reaches f
    restricted to the brackets still being halved.  f must be positive just
    inside lo[i] and negative just inside hi[i] (a falling crossing); it is
    evaluated only at midpoints, so bracket ends may sit on poles.  Every
    bracket is halved until it is narrower than xtol or cannot be split in
    floating point, which ends the loop since every step strictly shrinks the
    brackets still being halved; returns the final midpoints.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    params = [np.asarray(p) for p in params]
    while True:
        mid = 0.5 * (lo + hi)
        live = np.nonzero((hi - lo > xtol) & (mid > lo) & (mid < hi))[0]
        if live.size == 0:
            break
        x = mid[live]
        above = f(x, *(p[live] for p in params)) > 0.0
        lo[live[above]] = x[above]
        hi[live[~above]] = x[~above]
    return 0.5 * (lo + hi)


def dist_to_multiple(x, step):
    """Distance from x to the nearest integer multiple of step; x may be an array."""
    return np.abs(x - step * np.rint(x / step))
