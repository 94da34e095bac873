"""High-precision `mpmath` references for the closed-form defect quantities.

The references use the g-form, g = -cos w + sin w / phi_L: the defect
response F = 1 - sqrt((g^2 - 1)/(g + cos w)^2) and the decay root
r = -g + sign(g) sqrt(g^2 - 1).  The package evaluates both through other
formulas in floating point, so the comparison checks one formula against
another.  Each function works at the caller's `mpmath` working precision;
`ulp_ratio` sets 50 digits itself.
"""

import math

import mpmath

from ladderspec.params import SymmetryClass


def mp_phi(w, L, cls):
    """Rung impedance phi_L(omega): 2/tan(wL/2) or -2 tan(wL/2)."""
    half = mpmath.mpf(w) * mpmath.mpf(L) / 2
    if cls is SymmetryClass.SYMMETRIC:
        return 2 / mpmath.tan(half)
    return -2 * mpmath.tan(half)


def mp_g(w, L, cls):
    """Transfer coefficient g(omega) of the unperturbed ladder."""
    return -mpmath.cos(mpmath.mpf(w)) + mpmath.sin(mpmath.mpf(w)) / mp_phi(w, L, cls)


def mp_dispersion_residual(theta, w, L, cls):
    """The Floquet dispersion residual in its trigonometric form."""
    half = mpmath.mpf(w) * mpmath.mpf(L) / 2
    diff = mpmath.cos(w) - mpmath.cos(theta)
    if cls is SymmetryClass.SYMMETRIC:
        return 2 * mpmath.cos(half) * diff - mpmath.sin(w) * mpmath.sin(half)
    return 2 * mpmath.sin(half) * diff + mpmath.sin(w) * mpmath.cos(half)


def mp_impedance_residual(w, theta, L, cls):
    """phi_L - sin w / (cos w - cos theta), with the difference of cosines as is."""
    return mp_phi(w, L, cls) - mpmath.sin(w) / (mpmath.cos(w) - mpmath.cos(theta))


def mp_defect_residual(w, kappa, sign, L, cls):
    """phi_L - r_sign(phi_2), r_sign = (-q + sign sqrt(q^2 + 4 kappa)) / 2 as is."""
    q = mp_phi(w, 2, SymmetryClass.SYMMETRIC)
    return mp_phi(w, L, cls) - (-q + sign * mpmath.sqrt(q * q + 4 * mpmath.mpf(kappa))) / 2


def mp_radicand(w, L, cls):
    """(g^2 - 1)/(g + cos w)^2, positive exactly inside a gap."""
    g = mp_g(w, L, cls)
    return (g * g - 1) / (g + mpmath.cos(mpmath.mpf(w))) ** 2


def mp_capital_F(w, L, cls):
    """F(omega) = 1 - sqrt((g^2 - 1)/(g + cos w)^2)."""
    return 1 - mpmath.sqrt(mp_radicand(w, L, cls))


def mp_reflection_root(w, L, cls):
    """The root of r^2 + 2 g r + 1 = 0 inside (-1, 1)."""
    g = mp_g(w, L, cls)
    return -g + mpmath.sign(g) * mpmath.sqrt(g * g - 1)


def ulp_ratio(got, mp_f, w, L, cls):
    """Relative error of got against mp_f at (w, L), in ulp(1) times max(1, cond).

    cond = (|w df/dw| + |L df/dL|) / |f| is the relative condition number of
    f in its two inputs: the relative error that a relative change of one
    unit in w and in L causes.  Both count because a float evaluation rounds
    the product w L / 2 before taking its tangent, which perturbs L as much
    as w.  An evaluation as accurate as f's conditioning allows reads a few
    units.  The derivatives are central differences with a relative step of
    1e-20 at 50 digits.
    """
    with mpmath.workdps(50):
        x, y = mpmath.mpf(w), mpmath.mpf(L)
        ref = mp_f(x, y, cls)
        hx, hy = x * mpmath.mpf("1e-20"), y * mpmath.mpf("1e-20")
        dx = (mp_f(x + hx, y, cls) - mp_f(x - hx, y, cls)) / (2 * hx)
        dy = (mp_f(x, y + hy, cls) - mp_f(x, y - hy, cls)) / (2 * hy)
        cond = (abs(x * dx) + abs(y * dy)) / abs(ref)
        err = abs((mpmath.mpf(got) - ref) / ref)
        return float(err / (math.ulp(1.0) * max(1, cond)))
