"""Closed-form dispersion machinery for the limit graph of the thin ladder.

As the rung thickness tends to zero the ladder degenerates to a periodic
metric graph carrying -u'' = omega^2 u on every edge, with Kirchhoff (flux
balance) conditions at the vertices; the rung at x = 0 enters the flux sum
with weight mu.  After the symmetric/antisymmetric reduction about y = 0,
each Floquet fiber at quasimomentum theta in [0, pi] is governed by a scalar
relation between omega and theta.  Everything in this module is a closed-form
function of omega; the frequency variable is omega, the spectral parameter is
lambda = omega^2.

The scalar functions work on Python floats with `math` and clamp their poles
as described below.  Two residuals work on numpy arrays and have no pole
clamps: `impedance_residual`, whose branch bisections in `bands` give the band
edges and Bloch roots, and `defect_residual`, whose gap bisections in `modes`
give the defect eigenvalues.

The defect response `capital_F` and the decay root `reflection_root` share
one radicand, a product of the two factors that vanish at the band edges, and
subtract no nearly equal numbers, so both stay accurate where the forms in g
cancel: next to band edges, poles of phi_2 and zeros of phi_L.  The sign of
that radicand (`radicand`) also decides band membership in
`bands.in_essential_spectrum`.

Pole convention: scalar functions with trigonometric poles return +inf/-inf
carrying the sign of the right-sided limit; at points where a pole of the rung
impedance coincides with sin(omega) = 0 (compactly supported flat modes) the
transfer coefficient is genuinely indeterminate and NaN is returned -- band
membership at those points is decided by the special-point rules in
`bands.in_essential_spectrum`, never by the NaN.
"""

from __future__ import annotations

import math

import numpy as np

from .params import SymmetryClass
from .rootfind import bisect_root, dist_to_multiple

#: relative tolerance for detecting an exact trigonometric pole
POLE_RTOL = 1e-12
#: tolerance under which sin(omega) counts as zero when classifying a pole
FLAT_RTOL = 1e-9


def _is_pole_of_cot(x):
    return dist_to_multiple(x, math.pi) <= POLE_RTOL * max(1.0, abs(x))


def _is_pole_of_tan(x):
    return dist_to_multiple(x - 0.5 * math.pi, math.pi) <= POLE_RTOL * max(1.0, abs(x))


def phi_L_pole_or_zero(half, sym_class, atol):
    """"pole" or "zero" when half = omega*L/2 lies within atol of a pole or a zero of phi_L.

    phi_L has its poles where half is a multiple of pi (symmetric family) or
    an odd multiple of pi/2 (antisymmetric family), and its zeros at the
    other set; returns None away from both.  Each caller passes its own
    absolute tolerance.
    """
    on_pi = dist_to_multiple(half, math.pi) <= atol
    on_half_pi = dist_to_multiple(half - 0.5 * math.pi, math.pi) <= atol
    if sym_class is SymmetryClass.SYMMETRIC:
        on_pole, on_zero = on_pi, on_half_pi
    else:
        on_pole, on_zero = on_half_pi, on_pi
    if on_pole:
        return "pole"
    if on_zero:
        return "zero"
    return None


def phi_L(omega, L, sym_class):
    """Impedance of a half-rung of length L/2 seen from the rail.

    2/tan(omega*L/2) for the symmetric family (Neumann midpoint), and
    -2*tan(omega*L/2) for the antisymmetric family (Dirichlet midpoint).
    Strictly decreasing between consecutive poles; poles return +inf
    (right-sided limit) and zeros exactly 0.
    """
    half = 0.5 * omega * L
    marker = phi_L_pole_or_zero(half, sym_class, POLE_RTOL * max(1.0, abs(half)))
    if marker == "pole":
        return math.inf
    if marker == "zero":
        return 0.0
    if sym_class is SymmetryClass.SYMMETRIC:
        return 2.0 / math.tan(half)
    return -2.0 * math.tan(half)


def _phi_L_array(w, L, sym_class):
    """phi_L on a numpy array, without pole clamps."""
    half = (0.5 * L) * w
    if sym_class is SymmetryClass.SYMMETRIC:
        return 2.0 / np.tan(half)
    return -2.0 * np.tan(half)


def phi_2(omega):
    """Impedance 2/tan(omega) of a rail segment of unit length; poles return +inf."""
    if _is_pole_of_cot(omega):
        return math.inf
    if _is_pole_of_tan(omega):
        return 0.0
    return 2.0 / math.tan(omega)


def g_mu_value(omega, L, mu, sym_class):
    """Transfer coefficient -cos(omega) + mu*sin(omega)/phi_L(omega).

    The discrete rail recursion u_{j+1} + 2 g u_j + u_{j-1} = 0 holds with this
    coefficient at the vertex whose rung carries weight mu.  Returns +-inf at
    the zeros of phi_L when sin(omega) != 0 (right-sided limit sign), NaN when
    the zero coincides with sin(omega) = 0 (flat point).
    """
    s = math.sin(omega)
    c = math.cos(omega)
    half = 0.5 * omega * L
    if phi_L_pole_or_zero(half, sym_class, POLE_RTOL * max(1.0, abs(half))) == "zero":
        if abs(s) <= FLAT_RTOL * max(1.0, abs(omega)):
            return math.nan
        # phi_L -> 0 from below on the right, so mu sin/phi_L -> -inf * sin
        return math.copysign(math.inf, -s)
    if sym_class is SymmetryClass.SYMMETRIC:
        return -c + 0.5 * mu * s * math.tan(half)
    return -c - 0.5 * mu * s / math.tan(half)


def g_value(omega, L, sym_class):
    """Transfer coefficient of the unperturbed ladder (mu = 1)."""
    return g_mu_value(omega, L, 1.0, sym_class)


def dispersion_residual(theta, omega, L, sym_class):
    """Signed residual of the Floquet dispersion relation at (theta, omega).

    Symmetric family:      2 cos(wL/2) (cos w - cos theta) - sin w sin(wL/2)
    Antisymmetric family:  2 sin(wL/2) (cos w - cos theta) + sin w cos(wL/2)

    Entire in omega (no poles).  theta must lie in the reduced Brillouin zone
    [0, pi]; values of omega solving the relation for some theta make up the
    essential spectrum of the corresponding family (for the antisymmetric one,
    omega = 0 is excluded by definition).
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"quasimomentum theta={theta} outside [0, pi]")
    half = 0.5 * omega * L
    if sym_class is SymmetryClass.SYMMETRIC:
        return 2.0 * math.cos(half) * (math.cos(omega) - math.cos(theta)) - math.sin(
            omega
        ) * math.sin(half)
    return 2.0 * math.sin(half) * (math.cos(omega) - math.cos(theta)) + math.sin(
        omega
    ) * math.cos(half)


def impedance_residual(omega, theta, L, sym_class):
    """phi_L(omega) - h_theta(omega) on numpy arrays, h_theta = sin w / (cos w - cos theta).

    The dispersion relation at quasimomentum theta reads phi_L = h_theta; h_0
    and h_pi are f_minus and f_plus (in either order) on each pi-interval.
    phi_L strictly decreases between its poles and h_theta' = (1 - cos w cos
    theta) / (cos w - cos theta)^2 >= 0, so the residual strictly decreases
    between consecutive poles of either term and has at most one root there.
    No pole clamps: evaluate it strictly inside those branches only.
    cos w - cos theta is formed as -2 sin((w+theta)/2) sin((w-theta)/2), which
    keeps h_theta accurate next to its poles.  omega and theta broadcast.
    """
    w = np.asarray(omega, dtype=float)
    th = np.asarray(theta, dtype=float)
    denom = -2.0 * np.sin(0.5 * (w + th)) * np.sin(0.5 * (w - th))
    return _phi_L_array(w, L, sym_class) - np.sin(w) / denom


def defect_residual(omega, kappa, sign, L, sym_class):
    """phi_L(omega) - r_sign(phi_2(omega)) on numpy arrays; its zeros solve F = mu.

    F(omega) = mu in (0, 1) reads phi_L (phi_L + phi_2) = kappa with kappa =
    mu (2 - mu) in (0, 1): a quadratic in phi_L whose roots at q = phi_2 are
    r_+ > 0 > r_-, r_sign = (-q + sign sqrt(q^2 + 4 kappa)) / 2.  The root of
    larger modulus is formed directly and the other one from r_+ r_- =
    -kappa, so neither cancels.  Both r_sign decrease in q and phi_2
    decreases in omega, so r_sign(phi_2) rises while phi_L falls: between
    consecutive poles of phi_L and of phi_2 the residual strictly decreases
    and has at most one root.  No pole clamps: evaluate it strictly inside
    those branches only.  omega, kappa and sign (+1 or -1) broadcast.
    """
    w = np.asarray(omega, dtype=float)
    q = 2.0 / np.tan(w)
    big = 0.5 * (np.abs(q) + np.hypot(q, 2.0 * np.sqrt(kappa)))
    # r_-(q) = -r_+(-q), and r_+(t) is kappa/big for t > 0, big otherwise
    t = sign * q
    r = sign * np.where(t > 0.0, kappa / big, big)
    return _phi_L_array(w, L, sym_class) - r


def theta_root(omega, L, sym_class, *, tol=1e-10):
    """Quasimomentum theta in [0, pi] solving the dispersion relation at omega.

    The residual is monotone in cos(theta), so the bracket [0, pi] certifies
    existence: a root exists iff the endpoint residuals do not share a strict
    sign.  Returns the bisected root, or None when no root exists.
    """
    f = lambda th: dispersion_residual(th, omega, L, sym_class)
    r0, rpi = f(0.0), f(math.pi)
    if r0 == 0.0:
        return 0.0
    if rpi == 0.0:
        return math.pi
    if math.copysign(1.0, r0) == math.copysign(1.0, rpi):
        return None
    return bisect_root(f, 0.0, math.pi, xtol=tol, flo=r0, fhi=rpi)


def f_plus(omega):
    """Band-edge curve tan(omega/2), pi-periodized.

    omega belongs to a band exactly when phi_L(omega) leaves the open strip
    (f_minus, f_plus); gap bottoms of type (i)/(iii) sit on phi_L = f_plus.
    """
    t = math.fmod(omega, math.pi)
    if t < 0:
        t += math.pi
    return math.tan(0.5 * t)


def f_minus(omega):
    """Band-edge curve -cot(omega/2), pi-periodized; companion of f_plus.

    Gap tops of type (i)/(ii) sit on phi_L = f_minus.
    """
    t = math.fmod(omega, math.pi)
    if t < 0:
        t += math.pi
    if t == 0.0:
        return -math.inf
    return -1.0 / math.tan(0.5 * t)


def radicand(omega, L, sym_class):
    """(phi_L, radicand) at omega, where radicand = 1 - phi_L (phi_L + phi_2).

    With t = tan(omega/2) the rail impedance is phi_2 = 1/t - t, so the
    radicand is the product (t - phi_L)(phi_L + 1/t) of the two factors that
    vanish on the band-edge curves phi_L = f_plus and phi_L = f_minus; it
    equals (g^2 - 1) phi_L^2 / sin^2(omega), so it is positive exactly inside
    a gap, and its sign stays right next to the band edges, where g^2 - 1
    cancels.  No pole clamps: evaluate it off pi*Z and off the poles of
    phi_L.
    """
    t = math.tan(0.5 * omega)
    p = float(_phi_L_array(omega, L, sym_class))
    return p, (t - p) * (p + 1.0 / t)


def _gap_radicand(omega, L, sym_class):
    """(g, phi_L, radicand) at omega (see `radicand`), for a point inside a gap.

    Raises ValueError at a flat point and where the radicand is not positive
    (the essential spectrum of the family).
    """
    if not omega > 0.0:
        raise ValueError(f"omega={omega} is not a positive frequency")
    g = g_mu_value(omega, L, 1.0, sym_class)
    if math.isnan(g):
        raise ValueError(f"omega={omega} is a flat spectral point")
    p, rad = radicand(omega, L, sym_class)
    if not rad > 0.0:
        raise ValueError(
            f"omega={omega} lies in the essential spectrum (radicand {rad} <= 0)"
        )
    return g, p, rad


def capital_F(omega, L, sym_class):
    """Defect response F(omega) = 1 - sqrt(1 - phi_L (phi_L + phi_2)) inside a gap.

    A rung-weight defect mu in (0, 1) produces an eigenvalue exactly where
    F(omega) = mu.  Evaluated as phi_L (phi_L + phi_2) / (1 + sqrt(radicand))
    (see `_gap_radicand`), which keeps small values of F accurate too.
    Exactly 0 at the zeros of phi_L.  Raises ValueError at a flat point and
    inside the essential spectrum of the family.
    """
    g, p, rad = _gap_radicand(omega, L, sym_class)
    if math.isinf(g):
        return 0.0
    return p * (p + 2.0 / math.tan(omega)) / (1.0 + math.sqrt(rad))


def reflection_root(omega, L, sym_class):
    """Decay factor r in (-1, 1) of the defect mode, the stable root of r^2 + 2 g r + 1 = 0.

    r = -1/(g + sign(g) sqrt(g^2 - 1)) (Vieta), with sqrt(g^2 - 1) =
    sqrt(radicand) |sin(omega) / phi_L| (see `_gap_radicand`), so nothing
    cancels; the limit 0 at zeros of phi_L (g infinite).  Raises ValueError
    at a flat point and inside the essential spectrum.
    """
    g, p, rad = _gap_radicand(omega, L, sym_class)
    return -1.0 / (g + math.copysign(math.sqrt(rad) * abs(math.sin(omega) / p), g))
