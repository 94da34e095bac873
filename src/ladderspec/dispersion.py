"""Closed-form dispersion machinery for the limit graph of the thin ladder.

As the rung thickness tends to zero the ladder degenerates to a periodic
metric graph carrying -u'' = omega^2 u on every edge, with Kirchhoff (flux
balance) conditions at the vertices; the rung at x = 0 enters the flux sum
with weight mu.  After the symmetric/antisymmetric reduction about y = 0,
each Floquet fiber at quasimomentum theta in [0, pi] is governed by a scalar
relation between omega and theta.  Everything in this module is a closed-form
function of omega; the frequency variable is omega, the spectral parameter is
lambda = omega^2.  Every function takes a float or a numpy array and returns
a numpy scalar for a float.

The defect response `capital_F` and the decay root `reflection_root` share
one radicand, a product of the two factors that vanish at the band edges, and
subtract no nearly equal numbers, so both stay accurate where the forms in g
cancel: next to band edges, poles of phi_2 and zeros of phi_L.  The sign of
that radicand (`radicand`) also decides band membership in
`bands.in_essential_spectrum`.

Pole convention: `phi_L_pole_or_zero` gives the masks of the points within a
relative POLE_RTOL of a pole and of a zero of phi_L.  On the pole mask phi_L
is +inf (the right-sided limit), on the zero mask exactly 0 and the transfer
coefficient +-inf (the sign of its right-sided limit).  Where the zero mask
meets sin(omega) = 0 (compactly supported flat modes) the transfer
coefficient is genuinely indeterminate and NaN is returned -- band membership
at those points is decided by the special-point rules in
`bands.in_essential_spectrum`, never by the NaN.

Every function that reads the symmetry class parses it
(`SymmetryClass.parse`), so the strings 'sym' and 'antisym' mean the enum
members; the functions that only pass the class on inherit that parse.
"""

from __future__ import annotations

import numpy as np

from .params import SymmetryClass
from .rootfind import dist_to_multiple, falling_roots

#: relative tolerance for detecting an exact trigonometric pole
POLE_RTOL = 1e-12
#: tolerance under which sin(omega) counts as zero when classifying a pole
FLAT_RTOL = 1e-9
#: final bracket width of `theta_root`
THETA_TOL = 1e-10

_quiet = np.errstate(divide="ignore", invalid="ignore")


def phi_L_pole_or_zero(half, sym_class, atol):
    """(pole, zero) masks: half = omega*L/2 lies within atol of a pole / a zero of phi_L.

    phi_L has its poles where half is a multiple of pi (symmetric family) or
    an odd multiple of pi/2 (antisymmetric family), and its zeros at the
    other set.  half and atol broadcast; each caller passes its own absolute
    tolerance.
    """
    sym_class = SymmetryClass.parse(sym_class)
    on_pi = dist_to_multiple(half, np.pi) <= atol
    on_half_pi = dist_to_multiple(half - 0.5 * np.pi, np.pi) <= atol
    if sym_class is SymmetryClass.SYMMETRIC:
        return on_pi, on_half_pi
    return on_half_pi, on_pi


def _half_and_masks(omega, L, sym_class):
    """(omega as an array, half = omega*L/2, pole mask, zero mask) at POLE_RTOL."""
    w = np.asarray(omega, dtype=float)
    half = 0.5 * L * w
    return (w, half) + phi_L_pole_or_zero(
        half, sym_class, POLE_RTOL * np.maximum(1.0, np.abs(half))
    )


@_quiet
def phi_L(omega, L, sym_class):
    """Impedance of a half-rung of length L/2 seen from the rail.

    2/tan(omega*L/2) for the symmetric family (Neumann midpoint), and
    -2*tan(omega*L/2) for the antisymmetric family (Dirichlet midpoint).
    Strictly decreasing between consecutive poles; poles return +inf
    (right-sided limit) and zeros exactly 0.
    """
    sym_class = SymmetryClass.parse(sym_class)
    _, half, pole, zero = _half_and_masks(omega, L, sym_class)
    if sym_class is SymmetryClass.SYMMETRIC:
        p = 2.0 / np.tan(half)
    else:
        p = -2.0 * np.tan(half)
    return np.where(pole, np.inf, np.where(zero, 0.0, p))[()]


def _impedance_slope(p, L):
    """Derivative in omega of an impedance p = 2/tan(omega*L/2) or -2*tan(omega*L/2).

    Both obey p' = -L (1 + p^2/4): that is -L/sin^2(omega*L/2) for the
    first and -L/cos^2(omega*L/2) for the second.  Formed from p, it needs
    no trigonometry, cancels nothing and takes the limits of the masks of
    `phi_L`: -inf on a pole, -L on a zero.  phi_2 is the case L = 2.
    """
    return -L * (1.0 + 0.25 * p * p)


def phi_2(omega):
    """Impedance 2/tan(omega) of a rail segment of unit length; poles return +inf.

    It is the symmetric phi_L at L = 2, where omega*L/2 = omega exactly.
    """
    return phi_L(omega, 2.0, SymmetryClass.SYMMETRIC)


@_quiet
def g_mu_value(omega, L, mu, sym_class):
    """Transfer coefficient -cos(omega) + mu*sin(omega)/phi_L(omega).

    The discrete rail recursion u_{j+1} + 2 g u_j + u_{j-1} = 0 holds with this
    coefficient at the vertex whose rung carries weight mu.  Returns +-inf at
    the zeros of phi_L when sin(omega) != 0 (right-sided limit sign), NaN when
    the zero coincides with sin(omega) = 0 (flat point).
    """
    sym_class = SymmetryClass.parse(sym_class)
    w, half, _, zero = _half_and_masks(omega, L, sym_class)
    s = np.sin(w)
    c = np.cos(w)
    if sym_class is SymmetryClass.SYMMETRIC:
        g = -c + 0.5 * mu * s * np.tan(half)
    else:
        g = -c - 0.5 * mu * s / np.tan(half)
    # phi_L -> 0 from below on the right, so mu sin/phi_L -> -inf * sin
    flat = np.abs(s) <= FLAT_RTOL * np.maximum(1.0, np.abs(w))
    return np.where(zero, np.where(flat, np.nan, np.copysign(np.inf, -s)), g)[()]


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
    omega = 0 is excluded by definition).  theta and omega broadcast.
    """
    return dispersion_and_slope(theta, omega, L, sym_class)[0]


def dispersion_and_slope(theta, omega, L, sym_class):
    """(`dispersion_residual`, its derivative in theta) at (theta, omega).

    The residual is c (cos w - cos theta) + e with c = 2 cos(wL/2)
    (symmetric) or 2 sin(wL/2) (antisymmetric), so its theta-slope is
    c sin theta, from the same c.
    """
    sym_class = SymmetryClass.parse(sym_class)
    th = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= th) & (th <= np.pi)):
        raise ValueError(f"quasimomentum theta={theta} outside [0, pi]")
    w = np.asarray(omega, dtype=float)
    half = 0.5 * w * L
    if sym_class is SymmetryClass.SYMMETRIC:
        c, e = 2.0 * np.cos(half), -np.sin(w) * np.sin(half)
    else:
        c, e = 2.0 * np.sin(half), np.sin(w) * np.cos(half)
    return c * (np.cos(w) - np.cos(th)) + e, c * np.sin(th)


def impedance_residual(omega, theta, L, sym_class):
    """phi_L(omega) - h_theta(omega), h_theta = sin w / (cos w - cos theta).

    The dispersion relation at quasimomentum theta reads phi_L = h_theta; h_0
    and h_pi are f_minus and f_plus (in either order) on each pi-interval.
    phi_L strictly decreases between its poles and h_theta' = (1 - cos w cos
    theta) / (cos w - cos theta)^2 >= 0, so the residual strictly decreases
    between consecutive poles of either term and has at most one root there;
    evaluate it strictly inside those branches only.  cos w - cos theta is
    formed as -2 sin((w+theta)/2) sin((w-theta)/2), which keeps h_theta
    accurate next to its poles.  omega and theta broadcast.
    `impedance_and_slope` gives the slope beside it.
    """
    return impedance_and_slope(omega, theta, L, sym_class)[0]


@_quiet
def impedance_and_slope(omega, theta, L, sym_class):
    """(`impedance_residual`, its derivative in omega) from the same terms.

    With a = sin((w+theta)/2) and b = sin((w-theta)/2), cos w - cos theta =
    -2ab and 1 - cos w cos theta = a^2 + b^2, so the slope phi_L' -
    h_theta' = -L (1 + phi_L^2/4) - (a^2 + b^2) / (2ab)^2 is a sum of
    negative terms and cancels nothing.
    """
    w = np.asarray(omega, dtype=float)
    th = np.asarray(theta, dtype=float)
    a, b = np.sin(0.5 * (w + th)), np.sin(0.5 * (w - th))
    denom = -2.0 * a * b
    p = phi_L(w, L, sym_class)
    return p - np.sin(w) / denom, _impedance_slope(p, L) - (a * a + b * b) / (denom * denom)


def defect_residual(omega, kappa, sign, L, sym_class):
    """phi_L(omega) - r_sign(phi_2(omega)); its zeros solve F = mu.

    F(omega) = mu in (0, 1) reads phi_L (phi_L + phi_2) = kappa with kappa =
    mu (2 - mu) in (0, 1): a quadratic in phi_L whose roots at q = phi_2 are
    r_+ > 0 > r_-, r_sign = (-q + sign sqrt(q^2 + 4 kappa)) / 2.  The root of
    larger modulus is formed directly and the other one from r_+ r_- =
    -kappa, so neither cancels.  Both r_sign decrease in q and phi_2
    decreases in omega, so r_sign(phi_2) rises while phi_L falls: between
    consecutive poles of phi_L and of phi_2 the residual strictly decreases
    and has at most one root; evaluate it strictly inside those branches
    only.  omega, kappa and sign (+1 or -1) broadcast.  `defect_and_slope`
    gives the slope beside it.
    """
    return defect_and_slope(omega, kappa, sign, L, sym_class)[0]


@_quiet
def defect_and_slope(omega, kappa, sign, L, sym_class):
    """(`defect_residual`, its derivative in omega) from the same terms.

    Differentiating r^2 + q r - kappa = 0 gives r_sign'(q) = (-1 + sign q /
    sqrt(q^2 + 4 kappa)) / 2 = -|r_sign| / sqrt(q^2 + 4 kappa), which
    cancels nothing; with phi_2' = -2/sin^2 w the slope is phi_L' +
    |r_sign| phi_2' / sqrt(q^2 + 4 kappa), a sum of negative terms.
    """
    w = np.asarray(omega, dtype=float)
    q = phi_2(w)
    root = np.hypot(q, 2.0 * np.sqrt(kappa))
    big = 0.5 * (np.abs(q) + root)
    # r_-(q) = -r_+(-q), and r_+(t) is kappa/big for t > 0, big otherwise
    t = sign * q
    r = sign * np.where(t > 0.0, kappa / big, big)
    p = phi_L(w, L, sym_class)
    return p - r, _impedance_slope(p, L) + np.abs(r) / root * _impedance_slope(q, 2.0)


def theta_root(omega, L, sym_class):
    """Quasimomentum theta in [0, pi] solving the dispersion relation at omega.

    The residual is linear in cos(theta), so the bracket [0, pi] certifies
    existence: a root exists iff the endpoint residuals do not share a strict
    sign.  Every bracket is oriented by the sign of its residual at 0, and all
    are closed at once by bracketed Newton in theta (`rootfind.falling_roots`,
    with the theta-slope of `dispersion_and_slope`) to THETA_TOL wide.  NaN
    where no root exists.
    """
    w = np.asarray(omega, dtype=float)
    r0 = np.ravel(dispersion_residual(0.0, w, L, sym_class))
    rpi = np.ravel(dispersion_residual(np.pi, w, L, sym_class))
    theta = np.where(r0 == 0.0, 0.0, np.where(rpi == 0.0, np.pi, np.nan))
    i = np.flatnonzero((r0 != 0.0) & (rpi != 0.0) & (np.signbit(r0) != np.signbit(rpi)))

    def falling(th, wi, sg):
        value, slope = dispersion_and_slope(th, wi, L, sym_class)
        return sg * value, sg * slope

    theta[i] = falling_roots(
        falling,
        np.zeros(i.size),
        np.full(i.size, np.pi),
        np.ravel(w)[i],
        np.where(r0[i] > 0.0, 1.0, -1.0),
        xtol=THETA_TOL,
    )
    return theta.reshape(w.shape)[()]


def f_plus(omega):
    """Band-edge curve tan(omega/2), pi-periodized.

    omega belongs to a band exactly when phi_L(omega) leaves the open strip
    (f_minus, f_plus); gap bottoms of type (i)/(iii) sit on phi_L = f_plus.
    """
    t = np.fmod(omega, np.pi)
    return np.tan(0.5 * np.where(t < 0.0, t + np.pi, t))[()]


@_quiet
def f_minus(omega):
    """Band-edge curve -cot(omega/2) = -1/f_plus, pi-periodized; companion of f_plus.

    Gap tops of type (i)/(ii) sit on phi_L = f_minus.
    """
    t = f_plus(omega)
    return np.where(t == 0.0, -np.inf, -1.0 / t)[()]


@_quiet
def radicand(omega, L, sym_class):
    """(phi_L, radicand) at omega, where radicand = 1 - phi_L (phi_L + phi_2).

    With t = tan(omega/2) the rail impedance is phi_2 = 1/t - t, so the
    radicand is the product (t - phi_L)(phi_L + 1/t) of the two factors that
    vanish on the band-edge curves phi_L = f_plus and phi_L = f_minus; it
    equals (g^2 - 1) phi_L^2 / sin^2(omega), so it is positive exactly inside
    a gap, and its sign stays right next to the band edges, where g^2 - 1
    cancels.  Evaluate it off pi*Z; at the poles and zeros of phi_L it
    takes its limits there, -inf and 1.
    """
    w = np.asarray(omega, dtype=float)
    t = np.tan(0.5 * w)
    p = phi_L(w, L, sym_class)
    return p, (t - p) * (p + 1.0 / t)


def _require(ok, w, what):
    """Raise ValueError naming the first entry of w where ok fails."""
    if not np.all(ok):
        raise ValueError(f"omega={np.extract(np.logical_not(ok), w)[0]} {what}")


def _gap_radicand(omega, L, sym_class):
    """(omega, g, phi_L, radicand) (see `radicand`), for points inside a gap.

    Raises ValueError if any entry is not a positive frequency, is a flat
    point, or has a radicand that is not positive (the essential spectrum of
    the family).
    """
    w = np.asarray(omega, dtype=float)
    _require(w > 0.0, w, "is not a positive frequency")
    g = g_value(w, L, sym_class)
    _require(~np.isnan(g), w, "is a flat spectral point")
    p, rad = radicand(w, L, sym_class)
    _require(rad > 0.0, w, "lies in the essential spectrum (radicand <= 0)")
    return w, g, p, rad


def capital_F(omega, L, sym_class):
    """Defect response F(omega) = 1 - sqrt(1 - phi_L (phi_L + phi_2)) inside a gap.

    A rung-weight defect mu in (0, 1) produces an eigenvalue exactly where
    F(omega) = mu.  Evaluated as phi_L (phi_L + phi_2) / (1 + sqrt(radicand))
    (see `_gap_radicand`), which keeps small values of F accurate too.
    Exactly 0 at the zeros of phi_L.  Raises ValueError at a flat point and
    inside the essential spectrum of the family.
    """
    w, g, p, rad = _gap_radicand(omega, L, sym_class)
    F = p * (p + 2.0 / np.tan(w)) / (1.0 + np.sqrt(rad))
    return np.where(np.isinf(g), 0.0, F)[()]


@_quiet
def reflection_root(omega, L, sym_class):
    """Decay factor r in (-1, 1) of the defect mode, the stable root of r^2 + 2 g r + 1 = 0.

    r = -1/(g + sign(g) sqrt(g^2 - 1)) (Vieta), with sqrt(g^2 - 1) =
    sqrt(radicand) |sin(omega) / phi_L| (see `_gap_radicand`), so nothing
    cancels; the limit 0 at zeros of phi_L (g infinite).  Raises ValueError
    at a flat point and inside the essential spectrum.
    """
    w, g, p, rad = _gap_radicand(omega, L, sym_class)
    return -1.0 / (g + np.copysign(np.sqrt(rad) * np.abs(np.sin(w) / p), g))
