"""Discrete spectrum of the rung-width defect, and flat-band arithmetic.

Scaling one rung's Kirchhoff weight to mu in (0, 1) creates point spectrum
inside the gaps of the periodic ladder graph.  The eigenvalue condition is
F(omega) = mu with the defect response F of `dispersion.capital_F`; the
corresponding eigenfunction decays geometrically along the rails with the
reflection factor r and has explicit sine/cosine traces on every edge.

The roots are found as zeros of `dispersion.defect_residual`, phi_L -
r_sign(phi_2), which strictly falls across a gap.  A type (i) gap holds one
root of each sign (+ below the zero of phi_L, - above it), a type (ii) gap
one of sign -, a type (iii) gap one of sign +; the gap edges are the
brackets, so every root of a call is found at once, by bracketed Newton on
the residual and its slope (`dispersion.defect_and_slope`,
`rootfind.falling_roots`) that evaluates only strictly inside each bracket
and shrinks it by the sign of each value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .bands import Gap
from .dispersion import defect_and_slope, g_mu_value, reflection_root
from .params import ExactLength, SymmetryClass
from .rootfind import falling_roots


@dataclass(frozen=True)
class GraphEigenvalue:
    """Simple eigenvalue of the defect graph inside a spectral gap."""

    omega: float
    mu: float
    sym_class: SymmetryClass
    gap: Gap
    multiplicity: int = 1

    @property
    def lam(self):
        return self.omega**2


#: relative tolerance of the r = -g_mu check in `build_eigenfunction`
DECAY_CONSISTENCY_TOL = 1e-8

#: the sign of r in `dispersion.defect_residual` for each root of a gap type
_ROOT_SIGNS = {"i": (1.0, -1.0), "ii": (-1.0,), "iii": (1.0,)}


def discrete_eigenvalues(L, mu, sym_class, gap, *, xtol=0.0):
    """All solutions of F(omega) = mu inside the given gaps, for every given mu.

    mu is one weight or a sequence of them, gap one `Gap` or a sequence of
    them; the result is one flat list ordered by mu, then gap, then omega,
    and each eigenvalue's `gap` is the very `Gap` object it was found in.
    Weights mu >= 1 yield no eigenvalues.  F = mu is phi_L = r_sign(phi_2)
    (`dispersion.defect_residual`), whose residual strictly falls across a
    gap, which holds no pole of phi_L or phi_2: a type (i) gap holds one root
    with phi_L > 0 (sign +) below the zero of phi_L and one with phi_L < 0
    (sign -) above it, a type (ii) gap one with sign -, a type (iii) gap one
    with sign +.  So the brackets are the gap edges themselves, and all
    roots of the call are found at once (`rootfind.falling_roots`: bracketed
    Newton that evaluates only strictly inside each bracket, so edges on
    lattice points are fine).

    The default xtol = 0 closes each bracket until it cannot be split in
    floating point, so the roots do not depend on the last digits of the gap
    edges; a positive xtol (the CLI passes --tol) stops at that bracket
    width.  Every root lies in [omega_b, omega_t], and in a very narrow gap
    it may sit on an edge to the last bit.  In the gap (2 pi - 3.8e-6, 2 pi)
    at L = 7.500005804330669 (antisymmetric), phi_L (phi_L + phi_2) falls
    by about 0.3 per ulp of omega, so for mu = 0.3953 the root lies within
    about one ulp of the true bottom edge, closer than the edge tolerance.
    F is already about -3e3 at the computed bottom edge, so every point
    evaluated inside the gap reads a negative residual and moves the top of
    the bracket down: the bracket closes onto the bottom edge, which is
    returned, whether the points are Newton steps or midpoints.
    """
    sym_class = SymmetryClass.parse(sym_class)
    mus = [mu] if np.ndim(mu) == 0 else list(mu)
    for m in mus:
        if not 0 < m:
            raise ValueError(f"mu must be positive, got {m}")
    mus = [m for m in mus if m < 1.0]
    if not mus:
        return []
    gaps = [gap] if isinstance(gap, Gap) else list(gap)
    for g in gaps:
        if g.sym_class is not sym_class:
            raise ValueError("gap was computed for the other symmetry class")
        if g.gap_type not in _ROOT_SIGNS:
            raise ValueError(f"unknown gap type {g.gap_type!r}")
    brackets = [  # (index of the (mu, gap) pair, mu, gap, sign)
        (k, m, g, sign)
        for k, (m, g) in enumerate(product(mus, gaps))
        for sign in _ROOT_SIGNS[g.gap_type]
    ]
    if not brackets:
        return []
    pair, m, g, sign = zip(*brackets)
    mf = np.array(m, dtype=float)
    roots = falling_roots(
        lambda w, kappa, sg: defect_and_slope(w, kappa, sg, L, sym_class),
        [gi.omega_b for gi in g],
        [gi.omega_t for gi in g],
        mf * (2.0 - mf),
        np.array(sign),
        xtol=xtol,
    )
    found = sorted(zip(pair, roots.tolist(), m, g), key=lambda row: row[:2])
    return [GraphEigenvalue(w, mi, sym_class, gi) for _, w, mi, gi in found]


@dataclass
class GraphEigenfunction:
    """Closed-form defect eigenfunction on the full ladder graph.

    Rail-vertex values are u_j = A r^|j| on the upper rail (the lower rail
    carries +u_j for the symmetric family and -u_j for the antisymmetric one);
    every edge trace solves -u'' = omega^2 u with those endpoint values.  A is
    fixed by unit weighted L^2 norm over the whole graph, A > 0.  The vertex
    index j and the edge coordinates s and y of the traces may be numpy
    arrays; they broadcast.
    """

    ev: GraphEigenvalue
    L: float
    r: float
    amplitude: float

    # -- pointwise traces ---------------------------------------------------
    def vertex_value(self, j):
        # numpy's 0-d power can differ from its array loop in the last bit,
        # so a scalar j takes the array loop too and matches an array call
        k = np.abs(np.atleast_1d(j))
        return self.amplitude * (self.r ** k).reshape(np.shape(j))[()]

    def horizontal_trace(self, j, s):
        """Value on the upper-rail edge from vertex j to j+1 at s in [0, 1]."""
        w = self.ev.omega
        return (
            self.vertex_value(j) * np.sin(w * (1.0 - s))
            + self.vertex_value(j + 1) * np.sin(w * s)
        ) / math.sin(w)

    def horizontal_deriv(self, j, s):
        w = self.ev.omega
        return (
            -self.vertex_value(j) * w * np.cos(w * (1.0 - s))
            + self.vertex_value(j + 1) * w * np.cos(w * s)
        ) / math.sin(w)

    def vertical_trace(self, j, y):
        """Value on rung j at height y in [-L/2, L/2]."""
        w, half = self.ev.omega, 0.5 * self.ev.omega * self.L
        if self.ev.sym_class is SymmetryClass.SYMMETRIC:
            return self.vertex_value(j) * np.cos(w * y) / math.cos(half)
        return self.vertex_value(j) * np.sin(w * y) / math.sin(half)

    def vertical_deriv(self, j, y):
        w, half = self.ev.omega, 0.5 * self.ev.omega * self.L
        if self.ev.sym_class is SymmetryClass.SYMMETRIC:
            return -self.vertex_value(j) * w * np.sin(w * y) / math.cos(half)
        return self.vertex_value(j) * w * np.cos(w * y) / math.sin(half)

    def kirchhoff_residual(self, j):
        """Weighted outgoing-derivative sum at upper-rail vertex j (should vanish)."""
        weight = self.ev.mu if j == 0 else 1.0
        return (
            self.horizontal_deriv(j, 0.0)
            - self.horizontal_deriv(j - 1, 1.0)
            - weight * self.vertical_deriv(j, 0.5 * self.L)
        )


def _norm_constants(omega, L, r, mu, sym_class):
    """Weighted L^2 norm of the unit-amplitude eigenfunction over the graph."""
    s, c = math.sin(omega), math.cos(omega)
    half = 0.5 * omega * L
    S = (1.0 + r * r) / (1.0 - r * r)  # sum of u_j^2 at unit amplitude
    S1 = 2.0 * r / (1.0 - r * r)  # sum of u_j u_{j+1}
    if sym_class is SymmetryClass.SYMMETRIC:
        iv = (0.5 * L + math.sin(omega * L) / (2.0 * omega)) / math.cos(half) ** 2
    else:
        iv = (0.5 * L - math.sin(omega * L) / (2.0 * omega)) / math.sin(half) ** 2
    c1 = 0.5 - math.sin(2.0 * omega) / (4.0 * omega)
    c2 = s / omega - c
    vertical = (S + (mu - 1.0)) * iv
    horizontal = 2.0 * (2.0 * S * c1 + S1 * c2) / (s * s)
    return vertical + horizontal


def build_eigenfunction(ev, L):
    """Assemble the closed-form eigenfunction for a computed gap eigenvalue.

    Verifies r = -g^mu(omega) (the Kirchhoff condition at the defect vertex in
    transfer form) before trusting the decay factor.
    """
    w = ev.omega
    r = reflection_root(w, L, ev.sym_class)
    gmu = g_mu_value(w, L, ev.mu, ev.sym_class)
    if not math.isfinite(gmu) or abs(r + gmu) > DECAY_CONSISTENCY_TOL * (1.0 + abs(gmu)):
        raise ValueError(
            f"decay factor r={r} does not satisfy r = -g_mu = {-gmu}; "
            "the frequency is not an eigenvalue of the defect graph"
        )
    nsq = _norm_constants(w, L, r, ev.mu, ev.sym_class)
    if not nsq > 0:
        raise ValueError(f"non-positive norm {nsq} (unexpected)")
    return GraphEigenfunction(ev, L, r, 1.0 / math.sqrt(nsq))


@dataclass(frozen=True)
class FlatBandSet:
    """Frequencies carrying compactly supported modes of infinite multiplicity.

    A flat point requires the dispersion relation to hold for every theta,
    i.e. both trigonometric coefficients vanish: sin(omega) = 0 together with
    cos(omega*L/2) = 0 (symmetric family) or sin(omega*L/2) = 0, omega != 0
    (antisymmetric family).  Solvability is number-theoretic in L, hence the
    exact-rational input.
    """

    sym_class: SymmetryClass
    in_qc: bool
    witness: Fraction | None
    omegas: tuple


def flat_bands(L, sym_class, omega_max):
    """Flat-band frequencies up to omega_max for an exactly represented L.

    L may be an ExactLength, Fraction, int, or parseable string; floats are
    rejected (the criterion must not be reconstructed from rounded input).
    Irrational L (rational multiples of pi) yields no flat bands.  in_qc
    records whether L is rational with odd numerator, the solvability
    criterion for the symmetric family.
    """
    sym_class = SymmetryClass.parse(sym_class)
    exact = ExactLength.parse(L)
    rat = exact.as_rational()
    if rat is None:
        return FlatBandSet(sym_class, False, None, ())
    p, q = rat.numerator, rat.denominator
    in_qc = p % 2 == 1
    omegas = []
    if sym_class is SymmetryClass.SYMMETRIC:
        # omega = a*pi with a*L an odd integer: a = q*t with t*p odd
        if in_qc:
            t = 1
            while q * t * math.pi <= omega_max:
                omegas.append(q * t * math.pi)
                t += 2
    else:
        # omega = a*pi, a >= 1, with a*L an even integer: a = q*t with t*p even
        t_start, t_step = (2, 2) if p % 2 == 1 else (1, 1)
        t = t_start
        while q * t * math.pi <= omega_max:
            omegas.append(q * t * math.pi)
            t += t_step
    return FlatBandSet(sym_class, in_qc, rat, tuple(omegas))
