"""Discrete spectrum of the rung-width defect, and flat-band arithmetic.

Scaling one rung's Kirchhoff weight to mu in (0, 1) creates point spectrum
inside the gaps of the periodic ladder graph.  The eigenvalue condition is
F(omega) = mu with the defect response F of `dispersion.capital_F`; the
corresponding eigenfunction decays geometrically along the rails with the
reflection factor r and has explicit sine/cosine traces on every edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bands import Gap
from .dispersion import (
    capital_F,
    g_mu_value,
    phi_2,
    phi_L,
    reflection_root,
)
from .params import ExactLength, SymmetryClass
from .rootfind import bisect_root


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


def _padded_endpoint(f, end, inward, width, target=0.0, sign=+1):
    """First point end + inward*delta at which sign*(f - target) > 0."""
    delta = width * 1e-3
    for _ in range(80):
        x = end + inward * delta
        try:
            val = f(x)
        except ValueError:
            val = math.nan
        if not math.isnan(val) and sign * (val - target) > 0.0:
            return x, val
        delta *= 0.25
    raise RuntimeError("could not establish a bracket endpoint inside the gap")


def discrete_eigenvalues(L, mu, sym_class, gap, *, xtol=0.0):
    """All solutions of F(omega) = mu inside the given gap, sorted.

    mu >= 1 yields no eigenvalues.  The roots are bracketed by first locating
    c (zero of phi_L, type (i) gaps only) and d (zero of phi_L + phi_2) by
    bisection; F is monotone between those markers and the gap ends, so each
    root lives on a certified monotone branch.  The default xtol = 0 halves
    each bracket until it cannot be split in floating point, so the roots do
    not depend on the last digits of the gap edges that seed the brackets;
    a positive xtol (the CLI passes --tol) stops at that bracket width.
    """
    if not 0 < mu:
        raise ValueError(f"mu must be positive, got {mu}")
    if mu >= 1.0:
        return []
    if gap.sym_class is not sym_class:
        raise ValueError("gap was computed for the other symmetry class")
    w_b, w_t, width = gap.omega_b, gap.omega_t, gap.width

    pl = lambda w: phi_L(w, L, sym_class)
    varphi = lambda w: pl(w) + phi_2(w)
    F = lambda w: capital_F(w, L, sym_class)

    def zero_of(f):
        lo, flo = _padded_endpoint(f, w_b, +1.0, width, sign=+1)
        hi, fhi = _padded_endpoint(f, w_t, -1.0, width, sign=-1)
        return bisect_root(f, lo, hi, xtol=xtol, flo=flo, fhi=fhi)

    roots = []
    if gap.gap_type == "i":
        c = zero_of(pl)
        d = zero_of(varphi)
        lo_end, hi_end = min(c, d), max(c, d)
        # descending branch 1 -> 0 on [w_b, lo_end]
        a, fa = _padded_endpoint(F, w_b, +1.0, width, target=mu, sign=+1)
        roots.append(bisect_root(lambda w: F(w) - mu, a, lo_end, xtol=xtol))
        # ascending branch 0 -> 1 on [hi_end, w_t]
        b, fb = _padded_endpoint(F, w_t, -1.0, width, target=mu, sign=+1)
        roots.append(bisect_root(lambda w: F(w) - mu, hi_end, b, xtol=xtol))
    elif gap.gap_type == "ii":
        d = zero_of(varphi)
        b, fb = _padded_endpoint(F, w_t, -1.0, width, target=mu, sign=+1)
        roots.append(bisect_root(lambda w: F(w) - mu, d, b, xtol=xtol))
    elif gap.gap_type == "iii":
        d = zero_of(varphi)
        a, fa = _padded_endpoint(F, w_b, +1.0, width, target=mu, sign=+1)
        roots.append(bisect_root(lambda w: F(w) - mu, a, d, xtol=xtol))
    else:
        raise ValueError(f"unknown gap type {gap.gap_type!r}")
    return [GraphEigenvalue(w, mu, sym_class, gap) for w in sorted(roots)]


@dataclass
class GraphEigenfunction:
    """Closed-form defect eigenfunction on the full ladder graph.

    Rail-vertex values are u_j = A r^|j| on the upper rail (the lower rail
    carries +u_j for the symmetric family and -u_j for the antisymmetric one);
    every edge trace solves -u'' = omega^2 u with those endpoint values.  A is
    fixed by unit weighted L^2 norm over the whole graph, A > 0.
    """

    ev: GraphEigenvalue
    L: float
    r: float
    amplitude: float

    # -- pointwise traces ---------------------------------------------------
    def vertex_value(self, j):
        return self.amplitude * self.r ** abs(j)

    def horizontal_trace(self, j, s):
        """Value on the upper-rail edge from vertex j to j+1 at s in [0, 1]."""
        w = self.ev.omega
        return (
            self.vertex_value(j) * math.sin(w * (1.0 - s))
            + self.vertex_value(j + 1) * math.sin(w * s)
        ) / math.sin(w)

    def horizontal_deriv(self, j, s):
        w = self.ev.omega
        return (
            -self.vertex_value(j) * w * math.cos(w * (1.0 - s))
            + self.vertex_value(j + 1) * w * math.cos(w * s)
        ) / math.sin(w)

    def vertical_trace(self, j, y):
        """Value on rung j at height y in [-L/2, L/2]."""
        w, half = self.ev.omega, 0.5 * self.ev.omega * self.L
        if self.ev.sym_class is SymmetryClass.SYMMETRIC:
            return self.vertex_value(j) * math.cos(w * y) / math.cos(half)
        return self.vertex_value(j) * math.sin(w * y) / math.sin(half)

    def vertical_deriv(self, j, y):
        w, half = self.ev.omega, 0.5 * self.ev.omega * self.L
        if self.ev.sym_class is SymmetryClass.SYMMETRIC:
            return -self.vertex_value(j) * w * math.sin(w * y) / math.cos(half)
        return self.vertex_value(j) * w * math.cos(w * y) / math.sin(half)

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


def build_eigenfunction(ev, L, *, consistency_tol=1e-8):
    """Assemble the closed-form eigenfunction for a computed gap eigenvalue.

    Verifies r = -g^mu(omega) (the Kirchhoff condition at the defect vertex in
    transfer form) before trusting the decay factor.
    """
    w = ev.omega
    r = reflection_root(w, L, ev.sym_class)
    gmu = g_mu_value(w, L, ev.mu, ev.sym_class)
    if not math.isfinite(gmu) or abs(r + gmu) > consistency_tol * (1.0 + abs(gmu)):
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
