"""Essential spectrum of the periodic ladder graph: bands, gaps, Bloch curves.

At quasimomentum theta the dispersion relation reads phi_L(omega) =
h_theta(omega), h_theta = sin w / (cos w - cos theta).  phi_L strictly
decreases between its poles and h_theta increases between its own, so
phi_L - h_theta (`dispersion.impedance_residual`) has at most one root on
each branch between consecutive poles of either term.  Its sign just inside
each branch end follows from the limits there, so every band edge and every
Bloch root is found inside a bracket known in advance, all branches at once,
by bracketed Newton on the residual and its slope
(`dispersion.impedance_and_slope`, `rootfind.falling_roots`): each
evaluation lies strictly inside its bracket and shrinks it by its sign, so
the bracket still certifies the root; no frequency grid is scanned.

Band edges come from theta in {0, pi}: on each pi-interval h_0 and h_pi are
the curves f_minus and f_plus, and omega lies in a gap exactly when
f_minus < phi_L < f_plus.  Each branch between consecutive points of
pi*Z ∪ poles(phi_L) therefore holds exactly one open gap (r+, r-), where
phi_L crosses f_plus and then f_minus.  An end that is a lattice point but no
pole carries the finite value phi_L there; if phi_L <= 0 at the left end the
gap starts on it (type ii), if phi_L >= 0 at the right end the gap stops on
it (type iii), otherwise both edges are interior crossings (type i).  Two
gaps meeting at a lattice zero of phi_L leave a flat band between them.
Breakpoints closer than the edge tolerance count as one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import impedance_and_slope, phi_L, phi_L_pole_or_zero, radicand
from .params import SymmetryClass
from .rootfind import dist_to_multiple, falling_roots

#: final bracket width (absolute) of band edges and Bloch roots; breakpoints
#: closer than this (relative to max(1, omega)) are fused into one
EDGE_TOL = 1e-10
#: distance (relative to max(1, omega)) within which `in_essential_spectrum`
#: treats omega as a special point: 0, a multiple of pi, a pole or zero of phi_L
MEMBERSHIP_TOL = 1e-9

# breakpoint tags: a point of pi*Z, a pole of phi_L, a pole of h_theta
_LATTICE, _POLE, _H_POLE = "lattice", "pole", "h_pole"


@dataclass(frozen=True)
class Band:
    """Closed spectral band [omega_lo, omega_hi]; degenerate (flat) bands allowed."""

    omega_lo: float
    omega_hi: float

    def __post_init__(self):
        if not 0.0 <= self.omega_lo <= self.omega_hi:
            raise ValueError(f"bad band interval [{self.omega_lo}, {self.omega_hi}]")

    @property
    def lambda_lo(self):
        return self.omega_lo**2

    @property
    def lambda_hi(self):
        return self.omega_hi**2

    @property
    def is_flat(self):
        return self.omega_lo == self.omega_hi

    def contains(self, omega):
        return self.omega_lo <= omega <= self.omega_hi


@dataclass(frozen=True)
class Gap:
    """Open spectral gap (omega_b, omega_t) with its endpoint type.

    Types: "i" both endpoints interior to a pi-interval (phi_L meets the
    window boundaries f+ at the bottom, f- at the top); "ii" bottom endpoint on
    pi*Z; "iii" top endpoint on pi*Z.
    """

    omega_b: float
    omega_t: float
    gap_type: str
    sym_class: SymmetryClass

    @property
    def lambda_b(self):
        return self.omega_b**2

    @property
    def lambda_t(self):
        return self.omega_t**2

    @property
    def width(self):
        return self.omega_t - self.omega_b

    def contains(self, omega):
        return self.omega_b < omega < self.omega_t


@dataclass
class BlochCurves:
    """Dispersion roots per quasimomentum value."""

    theta_grid: list
    roots: list  # list of sorted root lists, aligned with theta_grid


@dataclass
class CoverReport:
    """Union of both families' bands against [0, omega_max]."""

    ok: bool
    holes: list
    bands_sym: list
    bands_antisym: list
    omega_max: float


def _pi_multiples(first, stride, scale, omega_max):
    """m*pi/scale for m = first, first + stride, ... up to omega_max (+1e-12)."""
    out = []
    m = first
    while m * math.pi / scale <= omega_max + 1e-12:
        out.append(m * math.pi / scale)
        m += stride
    return out


def _phi_poles(L, sym_class, omega_max):
    """Poles of phi_L on [0, omega_max]: 2k pi/L (symmetric), (2k+1) pi/L (antisymmetric)."""
    first = 0 if sym_class is SymmetryClass.SYMMETRIC else 1
    return _pi_multiples(first, 2, L, omega_max)


def special_points(L, sym_class, omega_max):
    """(always_in, singular) frequency sets of the family on [0, omega_max].

    always_in: multiples of pi (from pi for the antisymmetric family, from 0
    for the symmetric one) plus the poles of phi_L (zeros of the family's own
    impedance denominator) -- all provably in the essential spectrum.
    singular: the zeros of phi_L, where the transfer coefficient g blows up;
    such a point belongs to the spectrum only if sin(omega) = 0 there (flat
    point of infinite multiplicity).
    """
    sym_class = SymmetryClass.parse(sym_class)
    anti = sym_class is SymmetryClass.ANTISYMMETRIC
    always = _pi_multiples(1 if anti else 0, 1, 1.0, omega_max)
    always += _phi_poles(L, sym_class, omega_max)
    singular = _pi_multiples(0 if anti else 1, 2, L, omega_max)
    return sorted(set(always)), singular


def _breakpoints(tagged, tol):
    """Sorted [omega, tags] from (omega, tag) pairs, fusing points within tol*max(1, omega).

    A fused point carries the union of the tags and the value of its lattice
    member, if it has one.
    """
    out = []
    for x, tag in sorted(tagged):
        if out and x - out[-1][0] <= tol * max(1.0, x):
            out[-1][1].add(tag)
            if tag == _LATTICE:
                out[-1][0] = x
        else:
            out.append([x, {tag}])
    return out


def in_essential_spectrum(omega, L, sym_class):
    """Membership test |g| <= 1 augmented with the special-point rules, as masks.

    Multiples of pi and poles of phi_L belong; omega < 0, omega = 0
    (antisymmetric) and the other zeros of phi_L do not.  Elsewhere the sign
    of the factored radicand (`dispersion.radicand`), (g^2 - 1) phi_L^2 /
    sin^2(omega), decides without cancelling next to a band edge.
    """
    sym_class = SymmetryClass.parse(sym_class)
    w = np.asarray(omega, dtype=float)
    tol = MEMBERSHIP_TOL * np.maximum(1.0, np.abs(w))
    excluded = ~(w >= -tol)  # NaN is excluded too
    if sym_class is SymmetryClass.ANTISYMMETRIC:
        excluded = excluded | (np.abs(w) <= tol)
    pole, zero = phi_L_pole_or_zero(0.5 * w * L, sym_class, tol)
    gap = radicand(w, L, sym_class)[1] > 0.0
    member = (dist_to_multiple(w, math.pi) <= tol) | pole | ~(zero | gap)
    return (~excluded & member)[()]


def _branch_gaps(L, sym_class, omega_hi, tol):
    """The gap of every branch of pi*Z ∪ poles(phi_L) whose left end is below omega_hi.

    On the k-th pi-interval f_plus is h_pi for even k and h_0 for odd k, and
    f_minus the other one.  phi_L - f_plus is positive just right of every
    branch start except a bare lattice point with phi_L <= 0 (the gap starts
    there), and phi_L - f_minus is negative just left of every branch end
    except a bare lattice point with phi_L >= 0 (the gap stops there); the
    remaining edges are found, all in one `rootfind.falling_roots` call.
    """
    top = omega_hi + math.pi  # completes the branch that holds omega_hi
    pts = _breakpoints(
        [(x, _LATTICE) for x in _pi_multiples(0, 1, 1.0, top)]
        + [(x, _POLE) for x in _phi_poles(L, sym_class, top)],
        tol,
    )
    rows = []  # (a, b, theta of f_plus, a is a bare lattice point, b is one)
    k = -1
    for (a, tags_a), (b, tags_b) in zip(pts, pts[1:]):
        if a >= omega_hi:
            break
        if _LATTICE in tags_a:
            k += 1
        rows.append((a, b, math.pi if k % 2 == 0 else 0.0,
                     tags_a == {_LATTICE}, tags_b == {_LATTICE}))
    if not rows:
        return []
    a, b, th_plus, bare_a, bare_b = (np.array(col) for col in zip(*rows))
    starts = bare_a & (phi_L(a, L, sym_class) <= 0.0)
    stops = bare_b & (phi_L(b, L, sym_class) >= 0.0)
    n_plus = np.count_nonzero(~starts)
    roots = falling_roots(
        lambda w, th: impedance_and_slope(w, th, L, sym_class),
        np.concatenate([a[~starts], a[~stops]]),
        np.concatenate([b[~starts], b[~stops]]),
        np.concatenate([th_plus[~starts], math.pi - th_plus[~stops]]),
        xtol=tol,
    )
    r_plus, r_minus = a.copy(), b.copy()
    r_plus[~starts] = roots[:n_plus]
    r_minus[~stops] = roots[n_plus:]
    # in a gap narrower than tol the two edges found may cross
    r_minus = np.maximum(r_minus, r_plus)
    return [
        Gap(float(lo), float(hi), "ii" if s else "iii" if t else "i", sym_class)
        for lo, hi, s, t in zip(r_plus, r_minus, starts, stops)
    ]


def essential_bands(L, sym_class, omega_max, *, tol=EDGE_TOL):
    """Maximal closed intervals of the essential spectrum on [0, omega_max].

    The bands are the complement of the branch gaps: from the top of one gap
    to the bottom of the next (from 0 to the first gap for the symmetric
    family; omega = 0 is excluded for the antisymmetric one).  Where two gaps
    meet at a lattice point the band is flat (omega_lo == omega_hi); the last
    band is cut at omega_max.
    """
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    sym_class = SymmetryClass.parse(sym_class)
    bands = []
    lo = 0.0 if sym_class is SymmetryClass.SYMMETRIC else None
    for g in _branch_gaps(L, sym_class, omega_max, tol):
        if lo is not None:
            bands.append(Band(lo, min(g.omega_b, omega_max)))
        lo = g.omega_t
    if lo <= omega_max:
        bands.append(Band(lo, omega_max))
    return bands


def gaps(L, sym_class, omega_max, *, tol=EDGE_TOL):
    """Typed spectral gaps inside (0, omega_max], one per branch of pi*Z ∪ poles(phi_L).

    A gap whose top edge lies above omega_max is dropped; use `first_n_gaps`
    to enumerate a fixed number of gaps.
    """
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    sym_class = SymmetryClass.parse(sym_class)
    return [g for g in _branch_gaps(L, sym_class, omega_max, tol) if g.omega_t <= omega_max]


def first_n_gaps(L, sym_class, n, *, tol=EDGE_TOL):
    """First n gaps ordered by frequency: the gaps of the first n branches.

    Every pi-interval holds at least one branch, so the branches starting
    below n*pi include the first n.
    """
    return _branch_gaps(L, SymmetryClass.parse(sym_class), n * math.pi, tol)[:n]


def bloch_curves(L, sym_class, omega_max, theta_grid, *, tol=EDGE_TOL):
    """Roots in omega of the dispersion relation for each theta in theta_grid.

    phi_L - h_theta falls from +inf to -inf on each branch between
    consecutive poles of phi_L and of h_theta (cos w = cos theta), so each
    branch holds one root, found for all branches and all theta at once by
    `rootfind.falling_roots`.
    Before the first pole the antisymmetric residual starts at 0 (omega = 0)
    and only falls, so that stretch holds no root.  Roots on a breakpoint,
    where both sides diverge, are added explicitly: the fold roots at
    multiples of pi for theta in {0, pi} (a pole of h_theta where sin w = 0)
    and the points where a pole of phi_L meets cos w = cos theta.  omega = 0
    is dropped for the antisymmetric family.
    """
    sym_class = SymmetryClass.parse(sym_class)
    anti = sym_class is SymmetryClass.ANTISYMMETRIC
    top = omega_max + 2.0 * math.pi  # completes the branch that holds omega_max
    poles = [(x, _POLE) for x in _phi_poles(L, sym_class, top)]
    lo, hi, th, owner, roots = [], [], [], [], []
    for i, theta in enumerate(theta_grid):
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"quasimomentum theta={theta} outside [0, pi]")
        h_poles = [
            x
            for c in _pi_multiples(0, 2, 1.0, top + math.pi)
            for x in (c - theta, c + theta)
            if 0.0 <= x <= top
        ]
        pts = _breakpoints(poles + [(x, _H_POLE) for x in h_poles], tol)
        for (a, _), (b, _) in zip(pts, pts[1:]):
            if a < omega_max:
                lo.append(a)
                hi.append(b)
                th.append(theta)
                owner.append(i)
        roots.append([  # roots on a breakpoint
            x
            for x, tags in pts
            if x <= omega_max
            and _H_POLE in tags
            and (_POLE in tags or dist_to_multiple(x, math.pi) <= tol * max(1.0, x))
        ])
    found = falling_roots(
        lambda w, t: impedance_and_slope(w, t, L, sym_class), lo, hi, th, xtol=tol
    )
    for i, w in zip(owner, found):
        if w <= omega_max:
            roots[i].append(float(w))
    if anti:
        roots = [[w for w in rs if w > 10 * tol] for rs in roots]
    return BlochCurves(list(theta_grid), [sorted(rs) for rs in roots])


def spectrum_cover_check(L, omega_max, *, hole_tol=1e-8, tol=EDGE_TOL):
    """Verify that the two families' bands jointly cover [0, omega_max]."""
    bs = essential_bands(L, SymmetryClass.SYMMETRIC, omega_max, tol=tol)
    ba = essential_bands(L, SymmetryClass.ANTISYMMETRIC, omega_max, tol=tol)
    ivs = sorted(
        [(b.omega_lo, b.omega_hi) for b in bs] + [(b.omega_lo, b.omega_hi) for b in ba]
    )
    holes = []
    cur = 0.0
    for lo, hi in ivs:
        if lo - cur > hole_tol:
            holes.append((cur, lo))
        cur = max(cur, hi)
    if omega_max - cur > hole_tol:
        holes.append((cur, omega_max))
    return CoverReport(not holes, holes, bs, ba, omega_max)
