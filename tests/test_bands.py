"""Band/gap enumeration, classification, Bloch curves, and the cover check.

Frozen decimal values below were produced by the scan+bisection pipeline and
cross-checked against the closed-form edge identities (|g|=1 band edges solve
3cos^2 w +- 2cos w - 1 = 0 for L=2) and the 1-D oracle band edges.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderspec import (
    Band,
    Gap,
    bloch_curves,
    essential_bands,
    first_n_gaps,
    gaps,
    in_essential_spectrum,
    special_points,
    spectrum_cover_check,
)
from ladderspec import dispersion as dsp
from ladderspec.modes import discrete_eigenvalues
from ladderspec.params import SymmetryClass
from ladderspec.rootfind import dist_to_multiple
from mp_reference import mp_g

S = SymmetryClass.SYMMETRIC
A = SymmetryClass.ANTISYMMETRIC

# first five symmetric gaps of L=2; bottom edge is arccos(1/3), top arccos(-1/3)
L2_SYM_GAPS = [
    (1.230959417331, 1.910633236259, "i"),
    (4.372552070921, 5.052225889848, "i"),
    (7.514144724511, 8.193818543438, "i"),
    (10.655737378100, 11.335411197028, "i"),
    (13.797330031690, 14.477003850618, "i"),
]

L2_ANTI_GAPS = [
    (0.0, 0.841068670593, "ii"),
    (2.300523982997, math.pi, "iii"),
    (math.pi, 3.982661324182, "ii"),
    (5.442116636587, 2 * math.pi, "iii"),
    (2 * math.pi, 7.124253977772, "ii"),
]

L52_SYM_GAPS = [
    (1.034842834680, 1.613928424365, "i"),
    (2.787896855726, math.pi, "iii"),
    (3.663683453225, 4.294430647426, "i"),
    (5.550275017160, 2 * math.pi, "iii"),
    (2 * math.pi, 7.016095597199, "ii"),
]


def test_first_gap_edges_solve_arccos_identity():
    g1 = first_n_gaps(2.0, S, 1)[0]
    assert g1.omega_b == pytest.approx(math.acos(1.0 / 3.0), abs=1e-9)
    assert g1.omega_t == pytest.approx(math.acos(-1.0 / 3.0), abs=1e-9)
    assert g1.gap_type == "i"


@pytest.mark.parametrize(
    "L,cls,expected",
    [(2.0, S, L2_SYM_GAPS), (2.0, A, L2_ANTI_GAPS), (2.5, S, L52_SYM_GAPS)],
)
def test_first_five_gaps_frozen(L, cls, expected):
    found = first_n_gaps(L, cls, 5)
    assert len(found) == 5
    for g, (wb, wt, typ) in zip(found, expected):
        assert g.omega_b == pytest.approx(wb, abs=1e-8)
        assert g.omega_t == pytest.approx(wt, abs=1e-8)
        assert g.gap_type == typ


def test_even_integer_L_has_only_type_i_gaps():
    # for L=8 every multiple of pi is interior to a band (tan(n pi L/2)=0), so
    # no gap endpoint can sit on the pi-lattice and types (ii)/(iii) cannot occur
    for g in first_n_gaps(8.0, S, 5):
        assert g.gap_type == "i"
        assert g.omega_b == pytest.approx(dsp_first_crossing(g.omega_b), abs=1e-9)


def dsp_first_crossing(w):
    # |g| = 1 at every computed type (i) edge
    gv = dsp.g_value(w, 8.0, S)
    assert abs(abs(gv) - 1.0) < 1e-8
    return w


def test_gap_endpoint_identities_by_type():
    # type (i): phi_L meets f+ at the bottom, f- at the top
    # type (ii): bottom on the pi-lattice with phi_L <= 0, top on f-
    # type (iii): bottom on f+, top on the pi-lattice with phi_L >= 0
    for L, cls in [(2.0, S), (2.5, S), (2.0, A), (8.0, S)]:
        for g in first_n_gaps(L, cls, 5):
            pb = dsp.phi_L(g.omega_b, L, cls)
            pt = dsp.phi_L(g.omega_t, L, cls)
            if g.gap_type == "i":
                assert pb == pytest.approx(dsp.f_plus(g.omega_b), abs=1e-7)
                assert pt == pytest.approx(dsp.f_minus(g.omega_t), abs=1e-7)
            elif g.gap_type == "ii":
                assert abs(g.omega_b / math.pi - round(g.omega_b / math.pi)) < 1e-9
                assert pb <= 1e-9
                assert pt == pytest.approx(dsp.f_minus(g.omega_t), abs=1e-7)
            else:
                assert pb == pytest.approx(dsp.f_plus(g.omega_b), abs=1e-7)
                assert abs(g.omega_t / math.pi - round(g.omega_t / math.pi)) < 1e-9
                assert pt >= -1e-9


def test_symmetric_gaps_avoid_rung_resonances():
    # closed symmetric gaps never meet 2 pi Z / L (those points are always spectrum)
    for L in (2.0, 2.5, 8.0):
        step = 2.0 * math.pi / L
        for g in gaps(L, S, 20.0):
            k_lo = math.ceil((g.omega_b - 1e-9) / step)
            assert k_lo * step > g.omega_t - 1e-9 or k_lo * step < g.omega_b + 1e-9


def test_bands_and_gaps_tile_the_frequency_axis():
    for L, cls in [(2.0, S), (2.0, A), (2.5, S)]:
        bands = essential_bands(L, cls, 15.0)
        found = gaps(L, cls, 15.0)
        # every gap matches consecutive band endpoints; no overlap, no hole
        edges = []
        for b in bands:
            edges.extend([b.omega_lo, b.omega_hi])
        for g in found:
            if not (cls is A and g.omega_b == 0.0):
                # (0, first band) counts as an antisymmetric gap even though
                # omega = 0 is not a band edge there (the origin is excluded)
                assert any(abs(g.omega_b - e) < 1e-8 for e in edges)
            assert any(abs(g.omega_t - e) < 1e-8 for e in edges)
        # interiors are disjoint: no gap point inside a band and vice versa
        rng = np.random.default_rng(3)
        for g in found:
            for w in rng.uniform(g.omega_b + 1e-6, g.omega_t - 1e-6, 5):
                assert not in_essential_spectrum(w, L, cls)


def test_band_membership_matches_transfer_bound():
    rng = np.random.default_rng(4)
    for L, cls in [(2.0, S), (2.0, A), (0.5, S)]:
        bands = essential_bands(L, cls, 6 * math.pi)
        lo = np.array([b.omega_lo for b in bands])
        hi = np.array([b.omega_hi for b in bands])
        for w in rng.uniform(0.01, 6 * math.pi - 0.01, 500):
            inside = bool(np.any((w >= lo - 1e-12) & (w <= hi + 1e-12)))
            assert in_essential_spectrum(w, L, cls) == inside


def test_membership_at_a_pinned_point_next_to_a_gap_edge():
    # the 50-digit |g| - 1 is +2.5e-17 here, so the point lies in a gap; the
    # float g = -cos w + sin w / phi_L reads |g| <= 1
    w, L = 3.1416031255969763, 0.99999
    with mpmath.workdps(50):
        assert abs(mp_g(w, L, A)) - 1 > 0
    assert not in_essential_spectrum(w, L, A)


@pytest.mark.parametrize("L", [0.99999, 2.00001, 10 * math.pi / 7])
@pytest.mark.parametrize("cls", [S, A])
def test_membership_next_to_band_edges_matches_50_digit_g(L, cls):
    # |g| - 1 cancels next to a band edge; the sign of the factored radicand
    # does not.  Both sides of every gap edge below 12, at relative distances
    # 1e-5 to 1e-16, against the 50-digit |g| <= 1
    checked = 0
    with mpmath.workdps(50):
        for g in gaps(L, cls, 12.0):
            for edge in (g.omega_b, g.omega_t):
                for k in range(5, 17):
                    for side in (-1.0, 1.0):
                        w = edge * (1.0 + side * 3.0 * 10.0**-k)
                        tol = 1e-9 * max(1.0, w)
                        if w <= tol or dist_to_multiple(w, math.pi) <= tol:
                            continue
                        if dsp.phi_L_pole_or_zero(0.5 * w * L, cls, tol):
                            continue  # special points: decided by rule
                        want = abs(mp_g(w, L, cls)) <= 1
                        assert in_essential_spectrum(w, L, cls) == want, (w, k)
                        checked += 1
    assert checked > 100


def test_special_points_always_in_spectrum():
    for L in (2.0, 8.0, 0.5, 10 * math.pi / 7):
        for cls in (S, A):
            always, singular = special_points(L, cls, 10 * math.pi)
            for w in always:
                if cls is A and w == 0.0:
                    continue  # omega = 0 is excluded from the antisymmetric family
                assert in_essential_spectrum(w, L, cls), (L, cls, w)
            # zeros of phi_L belong to the spectrum exactly when they are flat
            # points (sin w = 0 there); otherwise they sit inside gaps
            for w in singular:
                if cls is A and w == 0.0:
                    continue
                flat = abs(math.sin(w)) < 1e-9
                assert in_essential_spectrum(w, L, cls) == flat, (L, cls, w)


def test_flat_point_isolated_between_gaps_for_half_integer_L():
    # L = 1/2: omega = 2 pi is a spectrum point sitting alone between two gaps
    w0 = 2 * math.pi
    assert in_essential_spectrum(w0, 0.5, S)
    assert not in_essential_spectrum(w0 - 1e-4, 0.5, S)
    assert not in_essential_spectrum(w0 + 1e-4, 0.5, S)
    bands = essential_bands(0.5, S, 25.0)
    degenerate = [b for b in bands if b.is_flat]
    assert any(abs(b.omega_lo - w0) < 1e-9 for b in degenerate)
    for b in degenerate:
        assert b.omega_lo == b.omega_hi


def test_antisym_integer_L_flat_points_on_pi_lattice():
    bands = essential_bands(2.0, A, 8.0)
    flats = sorted(b.omega_lo for b in bands if b.is_flat)
    assert flats == pytest.approx([math.pi, 2 * math.pi], abs=1e-9)


def test_band_lambda_view_and_contains():
    b = essential_bands(2.0, S, 12.0)[1]
    assert b.lambda_lo == pytest.approx(b.omega_lo**2)
    assert b.lambda_hi == pytest.approx(b.omega_hi**2)
    assert b.contains(0.5 * (b.omega_lo + b.omega_hi))
    assert not b.contains(b.omega_hi + 0.1)
    g = first_n_gaps(2.0, S, 1)[0]
    assert g.lambda_b == pytest.approx(g.omega_b**2)
    assert g.width == pytest.approx(g.omega_t - g.omega_b)
    assert g.contains(1.5) and not g.contains(2.0)


def test_gaps_drop_trailing_partial_interval():
    # omega_max = 1.5 lands inside the first gap: its top edge is unknown, so
    # the partial gap is not reported ...
    assert gaps(2.0, S, 1.5) == []
    # ... but first_n_gaps extends the scan and still finds it
    assert first_n_gaps(2.0, S, 1)[0].omega_t == pytest.approx(1.910633236, abs=1e-8)


def test_bloch_curves_special_points():
    theta_grid = [0.0, 0.5 * math.pi, math.pi]
    bc = bloch_curves(2.0, S, math.pi + 0.1, theta_grid)
    roots0 = bc.roots[0]
    rootspi = bc.roots[2]
    assert any(abs(w) < 1e-9 for w in roots0)
    assert any(abs(w - math.pi) < 1e-9 for w in rootspi)
    union = set()
    for rs in (roots0, rootspi):
        union.update(round(w, 6) for w in rs)
    assert 0.0 in union and round(math.pi, 6) in union
    # residual vanishes at every reported root
    for th, rs in zip(bc.theta_grid, bc.roots):
        for w in rs:
            assert abs(dsp.dispersion_residual(th, w, 2.0, S)) < 1e-7


def test_bloch_curves_lowest_root_at_half_pi():
    bc = bloch_curves(2.0, S, math.pi, [0.5 * math.pi])
    lowest = bc.roots[0][0]
    assert 0.0 < lowest < math.acos(1.0 / 3.0)


def test_bloch_curves_antisym_excludes_zero():
    bc = bloch_curves(2.0, A, 2.0, [0.0, 1.0, math.pi])
    for rs in bc.roots:
        for w in rs:
            assert w > 1e-9


def test_cover_union_of_both_classes():
    for L in (2.0, 8.0):
        rep = spectrum_cover_check(L, 10 * math.pi)
        assert rep.ok
        assert rep.holes == []


def test_sym_gap_interiors_live_in_antisym_bands():
    for g in first_n_gaps(2.0, S, 3):
        mid = 0.5 * (g.omega_b + g.omega_t)
        assert in_essential_spectrum(mid, 2.0, A)


# (L, class, gap index, edge, curve it lies on, edge to 7 digits): type (i)
# edges at L=5/2, the f+/f- edges of the type (iii)/(ii) gaps at L=2
# antisymmetric, edges next to the pi-lattice at L=10pi/7 and the last gaps
# below omega=50 at L=40 (index -1 of gaps(L, cls, 50))
MP_EDGES = [
    (2.5, S, 0, "b", "+", 1.0348428),
    (2.5, S, 0, "t", "-", 1.6139284),
    (2.0, A, 1, "b", "+", 2.3005240),
    (2.0, A, 2, "t", "-", 3.9826613),
    (10 * math.pi / 7, S, 2, "b", "+", 2.9042983),
    (10 * math.pi / 7, A, 3, "t", "-", 3.3906719),
    (40.0, S, -1, "t", "-", 49.8776769),
    (40.0, A, -1, "b", "+", 49.8908982),
]


def _mp_edge(L, cls, curve, approx):
    """Root of phi_L = f+ or f- at 50 digits, bracketed within 1e-6 of approx."""
    with mpmath.workdps(50):
        L = mpmath.mpf(L)

        def residual(w):
            half = 0.5 * w * L
            phi = 2 / mpmath.tan(half) if cls is S else -2 * mpmath.tan(half)
            t = mpmath.fmod(w, mpmath.pi)
            f = mpmath.tan(t / 2) if curve == "+" else -mpmath.cot(t / 2)
            return phi - f

        half_width = mpmath.mpf("1e-6")
        lo, hi = mpmath.mpf(approx) - half_width, mpmath.mpf(approx) + half_width
        assert residual(lo) > 0 > residual(hi)  # one falling crossing in the bracket
        return float(mpmath.findroot(residual, (lo, hi), solver="anderson"))


@pytest.mark.parametrize("L,cls,index,edge,curve,approx", MP_EDGES)
def test_band_edges_match_50_digit_reference(L, cls, index, edge, curve, approx):
    if index < 0:
        gap = gaps(L, cls, 50.0)[index]
    else:
        gap = first_n_gaps(L, cls, index + 1)[index]
    got = gap.omega_b if edge == "b" else gap.omega_t
    assert got == pytest.approx(_mp_edge(L, cls, curve, approx), abs=1e-10)


def _on_lattice(w):
    return abs(w - math.pi * round(w / math.pi)) <= 1e-9 * max(1.0, w)


@settings(max_examples=60)
@given(
    L=st.floats(0.3, 12.0),
    cls=st.sampled_from([S, A]),
    omega_max=st.floats(1.0, 30.0),
    mu=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**16),
)
def test_bands_and_gaps_properties(L, cls, omega_max, mu, seed):
    bands = essential_bands(L, cls, omega_max)
    found = gaps(L, cls, omega_max)
    # bands and gaps tile [0, omega_max] in alternation, without overlap
    pieces = sorted(
        [(b.omega_lo, b.omega_hi, "band") for b in bands]
        + [(g.omega_b, g.omega_t, "gap") for g in found],
        key=lambda p: (p[0], p[1]),
    )
    cur, kind = 0.0, None
    for lo, hi, k in pieces:
        assert lo == cur and k != kind
        cur, kind = hi, k
    # what is left above the last piece is the start of an unreported gap
    assert cur <= omega_max
    if cur < omega_max:
        assert not in_essential_spectrum(0.5 * (cur + omega_max), L, cls)
    # random points agree with the independent scalar membership test
    edges = [cur] + [x for lo, hi, _ in pieces for x in (lo, hi)]
    rng = np.random.default_rng(seed)
    for w in rng.uniform(0.0, omega_max, 40):
        if min(abs(w - e) for e in edges) < 1e-7:
            continue
        in_band = any(b.omega_lo <= w <= b.omega_hi for b in bands)
        assert in_essential_spectrum(w, L, cls) == in_band
    for g in found:
        # endpoint identities of each type; an edge on the lattice is a
        # lattice point where phi_L has the type's sign
        pb, pt = dsp.phi_L(g.omega_b, L, cls), dsp.phi_L(g.omega_t, L, cls)
        if g.gap_type == "ii":
            assert _on_lattice(g.omega_b) and pb <= 0.0
        else:
            assert not _on_lattice(g.omega_b)
            assert pb == pytest.approx(dsp.f_plus(g.omega_b), rel=1e-6, abs=1e-6)
        if g.gap_type == "iii":
            assert _on_lattice(g.omega_t) and pt >= 0.0
        else:
            assert not _on_lattice(g.omega_t)
            assert pt == pytest.approx(dsp.f_minus(g.omega_t), rel=1e-6, abs=1e-6)
        # gate-3 rule: symmetric gaps carry 2 defect eigenvalues for type
        # (i) and 1 for types (ii)/(iii); antisymmetric ones 1 or 2
        got = len(discrete_eigenvalues(L, mu, cls, g))
        if cls is S:
            assert got == (2 if g.gap_type == "i" else 1)
        else:
            assert got in (1, 2)
