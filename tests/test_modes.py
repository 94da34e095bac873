"""Defect eigenvalues, eigenfunction reconstruction, and flat-band arithmetic.

Frozen eigenvalue decimals were cross-validated against the independent 1-D
finite element oracle (see test_graph1d) to relative 1e-6 and are pinned here
at the root-finder's own precision.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ladderspec import (
    build_eigenfunction,
    discrete_eigenvalues,
    first_n_gaps,
    flat_bands,
    gaps,
)
from ladderspec import dispersion as dsp
from ladderspec.params import ExactLength, SymmetryClass
from ladderspec.rootfind import bisect_root
from mp_reference import mp_capital_F

S = SymmetryClass.SYMMETRIC
A = SymmetryClass.ANTISYMMETRIC


def test_frozen_eigenvalues_L2():
    g1s = first_n_gaps(2.0, S, 1)[0]
    assert [e.omega for e in discrete_eigenvalues(2.0, 0.25, S, g1s)] == pytest.approx(
        [1.3410710594083, 1.8005215941811], abs=1e-9
    )
    assert [e.omega for e in discrete_eigenvalues(2.0, 0.5, S, g1s)] == pytest.approx(
        [1.2736738104477, 1.8679188431422], abs=1e-9
    )
    g2s = first_n_gaps(2.0, S, 2)[1]
    assert [e.omega for e in discrete_eigenvalues(2.0, 0.25, S, g2s)] == pytest.approx(
        [4.4826637129985, 4.9421142477709], abs=1e-9
    )
    g1a = first_n_gaps(2.0, A, 1)[0]
    assert [e.omega for e in discrete_eigenvalues(2.0, 0.25, A, g1a)] == pytest.approx(
        [0.8113357208717], abs=1e-9
    )
    assert [e.omega for e in discrete_eigenvalues(2.0, 0.5, A, g1a)] == pytest.approx(
        [0.8283079586503], abs=1e-9
    )


def test_root_counts_follow_gap_type():
    for L in (2.0, 2.5):
        for cls in (S, A):
            for gap in first_n_gaps(L, cls, 5):
                for mu in (0.1, 0.5, 0.9):
                    n = len(discrete_eigenvalues(L, mu, cls, gap))
                    if gap.gap_type == "i":
                        assert n == 2, (L, cls, gap, mu)
                    else:
                        assert n == 1, (L, cls, gap, mu)
                for mu in (1.0, 1.5):
                    assert discrete_eigenvalues(L, mu, cls, gap) == []


def test_eigenvalue_invariants():
    for L, cls, mu in [(2.0, S, 0.25), (2.5, S, 0.4), (2.0, A, 0.7)]:
        for gap in first_n_gaps(L, cls, 3):
            evs = discrete_eigenvalues(L, mu, cls, gap)
            last = gap.omega_b
            for ev in evs:
                assert gap.omega_b < ev.omega < gap.omega_t
                assert ev.omega > last  # sorted, simple
                last = ev.omega
                assert ev.lam == pytest.approx(ev.omega**2)
                assert ev.multiplicity == 1
                assert dsp.capital_F(ev.omega, L, cls) == pytest.approx(mu, abs=1e-9)
                assert abs(dsp.g_value(ev.omega, L, cls)) > 1.0


def test_each_eigenvalue_carries_the_gap_object_it_was_found_in():
    # the graph commands number each eigenvalue's gap by the identity of
    # the Gap objects they passed in
    gaps = first_n_gaps(2.0, S, 4)
    evs = discrete_eigenvalues(2.0, [0.25, 0.5], S, gaps)
    assert len(evs) >= 8
    assert [[ev.gap is g for g in gaps].count(True) for ev in evs] == [1] * len(evs)


def test_roots_respect_monotone_branch_markers():
    # independent re-derivation of the interior markers: c is the zero of
    # phi_L, d the zero of phi_L + phi_2; type (ii) roots live in (d, w_t),
    # type (iii) roots in (w_b, d), type (i) roots avoid [min,max](c,d)
    L = 2.5
    gaps5 = first_n_gaps(L, S, 5)
    varphi = lambda w: dsp.phi_L(w, L, S) + dsp.phi_2(w)
    g_iii = gaps5[1]
    d = bisect_root(varphi, g_iii.omega_b + 1e-9, g_iii.omega_t - 1e-9)
    (root,) = discrete_eigenvalues(L, 0.3, S, g_iii)
    assert g_iii.omega_b < root.omega < d
    g_ii = gaps5[4]
    d = bisect_root(varphi, g_ii.omega_b + 1e-9, g_ii.omega_t - 1e-9)
    (root,) = discrete_eigenvalues(L, 0.3, S, g_ii)
    assert d < root.omega < g_ii.omega_t
    g_i = gaps5[0]
    c = bisect_root(lambda w: dsp.phi_L(w, L, S), g_i.omega_b + 1e-9, g_i.omega_t - 1e-9)
    d = bisect_root(varphi, g_i.omega_b + 1e-9, g_i.omega_t - 1e-9)
    lo, hi = discrete_eigenvalues(L, 0.3, S, g_i)
    assert g_i.omega_b < lo.omega < min(c, d)
    assert max(c, d) < hi.omega < g_i.omega_t


# (L, class, gap index, mu, roots to 7 digits): both roots of the first
# type (i) gap at L=2 and at L=5/2 (symmetric), the roots of the type (iii)
# and (ii) gaps at L=2 (antisymmetric)
MP_ROOTS = [
    (2.0, S, 0, 0.25, (1.3410711, 1.8005216)),
    (2.5, S, 0, 0.4, (1.0866502, 1.5635493)),
    (2.0, A, 1, 0.25, (2.3302569,)),
    (2.0, A, 2, 0.25, (3.9529284,)),
]


def _mp_root(L, cls, mu, approx):
    """Root of F(omega) = mu at 50 digits, F in its g-form, within 1e-6 of approx."""
    with mpmath.workdps(50):
        residual = lambda w: mp_capital_F(w, L, cls) - mpmath.mpf(mu)
        half_width = mpmath.mpf("1e-6")
        lo, hi = mpmath.mpf(approx) - half_width, mpmath.mpf(approx) + half_width
        assert residual(lo) * residual(hi) < 0  # one crossing in the bracket
        return float(mpmath.findroot(residual, (lo, hi), solver="anderson"))


@pytest.mark.parametrize("L,cls,index,mu,approx", MP_ROOTS)
def test_defect_roots_match_50_digit_reference(L, cls, index, mu, approx):
    gap = first_n_gaps(L, cls, index + 1)[index]
    got = [ev.omega for ev in discrete_eigenvalues(L, mu, cls, gap)]
    want = [_mp_root(L, cls, mu, a) for a in approx]
    assert got == pytest.approx(want, rel=1e-12)


def _F_miss(w, L, cls, mu):
    """|F(w) - mu| and how far F moves when w moves by 4 ulp, both at 30 digits.

    F is evaluated in mpmath, in its g-form, so the check does not rest on
    the float impedance form that `capital_F` uses.  No float root checks
    F = mu closer than the 4-ulp move: at L=11.6875 antisymmetric, mu=0.5,
    the root 9.410432707963167 is right to 2e-16 but F has slope -9e6 there.
    """
    h = 4 * math.ulp(w)
    with mpmath.workdps(30):
        miss = abs(mp_capital_F(w, L, cls) - mpmath.mpf(mu))
        spread = abs(mp_capital_F(w + h, L, cls) - mp_capital_F(w - h, L, cls))
    return float(miss), float(spread)


@settings(max_examples=60)
@given(
    L=st.floats(0.3, 12.0),
    cls=st.sampled_from([S, A]),
    omega_max=st.floats(1.0, 30.0),
    mus=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=2, unique=True),
)
def test_defect_roots_properties(L, cls, omega_max, mus):
    found = gaps(L, cls, omega_max)
    evs = discrete_eigenvalues(L, mus, cls, found)
    # one flat list ordered by mu, then gap, then omega: the one-gap calls
    # in that order
    singles = [ev for mu in mus for g in found for ev in discrete_eigenvalues(L, mu, cls, g)]
    assert [(ev.mu, ev.gap) for ev in evs] == [(ev.mu, ev.gap) for ev in singles]
    assert [ev.omega for ev in evs] == pytest.approx(
        [ev.omega for ev in singles], rel=1e-13
    )
    for mu in mus:
        for g in found:
            roots = [ev for ev in evs if ev.mu == mu and ev.gap == g]
            # gate-3 count: one root per branch of the gap type
            assert len(roots) == (2 if g.gap_type == "i" else 1)
            omegas = [ev.omega for ev in roots]
            assert omegas == sorted(omegas)
            assert all(g.omega_b <= w <= g.omega_t for w in omegas)
            if g.width > 1e-3:
                # the independent g-form of F, and the eigenfunction's own
                # consistency check r = -g_mu
                for ev in roots:
                    miss, spread = _F_miss(ev.omega, L, cls, mu)
                    assert miss <= 1e-8 + spread, (ev, miss, spread)
                    build_eigenfunction(ev, L)


def _eigenfunction(L=2.0, mu=0.25, cls=S, which=0, gap_index=0):
    gap = first_n_gaps(L, cls, gap_index + 1)[gap_index]
    ev = discrete_eigenvalues(L, mu, cls, gap)[which]
    return build_eigenfunction(ev, L)


def test_eigenfunction_decay_and_symmetry():
    ef = _eigenfunction()
    assert abs(ef.r) < 1.0
    assert ef.amplitude > 0.0
    for j in range(0, 15):
        assert ef.vertex_value(j + 1) / ef.vertex_value(j) == pytest.approx(ef.r)
        assert ef.vertex_value(-j) == ef.vertex_value(j)
    # r equals the transfer value -g_mu at the defect vertex
    gmu = dsp.g_mu_value(ef.ev.omega, ef.L, ef.ev.mu, S)
    assert ef.r == pytest.approx(-gmu, abs=1e-10)


def test_eigenfunction_trace_endpoint_consistency():
    for ef in [_eigenfunction(), _eigenfunction(cls=A, mu=0.25)]:
        sgn = 1.0 if ef.ev.sym_class is S else -1.0
        for j in (-3, -1, 0, 2):
            assert ef.horizontal_trace(j, 0.0) == pytest.approx(ef.vertex_value(j))
            assert ef.horizontal_trace(j, 1.0) == pytest.approx(ef.vertex_value(j + 1))
            # rung meets the upper rail at +L/2 and the mirrored rail at -L/2
            assert ef.vertical_trace(j, 0.5 * ef.L) == pytest.approx(
                ef.vertex_value(j), rel=1e-12
            )
            assert ef.vertical_trace(j, -0.5 * ef.L) == pytest.approx(
                sgn * ef.vertex_value(j), rel=1e-12
            )


def test_eigenfunction_traces_on_arrays_match_scalar_calls():
    # the array form is the scalar form elementwise, to the last bit, over
    # every eigenfunction of nine weights in the first two gaps of each class
    rng = np.random.default_rng(3)
    j = np.arange(-12, 13)
    mus = [0.1 * k for k in range(1, 10)]
    for L in (2.0, ExactLength.parse("10pi/7").value):
        for cls in (S, A):
            for ev in discrete_eigenvalues(L, mus, cls, first_n_gaps(L, cls, 2)):
                ef = build_eigenfunction(ev, L)
                s = rng.uniform(0.0, 1.0, j.size)
                y = rng.uniform(-0.5 * L, 0.5 * L, j.size)
                pairs = [
                    (ef.vertex_value(j), [ef.vertex_value(int(k)) for k in j]),
                    (
                        ef.horizontal_trace(j, s),
                        [ef.horizontal_trace(int(k), float(t)) for k, t in zip(j, s)],
                    ),
                    (
                        ef.vertical_trace(j, y),
                        [ef.vertical_trace(int(k), float(t)) for k, t in zip(j, y)],
                    ),
                ]
                for arr, scalars in pairs:
                    assert arr.shape == j.shape
                    assert arr.tobytes() == np.array(scalars).tobytes(), (ev, L)


def test_eigenfunction_solves_edge_ode():
    # -u'' = w^2 u on every edge.  Each trace is written as the sin/cos
    # solution c cos(w x) + d sin(w x) through its value and slope at x = 0
    # (both from the package), whose second derivative is analytic; no
    # finite difference, so no round-off decides the comparison
    ef = _eigenfunction()
    w = ef.ev.omega
    w2 = w**2

    def upp(trace, deriv, x):
        c, d = trace(0.0), deriv(0.0) / w
        return -w2 * (c * math.cos(w * x) + d * math.sin(w * x))

    for j in (-2, 0, 1):
        for s in (0.2, 0.5, 0.8):
            u2 = upp(
                lambda x: ef.horizontal_trace(j, x), lambda x: ef.horizontal_deriv(j, x), s
            )
            assert -u2 == pytest.approx(w2 * ef.horizontal_trace(j, s), rel=1e-4)
        for y in (-0.3, 0.1, 0.6):
            u2 = upp(
                lambda x: ef.vertical_trace(j, x), lambda x: ef.vertical_deriv(j, x), y
            )
            assert -u2 == pytest.approx(w2 * ef.vertical_trace(j, y), rel=1e-4)


def test_eigenfunction_kirchhoff_at_all_vertices():
    for ef in [_eigenfunction(), _eigenfunction(which=1), _eigenfunction(cls=A)]:
        scale = ef.ev.omega * ef.amplitude
        for j in range(-20, 21):
            assert abs(ef.kirchhoff_residual(j)) <= 1e-8 * scale


def test_eigenfunction_unit_norm_by_quadrature():
    # independent route: adaptive quadrature of the squared traces, both rails
    # and every rung weighted by mu at j=0, truncated where r^2|j| underflows
    for ef in [_eigenfunction(), _eigenfunction(cls=A, mu=0.4)]:
        # truncate once the geometric tail r^(2J) drops below quadrature noise
        J = max(35, int(math.log(1e-14) / math.log(ef.r**2)) + 2)
        total = 0.0
        for j in range(-J, J):
            total += 2.0 * quad(lambda s: ef.horizontal_trace(j, s) ** 2, 0.0, 1.0)[0]
        for j in range(-J, J + 1):
            wgt = ef.ev.mu if j == 0 else 1.0
            total += (
                wgt
                * quad(lambda y: ef.vertical_trace(j, y) ** 2, -0.5 * ef.L, 0.5 * ef.L)[0]
            )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_build_eigenfunction_rejects_non_eigenvalue():
    gap = first_n_gaps(2.0, S, 1)[0]
    real = discrete_eigenvalues(2.0, 0.25, S, gap)[0]
    for w_fake in (
        gap.omega_b + 0.3 * gap.width,  # in-gap but F(w) != mu
        0.5 * (gap.omega_b + gap.omega_t),  # exactly the zero of phi_L (g infinite)
    ):
        fake = type(real)(omega=w_fake, mu=0.25, sym_class=S, gap=gap)
        with pytest.raises(ValueError):
            build_eigenfunction(fake, 2.0)


def test_flat_bands_symmetric():
    fb = flat_bands("1/2", S, 25.0)
    assert fb.in_qc
    assert fb.witness == Fraction(1, 2)
    assert fb.omegas == pytest.approx((2 * math.pi, 6 * math.pi))

    fb8 = flat_bands(8, S, 100.0)
    assert not fb8.in_qc  # even numerator
    assert fb8.omegas == ()

    fb2 = flat_bands(2, S, 100.0)
    assert fb2.omegas == ()


def test_flat_bands_antisymmetric():
    # even numerator: every multiple of pi; odd numerator: every other one
    assert flat_bands(2, A, 10.0).omegas == pytest.approx(
        (math.pi, 2 * math.pi, 3 * math.pi)
    )
    assert flat_bands(8, A, 10.0).omegas == pytest.approx(
        (math.pi, 2 * math.pi, 3 * math.pi)
    )
    assert flat_bands("1/2", A, 30.0).omegas == pytest.approx((4 * math.pi, 8 * math.pi))


def test_flat_bands_irrational_and_float_input():
    fb = flat_bands("10pi/7", S, 100.0)
    assert not fb.in_qc
    assert fb.witness is None
    assert fb.omegas == ()
    with pytest.raises(TypeError):
        flat_bands(0.5, S, 10.0)
    # exact forms accepted: ExactLength and Fraction
    assert flat_bands(ExactLength.parse("1/2"), S, 10.0).omegas == pytest.approx((2 * math.pi,))
    assert flat_bands(Fraction(1, 2), S, 10.0).omegas == pytest.approx((2 * math.pi,))


def test_flat_frequencies_solve_dispersion_for_every_theta():
    # flatness certificate: the residual vanishes identically in theta
    cases = [("1/2", S, 2 * math.pi), (2, A, math.pi), (2, A, 2 * math.pi)]
    for Ltxt, cls, w in cases:
        Lval = ExactLength.parse(Ltxt).value
        for th in np.linspace(0.0, math.pi, 11):
            assert abs(dsp.dispersion_residual(th, w, Lval, cls)) < 1e-12
