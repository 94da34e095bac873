"""Closed-form dispersion quantities: identities, poles, and cross-checks.

Randomized checks use a fixed seed and stay away from trigonometric poles;
pole behaviour itself is tested separately at exact special points.  The
defect response F and the decay root r are also checked against 50-digit
`mpmath` references right next to gap edges and zeros of phi_L.  A property
test checks that an array call returns its scalar calls to the last bit.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ladderspec import dispersion as dsp
from ladderspec.bands import gaps, in_essential_spectrum
from ladderspec.params import SymmetryClass
from ladderspec.rootfind import bisect_root, dist_to_multiple
from mp_reference import (
    mp_capital_F,
    mp_defect_residual,
    mp_dispersion_residual,
    mp_impedance_residual,
    mp_radicand,
    mp_reflection_root,
    ulp_ratio,
)

S = SymmetryClass.SYMMETRIC
A = SymmetryClass.ANTISYMMETRIC

LENGTHS = (2.0, 0.5, 2.5)


def _generic_omegas(rng, L, n, lo=0.05, hi=6 * math.pi, margin=1e-6):
    """Random frequencies keeping a margin from every trigonometric pole."""
    out = []
    while len(out) < n:
        w = rng.uniform(lo, hi)
        if dist_to_multiple(w, math.pi) < margin:
            continue
        if dist_to_multiple(0.5 * w * L, 0.5 * math.pi) < margin:
            continue
        out.append(w)
    return out


def test_phi_L_matches_half_rung_formulas():
    rng = np.random.default_rng(7)
    for L in LENGTHS:
        for w in _generic_omegas(rng, L, 200):
            half = 0.5 * w * L
            assert dsp.phi_L(w, L, S) == pytest.approx(2.0 / math.tan(half), rel=1e-13)
            assert dsp.phi_L(w, L, A) == pytest.approx(-2.0 * math.tan(half), rel=1e-13)


def test_phi_2_is_cot_half_minus_tan_half():
    # 2/tan(w) == cot(w/2) - tan(w/2), the rail impedance identity
    rng = np.random.default_rng(8)
    for w in _generic_omegas(rng, 1.0, 300):
        lhs = dsp.phi_2(w)
        rhs = 1.0 / math.tan(0.5 * w) - math.tan(0.5 * w)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_g_value_equals_g_mu_at_unit_weight():
    rng = np.random.default_rng(9)
    for L in LENGTHS:
        for w in _generic_omegas(rng, L, 100):
            for cls in (S, A):
                assert dsp.g_value(w, L, cls) == dsp.g_mu_value(w, L, 1.0, cls)


def test_g_is_transfer_coefficient_through_impedances():
    # g = -cos(w) + sin(w)/phi_L at every generic point
    rng = np.random.default_rng(10)
    for L in LENGTHS:
        for w in _generic_omegas(rng, L, 200):
            for cls in (S, A):
                expect = -math.cos(w) + math.sin(w) / dsp.phi_L(w, L, cls)
                assert dsp.g_value(w, L, cls) == pytest.approx(expect, rel=1e-11, abs=1e-11)


def test_residual_factorizes_through_g():
    # residual(theta, w) == -2 * trig(wL/2) * (cos theta + g(w)), so the
    # theta-roots are exactly the solutions of cos theta = -g
    rng = np.random.default_rng(11)
    for L in LENGTHS:
        for w in _generic_omegas(rng, L, 120):
            for cls in (S, A):
                g = dsp.g_value(w, L, cls)
                half = 0.5 * w * L
                t = math.cos(half) if cls is S else math.sin(half)
                for th in rng.uniform(0.0, math.pi, 3):
                    r = dsp.dispersion_residual(th, w, L, cls)
                    assert r == pytest.approx(-2.0 * t * (math.cos(th) + g), abs=1e-9)


def test_residual_rejects_theta_outside_zone():
    with pytest.raises(ValueError):
        dsp.dispersion_residual(-0.1, 1.0, 2.0, S)
    with pytest.raises(ValueError):
        dsp.dispersion_residual(math.pi + 0.1, 1.0, 2.0, S)


def test_theta_root_certificate_matches_transfer_bound():
    # |g| <= 1  <=>  theta_root finds a quasimomentum (bisection certificate)
    rng = np.random.default_rng(12)
    for L in LENGTHS:
        for cls in (S, A):
            w = np.array(_generic_omegas(rng, L, 400))
            g = dsp.g_value(w, L, cls)
            th = dsp.theta_root(w, L, cls)
            band = np.abs(g) <= 1.0
            assert np.array_equal(np.isnan(th), ~band)
            assert np.all(np.abs(dsp.dispersion_residual(th[band], w[band], L, cls)) < 1e-8)
            assert np.cos(th[band]) == pytest.approx(-g[band], abs=1e-8)


def test_membership_through_band_edge_curves():
    # band membership == phi_L escaping the open strip (f_minus, f_plus)
    rng = np.random.default_rng(13)
    for L in LENGTHS:
        for cls in (S, A):
            for w in _generic_omegas(rng, L, 400):
                member_g = abs(dsp.g_value(w, L, cls)) <= 1.0
                p = dsp.phi_L(w, L, cls)
                member_curves = p >= dsp.f_plus(w) or p <= dsp.f_minus(w)
                assert member_g == member_curves


def test_pole_conventions():
    assert dsp.phi_L(math.pi, 2.0, S) == math.inf  # pole of cot at wL/2 = pi
    assert dsp.phi_L(0.5 * math.pi, 2.0, S) == 0.0
    assert dsp.phi_2(math.pi) == math.inf
    # zero of phi_L with sin w != 0: g blows up with the sign of -sin w
    assert dsp.g_value(0.5 * math.pi, 2.0, S) == -math.inf
    assert dsp.g_value(1.5 * math.pi, 2.0, S) == math.inf
    # flat point: zero of phi_L meeting sin w = 0 is genuinely indeterminate
    assert math.isnan(dsp.g_value(math.pi, 2.0, A))


def test_capital_F_two_routes_agree_inside_gap():
    # first symmetric gap of L=2 is (1.2310, 1.9106); compare the float
    # impedance form with the 50-digit g-form
    wb, wt = 1.230959417331, 1.910633236259
    rng = np.random.default_rng(14)
    for w in rng.uniform(wb + 1e-3, wt - 1e-3, 200):
        f = dsp.capital_F(w, 2.0, S)
        assert ulp_ratio(f, mp_capital_F, w, 2.0, S) <= 4.0, w
        assert f < 1.0


def test_capital_F_limits_and_zeros():
    wb, wt = 1.230959417331, 1.910633236259
    # F -> 1 at type (i) endpoints; sqrt singularity needs a tight sample point
    assert dsp.capital_F(wb + 1e-8, 2.0, S) == pytest.approx(1.0, abs=1e-3)
    assert dsp.capital_F(wt - 1e-8, 2.0, S) == pytest.approx(1.0, abs=1e-3)
    # F = 0 exactly at the zero c of phi_L; for L=2 phi_2 == phi_L so the two
    # interior zeros c and d coincide at pi/2 and F >= 0 on the whole gap
    assert dsp.capital_F(0.5 * math.pi, 2.0, S) == 0.0
    assert dsp.capital_F(1.4, 2.0, S) > 0.0


def test_capital_F_negative_between_separated_zeros():
    # L=2.5 splits c (zero of phi_L) from d (zero of phi_L + phi_2) in gap 1
    wb, wt = 1.034842834680, 1.613928424365
    c = 0.4 * math.pi  # half-rung zero: tan(1.25 c) = inf
    d = bisect_root(
        lambda w: dsp.phi_L(w, 2.5, S) + dsp.phi_2(w), wb + 1e-9, wt - 1e-9
    )
    assert wb < c < d < wt
    assert dsp.capital_F(c, 2.5, S) == 0.0
    assert dsp.capital_F(d, 2.5, S) == pytest.approx(0.0, abs=1e-9)
    # strictly negative response strictly between the two zeros
    assert dsp.capital_F(0.5 * (c + d), 2.5, S) < 0.0


def test_capital_F_rejects_essential_spectrum():
    with pytest.raises(ValueError):
        dsp.capital_F(1.0, 2.0, S)  # inside band 1
    with pytest.raises(ValueError):
        dsp.capital_F(math.pi, 2.0, A)  # flat point


def test_reflection_root_solves_transfer_quadratic():
    rng = np.random.default_rng(15)
    wb, wt = 1.230959417331, 1.910633236259
    for w in rng.uniform(wb + 1e-6, wt - 1e-6, 200):
        g = dsp.g_value(w, 2.0, S)
        r = dsp.reflection_root(w, 2.0, S)
        if math.isinf(g):
            assert r == 0.0
            continue
        assert r * r + 2.0 * g * r + 1.0 == pytest.approx(0.0, abs=1e-10)
        assert abs(r) < 1.0
    with pytest.raises(ValueError):
        dsp.reflection_root(1.0, 2.0, S)


def test_reflection_root_sign_tracks_g():
    # r = -1/(g + sign(g) sqrt(g^2-1)): opposite sign to g, product of roots = 1
    for w, cls in [(1.5, S), (0.5, A)]:
        g = dsp.g_value(w, 2.0, cls)
        if abs(g) <= 1.0:
            continue
        r = dsp.reflection_root(w, 2.0, cls)
        assert r * g < 0.0
        assert (1.0 / r) * r == pytest.approx(1.0)


# points where the float g-form cancels: next to the band edge pi of
# L=1.0078125 antisymmetric (g + cos w = sin w / phi_L), at a root of F = 0.5
# next to a band edge of L=1.0078125 symmetric (g^2 - 1), and next to the zero
# pi/2 of phi_L at L=2 symmetric (-g + sign(g) sqrt(g^2 - 1) for large |g|)
PINNED = [
    (dsp.capital_F, mp_capital_F, math.pi - 1e-6, 1.0078125, A),
    (dsp.capital_F, mp_capital_F, math.pi - 1e-9, 1.0078125, A),
    (dsp.capital_F, mp_capital_F, math.pi - 1e-12, 1.0078125, A),
    (dsp.capital_F, mp_capital_F, 6.266864803419471, 1.0078125, S),
    (dsp.reflection_root, mp_reflection_root, 0.5 * math.pi + 1e-4, 2.0, S),
    (dsp.reflection_root, mp_reflection_root, 0.5 * math.pi + 1e-6, 2.0, S),
    (dsp.reflection_root, mp_reflection_root, 0.5 * math.pi + 1e-8, 2.0, S),
]


@pytest.mark.parametrize("f,mp_f,w,L,cls", PINNED)
def test_F_and_r_free_of_cancellation_at_pinned_points(f, mp_f, w, L, cls):
    assert ulp_ratio(f(w, L, cls), mp_f, w, L, cls) <= 4.0


def _phi_L_zeros(L, cls, lo, hi):
    """Zeros of phi_L in (lo, hi): omega L / 2 on pi/2 + pi Z (symmetric) or pi Z."""
    start = 0.5 if cls is S else 1.0
    step = 2.0 * math.pi / L
    m = max(0, math.ceil(lo / step - start))
    out = []
    while (m + start) * step < hi:
        if (m + start) * step > lo:
            out.append((m + start) * step)
        m += 1
    return out


@settings(max_examples=50)
@given(
    L=st.floats(0.3, 12.0),
    cls=st.sampled_from([S, A]),
    index=st.integers(0, 7),
    shift=st.floats(0.0, 0.99),
)
def test_F_and_r_match_50_digits_near_edges_and_zeros(L, cls, index, shift):
    # relative distances 10^-(3+shift) down to 10^-(11+shift) >= 1.02e-12 on
    # both sides of each gap edge and each zero of phi_L in the gap; the
    # smallest stays outside POLE_RTOL, inside which F and r return their
    # limits at a zero of phi_L by definition
    found = gaps(L, cls, 25.0, tol=0.0)
    gap = found[index % len(found)]
    targets = [gap.omega_b, gap.omega_t] + _phi_L_zeros(L, cls, gap.omega_b, gap.omega_t)
    for c in targets:
        if c == 0.0:
            continue  # the antisymmetric family's first gap starts at 0
        for k in range(3, 12):
            d = 10.0 ** -(k + shift)
            for w in (c * (1.0 - d), c * (1.0 + d)):
                with mpmath.workdps(50):
                    inside = mp_radicand(w, L, cls) > 0
                if not inside:
                    with pytest.raises(ValueError):
                        dsp.capital_F(w, L, cls)
                    with pytest.raises(ValueError):
                        dsp.reflection_root(w, L, cls)
                    continue
                F = dsp.capital_F(w, L, cls)
                r = dsp.reflection_root(w, L, cls)
                assert ulp_ratio(F, mp_capital_F, w, L, cls) <= 16.0, (w, L, cls)
                assert ulp_ratio(r, mp_reflection_root, w, L, cls) <= 16.0, (w, L, cls)


@st.composite
def _length_and_omegas(draw):
    """L and a list of omegas seeded with the special points of both families.

    The special points are the poles and zeros of phi_L (omega L / 2 on
    pi/2 Z), multiples of pi, their coincidences (flat points, frequent at
    the sampled rational L) and the non-finite and zero inputs.
    """
    L = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 8.0]), st.floats(0.3, 12.0)))
    special = [m * math.pi / L for m in range(12)] + [m * math.pi for m in range(12)]
    special += [math.inf, -math.inf, math.nan, 0.0, -0.0]
    point = st.one_of(st.floats(-1.0, 60.0), st.sampled_from(special))
    return L, draw(st.lists(point, min_size=1, max_size=12))


def _outputs(value):
    return value if isinstance(value, tuple) else (value,)


def _bits(values):
    """Bytes of a float or bool array, with every NaN made the same NaN.

    The sum of two NaNs of opposite sign keeps the second one's sign in
    numpy's scalar arithmetic and the first one's in its array loop; every
    other bit must agree.
    """
    if values.dtype.kind == "f":
        values = np.where(np.isnan(values), np.nan, values)
    return values.tobytes()


@settings(max_examples=80)
@given(
    case=_length_and_omegas(),
    cls=st.sampled_from([S, A]),
    mu=st.floats(0.05, 0.95),
    theta=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_array_call_equals_its_scalar_calls(case, cls, mu, theta, sign):
    L, omegas = case
    calls = {
        "phi_L_pole_or_zero": lambda w: dsp.phi_L_pole_or_zero(0.5 * w * L, cls, 1e-9),
        "phi_L": lambda w: dsp.phi_L(w, L, cls),
        "phi_2": dsp.phi_2,
        "g_mu_value": lambda w: dsp.g_mu_value(w, L, mu, cls),
        "g_value": lambda w: dsp.g_value(w, L, cls),
        "dispersion_residual": lambda w: dsp.dispersion_residual(theta, w, L, cls),
        "impedance_residual": lambda w: dsp.impedance_residual(w, theta, L, cls),
        "defect_residual": lambda w: dsp.defect_residual(w, mu * (2.0 - mu), sign, L, cls),
        "dispersion_and_slope": lambda w: dsp.dispersion_and_slope(theta, w, L, cls),
        "impedance_and_slope": lambda w: dsp.impedance_and_slope(w, theta, L, cls),
        "defect_and_slope": lambda w: dsp.defect_and_slope(w, mu * (2.0 - mu), sign, L, cls),
        "theta_root": lambda w: dsp.theta_root(w, L, cls),
        "f_plus": dsp.f_plus,
        "f_minus": dsp.f_minus,
        "radicand": lambda w: dsp.radicand(w, L, cls),
        "capital_F": lambda w: dsp.capital_F(w, L, cls),
        "reflection_root": lambda w: dsp.reflection_root(w, L, cls),
        "in_essential_spectrum": lambda w: in_essential_spectrum(w, L, cls),
    }
    with np.errstate(all="ignore"):  # poles and non-finite omegas are drawn on purpose
        for name, f in calls.items():
            valid, scalars = [], []
            for w in omegas:
                try:
                    scalars.append(_outputs(f(w)))
                    valid.append(w)
                except ValueError:  # capital_F and reflection_root outside gaps
                    pass
            if len(valid) < len(omegas):
                with pytest.raises(ValueError):
                    f(np.array(omegas))
            if not valid:
                continue
            arrays = _outputs(f(np.array(valid)))
            for k, got in enumerate(arrays):
                want = [out[k] for out in scalars]
                assert not any(isinstance(x, np.ndarray) for x in want), name
                want = np.array(want, dtype=got.dtype)
                assert got.shape == want.shape and _bits(got) == _bits(want), (name, k)


@settings(max_examples=60)
@given(
    L=st.floats(0.3, 40.0),
    omega=st.floats(0.05, 50.0),
    cls=st.sampled_from([S, A]),
    theta=st.floats(0.0, math.pi),
    mu=st.floats(0.05, 0.95),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_slopes_match_mpmath_derivatives(L, omega, cls, theta, mu, sign):
    # interior points: a margin from every pole and zero of phi_L, phi_2 and
    # h_theta, and from the zeros of the theta-slope c sin(theta)
    margin = 1e-2
    assume(dist_to_multiple(0.5 * omega * L, 0.5 * math.pi) > margin)
    assume(dist_to_multiple(omega, math.pi) > margin)
    assume(dist_to_multiple(omega - theta, 2 * math.pi) > margin)
    assume(dist_to_multiple(omega + theta, 2 * math.pi) > margin)
    assume(math.sin(theta) > margin)
    kappa = mu * (2.0 - mu)
    cases = {
        "dispersion_and_slope": (
            dsp.dispersion_and_slope(theta, omega, L, cls)[1],
            lambda t: mp_dispersion_residual(t, omega, L, cls),
            theta,
        ),
        "impedance_and_slope": (
            dsp.impedance_and_slope(omega, theta, L, cls)[1],
            lambda w: mp_impedance_residual(w, theta, L, cls),
            omega,
        ),
        "defect_and_slope": (
            dsp.defect_and_slope(omega, kappa, sign, L, cls)[1],
            lambda w: mp_defect_residual(w, kappa, sign, L, cls),
            omega,
        ),
    }
    with mpmath.workdps(30):
        for name, (got, f, x) in cases.items():
            want = mpmath.diff(f, mpmath.mpf(x))
            assert abs(got - want) <= 1e-9 * abs(want), name
