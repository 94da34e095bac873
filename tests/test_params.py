"""Parameter parsing and validation."""

from fractions import Fraction

import math
import pytest

from ladderspec import LadderParams, SymmetryClass
from ladderspec.params import ExactLength


def test_symmetry_class_parse_aliases():
    S = SymmetryClass.SYMMETRIC
    A = SymmetryClass.ANTISYMMETRIC
    assert SymmetryClass.parse("sym") is S
    assert SymmetryClass.parse("antisym") is A
    assert SymmetryClass.parse(S) is S
    assert str(S) == "sym"
    assert str(A) == "antisym"
    with pytest.raises(ValueError):
        SymmetryClass.parse("bogus")


def test_exact_length_parse_integer_and_fraction():
    two = ExactLength.parse("2")
    assert two.value == 2.0
    assert two.as_rational() == Fraction(2)
    assert not two.pi_factor

    half = ExactLength.parse("1/2")
    assert half.value == 0.5
    assert half.as_rational() == Fraction(1, 2)


def test_exact_length_parse_pi_multiples():
    ten7 = ExactLength.parse("10pi/7")
    assert ten7.pi_factor
    assert ten7.coeff == Fraction(10, 7)
    assert ten7.as_rational() is None  # irrational L carries no flat-band arithmetic
    assert math.isclose(ten7.value, 10 * math.pi / 7, rel_tol=1e-15)

    pi = ExactLength.parse("pi")
    assert pi.pi_factor and pi.coeff == Fraction(1)


def test_exact_length_str_round_trip():
    for text in ["2", "1/2", "10pi/7", "pi", "3pi"]:
        el = ExactLength.parse(text)
        again = ExactLength.parse(str(el))
        assert again.as_rational() == el.as_rational()
        assert again.pi_factor == el.pi_factor


def test_exact_length_rejects_floats():
    with pytest.raises(TypeError):
        ExactLength(0.5)  # binary floats are not exact lengths
    with pytest.raises(TypeError):
        ExactLength.parse(0.5)
    # decimal *strings* are exact and stay accepted
    assert ExactLength.parse("2.5").as_rational() == Fraction(5, 2)


def test_ladder_params_validation():
    p = LadderParams(2.0, 0.1, 0.25)
    assert p.defect_width == pytest.approx(0.025)
    with pytest.raises(ValueError):
        LadderParams(2.0, 0.0)
    with pytest.raises(ValueError):
        LadderParams(2.0, 1.5)  # eps must stay below min(1, L/2)
    with pytest.raises(ValueError):
        LadderParams(0.5, 0.3)  # eps >= L/2
    with pytest.raises(ValueError):
        LadderParams(2.0, 0.1, mu=-0.5)
    for L in (math.inf, math.nan):
        with pytest.raises(ValueError, match="L must be positive and finite"):
            LadderParams(L, 0.1)


def test_exact_length_rejects_a_length_without_a_usable_float():
    # exact, but its float overflows (1e400, 1e308 * pi) or underflows to 0
    for text in ("1e400", "1e-400", "1" + "0" * 308 + "pi"):
        with pytest.raises(ValueError, match="positive finite float"):
            ExactLength.parse(text)
    with pytest.raises(ValueError, match="positive finite float"):
        ExactLength(Fraction(1, 10**400))
    assert ExactLength.parse("1e308").value == 1e308
