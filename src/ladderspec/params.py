"""Model parameters and exact rung-height arithmetic.

The waveguide is a periodic planar ladder: two horizontal rails at distance L
joined by vertical rungs of thickness eps, one rung per unit period.  A single
rung may be widened or narrowed by the factor mu.  Modes decompose into a
symmetric and an antisymmetric family with respect to the ladder axis y = 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class SymmetryClass(Enum):
    """Mirror-symmetry family of modes about the ladder axis."""

    SYMMETRIC = "sym"
    ANTISYMMETRIC = "antisym"

    @classmethod
    def parse(cls, text):
        if isinstance(text, cls):
            return text
        key = str(text).strip().lower()
        for member in cls:
            if key in (member.value, member.name.lower()):
                return member
        raise ValueError(f"unknown symmetry class {text!r} (use 'sym' or 'antisym')")

    def __str__(self):
        return self.value


_PI_FORM = re.compile(r"^\s*(?P<num>\d+)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+))?\s*$", re.IGNORECASE)


@dataclass(frozen=True)
class ExactLength:
    """Rail distance L kept exact: either a rational p/q or a rational multiple of pi.

    Exactness matters for the flat-band arithmetic, which is number-theoretic
    in L and must never be reconstructed from a float.
    """

    coeff: Fraction
    pi_factor: bool = False

    def __post_init__(self):
        if isinstance(self.coeff, int):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if not isinstance(self.coeff, Fraction):
            raise TypeError(
                f"coeff must be a Fraction, not {type(self.coeff).__name__}; "
                "floats cannot carry the exact arithmetic"
            )
        if self.coeff <= 0:
            raise ValueError("length must be positive")
        try:
            value = self.value
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:  # the float is what every route reads
            raise ValueError(f"length must round to a positive finite float, got {value}")

    @property
    def value(self):
        """Floating-point value of L."""
        return float(self.coeff) * (math.pi if self.pi_factor else 1.0)

    def as_rational(self):
        """The exact Fraction if L is rational, else None."""
        return None if self.pi_factor else self.coeff

    @classmethod
    def parse(cls, text):
        """Parse '2', '1/2', '2.5', '10pi/7', 'pi/3', '3pi' into an ExactLength."""
        if isinstance(text, cls):
            return text
        if isinstance(text, (int, Fraction)):
            return cls(Fraction(text))
        if isinstance(text, float):
            raise TypeError(
                "refusing to build an ExactLength from a float; pass a string or Fraction"
            )
        s = str(text).strip()
        m = _PI_FORM.match(s)
        if m:
            num = int(m.group("num") or 1)
            den = int(m.group("den") or 1)
            return cls(Fraction(num, den), pi_factor=True)
        try:
            coeff = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse length {text!r}") from exc
        return cls(coeff)

    def __str__(self):
        if self.pi_factor:
            p, q = self.coeff.numerator, self.coeff.denominator
            head = "pi" if p == 1 else f"{p}pi"
            return head if q == 1 else f"{head}/{q}"
        return str(self.coeff)


@dataclass(frozen=True)
class LadderParams:
    """Geometry of the thin ladder: period 1, rail distance L, rung thickness eps.

    mu rescales the width of the single rung at x = 0 (mu = 1 is the periodic
    ladder).  The closed-form graph quantities depend only on (L, mu); eps
    enters the 1-D oracle meshes and the 2-D finite element geometry.
    """

    L: float
    eps: float
    mu: float = 1.0

    def __post_init__(self):
        if not 0 < self.L < math.inf:
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if not 0 < self.eps < min(1.0, self.L / 2):
            raise ValueError(
                f"eps must lie in (0, min(1, L/2)) = (0, {min(1.0, self.L / 2)}), got {self.eps}"
            )
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")

    @property
    def defect_width(self):
        """Width mu*eps of the perturbed rung."""
        return self.mu * self.eps
