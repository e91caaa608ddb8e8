"""Exact scalar arithmetic: rationals and Gaussian rationals.

The rational type is the stdlib Fraction (always gcd-reduced, positive
denominator, arbitrary-precision integers).  GaussianRational adds an exact
complex layer on top: a + b*i with rational a, b, closed under +, -, *, /
and conjugation.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction


class ScalarParseError(ValueError):
    """Raised when a scalar string does not match the exact-scalar grammar."""


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Immutable.  Arithmetic never rounds; division by zero raises
    ZeroDivisionError.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        if not isinstance(re, Fraction):
            re = Fraction(re)
        if not isinstance(im, Fraction):
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re.numerator and not self.im.numerator

    def is_real(self) -> bool:
        return not self.im.numerator

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        a, b = self.re, self.im
        c, d = other.re, other.im
        if not b.numerator and not d.numerator:
            return GaussianRational(a * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        if other.is_zero():
            raise ZeroDivisionError("division by zero GaussianRational")
        if other.is_real():
            return GaussianRational(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        a, b = self.re, self.im
        c, d = other.re, -other.im
        return GaussianRational((a * c - b * d) / n, (a * d + b * c) / n)

    def conj(self) -> "GaussianRational":
        if not self.im.numerator:
            return self
        return GaussianRational(self.re, -self.im)

    # -- equality / repr -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


def as_scalar(x) -> GaussianRational:
    """Coerce int / Fraction / str / GaussianRational to GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot convert {type(x).__name__} to GaussianRational")


# -- text grammar ---------------------------------------------------------
#
#   R ::= ['-'] digits ['/' digits]
#   Z ::= R                      pure real          "5", "-3/4"
#       | R ('+'|'-') R 'i'      real + imaginary   "3/4+1/2i", "1-2i"
#       | R 'i'                  pure imaginary     "-2i", "1/2i"
#
# No whitespace anywhere, a trailing newline included, and digits are the
# ASCII 0-9 only: each pattern must match the whole string, under re.ASCII.

_R = r"-?\d+(?:/\d+)?"
_RE_REAL = _re.compile(rf"({_R})", _re.ASCII)
_RE_IMAG = _re.compile(rf"({_R})i", _re.ASCII)
_RE_FULL = _re.compile(rf"({_R})([+-])(\d+(?:/\d+)?)i", _re.ASCII)


def parse_scalar(text: str) -> GaussianRational:
    """Parse an exact scalar string.  Raises ScalarParseError on mismatch."""
    if not isinstance(text, str):
        raise ScalarParseError(f"scalar must be a string, got {type(text).__name__}")
    try:
        m = _RE_REAL.fullmatch(text)
        if m:
            return GaussianRational(Fraction(m.group(1)))
        m = _RE_IMAG.fullmatch(text)
        if m:
            return GaussianRational(0, Fraction(m.group(1)))
        m = _RE_FULL.fullmatch(text)
        if m:
            im = Fraction(m.group(3))
            if m.group(2) == "-":
                im = -im
            return GaussianRational(Fraction(m.group(1)), im)
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in scalar: {text!r}") from None
    except ValueError as exc:  # more digits than int() may convert
        raise ScalarParseError(f"scalar out of range: {exc}") from None
    raise ScalarParseError(f"invalid scalar: {text!r}")


def format_scalar(z: GaussianRational) -> str:
    """Canonical text form; parse(format(z)) == z and the form is unique."""
    # Fraction str is exactly the R grammar
    if not z.im.numerator:
        return str(z.re)
    if not z.re.numerator:
        return str(z.im) + "i"
    sign = "+" if z.im > 0 else "-"
    return str(z.re) + sign + str(abs(z.im)) + "i"
