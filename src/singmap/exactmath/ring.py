"""Exact arithmetic in the commutative ring Q[i, sqrt2, sqrt5].

An element is stored by its coordinates over the eight-element basis

    1, i, s2, s5, i*s2, i*s5, s10, i*s10

where s2 = sqrt(2), s5 = sqrt(5) and s10 = s2*s5.  Multiplication reduces
via i^2 = -1, s2^2 = 2 and s5^2 = 5, so products of basis symbols stay in
the basis up to an integer factor.  The coordinates are held as eight
integer numerators over one positive integer denominator, always in lowest
terms (gcd(den, *num) == 1, zero is ((0,) * 8, 1)), so every operation is
exact, equal values have equal representations, and the arithmetic runs on
Python integers.  Values enter only as int, Fraction or ExactScalar;
anything else is a TypeError.

The ring is in fact the degree-8 number field Q(i, sqrt2, sqrt5), but no
caller divides by anything but a rational: the group matrices and the Klein
forms only multiply, and elimination runs on integers (linalg).  Of its
eight automorphisms only complex conjugation is kept: the group matrices
use it for zeta^-1 = conj(zeta) and to check |det| = 1.  Subtraction is
addition of the negative, so the common-denominator code is written once,
in __add__.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# Basis symbol k is i^e1 * s2^e2 * s5^e5 for (e1, e2, e5) = _BASIS[k].
_BASIS = (
    (0, 0, 0),  # 1
    (1, 0, 0),  # i
    (0, 1, 0),  # s2
    (0, 0, 1),  # s5
    (1, 1, 0),  # i*s2
    (1, 0, 1),  # i*s5
    (0, 1, 1),  # s10
    (1, 1, 1),  # i*s10
)
_INDEX = {b: k for k, b in enumerate(_BASIS)}

BASIS_SYMBOLS = ("", "i", "s2", "s5", "i*s2", "i*s5", "s10", "i*s10")


def _basis_product(b1, b2):
    """Index and integer factor of the product of two basis symbols."""
    factor = 1
    out = []
    for e1, e2, square in zip(b1, b2, (-1, 2, 5)):
        s = e1 + e2
        out.append(s % 2)
        if s == 2:
            factor *= square
    return _INDEX[tuple(out)], factor


# _MUL[k1][k2] = (index, factor) with e_{k1} * e_{k2} = factor * e_index.
_MUL = tuple(tuple(_basis_product(b1, b2) for b2 in _BASIS) for b1 in _BASIS)


class ExactScalar:
    """Immutable element of Q[i, sqrt2, sqrt5]: num[k] / den is the
    coordinate on basis symbol k, in lowest terms with den > 0."""

    __slots__ = ("num", "den")

    def __init__(self, coords):
        coords = tuple(_fraction(c) for c in coords)
        if len(coords) != 8:
            raise ValueError("ExactScalar needs 8 coordinates")
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = lcm(*(c.denominator for c in coords))
        _SET_NUM(self, tuple(c.numerator * (den // c.denominator) for c in coords))
        _SET_DEN(self, den)

    @staticmethod
    def _of(num: tuple, den: int) -> "ExactScalar":
        """Wrap numerators already in lowest terms over den > 0.

        Internal and trusted: callers pass a tuple of eight ints with
        gcd(den, *num) == 1; _reduced brings any other pair there first.
        """
        scalar = _NEW(ExactScalar)
        _SET_NUM(scalar, num)
        _SET_DEN(scalar, den)
        return scalar

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    @property
    def coords(self) -> tuple:
        """The eight coordinates as Fractions (a read-only view)."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q) -> "ExactScalar":
        """The int or Fraction q."""
        q = _fraction(q)
        return ExactScalar._of((q.numerator, 0, 0, 0, 0, 0, 0, 0), q.denominator)

    @staticmethod
    def basis_element(index: int) -> "ExactScalar":
        num = [0] * 8
        num[index] = 1
        return ExactScalar._of(tuple(num), 1)

    @staticmethod
    def _coerce(value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactScalar.rational(value)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not ExactScalar:
            other = ExactScalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _reduced(tuple(a + b for a, b in zip(self.num, other.num)), d1)
        return _reduced(tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num)), d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return ExactScalar._of(tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if other.__class__ is not ExactScalar:
            other = ExactScalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        x, y = self.num, other.num
        out = [0, 0, 0, 0, 0, 0, 0, 0]
        for k1, a in enumerate(x):
            if a:
                row = _MUL[k1]
                for k2, b in enumerate(y):
                    if b:
                        k, factor = row[k2]
                        out[k] += a * b * factor
        return _reduced(tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero int or Fraction; no caller divides by an
        irrational, so the field's inverse is not kept."""
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if other.__class__ is not ExactScalar:
            other = ExactScalar._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation i -> -i: the sign of each symbol with a
        factor i flips.  It is the only automorphism of the ring in use."""
        return ExactScalar._of(tuple(-a if b[0] else a for b, a in zip(_BASIS, self.num)), self.den)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        from .textform import format_terms

        return format_terms({(): self}, ())

    def __repr__(self):
        return f"ExactScalar({self})"


_NEW = object.__new__
# slot setters: they bypass the __setattr__ that keeps instances immutable
_SET_NUM = ExactScalar.num.__set__
_SET_DEN = ExactScalar.den.__set__


def _fraction(value) -> Fraction:
    """value as a Fraction, for an int or a Fraction only: a float or a
    string would enter the exact layer as whatever Fraction() reads it as."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact scalars take int or Fraction values, not {type(value).__name__}")
    return Fraction(value)


def _reduced(num: tuple, den: int) -> ExactScalar:
    """The scalar num / den for eight ints over den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple(a // g for a in num)
            den //= g
    return ExactScalar._of(num, den)


ZERO = ExactScalar.rational(0)
ONE = ExactScalar.rational(1)
I = ExactScalar.basis_element(1)
SQRT2 = ExactScalar.basis_element(2)
SQRT5 = ExactScalar.basis_element(3)
SQRT10 = ExactScalar.basis_element(6)
HALF = ExactScalar.rational(Fraction(1, 2))
