"""Exact arithmetic in the commutative ring Q[i, sqrt2, sqrt5].

An element is stored by its coordinates over the eight-element basis

    1, i, s2, s5, i*s2, i*s5, s10, i*s10

where s2 = sqrt(2), s5 = sqrt(5) and s10 = s2*s5.  Multiplication reduces
via i^2 = -1, s2^2 = 2 and s5^2 = 5, so products of basis symbols stay in
the basis up to an integer factor.  All coordinates are Fractions, so every
operation is exact and equality is decidable.

The ring is in fact the degree-8 number field Q(i, sqrt2, sqrt5); inversion
is available via the product of Galois conjugates.  Division by anything
other than a rational is only needed when eliminating over the field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

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

Rationalish = Union[int, Fraction]

_ZERO8 = (Fraction(0),) * 8


class ExactScalar:
    """Immutable element of Q[i, sqrt2, sqrt5]."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in coords))
        if len(self.coords) != 8:
            raise ValueError("ExactScalar needs 8 coordinates")

    @staticmethod
    def _of(coords: tuple) -> "ExactScalar":
        """Wrap a tuple that is already 8 Fractions, skipping the coercion.

        Internal: the ring operations build their results from stored
        Fraction coordinates, so re-running Fraction() on each would only
        repeat work.
        """
        scalar = object.__new__(ExactScalar)
        object.__setattr__(scalar, "coords", coords)
        return scalar

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(q: Rationalish) -> "ExactScalar":
        return ExactScalar((Fraction(q),) + _ZERO8[1:])

    @staticmethod
    def basis_element(index: int) -> "ExactScalar":
        c = [Fraction(0)] * 8
        c[index] = Fraction(1)
        return ExactScalar(c)

    @staticmethod
    def _coerce(value) -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return ExactScalar.rational(value)
        return NotImplemented

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar._of(
            tuple((a + b if a else b) if b else a for a, b in zip(self.coords, other.coords))
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ExactScalar._of(
            tuple((a - b if a else -b) if b else a for a, b in zip(self.coords, other.coords))
        )

    def __rsub__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return ExactScalar._of(tuple(-a for a in self.coords))

    def __mul__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [Fraction(0)] * 8
        for k1, a in enumerate(self.coords):
            if not a:
                continue
            row = _MUL[k1]
            for k2, b in enumerate(other.coords):
                if not b:
                    continue
                k, factor = row[k2]
                out[k] += a * b * factor
        return ExactScalar._of(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return ExactScalar._of(tuple(a / q for a in self.coords))
        if isinstance(other, ExactScalar):
            return self * other.inverse()
        return NotImplemented

    def __eq__(self, other):
        other = ExactScalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __bool__(self):
        return not self.is_zero()

    # -- predicates and parts ----------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    # -- Galois conjugations -----------------------------------------------

    def galois(self, flip_i=False, flip_sqrt2=False, flip_sqrt5=False) -> "ExactScalar":
        """Apply the field automorphism flipping the chosen square roots."""
        flips = (flip_i, flip_sqrt2, flip_sqrt5)
        out = []
        for k, c in enumerate(self.coords):
            sign = 1
            for e, flip in zip(_BASIS[k], flips):
                if e and flip:
                    sign = -sign
            out.append(sign * c)
        return ExactScalar._of(tuple(out))

    def conjugate(self) -> "ExactScalar":
        """Complex conjugation i -> -i."""
        return self.galois(flip_i=True)

    def inverse(self) -> "ExactScalar":
        """Multiplicative inverse via the product of Galois conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        prod = ONE
        for fi in (False, True):
            for f2 in (False, True):
                for f5 in (False, True):
                    if fi or f2 or f5:
                        prod = prod * self.galois(fi, f2, f5)
        norm = self * prod
        # The full norm is Galois-invariant, hence rational.
        return prod / norm.as_fraction()

    # -- printing ------------------------------------------------------------

    def __str__(self):
        parts = []
        for coord, symbol in zip(self.coords, BASIS_SYMBOLS):
            if coord == 0:
                continue
            sign = "-" if coord < 0 else "+"
            mag = abs(coord)
            if symbol and mag == 1:
                body = symbol
            elif symbol:
                body = f"{mag}*{symbol}"
            else:
                body = str(mag)
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"ExactScalar({self})"


ZERO = ExactScalar.rational(0)
ONE = ExactScalar.rational(1)
I = ExactScalar.basis_element(1)
SQRT2 = ExactScalar.basis_element(2)
SQRT5 = ExactScalar.basis_element(3)
SQRT10 = ExactScalar.basis_element(6)
HALF = ExactScalar.rational(Fraction(1, 2))
