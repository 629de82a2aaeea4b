"""Fundamental groups of the finite-pi1 links and their matrix generators.

Each three-fiber family determines the group through a single integer
m = -e/chi of the Euler invariants its Family carries; m then splits into
a cyclic factor times a binary polyhedral group (or one of the U(2)
groups D', T' when the relevant prime power divides m).  Exact 2x2
generator matrices over Q[i, sqrt2, sqrt5], built from unit quaternions,
exist only for the binary polyhedral groups themselves: D*_4, D*_8,
D*_16, T*, O* and I*.  They serve to certify Klein's invariant triples
(check_invariance) and to count group orders by closure; classification
never needs them.
A matrix is the nested tuple of its rows ((a, b), (c, d)) of
ExactScalars; this module alone multiplies them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .exactmath import BivariatePoly, ExactScalar, HALF, I, ONE, SQRT2, SQRT5, ZERO
from .linkdata import Family, FamilyTag

# a 2x2 matrix as its rows ((a, b), (c, d))
Matrix = Tuple[Tuple[ExactScalar, ExactScalar], Tuple[ExactScalar, ExactScalar]]


class GroupError(ValueError):
    pass


class UnsupportedFamilyError(GroupError):
    """Raised for a group with no matrix representation here: D' and T'
    (no map is built for them), and any group but a binary polyhedral one
    when its generator matrices are asked for."""


class GroupFamily(enum.Enum):
    CYCLIC = "cyclic"
    BINARY_DIHEDRAL = "D*"
    BINARY_TETRAHEDRAL = "T*"
    BINARY_OCTAHEDRAL = "O*"
    BINARY_ICOSAHEDRAL = "I*"
    D_PRIME = "D'"
    T_PRIME = "T'"


@dataclass(frozen=True)
class GroupDescriptor:
    """Classified fundamental group: cyclic factor times a fixed group.

    params: (p, q) for CYCLIC; (p,) for BINARY_DIHEDRAL meaning D*_{4p};
    (k, p) for D_PRIME meaning D'_{2^{k+2} p}; (k,) for T_PRIME meaning
    T'_{8 * 3^k}; () for T*/O*/I*.  cyclic_factor m = 1 means no factor.
    order is the order of the whole group m * |G|.  extras surfaces the
    intermediate numbers of the m case analysis for auditability.
    """

    family: GroupFamily
    params: Tuple[int, ...]
    cyclic_factor: int
    order: int
    extras: Tuple[Tuple[str, int], ...] = field(default=())

    def label(self) -> str:
        base = {
            GroupFamily.CYCLIC: lambda: f"Z/{self.params[0]}",
            GroupFamily.BINARY_DIHEDRAL: lambda: f"D*_{4 * self.params[0]}",
            GroupFamily.BINARY_TETRAHEDRAL: lambda: "T*",
            GroupFamily.BINARY_OCTAHEDRAL: lambda: "O*",
            GroupFamily.BINARY_ICOSAHEDRAL: lambda: "I*",
            GroupFamily.D_PRIME: lambda: f"D'_{(2 ** (self.params[0] + 2)) * self.params[1]}",
            GroupFamily.T_PRIME: lambda: f"T'_{8 * 3 ** self.params[0]}",
        }[self.family]()
        if self.family is not GroupFamily.CYCLIC and self.cyclic_factor > 1:
            return f"Z/{self.cyclic_factor} x {base}"
        return base

    def to_dict(self) -> dict:
        out = {
            "family": self.family.value,
            "m": self.cyclic_factor,
            "order": self.order,
            "label": self.label(),
        }
        if self.family is GroupFamily.CYCLIC:
            out["p"], out["q"] = self.params
        else:
            out["binary_order"] = self.order // self.cyclic_factor
        for key, value in self.extras:
            out[key] = value
        return out


def _split_power(n: int, prime: int) -> Tuple[int, int]:
    """(v, rest) with n = prime^v * rest and rest prime to prime."""
    v = 0
    while n % prime == 0:
        n //= prime
        v += 1
    return v, n


def binary_group(family: GroupFamily, n: int = None) -> GroupDescriptor:
    """The plain binary polyhedral group D*_{4n}, T*, O* or I* (m = 1)."""
    if family is GroupFamily.BINARY_DIHEDRAL:
        return GroupDescriptor(family, (n,), 1, 4 * n)
    order = {
        GroupFamily.BINARY_TETRAHEDRAL: 24,
        GroupFamily.BINARY_OCTAHEDRAL: 48,
        GroupFamily.BINARY_ICOSAHEDRAL: 120,
    }.get(family)
    if order is None:
        raise GroupError(f"{family.value} is not a binary polyhedral group")
    return GroupDescriptor(family, (), 1, order)


def group_from_seifert(family: Family) -> GroupDescriptor:
    """Group of the link from its recognized family alone.

    Every three-fiber family has the cyclic modulus m = -e/chi, read off
    the Euler invariants the family carries (for the binary polyhedral G
    the whole group Z/m x G has order -4e/chi^2).  Odd m (dihedral) and m
    coprime to 3 (tetrahedral) give the plain product with the binary
    group; otherwise the 2- resp. 3-power moves into D' resp. T'.
    """
    if not family.is_finite:
        raise GroupError("fundamental group is not finite")
    if family.tag is FamilyTag.LENS:
        p, q = family.params
        return GroupDescriptor(GroupFamily.CYCLIC, (p, q), 1, p)
    m = -family.e / family.chi
    if m <= 0:
        raise GroupError(f"m = {m} is not positive; data is not a singularity link")
    m = int(m)  # an integer on every three-fiber family
    if family.tag is FamilyTag.DIHEDRAL and m % 2 == 0:
        p, _ = family.params
        v, m_odd = _split_power(m, 2)
        k = v - 1  # m = 2 m', m' = 2^k m'' with m'' odd
        extras = [("m_raw", m), ("two_power_k", k), ("m_odd", m_odd)]
        if k == 0:
            # D'_{4p} is abstractly the binary dihedral group D*_{4p}, but
            # its action on C^2 is a different U(2) embedding, so it stays
            # in the D' family (no matrices, no map synthesis).
            extras.append(("isomorphic_to_binary_dihedral_order", 4 * p))
        return GroupDescriptor(
            GroupFamily.D_PRIME,
            (k, p),
            m_odd,
            m_odd * (2 ** (k + 2)) * p,
            tuple(extras),
        )
    if family.tag is FamilyTag.TETRAHEDRAL and m % 3 == 0:
        k, m_rest = _split_power(m, 3)
        return GroupDescriptor(
            GroupFamily.T_PRIME,
            (k,),
            m_rest,
            m_rest * 8 * 3 ** k,
            (("m_raw", m), ("three_power_k", k)),
        )
    n = family.params[0] if family.tag is FamilyTag.DIHEDRAL else None
    plain = binary_group(GroupFamily["BINARY_" + family.tag.name], n)
    # O* and I* never split, so they report no m_raw
    extras = (("m_raw", m),) if family.tag in (FamilyTag.DIHEDRAL, FamilyTag.TETRAHEDRAL) else ()
    return GroupDescriptor(plain.family, plain.params, m, m * plain.order, extras)


# -- exact generator matrices ---------------------------------------------------


def root_of_unity(n: int) -> Optional[ExactScalar]:
    """Exact primitive n-th root of unity, for n dividing 8; None otherwise.

    The only roots of unity inside Q(i, sqrt2, sqrt5) are the eighth roots:
    zeta_3 would need sqrt(3), which the ring does not contain.
    """
    if n == 1:
        return ONE
    if n == 2:
        return -ONE
    if n == 4:
        return I
    if n == 8:
        return HALF * SQRT2 * (ONE + I)
    return None


def _quaternion(a, b, c, d) -> Matrix:
    """The SU(2) matrix of the unit quaternion a + b i + c j + d k."""
    return ((a + b * I, c + d * I), (-c + d * I, a - b * I))


_J = _quaternion(0, 0, 1, 0)
# omega = (1 + i + j + k)/2, shared by T*, O*, I*
_OMEGA = _quaternion(HALF, HALF, HALF, HALF)
_T_SECOND = _quaternion(HALF, HALF, HALF, -HALF)
# (j + k)/sqrt2
_O_SECOND = _quaternion(0, 0, HALF * SQRT2, HALF * SQRT2)
# (phi + i/phi + j)/2 with phi the golden ratio: a unit icosian
_I_SECOND = _quaternion((ONE + SQRT5) / 4, (SQRT5 - ONE) / 4, HALF, 0)

_POLYHEDRAL_PAIRS = {
    GroupFamily.BINARY_TETRAHEDRAL: (_OMEGA, _T_SECOND),
    GroupFamily.BINARY_OCTAHEDRAL: (_OMEGA, _O_SECOND),
    GroupFamily.BINARY_ICOSAHEDRAL: (_OMEGA, _I_SECOND),
}


def generator_matrices(descriptor: GroupDescriptor) -> Optional[Tuple[Matrix, ...]]:
    """Exact generators of a binary polyhedral group (cyclic factor 1).

    D*_{4n} gets diag(zeta_2n, zeta_2n^-1) and j when 2n divides 8, and None
    otherwise, as zeta_2n then lies outside Q(i, sqrt2, sqrt5); T*, O* and
    I* get their unit-quaternion pairs.  Every other group raises
    UnsupportedFamilyError.
    """
    family = descriptor.family
    if descriptor.cyclic_factor == 1:
        if family in _POLYHEDRAL_PAIRS:
            return _POLYHEDRAL_PAIRS[family]
        if family is GroupFamily.BINARY_DIHEDRAL:
            zeta = root_of_unity(2 * descriptor.params[0])
            if zeta is None:
                return None
            return (((zeta, ZERO), (ZERO, zeta.conjugate())), _J)
    raise UnsupportedFamilyError(f"{descriptor.label()} has no matrix representation here")


def check_invariance(poly: BivariatePoly, generators) -> bool:
    """True iff poly is fixed by every generator matrix."""
    return all(poly.substitute_linear(m) == poly for m in generators)


def _product(m: Matrix, n: Matrix) -> Matrix:
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def matrix_determinant(m: Matrix) -> ExactScalar:
    (a, b), (c, d) = m
    return a * d - b * c


def has_unit_determinant(m: Matrix) -> bool:
    det = matrix_determinant(m)
    return det * det.conjugate() == ONE


def group_closure_order(generators) -> int:
    """Size of the multiplicative closure of exact 2x2 matrices.

    Work-queue closure under products with everything seen so far; raises
    if the closure exceeds 500 elements, which signals wrong generators
    rather than a big group: I*, the largest binary polyhedral group, has
    120.
    """
    gens = list(generators)
    if not gens:
        return 0
    seen = set(gens)
    queue = list(seen)
    while queue:
        current = queue.pop()
        for other in gens:
            for product in (_product(current, other), _product(other, current)):
                if product not in seen:
                    seen.add(product)
                    queue.append(product)
                    if len(seen) > 500:
                        raise GroupError("closure exceeded cap 500: generators look wrong")
    return len(seen)
