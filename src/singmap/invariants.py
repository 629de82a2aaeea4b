"""Generating invariant polynomials for the acting groups.

Three routes.  Cyclic (p, q) actions: the Hilbert basis of the exponent
semigroup {(a, b) : a + q b = 0 mod p}, read off the Hirzebruch-Jung
expansion of p/(p - q), gives a minimal list of invariant monomials.
Binary polyhedral groups: the classical degree-(4, 2n, 2n+2) /
(6, 8, 12) / (12, 8, 18) / (12, 20, 30) generator triples, checked against
the exact generator matrices at first use.  Products with a cyclic factor:
monomials in the three generators whose weighted degree is 0 mod m, pruned
to a minimal generating set by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .exactmath import (
    BivariatePoly,
    ExactScalar,
    Powers,
    SQRT5,
    grlex_key,
    in_span,
    weighted_exponents,
)
from .groups import (
    GeneratorSet,
    GroupDescriptor,
    GroupFamily,
    UnsupportedFamilyError,
    generator_matrices,
)
from .linkdata import hj_expand


class InvariantError(RuntimeError):
    pass


def semigroup_member(target: Sequence[int], gens: Sequence[Sequence[int]]) -> bool:
    """Whether target is a nonnegative integer combination of gens.

    Dynamic programming over the box prod [0..target_i]; generators with a
    coordinate above the target cannot contribute and are dropped.
    """
    target = tuple(int(t) for t in target)
    usable = [tuple(g) for g in gens if all(a <= t for a, t in zip(g, target))]
    if all(t == 0 for t in target):
        return True
    reachable = {tuple(0 for _ in target)}
    frontier = [tuple(0 for _ in target)]
    while frontier:
        point = frontier.pop()
        for g in usable:
            nxt = tuple(a + b for a, b in zip(point, g))
            if any(a > t for a, t in zip(nxt, target)):
                continue
            if nxt in reachable:
                continue
            if nxt == target:
                return True
            reachable.add(nxt)
            frontier.append(nxt)
    return False


def cyclic_invariant_generators(p: int, q: int) -> List[Tuple[int, int]]:
    """Hilbert basis of {(a, b) : a + q b = 0 mod p}, sorted by b.

    Riemenschneider's closed form: from (p, 0), (p - q, 1), each entry c of
    the Hirzebruch-Jung expansion of p/(p - q) appends c*e1 - e0, where
    e0, e1 are the last two pairs.  For the smooth action p = 1 the basis
    is {(1, 0), (0, 1)}.
    """
    if p < 1:
        raise ValueError(f"p must be positive, got {p}")
    if p == 1:
        return [(1, 0), (0, 1)]
    if not (1 <= q < p) or gcd(p, q) != 1:
        raise ValueError(f"need gcd(p, q) = 1 and 1 <= q < p, got ({p}, {q})")
    basis = [(p, 0), (p - q, 1)]
    for c in hj_expand(p, p - q):
        (i0, j0), (i1, j1) = basis[-2:]
        basis.append((c * i1 - i0, c * j1 - j0))
    return basis


def monomials_from_exponents(exponents: Sequence[Tuple[int, int]]) -> List[BivariatePoly]:
    return [BivariatePoly.monomial(1, a, b) for a, b in exponents]


@dataclass(frozen=True)
class InvariantBasis:
    """Ordered generating invariants with their degrees."""

    generators: Tuple[BivariatePoly, ...]
    degrees: Tuple[int, ...]
    group: Optional[GroupDescriptor] = None

    @staticmethod
    def from_polys(polys: Sequence[BivariatePoly], group=None) -> "InvariantBasis":
        degrees = []
        for poly in polys:
            degree = poly.homogeneous_degree()
            if degree is None:
                raise InvariantError(f"generator {poly} is not homogeneous")
            degrees.append(degree)
        return InvariantBasis(tuple(polys), tuple(degrees), group)

    def map_string(self) -> str:
        from .exactmath import format_bivariate

        inner = ", ".join(format_bivariate(p) for p in self.generators)
        return f"F(u,v) = ({inner})"


# -- Klein invariants -------------------------------------------------------------


def _dihedral_triple(n: int) -> List[BivariatePoly]:
    uv = BivariatePoly.monomial(1, 1, 1)
    p1 = uv * uv
    p2 = BivariatePoly.from_terms([(1, 2 * n, 0), (1, 0, 2 * n)])
    p3 = uv * BivariatePoly.from_terms([(1, 2 * n, 0), (-1, 0, 2 * n)])
    return [p1, p2, p3]


def _tetrahedral_triple() -> List[BivariatePoly]:
    p1 = BivariatePoly.from_terms([(1, 1, 5), (-1, 5, 1)])
    p2 = BivariatePoly.from_terms([(1, 8, 0), (1, 0, 8), (14, 4, 4)])
    p3 = BivariatePoly.from_terms([(1, 12, 0), (1, 0, 12), (-33, 8, 4), (-33, 4, 8)])
    return [p1, p2, p3]


def _octahedral_triple() -> List[BivariatePoly]:
    p1 = BivariatePoly.from_terms([(1, 10, 2), (1, 2, 10), (-2, 6, 6)])
    p2 = BivariatePoly.from_terms([(1, 8, 0), (1, 0, 8), (14, 4, 4)])
    p3 = BivariatePoly.from_terms(
        [(34, 5, 13), (-34, 13, 5), (1, 17, 1), (-1, 1, 17)]
    )
    return [p1, p2, p3]


def _icosahedral_triple() -> List[BivariatePoly]:
    s5 = SQRT5
    p1 = BivariatePoly.from_terms(
        [
            (s5, 12, 0),
            (s5, 0, 12),
            (-22, 10, 2),
            (-22, 2, 10),
            (ExactScalar.rational(-33) * s5, 8, 4),
            (ExactScalar.rational(-33) * s5, 4, 8),
            (44, 6, 6),
        ]
    )
    p2 = BivariatePoly.from_terms(
        [
            (-3, 20, 0),
            (-3, 0, 20),
            (ExactScalar.rational(-38) * s5, 18, 2),
            (ExactScalar.rational(-38) * s5, 2, 18),
            (57, 16, 4),
            (57, 4, 16),
            (ExactScalar.rational(-456) * s5, 14, 6),
            (ExactScalar.rational(-456) * s5, 6, 14),
            (1482, 12, 8),
            (1482, 8, 12),
            (ExactScalar.rational(988) * s5, 10, 10),
        ]
    )
    p3 = BivariatePoly.from_terms(
        [
            (225, 29, 1),
            (-225, 1, 29),
            (ExactScalar.rational(580) * s5, 27, 3),
            (ExactScalar.rational(-580) * s5, 3, 27),
            (15921, 25, 5),
            (-15921, 5, 25),
            (ExactScalar.rational(-20880) * s5, 23, 7),
            (ExactScalar.rational(20880) * s5, 7, 23),
            (90045, 21, 9),
            (-90045, 9, 21),
            (ExactScalar.rational(40020) * s5, 19, 11),
            (ExactScalar.rational(-40020) * s5, 11, 19),
            (570285, 17, 13),
            (-570285, 13, 17),
        ]
    )
    return [p1, p2, p3]


_KLEIN_VERIFIED: Dict[object, bool] = {}


def _matrices_for_invariance(tag: GroupFamily, n: int) -> Optional[GeneratorSet]:
    descriptor = {
        GroupFamily.BINARY_DIHEDRAL: lambda: GroupDescriptor(tag, (n,), 1, 4 * n),
        GroupFamily.BINARY_TETRAHEDRAL: lambda: GroupDescriptor(tag, (), 1, 24),
        GroupFamily.BINARY_OCTAHEDRAL: lambda: GroupDescriptor(tag, (), 1, 48),
        GroupFamily.BINARY_ICOSAHEDRAL: lambda: GroupDescriptor(tag, (), 1, 120),
    }[tag]()
    gens = generator_matrices(descriptor)
    return gens if gens.exact else None


def _check_diagonal_action(poly: BivariatePoly, order: int, ru: int, rv: int) -> bool:
    """Invariance under u -> zeta^ru u, v -> zeta^rv v for zeta of the given
    order, checked per exponent: needs ru*a + rv*b = 0 mod order."""
    return all((ru * a + rv * b) % order == 0 for a, b in poly.terms)


def klein_invariants(tag: GroupFamily, n: int = None) -> InvariantBasis:
    """The classical generator triple for D*_{4n}, T*, O* or I*.

    Each triple is verified to be fixed by both group generators before it
    is handed out; a failure aborts loudly since every downstream relation
    would be wrong.  For D* with 2n outside {2, 4, 8} the diagonal
    generator is checked through the exponent congruence instead of an
    explicit root of unity.
    """
    if tag is GroupFamily.BINARY_DIHEDRAL:
        if n is None or n < 1:
            raise ValueError("D* needs the index n >= 1 of D*_{4n}")
        polys = _dihedral_triple(n)
        cache_key = (tag, n)
    elif tag is GroupFamily.BINARY_TETRAHEDRAL:
        polys = _tetrahedral_triple()
        cache_key = tag
    elif tag is GroupFamily.BINARY_OCTAHEDRAL:
        polys = _octahedral_triple()
        cache_key = tag
    elif tag is GroupFamily.BINARY_ICOSAHEDRAL:
        polys = _icosahedral_triple()
        cache_key = tag
    else:
        raise UnsupportedFamilyError(f"no invariant triple for {tag}")
    if not _KLEIN_VERIFIED.get(cache_key):
        gens = _matrices_for_invariance(tag, n)
        for poly in polys:
            if gens is not None:
                for matrix in gens:
                    if poly.substitute_linear(matrix) != poly:
                        raise InvariantError(
                            f"invariant {poly} is not fixed by its group generator"
                        )
            else:
                # D* with an inexact root of unity: diagonal action by the
                # congruence, antidiagonal generator by exact substitution
                if not _check_diagonal_action(poly, 2 * n, 1, -1):
                    raise InvariantError(f"{poly} not fixed by the diagonal action")
                from .groups import _J

                if poly.substitute_linear(_J) != poly:
                    raise InvariantError(f"{poly} not fixed by the antidiagonal action")
        _KLEIN_VERIFIED[cache_key] = True
    return InvariantBasis.from_polys(polys)


# -- product group invariants --------------------------------------------------------


def product_invariant_monomials(degrees: Sequence[int], m: int) -> List[Tuple[int, ...]]:
    """Hilbert basis of {a in N^j : sum a_i d_i = 0 mod m}.

    Any element with a coordinate above m reduces by m*e_i, so candidates
    live in the box [0..m]^j; minimality is semigroup membership among the
    remaining solutions.  Output sorted lexicographically descending.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    degrees = tuple(int(d) for d in degrees)
    solutions = []

    def scan(prefix, remainder):
        if len(prefix) == len(degrees):
            if remainder % m == 0 and any(prefix):
                solutions.append(tuple(prefix))
            return
        for value in range(m + 1):
            scan(prefix + [value], remainder + value * degrees[len(prefix)])

    scan([], 0)
    basis = []
    for index, candidate in enumerate(solutions):
        others = [s for k, s in enumerate(solutions) if k != index]
        if not semigroup_member(candidate, others):
            basis.append(candidate)
    return sorted(basis, reverse=True)


def _poly_coefficient_vector(poly: BivariatePoly, exponent_index: Dict[Tuple[int, int], int]):
    from .exactmath import ZERO

    vector = [ZERO] * len(exponent_index)
    for exponent, coeff in poly.terms.items():
        vector[exponent_index[exponent]] = coeff
    return vector


def expressible_in(candidate: BivariatePoly, others: Sequence[BivariatePoly]) -> bool:
    """Whether candidate is a weighted-homogeneous polynomial in others.

    Everything is homogeneous, so only monomials in the others whose
    weighted degree equals the candidate's degree can contribute; the
    question reduces to membership of the candidate's coefficient vector in
    their span.
    """
    degree = candidate.homogeneous_degree()
    if degree is None:
        raise InvariantError("candidates must be homogeneous")
    weights = []
    for other in others:
        d = other.homogeneous_degree()
        if d is None:
            raise InvariantError("candidates must be homogeneous")
        weights.append(d)
    exponents = weighted_exponents(weights, degree)
    if not exponents:
        return False
    powers = Powers(others)
    products = [powers.monomial(alpha) for alpha in exponents]
    support = set(candidate.terms)
    for product in products:
        support.update(product.terms)
    index = {e: k for k, e in enumerate(sorted(support, key=grlex_key, reverse=True))}
    span_rows = [_poly_coefficient_vector(p, index) for p in products]
    return in_span(span_rows, _poly_coefficient_vector(candidate, index))


def minimalize_generators(
    candidates: Sequence[BivariatePoly],
    target_count: int = None,
    degree_bound: int = None,
) -> List[BivariatePoly]:
    """Greedily drop candidates expressible in the remaining ones.

    Each round scans candidates in descending graded-lex order of their
    leading monomial, removes the first expressible one, and restarts,
    stopping once target_count generators remain (when given).  The
    returned list keeps the input order of the survivors.  degree_bound
    caps the degree of expressions considered; since expressions of
    homogeneous polynomials are forced to the candidate's own degree the
    default (max candidate degree) is always enough.
    """
    pool = list(candidates)

    def scan_order():
        return sorted(
            range(len(pool)),
            key=lambda k: (
                grlex_key(pool[k].leading_exponent()),
                tuple(sorted(pool[k].terms)),
            ),
            reverse=True,
        )

    changed = True
    while changed and (target_count is None or len(pool) > target_count):
        changed = False
        for k in scan_order():
            if degree_bound is not None and pool[k].homogeneous_degree() > degree_bound:
                continue  # kept as-is: expressions above the bound are not searched
            rest = pool[:k] + pool[k + 1 :]
            if expressible_in(pool[k], rest):
                pool = rest
                changed = True
                break
    return pool
