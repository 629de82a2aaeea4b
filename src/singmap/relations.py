"""Defining relations of the image of an invariant-polynomial map.

Two discovery routes and one verifier.  Monomial maps (cyclic quotients)
get binomial relations: two factorizations of the same (u, v)-monomial give
x^alpha - x^beta, filtered degree by degree so that only binomials outside
the ideal generated so far are kept.  General homogeneous maps get
bounded-degree relations: for each weighted degree, the exact nullspace of
the substitution matrix over Q(i, sqrt2, sqrt5), reduced modulo multiples
of lower-degree relations.  verify_relation substitutes the generators and
demands the identically zero polynomial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .exactmath import (
    BivariatePoly,
    ExactScalar,
    MultiPoly,
    ONE,
    ZERO,
    grlex_key,
    rref,
)
from .groups import GeneratorSet

DEGREE_CAP_ENV = "SINGMAP_DEGREE_CAP"


def check_degree_bound(bound: Optional[int], source: str = "degree bound") -> Optional[int]:
    """The bound itself, or ValueError when it is below 1 (None passes)."""
    if bound is not None and bound < 1:
        raise ValueError(f"{source} must be at least 1, got {bound}")
    return bound


def env_degree_cap() -> Optional[int]:
    """The global cap from SINGMAP_DEGREE_CAP, or None when it is unset."""
    raw = os.environ.get(DEGREE_CAP_ENV)
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{DEGREE_CAP_ENV} must be an integer, got {raw!r}")
    return check_degree_bound(cap, DEGREE_CAP_ENV)


def _apply_cap(bound: int) -> int:
    check_degree_bound(bound)
    cap = env_degree_cap()
    return min(bound, cap) if cap is not None else bound


def wahl_relation_count(embedding_dimension: int) -> int:
    """Number of minimal equations of a rational surface singularity:
    (e - 1)(e - 2) / 2 (Wahl, Ann. Sci. ENS 10, 1977); 0 for the smooth
    point e = 2."""
    e = embedding_dimension
    return (e - 1) * (e - 2) // 2


@dataclass(frozen=True)
class RelationSet:
    """Weighted-homogeneous relations among the map components.

    complete_up_to_bound: every minimal relation of degree at most
    degree_bound is listed.  expected_count is Wahl's count when the caller
    knows the map is a minimal embedding of a rational singularity; the set
    is certified complete exactly when it holds that many relations.
    """

    relations: Tuple[MultiPoly, ...]
    weights: Tuple[int, ...]
    degree_bound: int
    complete_up_to_bound: bool
    expected_count: Optional[int] = None

    def __post_init__(self):
        if self.expected_count is not None and len(self.relations) > self.expected_count:
            raise RuntimeError(
                f"{len(self.relations)} minimal relations exceed Wahl's count "
                f"{self.expected_count}; the relation search is broken"
            )

    @property
    def complete(self) -> bool:
        return self.expected_count == len(self.relations)

    @property
    def stop_reason(self) -> str:
        return "wahl-count" if self.complete else "degree-bound"

    def to_dict(self) -> dict:
        from .exactmath import format_multi

        return {
            "relations": [format_multi(r) for r in self.relations],
            "degree_bound": self.degree_bound,
            "complete_up_to_bound": self.complete_up_to_bound,
            "complete": self.complete,
            "expected_relation_count": self.expected_count,
            "stop_reason": self.stop_reason,
        }


def _count_reached(relations: Sequence, expected_count: Optional[int]) -> bool:
    return expected_count is not None and len(relations) >= expected_count


def verify_relation(relation: MultiPoly, generators: Sequence[BivariatePoly]) -> bool:
    """True iff substituting x_i -> generators[i] gives exactly zero."""
    return relation.substitute(generators).is_zero()


def check_invariance(poly: BivariatePoly, generators) -> bool:
    """True iff poly is fixed by every generator matrix."""
    if isinstance(generators, GeneratorSet):
        generators = generators.matrices
        if generators is None:
            raise ValueError("invariance check needs exact matrices")
    return all(poly.substitute_linear(m) == poly for m in generators)


# -- binomial relations of monomial maps ----------------------------------------


def _factorizations(
    target: Tuple[int, int], gens: Sequence[Tuple[int, int]]
) -> List[Tuple[int, ...]]:
    """All exponent vectors alpha with sum alpha_i gens_i = target."""
    out: List[Tuple[int, ...]] = []
    k = len(gens)

    def scan(position: int, prefix: List[int], a: int, b: int):
        if position == k:
            if a == 0 and b == 0:
                out.append(tuple(prefix))
            return
        ga, gb = gens[position]
        if position == k - 1:
            if ga == 0 and gb == 0:
                return
            count: Optional[int] = None
            if ga:
                if a % ga:
                    return
                count = a // ga
            if gb:
                if b % gb:
                    return
                if count is None:
                    count = b // gb
                elif count != b // gb:
                    return
            if count * ga == a and count * gb == b:
                scan(position + 1, prefix + [count], 0, 0)
            return
        top = min(a // ga if ga else a + b, b // gb if gb else a + b)
        for count in range(top + 1):
            scan(position + 1, prefix + [count], a - count * ga, b - count * gb)

    scan(0, [], target[0], target[1])
    return out


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def monomial_relations(
    gens: Sequence[Tuple[int, int]],
    degree_bound: int = None,
    expected_count: Optional[int] = None,
) -> RelationSet:
    """Binomial generators of the relation ideal of a monomial map.

    Images (A, B) are processed in increasing weighted degree A + B.  Two
    factorizations of the same image give a relation; a binomial is new
    exactly when the earlier relations, used as rewriting moves, do not
    already connect the two factorizations (that connectivity equals
    membership in the same-degree span of multiples of earlier relations).
    The default bound 2 * p * max-degree covers every minimal generator of
    the cyclic-quotient ideals in scope.  With expected_count (Wahl's
    count), the scan stops after the degree at which that many relations
    have been found.
    """
    gens = [tuple(g) for g in gens]
    weights = tuple(a + b for a, b in gens)
    if degree_bound is None:
        p = max(max(a for a, _ in gens), max(b for _, b in gens))
        degree_bound = 2 * p * max(weights)
    degree_bound = _apply_cap(degree_bound)
    nvars = len(gens)
    relations: List[MultiPoly] = []
    moves: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for degree in range(min(weights), degree_bound + 1):
        if _count_reached(relations, expected_count):
            break
        for a_part in range(degree + 1):
            image = (a_part, degree - a_part)
            fiber = _factorizations(image, gens)
            if len(fiber) < 2:
                continue
            fiber.sort(key=grlex_key)
            index = {alpha: k for k, alpha in enumerate(fiber)}
            uf = _UnionFind(len(fiber))
            for alpha, beta in moves:
                for k, element in enumerate(fiber):
                    if all(e >= a for e, a in zip(element, alpha)):
                        partner = tuple(e - a + b for e, a, b in zip(element, alpha, beta))
                        uf.union(k, index[partner])
            components: Dict[int, int] = {}
            for k in range(len(fiber)):
                root = uf.find(k)
                if root not in components or grlex_key(fiber[k]) < grlex_key(
                    fiber[components[root]]
                ):
                    components[root] = k
            if len(components) < 2:
                continue
            representatives = sorted(
                (fiber[k] for k in components.values()), key=grlex_key
            )
            anchor = representatives[0]
            for other in representatives[1:]:
                # other > anchor in graded-lex, so the leading sign is +1
                relations.append(MultiPoly.binomial(nvars, weights, other, anchor))
                moves.append((other, anchor))
    return RelationSet(tuple(relations), weights, degree_bound, True, expected_count)


# -- bounded-degree relations of polynomial maps ---------------------------------


def _weighted_exponents(weights: Sequence[int], degree: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []

    def scan(position: int, prefix: List[int], remaining: int):
        if position == len(weights) - 1:
            w = weights[position]
            if remaining % w == 0:
                out.append(tuple(prefix + [remaining // w]))
            return
        w = weights[position]
        for count in range(remaining // w + 1):
            scan(position + 1, prefix + [count], remaining - count * w)

    if weights:
        scan(0, [], degree)
    return sorted(out, key=grlex_key, reverse=True)


class _PowerCache:
    def __init__(self, gens: Sequence[BivariatePoly]):
        self.gens = list(gens)
        self.cache = [{0: BivariatePoly.constant(1)} for _ in gens]

    def power(self, i: int, n: int) -> BivariatePoly:
        cache = self.cache[i]
        while n not in cache:
            top = max(cache)
            cache[top + 1] = cache[top] * self.gens[i]
        return cache[n]

    def monomial(self, alpha: Sequence[int]) -> BivariatePoly:
        acc = BivariatePoly.constant(1)
        for i, e in enumerate(alpha):
            if e:
                acc = acc * self.power(i, e)
        return acc


def _normalize_relation(vector, exponents, nvars, weights) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is a positive integer and
    the rational content over the 8-basis coordinates is 1."""
    terms = {
        exponents[k]: coeff
        for k, coeff in enumerate(vector)
        if not (coeff.is_zero() if isinstance(coeff, ExactScalar) else coeff == 0)
    }
    poly = MultiPoly(nvars, weights, terms)
    lead = poly.terms[poly.leading_exponent()]
    poly = poly.scale(lead.inverse())
    lcm = 1
    for coeff in poly.terms.values():
        for coordinate in coeff.coords:
            if coordinate:
                lcm = lcm * coordinate.denominator // gcd(lcm, coordinate.denominator)
    poly = poly.scale(lcm)
    content = 0
    for coeff in poly.terms.values():
        for coordinate in coeff.coords:
            content = gcd(content, coordinate.numerator)
    if content > 1:
        poly = poly.scale(Fraction(1, content))
    return poly


def bounded_degree_relations(
    gens: Sequence[BivariatePoly],
    degree_bound: int = None,
    expected_count: Optional[int] = None,
) -> RelationSet:
    """Relations of a homogeneous polynomial map up to a weighted degree.

    Per weighted degree: enumerate candidate monomials in x, expand their
    substitutions, and take the exact kernel of the coefficient matrix over
    the scalar field; kernel vectors already explained by multiples of
    lower-degree relations are quotiented away.  Each emitted relation is
    re-verified by substitution before it is returned.  With expected_count
    (Wahl's count), the scan stops after the degree at which that many
    relations have been found.
    """
    gens = list(gens)
    weights = []
    for g in gens:
        d = g.homogeneous_degree()
        if d is None:
            raise ValueError(f"generator {g} is not homogeneous")
        weights.append(d)
    weights = tuple(weights)
    if degree_bound is None:
        top_two = sorted(weights)[-2:]
        degree_bound = 2 * sum(top_two)
    degree_bound = _apply_cap(degree_bound)
    nvars = len(gens)
    powers = _PowerCache(gens)
    relations: List[MultiPoly] = []
    step = gcd(*weights) if len(weights) > 1 else weights[0]
    for degree in range(step, degree_bound + 1, step):
        if _count_reached(relations, expected_count):
            break
        exponents = _weighted_exponents(weights, degree)
        if not exponents:
            continue
        substituted = [powers.monomial(alpha) for alpha in exponents]
        support = set()
        for poly in substituted:
            support.update(poly.terms)
        row_index = {e: k for k, e in enumerate(sorted(support, key=grlex_key, reverse=True))}
        matrix = [[ZERO] * len(exponents) for _ in row_index]
        for col, poly in enumerate(substituted):
            for exponent, coeff in poly.terms.items():
                matrix[row_index[exponent]][col] = coeff
        kernel = _kernel_over_scalars(matrix, len(exponents))
        if not kernel:
            continue
        old_span = _lower_degree_multiples(relations, weights, degree, exponents)
        new_vectors = _quotient_vectors(kernel, old_span)
        for vector in new_vectors:
            relation = _normalize_relation(vector, exponents, nvars, weights)
            if not verify_relation(relation, gens):
                raise RuntimeError(f"unsound relation {relation}; kernel logic broken")
            relations.append(relation)
    relations.sort(key=lambda r: (r.weighted_degree(), grlex_key(r.leading_exponent())))
    return RelationSet(tuple(relations), weights, degree_bound, True, expected_count)


def _kernel_over_scalars(matrix, ncols) -> List[List[ExactScalar]]:
    if not matrix:
        return [[ONE if k == j else ZERO for j in range(ncols)] for k in range(ncols)]
    from .exactmath import nullspace_basis

    return nullspace_basis([list(row) for row in matrix])


def _lower_degree_multiples(relations, weights, degree, exponents) -> List[List[ExactScalar]]:
    """Coefficient vectors, in the degree-d monomial basis, of m * r for all
    earlier relations r and monomials m of complementary weighted degree."""
    index = {alpha: k for k, alpha in enumerate(exponents)}
    rows = []
    for relation in relations:
        gap = degree - relation.weighted_degree()
        if gap <= 0:
            continue
        for gamma in _weighted_exponents(weights, gap):
            row = [ZERO] * len(exponents)
            for alpha, coeff in relation.terms.items():
                shifted = tuple(a + g for a, g in zip(alpha, gamma))
                row[index[shifted]] = coeff
            rows.append(row)
    return rows


def _quotient_vectors(kernel, old_span):
    """Kernel vectors reduced modulo the old span, then echelonized."""
    work = [list(r) for r in old_span]
    reduced_old, pivots_old = rref(work) if work else ([], [])

    def reduce_vector(vector):
        residue = list(vector)
        for row, col in zip(reduced_old, pivots_old):
            coeff = residue[col]
            if not (coeff.is_zero() if isinstance(coeff, ExactScalar) else coeff == 0):
                residue = [x - coeff * y for x, y in zip(residue, row)]
        return residue

    new_rows = []
    for vector in kernel:
        residue = reduce_vector(vector)
        if any(not (x.is_zero() if isinstance(x, ExactScalar) else x == 0) for x in residue):
            new_rows.append(residue)
    if not new_rows:
        return []
    echelon, pivots = rref(new_rows)
    return [row for row in echelon[: len(pivots)]]
