"""Defining relations of the image of an invariant-polynomial map.

Two discovery routes and one verifier.  Monomial maps (cyclic quotients)
get binomial relations: two factorizations of the same (u, v)-monomial give
x^alpha - x^beta, filtered degree by degree so that only binomials outside
the ideal generated so far are kept.  Maps by monomials in a Klein triple
(binary polyhedral quotients and their cyclic products) get bounded-degree
relations: for each weighted degree, the exact nullspace of the matrix of
Klein normal forms over Q(i, sqrt2, sqrt5), reduced modulo multiples of
lower-degree relations.  verify_relation substitutes the generators and
demands the identically zero polynomial.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .exactmath import (
    BivariatePoly,
    ExactScalar,
    MultiPoly,
    ONE,
    ZERO,
    grlex_key,
    rref,
    weighted_exponents,
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
    # a scalar in lowest terms has the lcm of its coordinate denominators as den
    poly = poly.scale(lcm(*(coeff.den for coeff in poly.terms.values())))
    content = gcd(*(n for coeff in poly.terms.values() for n in coeff.num))
    if content > 1:
        poly = poly.scale(Fraction(1, content))
    return poly


def bounded_degree_relations(
    base,
    gens: Sequence[Sequence[int]],
    degree_bound: int = None,
    expected_count: Optional[int] = None,
) -> RelationSet:
    """Relations of a map by Klein monomials up to a weighted degree.

    base is the KleinBasis of the generators' Klein triple and gens their
    exponent triples.  Per weighted degree: enumerate candidate monomials
    x^alpha in the generators, write each as a Klein monomial in normal
    form, and take the exact kernel of the coefficient matrix over the
    scalar field; since the normal form is injective this is the kernel of
    the (u, v) substitution.  Kernel vectors already explained by multiples
    of lower-degree relations are quotiented away.  Each emitted relation is
    re-verified by substituting the generators' (u, v) expansions before it
    is returned.  With expected_count (Wahl's count), the scan stops after
    the degree at which that many relations have been found.
    """
    gens = [tuple(g) for g in gens]
    weights = tuple(base.degree(g) for g in gens)
    if not all(w > 0 for w in weights):
        raise ValueError("every generator needs a positive degree")
    if degree_bound is None:
        top_two = sorted(weights)[-2:]
        degree_bound = 2 * sum(top_two)
    degree_bound = _apply_cap(degree_bound)
    nvars = len(gens)
    expanded = [base.expand(g) for g in gens]
    relations: List[MultiPoly] = []
    step = gcd(*weights) if len(weights) > 1 else weights[0]
    for degree in range(step, degree_bound + 1, step):
        if _count_reached(relations, expected_count):
            break
        exponents = weighted_exponents(weights, degree)
        if not exponents:
            continue
        forms = [base.normal_form(base.power_product(alpha, gens)) for alpha in exponents]
        row_index = {t: k for k, t in enumerate(sorted(set().union(*forms), reverse=True))}
        matrix = [[ZERO] * len(exponents) for _ in row_index]
        for col, form in enumerate(forms):
            for monomial, coeff in form.items():
                matrix[row_index[monomial]][col] = coeff
        kernel = _kernel_over_scalars(matrix, len(exponents))
        if not kernel:
            continue
        old_span = _lower_degree_multiples(relations, weights, degree, exponents)
        new_vectors = _quotient_vectors(kernel, old_span)
        for vector in new_vectors:
            relation = _normalize_relation(vector, exponents, nvars, weights)
            if not verify_relation(relation, expanded):
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
        for gamma in weighted_exponents(weights, gap):
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
                residue = [x - coeff * y if y else x for x, y in zip(residue, row)]
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
