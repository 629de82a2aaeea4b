"""Defining relations of the image of an invariant-polynomial map.

Two discovery routes, both resting on Wahl's theorem that a rational
singularity's minimal equations have independent quadratic parts, and one
verifier.  Monomial maps (cyclic quotients of L(p, q)) get binomial
relations from (p, q) alone: two factorizations of the same (u, v)-monomial
give x^alpha - x^beta.  Only Riemenschneider's images g_(k-1) + g_(l+1) of
the Hirzebruch-Jung ordered generators are read, since the minimal
relations sit there and nowhere else, and each image's binomials join its
quadratic factorizations and the least of the others to the least
quadratic one.  A map with more minimal relations than
MAX_CYCLIC_RELATIONS, which Wahl's count gives from the number e of
generators, is refused once those e exponent pairs are listed, before any
polynomial or relation candidate is.  Maps by monomials in a Klein triple (binary
polyhedral quotients and their cyclic products) get bounded-degree
relations: per weighted degree w_i + w_j of a pair of generators, one
fraction-free integer elimination of the degree matrix, the candidate
monomials' Klein normal forms as columns.  Both routes list their
candidates through one Factorizations over the generators: every exponent
vector of total degree <= 2, and only the least one of higher total degree
per target monomial, the only one of those that can matter.  The
elimination's reduced form names the relations' columns: the free
columns of total degree <= 2, and the higher free columns that are pivots
of the low pivot rows cut down to the high columns.  Each relation is the
integer kernel vector at its column times the normal forms' column factors,
already in output order, so it needs no fraction and no sort.
verify_relation substitutes the generators and demands the identically
zero polynomial; every Klein relation is checked so before it is returned,
rewritten in the Klein triple itself, whose powers the map's KleinBasis
already holds.  Binomials are not substituted: they hold by construction,
both sides factoring one monomial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from .exactmath import (
    ExactScalar,
    Factorizations,
    MultiPoly,
    ONE,
    ZERO,
    format_multi,
    insert_row,
    kernel_vector,
    rref,
)
from .invariants import certify_rank, cyclic_invariant_generators
from .linkdata import _NUMBER, _index


def check_degree_bound(bound: int, source: str = "degree bound") -> int:
    """The bound as an int; TypeError when it is not an integer (2.5, 24.0,
    "24", True), ValueError when it is below 1."""
    bound = _index(bound)
    if bound < 1:
        raise ValueError(f"{source} must be at least 1, got {bound}")
    return bound


# a bound is a shorthand number; a leading minus is read as well, so that a
# negative bound is reported as below 1 rather than as unreadable
_BOUND_RE = re.compile(rf"\s*(-?){_NUMBER}", re.ASCII)


def parse_degree_bound(text: str, source: str) -> int:
    """The bound written in text, or ValueError naming source when text is
    not an integer in ASCII digits or the bound is below 1."""
    m = _BOUND_RE.fullmatch(text)
    if not m:
        raise ValueError(f"{source} must be an integer in ASCII digits, got {text!r}")
    return check_degree_bound(int(m.group(1) + m.group(2)), source)


def wahl_relation_count(embedding_dimension: int) -> int:
    """Number of minimal equations of a rational surface singularity:
    (e - 1)(e - 2) / 2 (Wahl, Ann. Sci. ENS 10, 1977); 0 for the smooth
    point e = 2."""
    e = embedding_dimension
    return (e - 1) * (e - 2) // 2


# the most minimal relations a cyclic quotient map is built with.  The work
# grows with the cube of e: L(200, 1), with 19,900 relations, takes about
# 0.6 s and 60 MB on a 2-vCPU x86 host, and L(1001, 1), with 500,500, would
# take minutes and gigabytes
MAX_CYCLIC_RELATIONS = 20_000


class RelationBudgetError(ValueError):
    """A map with more minimal relations than the library builds."""


@dataclass(frozen=True)
class RelationSet:
    """Weighted-homogeneous relations among the map components.

    Every minimal relation of degree at most degree_bound is listed, so
    to_dict writes complete_up_to_bound as the constant true.  expected_count is Wahl's
    count when the caller knows the map is a minimal embedding of a
    rational singularity; the set is certified complete exactly when it
    holds that many relations.
    """

    relations: Tuple[MultiPoly, ...]
    degree_bound: int
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
        return {
            "relations": [format_multi(r) for r in self.relations],
            "degree_bound": self.degree_bound,
            "complete_up_to_bound": True,
            "complete": self.complete,
            "expected_relation_count": self.expected_count,
            "stop_reason": self.stop_reason,
        }


def verify_relation(relation: MultiPoly, generators) -> bool:
    """True iff substituting x_i -> generators[i] gives exactly zero.
    generators is a sequence of BivariatePoly or a Powers over them."""
    return relation.substitute(generators).is_zero()


# -- binomial relations of monomial maps ----------------------------------------


def monomial_relations(
    p: int,
    q: int,
    degree_bound: int = None,
    expected_count: Optional[int] = None,
) -> RelationSet:
    """Binomial generators of the relation ideal of the cyclic quotient
    map of L(p, q).

    Its components are the monomials of the Hilbert basis g_0, ..., g_(e-1)
    in Hirzebruch-Jung order, cyclic_invariant_generators(p, q).  The
    minimal relations sit exactly at the images g_(k-1) + g_(l+1),
    1 <= k <= l <= e - 2 (Riemenschneider's quasi-determinantal equations,
    Math. Ann. 209, 1974), and only those images are visited, in increasing
    weighted degree A + B, then increasing A; images above degree_bound are
    skipped.  The default bound 2 * p * max-degree covers every image.
    expected_count (Wahl's count) only certifies completeness.  The smooth
    point p = 1 has no relation: degree_bound 0 and Wahl's count 0.

    Each image's relations are read off its own fiber F, its factorizations
    in ascending graded-lex order, by the rule of bounded_degree_relations
    (L(p, q) is rational).  F splits into Q, those of total degree 2 (the
    image itself is one), and H, the rest; none has total degree 1, since
    the generators are irreducible, so Q comes first.  F's block of the
    0/1 degree matrix is one row of ones, reduced already, with its pivot
    at the anchor, the least of Q.  Its low free columns are the other q in
    Q, with kernel vectors x^q - x^anchor, and cut down to H it is a row of
    ones whose pivot is min(H), giving x^min(H) - x^anchor when H is not
    empty.  So only Q and min(H) are listed: the columns of
    Factorizations over the generators at the image are exactly those.

    Wahl's count (e - 1)(e - 2)/2 is known once the e generators are
    listed, before any image or factorization is; above
    MAX_CYCLIC_RELATIONS the map is refused with RelationBudgetError, a
    ValueError.
    """
    gens = cyclic_invariant_generators(p, q)
    weights = tuple(a + b for a, b in gens)
    degree_bound = check_degree_bound(
        2 * p * max(weights) if degree_bound is None else degree_bound)
    if wahl_relation_count(len(gens)) > MAX_CYCLIC_RELATIONS:
        raise RelationBudgetError(
            f"L({p},{q}) has {wahl_relation_count(len(gens))} minimal relations, more than "
            f"the {MAX_CYCLIC_RELATIONS} a map is built with")
    if p == 1:
        return RelationSet((), 0, wahl_relation_count(len(gens)))
    nvars = len(gens)
    images = sorted({tuple(map(add, gens[k - 1], gens[l + 1]))
                     for k in range(1, nvars - 1) for l in range(k, nvars - 1)
                     if weights[k - 1] + weights[l + 1] <= degree_bound},
                    key=lambda image: (sum(image), image[0]))
    factorizations = Factorizations(gens, weights)
    fibers: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
    for degree in sorted({sum(image) for image in images}):
        for alpha, target in factorizations.columns(degree):
            fibers.setdefault(target, []).append(alpha)
    # a fiber is Q, then min(H); each later entry exceeds the first, the
    # anchor, in graded-lex, so the leading sign is +1
    relations = [MultiPoly._of(nvars, weights, {other: ONE, fibers[image][0]: -ONE})
                 for image in images for other in fibers[image][1:]]
    return RelationSet(tuple(relations), degree_bound, expected_count)


# -- bounded-degree relations of polynomial maps ---------------------------------


def bounded_degree_relations(
    base,
    gens: Sequence[Sequence[int]],
    degree_bound: int = None,
    expected_count: Optional[int] = None,
) -> RelationSet:
    """Relations of a map by Klein monomials up to a weighted degree.

    base is the KleinBasis of the generators' Klein triple and gens their
    exponent triples, which must minimally generate the ring of a rational
    singularity, as every Z/m x G quotient map does.  Then the part of total
    degree <= 2 maps I/mI isomorphically onto the tangent cone's quadrics
    (Wahl, Ann. Sci. ENS 10, 1977: both have dimension (e - 1)(e - 2)/2), so
    I meets m^3 in m I: a new relation has an independent quadratic part,
    and only the weighted degrees w_i + w_j of generator pairs are scanned.

    Per degree the columns are the candidate monomials x^alpha in the
    generators in ascending graded-lex order, so the low ones, of total
    degree <= 2, come first.  They are Factorizations.columns: every low
    alpha, and of the high ones only the least at each Klein monomial.  Any
    other high alpha repeats the normal form of that least one, an earlier
    column, so it moves no pivot, and its kernel vector, x^alpha minus the
    earlier monomial, has no low part: it never gives a relation, and only
    the matrix would grow with it.  base.degree_matrix puts the integer
    normal form of x^alpha in column p, one sparse row per Klein monomial.  The normal
    form is injective, so the matrix's kernel K is that of the (u, v)
    substitution up to the column factors, and the new relations are the
    vectors of K, times those factors, with independent low parts (on the
    columns p < low).  One rref gives the reduced form, and each free
    column p, one that is not a pivot, its kernel vector
    kernel_vector(form, p): positive at p, zero at every other free column,
    and solved at each pivot c with form[c][p] != 0.  In ascending p these
    vectors span K<=p, so p gives a relation exactly when the low part of
    its vector is independent of the earlier ones' (Wahl's criterion), and
    the reduced form answers that without a vector:

    - a free column p < low always gives one, since its vector is the only
      one that is nonzero at p, a low column;
    - a free column p >= low has its vector's low part on the low pivots
      c, -form[c][p] / form[c][c] there up to a positive factor of p's own.
      The high pivot columns are 0 in the low pivot rows, and the low free
      columns' vectors are the only ones nonzero at those columns, so p's
      low part is new exactly when p's column of the low pivot rows, cut
      down to the high columns, is independent of the earlier columns:
      when p is a pivot of the cut rows.  insert_row finds those pivots,
      so each degree still has one rref.

    The relation at p is p's vector times the column factors, scaled to
    content 1 (base.relation_coefficients).  Each pivot it meets lies left of
    p, so the relation's graded-lex leading monomial is x^exponents[p], with
    a positive integer coefficient.  The degrees ascend, and within one p
    ascends, so the relations come out in (weighted degree, leading
    exponent) order, the output order, with no sort.

    Each emitted relation is re-verified by exact substitution before it is
    returned: rewritten in the triple by _in_klein_triple, it is evaluated
    at the (u, v) expansions of x, y, z through base.powers.  That check
    uses neither the normal form nor S, so a wrong Klein relation still
    fails it.  With expected_count (Wahl's count), the scan stops after the
    degree at which that many relations have been found.  Each scanned
    degree's reduced form must have H(d) rows (certify_rank), so
    generators that miss an invariant of a scanned degree raise
    RuntimeError instead of yielding a short relation list.
    """
    weights = tuple(base.degree(g) for g in gens)
    if not all(w > 0 for w in weights):
        raise ValueError("every generator needs a positive degree")
    degree_bound = check_degree_bound(
        2 * sum(sorted(weights)[-2:]) if degree_bound is None else degree_bound)
    factorizations = Factorizations(gens, weights)
    relations: List[MultiPoly] = []
    pair_sums = {w + v for k, w in enumerate(weights) for v in weights[k:]}
    for degree in sorted(d for d in pair_sums if d <= degree_bound):
        if expected_count is not None and len(relations) >= expected_count:
            break
        exponents, targets = zip(*factorizations.columns(degree))
        low = sum(1 for alpha in exponents if sum(alpha) <= 2)
        form = rref(base.degree_matrix(targets))
        certify_rank(base.monomials(degree), degree, len(form), "bounded_degree_relations")
        cut = {}  # the low pivot rows on the high columns
        for c in [c for c in form if c < low]:
            insert_row(cut, {j: x for j, x in form[c].items() if j >= low})
        for p in [*(p for p in range(low) if p not in form), *sorted(cut)]:
            coeffs = base.relation_coefficients(kernel_vector(form, p), targets, p)
            relation = MultiPoly._of(len(gens), weights, {exponents[c]: x for c, x in coeffs.items()})
            if not verify_relation(_in_klein_triple(base, relation, gens), base.powers):
                raise RuntimeError(f"unsound relation {relation}; kernel logic broken")
            relations.append(relation)
    return RelationSet(tuple(relations), degree_bound, expected_count)


def _in_klein_triple(base, relation: MultiPoly, gens) -> MultiPoly:
    """The relation sum c_alpha x^alpha as sum c_alpha x^T(alpha) in the
    triple's three variables, T(alpha) = base.power_product(alpha, gens),
    with terms on one Klein monomial merged and the common monomial
    x^min T divided out.  It vanishes at (x, y, z) exactly when the relation
    vanishes at the generators: C[u, v] is a domain and x, y, z are not 0."""
    terms: Dict[Tuple[int, int, int], ExactScalar] = {}
    for alpha, coeff in relation.terms.items():
        target = base.power_product(alpha, gens)
        terms[target] = terms.get(target, ZERO) + coeff
    low = [min(column) for column in zip(*terms)]
    return MultiPoly._of(3, base.degrees, {
        tuple(e - m for e, m in zip(target, low)): coeff for target, coeff in terms.items()
    })
