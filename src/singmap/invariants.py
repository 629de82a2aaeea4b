"""Generating invariant polynomials for the acting groups.

Three routes.  Cyclic (p, q) actions: the Hilbert basis of the exponent
semigroup {(a, b) : a + q b = 0 mod p}, read off the Hirzebruch-Jung
expansion of p/(p - q), gives a minimal list of invariant monomials.
Binary polyhedral groups: Klein's degree-(4, 2n, 2n+2) / (6, 8, 12) /
(12, 8, 18) / (12, 20, 30) generator triples (x, y, z) with his relation
z^2 = S(x, y) (Vorlesungen ueber das Ikosaeder, 1884): x a ground form, y
a second form (for T*, O* and I* a multiple of a Hessian) and z a multiple
of the Jacobian of x and y.  Both are checked at first use, the triple
against the exact generator matrices and the relation by substitution.
Products with a cyclic factor: monomials x^a y^b z^c whose weighted degree
is 0 mod m, pruned to a minimal generating set in the normal form
x^a y^b z^(c mod 2) S^(c div 2) of C[x, y, z]/(z^2 - S).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd
from operator import le
from typing import Dict, List, Optional, Sequence, Tuple

from .exactmath import (
    BivariatePoly,
    ExactScalar,
    Factorizations,
    MultiPoly,
    Powers,
    SQRT5,
    grlex_key,
    in_span,
    insert_row,
)
from .groups import (
    _J,
    GroupFamily,
    UnsupportedFamilyError,
    binary_group,
    check_invariance,
    generator_matrices,
)
from .linkdata import _check_lens_pair, _index, hj_expand


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
    e0, e1 are the last two pairs.  For the smooth action (1, 0) the basis
    is {(1, 0), (0, 1)}.  Any other pair breaking the lens-pair rule of
    LensData (linkdata._check_lens_pair) raises LinkError, a ValueError,
    with LensData's message.
    """
    p, q = _check_lens_pair(p, q)
    if p == 1:
        return [(1, 0), (0, 1)]
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

    @staticmethod
    def from_polys(polys: Sequence[BivariatePoly]) -> "InvariantBasis":
        degrees = []
        for poly in polys:
            degree = poly.homogeneous_degree()
            if degree is None:
                raise InvariantError(f"generator {poly} is not homogeneous")
            degrees.append(degree)
        return InvariantBasis(tuple(polys), tuple(degrees))


# -- Klein invariants -------------------------------------------------------------


def _partials(f: BivariatePoly) -> Tuple[BivariatePoly, BivariatePoly]:
    """(f_u, f_v)."""
    terms = f.terms.items()
    return (BivariatePoly({(a - 1, b): c * a for (a, b), c in terms if a}),
            BivariatePoly({(a, b - 1): c * b for (a, b), c in terms if b}))


def _hessian(f: BivariatePoly) -> BivariatePoly:
    """H(f) = f_uu f_vv - f_uv^2."""
    f_u, f_v = _partials(f)
    f_uu, f_uv = _partials(f_u)
    return f_uu * _partials(f_v)[1] - f_uv * f_uv


def _jacobian(f: BivariatePoly, g: BivariatePoly) -> BivariatePoly:
    """J(f, g) = f_u g_v - f_v g_u."""
    (f_u, f_v), (g_u, g_v) = _partials(f), _partials(g)
    return f_u * g_v - f_v * g_u


# Klein's octahedron form u v (v^4 - u^4), zero at the vertices 0, oo, +-1,
# +-i, and the cube form u^8 + 14 u^4 v^4 + v^8, zero at the face centres
_OCTAHEDRON = BivariatePoly.from_terms([(1, 1, 5), (-1, 5, 1)])
_CUBE = _hessian(_OCTAHEDRON).scale(Fraction(-1, 25))


def _klein_forms(tag: GroupFamily, n: Optional[int]):
    """Klein's data for D*_{4n}, T*, O* or I* (Vorlesungen ueber das
    Ikosaeder, 1884), in the coordinates of the generators in groups:
    (x, y, c, S) with x the ground form, y the second form, z = c J(x, y),
    and S = (terms, den, root) Klein's relation z^2 = S(x, y) in integer
    form: S(x, y) = S'(x, y') / den with y' = sqrt(root) y, for the integer
    terms (coefficient, i, j) of S', each standing for coefficient x^i y'^j:

        D*_{4n}: S = x y^2 - 4 x^(n+1)     T*: S = y^3 - 108 x^4
        O*:      S = x y^3 - 108 x^3       I*: S = -(27 x^5 + 5 y'^3)/4

    den and root are 1, except for I*, where y' = s5 y and so
    S = -(27 x^5 + 25 s5 y^3)/4.
    """
    if tag is GroupFamily.BINARY_DIHEDRAL:
        x = BivariatePoly.monomial(1, 2, 2)
        y = BivariatePoly.from_terms([(1, 2 * n, 0), (1, 0, 2 * n)])
        return x, y, Fraction(-1, 4 * n), ([(1, 1, 2), (-4, n + 1, 0)], 1, 1)
    if tag is GroupFamily.BINARY_TETRAHEDRAL:
        return _OCTAHEDRON, _CUBE, Fraction(1, 8), ([(1, 0, 3), (-108, 4, 0)], 1, 1)
    if tag is GroupFamily.BINARY_OCTAHEDRAL:
        square = ([(1, 1, 3), (-108, 3, 0)], 1, 1)
        return _OCTAHEDRON * _OCTAHEDRON, _CUBE, Fraction(-1, 16), square
    if tag is GroupFamily.BINARY_ICOSAHEDRAL:
        # the icosahedron form for the generators in groups; Klein's own,
        # for another choice, is u v (u^10 + 11 u^5 v^5 - v^10)
        s5 = SQRT5
        x = BivariatePoly.from_terms([
            (s5, 12, 0), (s5, 0, 12), (-22, 10, 2), (-22, 2, 10),
            (-33 * s5, 8, 4), (-33 * s5, 4, 8), (44, 6, 6),
        ])
        square = ([(-27, 5, 0), (-5, 0, 3)], 4, 5)
        return x, _hessian(x).scale(s5 / 9680), Fraction(-1, 32), square
    raise UnsupportedFamilyError(f"no invariant triple for {tag}")


@dataclass(frozen=True)
class KleinBasis(InvariantBasis):
    """The Klein triple (x, y, z) of a binary polyhedral group G with its
    relation z^2 = S(x, y), so that C[u, v]^G = C[x, y, z]/(z^2 - S).

    S is held in the integer form of _klein_forms: square is the two
    integer terms (coefficient, i, j) of S', with S(x, y) = S'(x, y') / den
    and y' = sqrt(root) y; den and root are 1, or 4 and 5 for I*.  A Klein
    monomial x^a y^b z^c is its exponent triple (a, b, c).  Its normal form
    x^a y^b z^(c mod 2) S^(c div 2) is held as the integer form
    x^a y'^b z^(c mod 2) S'^(c div 2), a dict {(i, j, e): int} with e in
    {0, 1}: the normal form in x, y', z times the column factor
    sqrt(root)^b den^(c div 2).  The ring is free over C[x, y] on 1 and z,
    and x, y are algebraically independent, so the normal form is
    injective: linear relations among Klein monomials are exactly the
    linear relations among their normal forms, which have a few terms where
    the (u, v) expansions have hundreds.  Scaling a column or a monomial
    moves no pivot, so ranks and spans are read off the integer forms, and
    a kernel vector w of them is the relation with coefficients w times the
    column factors, which relation_coefficients computes in integers.

    powers is the one Powers over the triple: it expands Klein monomials in
    u, v, for the printed map, for the tie-break of minimalize_generators
    and for the verification of every relation found among them.  It keeps
    the powers of x, y and z, every Klein monomial it has expanded, and the
    integer decomposition of each monomial that a verification summed.
    klein_invariants hands out one verified basis per family per process,
    so these tables serve every map of the family: the powers grow to the
    largest exponent any map asked for, the monomial tables by each
    distinct Klein monomial met, and nothing is dropped.
    """

    square: Tuple[Tuple[int, int, int], ...]
    den: int = 1
    root: int = 1

    def __post_init__(self):
        object.__setattr__(self, "powers", Powers(self.generators))
        object.__setattr__(self, "_leads", [g.leading_exponent() for g in self.generators])

    def relation(self) -> MultiPoly:
        """z^2 - S(x, y) in the variables x1, x2, x3, up to the positive
        factor that relation_coefficients gives it: its integer kernel
        vector is 1 at z^2 and minus each coefficient of S' at x^i y^j."""
        monomials = [(0, 0, 2), *((i, j, 0) for _, i, j in self.square)]
        vector = {0: 1, **{k: -coeff for k, (coeff, _, _) in enumerate(self.square, 1)}}
        coeffs = self.relation_coefficients(vector, monomials, 0)
        return MultiPoly._of(3, self.degrees, {monomials[k]: c for k, c in coeffs.items()})

    def degree(self, exponent: Sequence[int]) -> int:
        return sum(e * d for e, d in zip(exponent, self.degrees))

    def monomials(self, degree: int) -> List[Tuple[int, int, int]]:
        """The Klein monomials x^a y^b z^c of the weighted degree, each c
        and b in turn with a solved from them."""
        x, y, z = self.degrees
        return [(a, b, c) for c in range(degree // z + 1) for b in range((degree - c * z) // y + 1)
                for a, r in [divmod(degree - c * z - b * y, x)] if not r]

    @staticmethod
    def power_product(alpha: Sequence[int], monomials: Sequence[Sequence[int]]) -> Tuple[int, ...]:
        """The Klein monomial prod monomials[i]^alpha[i]."""
        a = b = c = 0
        for e, (x, y, z) in zip(alpha, monomials):
            a, b, c = a + e * x, b + e * y, c + e * z
        return a, b, c

    def normal_form(self, exponent: Sequence[int]) -> Dict[Tuple[int, int, int], int]:
        """x^a y'^b z^(c mod 2) S'^(c div 2) as {(i, j, e): int}."""
        a, b, c = exponent
        k, e = divmod(c, 2)
        # S' has two terms, so S'^k is read off the binomial theorem
        (c1, i1, j1), (c2, i2, j2) = self.square
        return {
            (a + t * i1 + (k - t) * i2, b + t * j1 + (k - t) * j2, e):
                comb(k, t) * c1 ** t * c2 ** (k - t)
            for t in range(k + 1)
        }

    def degree_matrix(self, columns) -> List[Dict[object, int]]:
        """The sparse integer matrix whose column c holds the normal form of
        the Klein monomial columns[c], for a sequence columns: one row per
        monomial of the normal forms, in descending order.  The row order
        moves no pivot; it sets the elimination's work."""
        rows: Dict[Tuple[int, int, int], Dict[object, int]] = {}
        for col, target in enumerate(columns):
            for monomial, coeff in self.normal_form(target).items():
                rows.setdefault(monomial, {})[col] = coeff
        return [rows[monomial] for monomial in sorted(rows, reverse=True)]

    def relation_coefficients(self, vector, monomials, lead) -> Dict[object, ExactScalar]:
        """The relation that an integer kernel vector w of normal forms
        stands for, as {k: coefficient of the Klein monomial monomials[k]}:
        w_k times the column factor f(a, b, c) = sqrt(root)^b den^(c div 2)
        of monomials[k], times sqrt(root)^t for t the parity of lead's b.

        That is w_k root^((b + t) div 2) den^(c div 2) on the ring symbol
        sqrt(root)^((b + t) mod 2), which is 1 or s5 (root is 1 or 5): one
        integer per coefficient, on 1 at lead.  They are divided by their
        gcd, so the coefficients have content 1, and the one at lead has
        the sign of w there."""
        t = monomials[lead][1] % 2
        scaled = {}
        for k, w in vector.items():
            _, b, c = monomials[k]
            # s5 is symbol 3 of the ring's basis
            scaled[k] = (w * self.root ** ((b + t) // 2) * self.den ** (c // 2),
                         3 if self.root != 1 and (b + t) % 2 else 0)
        g = gcd(*(x for x, _ in scaled.values()))
        return {
            k: ExactScalar._of(tuple(x // g if i == symbol else 0 for i in range(8)), 1)
            for k, (x, symbol) in scaled.items()
        }

    def leading_exponent(self, exponent: Sequence[int]) -> Tuple[int, int]:
        """Graded-lex leading (u, v) exponent of the expansion: leading
        terms multiply, so it is the weighted sum of the triple's."""
        return (
            sum(e * lead[0] for e, lead in zip(exponent, self._leads)),
            sum(e * lead[1] for e, lead in zip(exponent, self._leads)),
        )


_KLEIN_BASES: Dict[object, KleinBasis] = {}


def klein_invariants(tag: GroupFamily, n: int = None) -> KleinBasis:
    """The classical generator triple (x, y, z) for D*_{4n}, T*, O* or I*,
    with Klein's relation z^2 = S(x, y), both from _klein_forms.

    One verified KleinBasis per family per process: the first call for a
    family builds and verifies it, and every later call returns that same
    object, so all maps of the family share its tables of powers.  The key
    is the tag, or (tag, n) for D*; n is ignored for T*, O* and I*.  A
    basis that fails verification is not kept.
    """
    if tag is GroupFamily.BINARY_DIHEDRAL:
        # read before it keys the cache: True or 2.0 is no index of D*
        n = 0 if n is None else _index(n)
        if n < 1:
            raise ValueError("D* needs the index n >= 1 of D*_{4n}")
        key = (tag, n)
    else:
        key = tag
    basis = _KLEIN_BASES.get(key)
    if basis is None:
        basis = _KLEIN_BASES[key] = _verified_klein_basis(tag, n)
    return basis


def _verified_klein_basis(tag: GroupFamily, n: Optional[int]) -> KleinBasis:
    """Build the triple (x, y, c J(x, y)) and the relation S of
    _klein_forms and check them before use.

    Each of x, y, z is verified to be fixed by both group generators, and
    z^2 - S(x, y) to vanish under exact substitution; a failure aborts
    loudly since every downstream relation would be wrong.  For D* with 2n
    outside {2, 4, 8} the diagonal generator is checked through the
    exponent congruence instead of an explicit root of unity.
    """
    x, y, c, (square, den, root) = _klein_forms(tag, n)
    polys = [x, y, _jacobian(x, y).scale(c)]
    plain = InvariantBasis.from_polys(polys)
    basis = KleinBasis(plain.generators, plain.degrees, tuple(square), den, root)
    gens = generator_matrices(binary_group(tag, n))
    if gens is None:
        # D* with an inexact root of unity: u^a v^b is fixed by
        # diag(zeta, zeta^-1), zeta of order 2n, iff a = b mod 2n; the
        # antidiagonal generator by exact substitution
        for poly in polys:
            if any((a - b) % (2 * n) for a, b in poly.terms):
                raise InvariantError(f"{poly} not fixed by the diagonal action")
        gens = (_J,)
    for poly in polys:
        if not check_invariance(poly, gens):
            raise InvariantError(f"invariant {poly} is not fixed by its group generators")
    if not basis.relation().substitute(basis.powers).is_zero():
        raise InvariantError(f"Klein relation {basis.relation()} = 0 does not hold")
    return basis


# -- product group invariants --------------------------------------------------------


def product_invariant_monomials(degrees: Sequence[int], m: int) -> List[Tuple[int, ...]]:
    """Hilbert basis of {a in N^j : sum a_i d_i = 0 mod m}.

    The difference of two solutions a >= b is again a solution, so the
    basis is the set of nonzero solutions with no other nonzero solution
    below them coordinatewise.  Each lies in the box [0..m]^j, since m*e_i
    is a solution.  For a fixed prefix (a_1..a_{j-1}) only the least
    completing a_j can be minimal, as every larger one lies above it.  The
    prefixes are walked in ascending lexicographic order, in which
    everything below a solution comes before it, so a solution is kept
    unless an element already kept lies below it.  That test is one table
    lookup: below[P] is the least last coordinate of a kept element whose
    prefix is at or below P, the minimum of P's own kept value and of
    below[P - e_i] over its immediate predecessors, m + 1 if there is none.
    Output sorted lexicographically descending.
    """
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    *head, last = (int(d) for d in degrees)
    least = [next((v for v in range(m + 1) if (r + v * last) % m == 0), None) for r in range(m)]
    # prefixes are numbered in base m + 1, so P - e_i is P's number minus strides[i]
    strides = [(m + 1) ** k for k in range(len(head) - 1, -1, -1)]
    below: List[int] = []
    basis: List[Tuple[int, ...]] = []
    for index, prefix in enumerate(product(range(m + 1), repeat=len(head))):
        low = min((below[index - s] for s, a in zip(strides, prefix) if a), default=m + 1)
        if any(prefix):
            value = least[sum(a * d for a, d in zip(prefix, head)) % m]
        else:
            value = m // gcd(last, m)  # the least positive completion of zero
        if value is not None and value < low:
            basis.append(prefix + (value,))
            low = value
        below.append(low)
    return sorted(basis, reverse=True)


def expressible_in(
    base: KleinBasis, candidate: Sequence[int], others: Sequence[Sequence[int]]
) -> bool:
    """Whether the Klein monomial candidate is a polynomial in others: by
    homogeneity, whether its normal form lies in the span of those of the
    distinct products of others of its weighted degree, the targets of
    Factorizations.columns, which reaches each.  minimalize_generators does
    not call it; it is the membership predicate the tests check it against.
    """
    factorizations = Factorizations(others, [base.degree(f) for f in others])
    products = sorted({t for _, t in factorizations.columns(base.degree(candidate))}, reverse=True)
    return in_span([base.normal_form(t) for t in products], base.normal_form(candidate))


def certify_rank(monomials, degree: int, rank: int, stage: str) -> None:
    """The Hilbert-count certificate of one scanned degree: RuntimeError
    unless rank, that of the degree's reduced form, is H(degree), the number
    of Klein monomials x^a y^b z^c of the degree with c <= 1, counted among
    monomials, all those of the degree (base.monomials(degree)).  They are a
    basis of the degree's invariants, since the ring is free over C[x, y]
    on 1 and z, so the columns span every invariant of the degree exactly
    when the count holds.  The cyclic factor of Z/m x G needs no test of
    its own: every scanned degree is a sum of generator degrees, so
    invariant."""
    count = sum(1 for *_, c in monomials if c < 2)
    if rank != count:
        raise RuntimeError(f"{stage}: rank {rank} at degree {degree}, Hilbert count {count}")


def minimalize_generators(
    base: KleinBasis,
    candidates: Sequence[Sequence[int]],
    target_count: int = None,
) -> List[Tuple[int, int, int]]:
    """A minimal generating set among the Klein monomials candidates, the
    Hilbert basis of a semigroup of invariant Klein monomials, as
    product_invariant_monomials gives it.

    One ascending pass over the degrees with one degree matrix each
    (base.degree_matrix): its first columns are the Klein monomials t of the
    degree with a candidate c != t below them (c <= t in each exponent),
    which span the decomposables, then come the degree's candidates, and a
    candidate is kept exactly when its column is a pivot, that is, not in
    the span of the columns before it.  Such a t is c times t - c, which is
    again in the semigroup, so t is a product of two invariants; and every
    product of two invariant monomials of positive degree has a candidate
    strictly below it.  So these monomials span the products of invariants
    at the degree.  The generators kept below generate every lower degree,
    so their products span the same: the pivots are those that multiplying
    out the kept generators would give, and no product is listed.  Candidates
    come in the reverse of a greedy deletion's order: descending graded-lex
    order of the leading (u, v) monomial, ties by sorted (u, v) support (so
    only ties are expanded).  Deletion from the top and insertion from the
    bottom keep the same basis of the matroid contracted by the
    decomposables, and a dropped candidate adds nothing to the products of
    the kept ones.  The pass stops before a degree once target_count
    generators, when given, are kept.  The survivors keep their input order.
    Each degree's form must have H(d) rows (certify_rank): the products and
    the candidates together span every invariant of the degree, or a
    candidate is missing and RuntimeError is raised.
    """
    candidates = [tuple(c) for c in candidates]
    leads = [base.leading_exponent(c) for c in candidates]
    shared = Counter(leads)

    def scan_key(k):
        tied = shared[leads[k]] > 1
        support = tuple(sorted(base.powers.monomial(candidates[k]).terms)) if tied else ()
        return grlex_key(leads[k]), support

    degrees = [base.degree(c) for c in candidates]
    kept: List[int] = []
    for degree in sorted(set(degrees)):
        if target_count is not None and len(kept) >= target_count:
            break
        monomials = base.monomials(degree)
        products = [t for t in monomials if any(c != t and all(map(le, c, t)) for c in candidates)]
        tier = sorted((k for k, d in enumerate(degrees) if d == degree),
                      key=scan_key, reverse=True)[::-1]
        form = {}
        for row in base.degree_matrix([*products, *(candidates[k] for k in tier)]):
            insert_row(form, row)
        certify_rank(monomials, degree, len(form), "minimalize_generators")
        kept += [tier[c - len(products)] for c in form if c >= len(products)]
    return [candidates[j] for j in sorted(kept)]
