"""Sparse exact polynomials: bivariate in u, v and weighted multivariate.

Both classes map exponent tuples to nonzero ExactScalar coefficients and are
treated as immutable; every BivariatePoly operation returns a fresh
polynomial, and a MultiPoly has no arithmetic.  Terms are ordered
graded-lexicographically (total degree first, then lexicographic with the
earlier variable larger) wherever a deterministic order is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, index
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .ring import _MUL, ExactScalar, ZERO, _reduced

Exponent2 = Tuple[int, int]


def _coerce_scalar(c) -> ExactScalar:
    """c as an ExactScalar; ExactScalar.rational refuses anything but an
    int or a Fraction with TypeError."""
    if isinstance(c, ExactScalar):
        return c
    return ExactScalar.rational(c)


def grlex_key(exponent: Sequence[int]):
    """Sort key for graded-lex order; larger key means larger monomial."""
    return (sum(exponent), tuple(exponent))


class Factorizations:
    """The exponent vectors that a relation scan keeps at a weighted degree.

    factors are vectors v_1..v_n of one length (Klein triples or (u, v)
    pairs) with positive weights w_1..w_n.  An exponent vector alpha has
    weighted degree sum alpha_j w_j and target sum alpha_j v_j.  At a
    degree, columns lists every alpha of total degree <= 2 and, for each
    target reached at total degree >= 3, only the graded-lex least alpha
    of total degree >= 3 there, each with its target, in ascending
    graded-lex order of alpha.

    The least alpha of total degree k at a target T is beta + e_j, where
    beta is the least of total degree k - 1 at T - v_j, for any j with
    alpha_j > 0: a smaller beta would give the smaller beta + e_j at T.
    So one table holds the least alpha per weighted degree, total degree
    k >= 2 and target: for k = 2 the first pair listed at the target, and
    for each higher k the least beta + e_j over the j.  The table is kept
    for the life of the instance and grown one weighted degree at a time,
    only as far as columns was asked.  Only these least vectors and those of
    total degree <= 2 are built, never the full listing of a degree, and
    nothing recurses.
    """

    def __init__(self, factors: Sequence[Sequence[int]], weights: Sequence[int]):
        f, w, n = [tuple(v) for v in factors], tuple(weights), len(factors)
        units = [(0,) * j + (1,) + (0,) * (n - 1 - j) for j in range(n)]
        # {weighted degree: [(alpha, target)] of total degree <= 2}, each list
        # ascending: 0, e_j for j descending, then e_i + e_j for i, then j descending
        self._low = {0: [((0,) * n, tuple(0 for _ in zip(*f)))]}
        for j in range(n - 1, -1, -1):
            self._low.setdefault(w[j], []).append((units[j], f[j]))
        # _least has {(k, target): least alpha of total degree k there} for
        # k >= 2 at each degree reached: k = 2 is the first pair at its target
        self._least: Dict[int, Dict[tuple, tuple]] = {}
        for i in range(n - 1, -1, -1):
            for j in range(n - 1, i - 1, -1):
                alpha, target = tuple(map(add, units[i], units[j])), tuple(map(add, f[i], f[j]))
                self._low.setdefault(w[i] + w[j], []).append((alpha, target))
                self._least.setdefault(w[i] + w[j], {}).setdefault((2, target), alpha)
        self._moves = list(zip(w, f, units))
        # only multiples of the weights' gcd are reached; _top is the last
        # degree that k >= 3 is tabled for
        self._step, self._top = gcd(*w) or 1, 0

    def columns(self, degree: int) -> List[Tuple[tuple, tuple]]:
        """[(alpha, target)] at the weighted degree, as the class says."""
        least, step = self._least, self._step
        for top in range(self._top + step, degree + 1, step):
            level = least.get(top, {})
            for w, v, unit in self._moves:
                for (k, target), beta in least.get(top - w, {}).items():
                    key, alpha = (k + 1, tuple(map(add, target, v))), tuple(map(add, beta, unit))
                    if alpha < level.setdefault(key, alpha):
                        level[key] = alpha
            if level:
                least[top] = level
        self._top = max(self._top, degree - degree % step)
        # in descending (k, target) order the least k > 2 at a target comes last
        high = {t: alpha for (k, t), alpha in sorted(least.get(degree, {}).items(), reverse=True)
                if k > 2}
        return self._low.get(degree, []) + [
            (alpha, t) for _, alpha, t in sorted((sum(alpha), alpha, t) for t, alpha in high.items())]


def _components(terms: Dict[Exponent2, ExactScalar]):
    """(D, parts): D is the common denominator of the coefficients and
    parts[k] lists (exponent, integer coordinate k times D) for every term
    with a nonzero coordinate on basis symbol k."""
    den = lcm(*(c.den for c in terms.values()))
    parts: Dict[int, List[Tuple[Exponent2, int]]] = {}
    for exp, coeff in terms.items():
        scale = den // coeff.den
        for k, a in enumerate(coeff.num):
            if a:
                parts.setdefault(k, []).append((exp, a * scale))
    return den, parts


def _products(coords) -> tuple:
    """Multiplication by the scalar with nonzero integer coordinates coords
    [(symbol, coordinate)]: entry k1 lists (k, y) such that e_k1 times the
    scalar is the sum of y * e_k over the list."""
    return tuple(
        tuple((_MUL[k1][k2][0], _MUL[k1][k2][1] * x) for k2, x in coords) for k1 in range(8)
    )


def _linear_form(a, b):
    """(D, form) for the linear form a*u + b*v over its common denominator
    D.  form holds (1, _products of D * a) and (0, _products of D * b), each
    with the power of u that its variable adds, for the nonzero ones."""
    a, b = _coerce_scalar(a), _coerce_scalar(b)
    den = lcm(a.den, b.den)
    form = []
    for shift, coeff in ((1, a), (0, b)):
        scale = den // coeff.den
        coords = [(k, x * scale) for k, x in enumerate(coeff.num) if x]
        if coords:
            form.append((shift, _products(coords)))
    return den, form


def _add_parts_product(acc: Dict[Exponent2, List[int]], left, right) -> None:
    """Add the product of two _components parts into acc, which maps each
    exponent to its integer coordinate vector, in place."""
    for k1, terms1 in left.items():
        row = _MUL[k1]
        for k2, terms2 in right.items():
            k, factor = row[k2]
            for (a1, b1), x in terms1:
                x *= factor
                for (a2, b2), y in terms2:
                    exp = (a1 + a2, b1 + b2)
                    vector = acc.get(exp)
                    if vector is None:
                        acc[exp] = vector = [0, 0, 0, 0, 0, 0, 0, 0]
                    vector[k] += x * y


def _from_vectors(acc: Dict[Exponent2, List[int]], den: int) -> "BivariatePoly":
    """The polynomial whose coefficient at each exponent of acc is its
    integer coordinate vector over den, each reduced once."""
    return BivariatePoly(
        {exp: _reduced(tuple(vector), den) for exp, vector in acc.items() if any(vector)}
    )


# A binary form of degree n is held as the n + 1 integer coordinate vectors
# of its coefficients on u^a v^(n - a), a = 0..n.


def _add_product(out: List[List[int]], vectors: List[List[int]], products, shift: int = 0):
    """Add the binary form vectors times the scalar of products (see
    _products) times u^shift into the binary form out, in place."""
    for a, x in enumerate(vectors):
        vector = out[a + shift]
        for k1, xk in enumerate(x):
            if xk:
                for k, y in products[k1]:
                    vector[k] += xk * y


def _times_linear(vectors: List[List[int]], form) -> List[List[int]]:
    """The binary form vectors times a _linear_form."""
    out = [[0, 0, 0, 0, 0, 0, 0, 0] for _ in range(len(vectors) + 1)]
    for shift, products in form:
        _add_product(out, vectors, products, shift)
    return out


class BivariatePoly:
    """Polynomial in u, v over Q[i, sqrt2, sqrt5]."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Exponent2, ExactScalar]):
        clean = {}
        for exp, coeff in terms.items():
            coeff = _coerce_scalar(coeff)
            if not coeff.is_zero():
                a, b = exp
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent {exp}")
                clean[(index(a), index(b))] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c) -> "BivariatePoly":
        return BivariatePoly({(0, 0): _coerce_scalar(c)})

    @staticmethod
    def monomial(coeff, a: int, b: int) -> "BivariatePoly":
        return BivariatePoly({(a, b): _coerce_scalar(coeff)})

    @staticmethod
    def from_terms(terms: Iterable[Tuple[object, int, int]]) -> "BivariatePoly":
        acc: Dict[Exponent2, ExactScalar] = {}
        for coeff, a, b in terms:
            c = _coerce_scalar(coeff)
            acc[(a, b)] = acc.get((a, b), ZERO) + c
        return BivariatePoly(acc)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        acc = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc[exp] = acc.get(exp, ZERO) + coeff
        return BivariatePoly(acc)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + -other

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        d1, left = _components(self.terms)
        d2, right = _components(other.terms)
        acc: Dict[Exponent2, List[int]] = {}
        _add_parts_product(acc, left, right)
        return _from_vectors(acc, d1 * d2)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "BivariatePoly":
        c = _coerce_scalar(c)
        return BivariatePoly({e: coeff * c for e, coeff in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> Optional[int]:
        """Common total degree of all terms, or None if inhomogeneous."""
        degrees = {a + b for a, b in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def leading_exponent(self) -> Exponent2:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grlex_key)

    # -- substitution --------------------------------------------------------

    def substitute_linear(self, matrix) -> "BivariatePoly":
        """Evaluate p(U, V) with U = a*u + b*v, V = c*u + d*v for matrix
        rows ((a, b), (c, d)), by Horner's scheme in U.

        The substitution keeps degrees, so each homogeneous part p_n of p
        is done by itself: with N the largest power of u in p_n,

            p_n(U, V) = (...(q_N(V) U + q_(N-1)(V)) U + ...) U + q_0(V),

        where q_i(V) = c_i V^(n-i) for the coefficient c_i of u^i v^(n-i).
        The powers of V are formed once, one multiplication by V each, and
        every Horner step multiplies by the two-term form U.  The arithmetic
        runs on integer coordinates: with D_U, D_V the common denominators
        of the two rows and D that of the coefficients of p, it expands
        D * D_U^I * D_V^J * p(U, V), I and J the largest powers of u and v
        in p, and reduces each output coefficient once.
        """
        if not self.terms:
            return BivariatePoly({})
        (a, b), (c, d) = matrix
        den_u, form_u = _linear_form(a, b)
        den_v, form_v = _linear_form(c, d)
        top_u = max(i for i, _ in self.terms)
        top_v = max(j for _, j in self.terms)
        den = lcm(*(coeff.den for coeff in self.terms.values()))
        # per degree n: {i: _products of c_i over den * den_u^top_u * den_v^top_v}
        parts: Dict[int, Dict[int, tuple]] = {}
        for (i, j), coeff in self.terms.items():
            scale = den // coeff.den * den_u ** (top_u - i) * den_v ** (top_v - j)
            coords = [(k, x * scale) for k, x in enumerate(coeff.num) if x]
            parts.setdefault(i + j, {})[i] = _products(coords)
        powers_v = [[[1, 0, 0, 0, 0, 0, 0, 0]]]
        for _ in range(top_v):
            powers_v.append(_times_linear(powers_v[-1], form_v))
        common = den * den_u ** top_u * den_v ** top_v
        terms: Dict[Exponent2, ExactScalar] = {}
        for n, rows in parts.items():
            top = max(rows)
            acc = [[0, 0, 0, 0, 0, 0, 0, 0] for _ in range(n - top + 1)]
            for i in range(top, -1, -1):
                # afterwards acc = sum c_i' U^(i' - i) V^(n - i') over i' >= i
                if i < top:
                    acc = _times_linear(acc, form_u)
                if i in rows:
                    _add_product(acc, powers_v[n - i], rows[i])
            for a_exp, vector in enumerate(acc):
                if any(vector):
                    terms[(a_exp, n - a_exp)] = _reduced(tuple(vector), common)
        return BivariatePoly(terms)

    def __str__(self):
        from .textform import format_bivariate

        return format_bivariate(self)

    def __repr__(self):
        return f"BivariatePoly({self})"


class Powers:
    """Monomials prod bases[i]^alpha[i] in fixed bivariate polynomials.

    Three tables, all kept for the life of the instance and grown on
    demand, never rebuilt.  _powers[i] lists bases[i]^0, bases[i]^1, ...,
    each power made by one multiplication from the one below it, up to the
    largest exponent asked for so far.  _monomials maps every exponent
    vector alpha that monomial was asked for to its expansion, so each
    monomial is multiplied out once and a second call returns the same
    BivariatePoly.  _parts maps every alpha that combination met to the
    integer decomposition (_components) of that expansion.  An instance
    may be shared: a KleinBasis holds one over its triple (x, y, z), which
    expands the printed map and verifies every relation found for it, and
    klein_invariants keeps one KleinBasis per family for the process.
    """

    def __init__(self, bases: Sequence[BivariatePoly]):
        self.bases = tuple(bases)
        self._powers = [[BivariatePoly.constant(1), base] for base in self.bases]
        self._monomials: Dict[tuple, BivariatePoly] = {}
        self._parts: Dict[tuple, tuple] = {}

    def power(self, i: int, n: int) -> BivariatePoly:
        powers = self._powers[i]
        while len(powers) <= n:
            powers.append(powers[-1] * self.bases[i])
        return powers[n]

    def monomial(self, alpha: Sequence[int]) -> BivariatePoly:
        alpha = tuple(alpha)
        product = self._monomials.get(alpha)
        if product is None:
            for i, e in enumerate(alpha):
                if e:
                    factor = self.power(i, e)
                    product = factor if product is None else product * factor
            if product is None:
                product = BivariatePoly.constant(1)
            self._monomials[alpha] = product
        return product

    def combination(self, terms: Dict[tuple, ExactScalar]) -> BivariatePoly:
        """The sum of coeff * monomial(alpha) over terms {alpha: coeff}.

        Integer coordinates are added up over one common denominator and
        each output coefficient is reduced once, at the end.
        """
        expanded = []
        for alpha, coeff in terms.items():
            kept = self._parts.get(alpha)
            if kept is None:
                kept = self._parts[alpha] = _components(self.monomial(alpha).terms)
            den, parts = kept
            expanded.append((coeff, den * coeff.den, parts))
        common = lcm(*(den for _, den, _ in expanded))
        acc: Dict[Exponent2, List[int]] = {}
        for coeff, den, parts in expanded:
            scale = common // den
            # the coefficient as a one-term polynomial at exponent (0, 0)
            constant = {k: [((0, 0), a * scale)] for k, a in enumerate(coeff.num) if a}
            _add_parts_product(acc, constant, parts)
        return _from_vectors(acc, common)


class MultiPoly:
    """Polynomial in x1..xk with per-variable positive integer weights.

    The weights record the degrees of the bivariate generators that the
    variables stand for, so weighted-homogeneous relation candidates can be
    enumerated degree by degree.  A MultiPoly is a relation record: it is
    built once, compared, substituted and printed, and has no arithmetic.
    """

    __slots__ = ("nvars", "weights", "terms")

    def __init__(self, nvars: int, weights: Sequence[int], terms: Dict[tuple, ExactScalar]):
        weights = tuple(index(w) for w in weights)
        if len(weights) != nvars or any(w <= 0 for w in weights):
            raise ValueError("need one positive weight per variable")
        clean = {}
        for exp, coeff in terms.items():
            coeff = _coerce_scalar(coeff)
            exp = tuple(index(e) for e in exp)
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp}")
            if not coeff.is_zero():
                clean[exp] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _of(nvars: int, weights: tuple, terms: Dict[tuple, ExactScalar]) -> "MultiPoly":
        """Wrap terms the library built itself, without re-validating them.

        Internal and trusted: weights is a tuple of nvars positive ints and
        every exponent a tuple of nvars nonnegative ints, with ExactScalar
        coefficients.  Zero coefficients are still dropped, since merged
        terms can cancel.
        """
        poly = object.__new__(MultiPoly)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "weights", weights)
        object.__setattr__(poly, "terms", {e: c for e, c in terms.items() if not c.is_zero()})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def weighted_degree(self) -> Optional[int]:
        """Common weighted degree of all terms, or None if mixed."""
        degrees = {sum(e * w for e, w in zip(exp, self.weights)) for exp in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def leading_exponent(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grlex_key)

    def substitute(self, generators) -> BivariatePoly:
        """Evaluate at x_i = generators[i]; exact.  generators is a sequence
        of BivariatePoly or a Powers over them, whose powers are reused."""
        powers = generators if isinstance(generators, Powers) else Powers(generators)
        if len(powers.bases) != self.nvars:
            raise ValueError("generator count must match variable count")
        return powers.combination(self.terms)

    def __str__(self):
        from .textform import format_multi

        return format_multi(self)

    def __repr__(self):
        return f"MultiPoly({self})"
