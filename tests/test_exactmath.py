"""Tests for the exact arithmetic layer: ring, polynomials, linear algebra,
and the text format."""

import random
from fractions import Fraction
from math import gcd

import pytest

from singmap.exactmath import (
    BivariatePoly,
    ExactScalar,
    Factorizations,
    HALF,
    I,
    MultiPoly,
    ONE,
    Powers,
    SQRT2,
    SQRT5,
    SQRT10,
    ZERO,
    format_bivariate,
    format_multi,
    format_terms,
    grlex_key,
    in_span,
    kernel_vector,
    nullspace_basis,
    parse_bivariate,
    parse_multi,
    rref,
)
from singmap.exactmath.linalg import insert_row, reduce_row
from singmap.exactmath.ring import BASIS_SYMBOLS


def weighted_exponents(weights, degree):
    """Exponent vectors alpha with sum alpha_i * weights_i = degree, in
    ascending graded-lex order, by listing every one: the brute-force
    reference for Factorizations.  With no weights only degree 0 has one,
    the empty vector."""
    if not weights:
        return [()] if degree == 0 else []
    out = []
    last = len(weights) - 1

    def scan(position, prefix, remaining):
        w = weights[position]
        if position == last:
            if remaining % w == 0:
                out.append(tuple(prefix + [remaining // w]))
            return
        for count in range(remaining // w + 1):
            scan(position + 1, prefix + [count], remaining - count * w)

    if degree >= 0:
        scan(0, [], degree)
    return sorted(out, key=grlex_key)


def kept_columns(factors, weights, degree):
    """The columns Factorizations keeps, read off the full listing: every
    vector of total degree <= 2, and each later vector whose target no
    earlier vector of total degree >= 3 reached."""
    columns, high = [], set()
    for alpha in weighted_exponents(weights, degree):
        target = tuple(sum(a * v[i] for a, v in zip(alpha, factors))
                       for i in range(len(factors[0]))) if factors else ()
        if sum(alpha) <= 2 or target not in high:
            columns.append((alpha, target))
        if sum(alpha) > 2:
            high.add(target)
    return columns


def is_rational(scalar):
    """Whether every irrational coordinate of scalar is zero."""
    return not any(scalar.num[1:])


def as_fraction(scalar):
    """The value of a rational scalar as a Fraction."""
    assert is_rational(scalar)
    return Fraction(scalar.num[0], scalar.den)


def random_scalar(rng, spread=6):
    return ExactScalar(
        [Fraction(rng.randint(-spread, spread), rng.randint(1, 4)) for _ in range(8)]
    )


class TestExactScalar:
    def test_defining_relations(self):
        assert I * I == -ONE
        assert SQRT2 * SQRT2 == ExactScalar.rational(2)
        assert SQRT5 * SQRT5 == ExactScalar.rational(5)
        assert SQRT2 * SQRT5 == SQRT10

    def test_half_product(self):
        # (1+i)/2 * (1-i)/2 = (1 - i^2)/4 = 1/2
        assert (ONE + I) * HALF * ((ONE - I) * HALF) == HALF

    def test_ring_laws_random(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            a, b, c = (random_scalar(rng, 3) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_rational_coercion(self):
        assert ExactScalar.rational(Fraction(3, 2)) == Fraction(3, 2)
        assert 2 * SQRT2 == SQRT2 + SQRT2
        assert (SQRT2 / 2) * SQRT2 == ONE

    def test_results_hold_eight_fractions(self):
        # scalars store integer numerators over one denominator; coords is
        # the public view of them and must read as eight Fractions after
        # every operation
        rng = random.Random(20260418)
        for _ in range(200):
            a, b = random_scalar(rng), random_scalar(rng)
            n = rng.randint(-5, 5) or 1
            f = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            results = [
                a + b, a - b, -a, a * b,
                a + n, n + a, a - n, n - a, a * n, n * a, a / n,
                a + f, f + a, a - f, f - a, a * f, f * a, a / f,
                a.conjugate(),
            ]
            for result in results:
                assert len(result.coords) == 8
                assert all(type(c) is Fraction for c in result.coords)

    def test_public_constructor_coerces_and_checks_length(self):
        assert all(type(c) is Fraction for c in ExactScalar([1, 0, 2, 0, 0, 0, 0, 3]).coords)
        with pytest.raises(ValueError):
            ExactScalar([1, 2, 3])

    def test_conjugation(self):
        z = HALF * (ONE + I) * SQRT5
        assert z.conjugate() == HALF * (ONE - I) * SQRT5
        assert is_rational(z * z.conjugate())


# -- reference arithmetic: eight Fraction coordinates, products worked out
# from i^2 = -1, s2^2 = 2, s5^2 = 5 independently of the package's table

REF_BASIS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1))
REF_ONE = (Fraction(1),) + (Fraction(0),) * 7


def ref_mul(x, y):
    out = [Fraction(0)] * 8
    for b1, a in zip(REF_BASIS, x):
        for b2, c in zip(REF_BASIS, y):
            factor = 1
            for e1, e2, square in zip(b1, b2, (-1, 2, 5)):
                if e1 and e2:
                    factor *= square
            out[REF_BASIS.index(tuple((e1 + e2) % 2 for e1, e2 in zip(b1, b2)))] += a * c * factor
    return tuple(out)


def ref_add(x, y):
    return tuple(a + c for a, c in zip(x, y))


def ref_conjugate(x):
    return tuple(-c if b[0] else c for b, c in zip(REF_BASIS, x))


def sparse_scalar(rng):
    """Random scalar, about half its coordinates zero, denominators 1..12."""
    return ExactScalar(
        [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.5 else 0
         for _ in range(8)]
    )


def assert_lowest_terms(scalar):
    assert len(scalar.num) == 8 and all(type(n) is int for n in scalar.num)
    assert type(scalar.den) is int and scalar.den > 0
    assert gcd(scalar.den, *scalar.num) == 1
    assert scalar.coords == tuple(Fraction(n, scalar.den) for n in scalar.num)


class TestScalarAgainstReference:
    def test_ring_operations(self):
        rng = random.Random(20261018)
        for _ in range(300):
            a, b, c = sparse_scalar(rng), sparse_scalar(rng), sparse_scalar(rng)
            assert (a + b).coords == ref_add(a.coords, b.coords)
            assert (a - b).coords == ref_add(a.coords, tuple(-x for x in b.coords))
            assert (-a).coords == tuple(-x for x in a.coords)
            assert (a * b).coords == ref_mul(a.coords, b.coords)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO

    def test_division_by_rationals_only(self):
        rng = random.Random(12)
        for _ in range(150):
            a = sparse_scalar(rng)
            q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
            assert (a / q).coords == tuple(x / q for x in a.coords)
            assert (a / q.numerator).coords == tuple(x / q.numerator for x in a.coords)
            assert ref_mul((a / q).coords, (q,) + REF_ONE[1:]) == a.coords
        with pytest.raises(ZeroDivisionError):
            ONE / 0
        # no caller divides by an irrational, so the ring has no inverse
        with pytest.raises(TypeError):
            ONE / SQRT5

    def test_conjugate(self):
        rng = random.Random(5)
        for _ in range(50):
            a, b = sparse_scalar(rng), sparse_scalar(rng)
            image = a.conjugate()
            assert image.coords == ref_conjugate(a.coords)
            assert_lowest_terms(image)
            assert image.conjugate() == a
            assert (a * b).conjugate() == image * b.conjugate()

    def test_lowest_terms_after_every_operation(self):
        rng = random.Random(77)
        for _ in range(200):
            a, b = sparse_scalar(rng), sparse_scalar(rng)
            q = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            results = [a, a + b, a - b, a - a, -a, a * b, a * ZERO, a / q, a / 6,
                       a + q, q - a, a * q, ExactScalar.rational(q), a.conjugate()]
            for result in results:
                assert_lowest_terms(result)
        assert (ZERO.num, ZERO.den) == ((0,) * 8, 1)
        assert ((HALF + HALF) - ONE).den == 1

    def test_equal_values_compare_and_hash_equal(self):
        rng = random.Random(31)
        for _ in range(200):
            a, b = sparse_scalar(rng), sparse_scalar(rng)
            n = rng.randint(1, 12)
            same = [(a / n) * n, a + b - b, a * n / n, ExactScalar(a.coords),
                    ExactScalar([Fraction(2 * x.numerator, 2 * x.denominator) for x in a.coords])]
            for value in same:
                assert value == a
                assert hash(value) == hash(a)
        assert ExactScalar.rational(Fraction(6, 4)) == Fraction(3, 2)
        assert hash(ExactScalar.rational(Fraction(6, 4))) == hash(ExactScalar.rational(Fraction(3, 2)))


def rational_or_not(rng):
    """A rational (zero, negative, whole or not) or a scalar with irrational
    coordinates, about equally often."""
    kind = rng.choice(["zero", "whole", "fraction", "irrational"])
    if kind == "zero":
        return ZERO
    if kind == "whole":
        return ExactScalar.rational(rng.choice([-1, 1]) * rng.randint(1, 40))
    if kind == "fraction":
        return ExactScalar.rational(Fraction(rng.randint(-40, 40), rng.randint(1, 36)))
    scalar = sparse_scalar(rng)
    return scalar if not is_rational(scalar) else scalar + SQRT5


class TestRationalOperands:
    """Products and differences with rational operands, zero and negative
    ones among them, must agree with the 8-coordinate arithmetic, held here
    as ref_mul and ref_add, in value and in representation."""

    def test_products_and_differences_against_the_general_path(self):
        rng = random.Random(20261019)
        seen = set()
        for _ in range(1000):
            a, b = rational_or_not(rng), rational_or_not(rng)
            product, difference = a * b, a - b
            assert product.coords == ref_mul(a.coords, b.coords)
            assert difference.coords == ref_add(a.coords, tuple(-x for x in b.coords))
            for result in (product, difference):
                assert_lowest_terms(result)
            if is_rational(a) and is_rational(b):
                assert is_rational(product) and is_rational(difference)
                assert as_fraction(product) == as_fraction(a) * as_fraction(b)
                assert as_fraction(difference) == as_fraction(a) - as_fraction(b)
            seen.add((is_rational(a), is_rational(b), a.is_zero() or b.is_zero(),
                      is_rational(a) and as_fraction(a) < 0))
        # rational x rational, rational x irrational both ways, zeros and negatives
        assert {(True, True, False, True), (True, False, False, False),
                (False, True, False, False), (True, True, True, False)} <= seen

    def test_zero_and_equal_denominators(self):
        third = ExactScalar.rational(Fraction(1, 3))
        assert (third - third).num == (0,) * 8 and (third - third).den == 1
        assert ((third * 3) - ONE) == ZERO and (ZERO * third).den == 1
        # equal denominators: (5 - 2) / 6 reduces to 1/2
        assert ExactScalar.rational(Fraction(5, 6)) - ExactScalar.rational(Fraction(1, 3)) == HALF
        assert (ExactScalar.rational(-4) * ExactScalar.rational(Fraction(-3, 8))) == Fraction(3, 2)


class TestOnlyExactValues:
    # a float or a string would enter as whatever Fraction() reads it as
    @pytest.mark.parametrize("value", [0.1, 1.0, "1/3", "2", None, complex(1, 0)])
    def test_rational_and_coordinates_refuse_other_types(self, value):
        with pytest.raises(TypeError):
            ExactScalar.rational(value)
        with pytest.raises(TypeError):
            ExactScalar([value] + [0] * 7)
        with pytest.raises(TypeError):
            BivariatePoly.constant(value)
        with pytest.raises(TypeError):
            BivariatePoly({(0, 0): value})
        with pytest.raises(TypeError):
            BivariatePoly.monomial(value, 1, 2)
        with pytest.raises(TypeError):
            MultiPoly(1, [2], {(1,): value})

    # an exponent or a weight that int() would truncate: 1.5 would read as 1
    @pytest.mark.parametrize("value", [1.5, 2.0, "2"])
    def test_bivariate_exponents_refuse_other_types(self, value):
        with pytest.raises(TypeError):
            BivariatePoly({(value, 2): ONE})
        with pytest.raises(TypeError):
            BivariatePoly({(2, value): ONE})

    @pytest.mark.parametrize("value", [1.9, 2.0, "2"])
    def test_multi_weights_and_exponents_refuse_other_types(self, value):
        with pytest.raises(TypeError):
            MultiPoly(2, [value, 2], {(1, 0): ONE})
        with pytest.raises(TypeError):
            MultiPoly(2, [2, 2], {(value, 0): ONE})

    def test_exact_values_still_enter(self):
        third = ExactScalar.rational(Fraction(1, 3))
        assert BivariatePoly.constant(Fraction(1, 3)).terms == {(0, 0): third}
        assert BivariatePoly({(0, 0): SQRT5, (1, 0): 2}).terms == {(0, 0): SQRT5, (1, 0): ONE * 2}
        assert ExactScalar([Fraction(1, 2), 3, 0, 0, 0, 0, 0, 0]) == HALF + I * 3


def random_poly(rng, terms):
    return BivariatePoly({(rng.randint(0, 6), rng.randint(0, 6)): sparse_scalar(rng)
                          for _ in range(terms)})


class TestPolyProductAgainstReference:
    def test_random_products_term_by_term(self):
        rng = random.Random(404)
        for _ in range(60):
            p, q = random_poly(rng, rng.randint(0, 6)), random_poly(rng, rng.randint(0, 6))
            expected = {}
            for (a1, b1), c1 in p.terms.items():
                for (a2, b2), c2 in q.terms.items():
                    exp = (a1 + a2, b1 + b2)
                    expected[exp] = ref_add(expected.get(exp, (Fraction(0),) * 8),
                                            ref_mul(c1.coords, c2.coords))
            expected = {exp: c for exp, c in expected.items() if any(c)}
            product = p * q
            assert {exp: c.coords for exp, c in product.terms.items()} == expected
            for coeff in product.terms.values():
                assert_lowest_terms(coeff)
            assert product == q * p


def reference_combination(powers, terms):
    """sum coeff * monomial(alpha), added up with one ExactScalar product
    and one sum per term."""
    acc = {}
    for alpha, coeff in terms.items():
        for exp, c in powers.monomial(alpha).terms.items():
            acc[exp] = acc.get(exp, ZERO) + c * coeff
    return BivariatePoly(acc)


class TestPowersCombination:
    def test_random_combinations_match_scalar_reference(self):
        rng = random.Random(1018)
        symbols = set()
        for _ in range(60):
            bases = [random_poly(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
            powers = Powers(bases)
            terms = {tuple(rng.randint(0, 3) for _ in bases): sparse_scalar(rng)
                     for _ in range(rng.randint(0, 5))}
            result = powers.combination(terms)
            assert result == reference_combination(powers, terms)
            for coeff in result.terms.values():
                assert_lowest_terms(coeff)
            symbols.update(k for coeff in terms.values() for k, n in enumerate(coeff.num) if n)
        assert symbols == set(range(8))

    def test_cancelling_sums_are_zero(self):
        # with bases (p, q, p*q), x1*x2*x3^(c-1) and x3^c are the same product
        rng = random.Random(59)
        for _ in range(30):
            p, q = random_poly(rng, rng.randint(1, 3)), random_poly(rng, rng.randint(1, 3))
            powers = Powers([p, q, p * q])
            terms = {}
            for _ in range(rng.randint(1, 4)):
                a, b, c = rng.randint(0, 2), rng.randint(0, 2), rng.randint(1, 3)
                s = sparse_scalar(rng)
                terms[(a, b, c)] = terms.get((a, b, c), ZERO) + s
                terms[(a + 1, b + 1, c - 1)] = terms.get((a + 1, b + 1, c - 1), ZERO) - s
            assert powers.combination(terms).is_zero()
            assert reference_combination(powers, terms).is_zero()

    @staticmethod
    def random_matrix(rng, shape, entry):
        a, b, c, d = (entry(rng) for _ in range(4))
        if shape == "diagonal":
            b = c = 0
        elif shape == "antidiagonal":
            a = d = 0
        elif shape == "singular":
            # second row a multiple of the first, or a zero row
            t = entry(rng)
            c, d = (a * t, b * t) if rng.random() < 0.7 else (0, 0)
        return ((a, b), (c, d))

    @pytest.mark.parametrize("shape", ["diagonal", "antidiagonal", "singular", "dense"])
    @pytest.mark.parametrize("entry", [
        lambda rng: rng.randint(-4, 4),
        lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        sparse_scalar,
    ], ids=["int", "Fraction", "ExactScalar"])
    def test_substitute_linear_matches_expanded_powers(self, shape, entry):
        rng = random.Random(shape)
        for trial in range(40):
            # the zero polynomial, constants, then non-homogeneous polynomials
            p = random_poly(rng, 0 if trial == 0 else 1 if trial < 4 else rng.randint(1, 7))
            if 0 < trial < 4:
                p = BivariatePoly.constant(sparse_scalar(rng))
            rows = self.random_matrix(rng, shape, entry)
            images = [BivariatePoly({(1, 0): a, (0, 1): b}) for a, b in rows]
            expected = reference_combination(Powers(images), p.terms)
            for matrix in (rows, [list(row) for row in rows],
                           tuple(tuple(ExactScalar._coerce(x) for x in row) for row in rows)):
                result = p.substitute_linear(matrix)
                assert result == expected
                for coeff in result.terms.values():
                    assert_lowest_terms(coeff)
            if p.is_zero():
                assert result.terms == {} and result is not p

    def test_substitute_linear_on_klein_triples(self):
        from singmap.groups import GroupDescriptor, GroupFamily, generator_matrices
        from singmap.invariants import klein_invariants

        rng = random.Random(7)
        cases = [(GroupFamily.BINARY_DIHEDRAL, 2, 8), (GroupFamily.BINARY_TETRAHEDRAL, None, 24),
                 (GroupFamily.BINARY_OCTAHEDRAL, None, 48),
                 (GroupFamily.BINARY_ICOSAHEDRAL, None, 120)]
        for family, n, order in cases:
            descriptor = GroupDescriptor(family, (n,) if n else (), 1, order)
            matrices = list(generator_matrices(descriptor))
            matrices.append([[sparse_scalar(rng) for _ in range(2)] for _ in range(2)])
            for poly in klein_invariants(family, n).generators:
                for matrix in matrices:
                    images = [BivariatePoly({(1, 0): a, (0, 1): b}) for a, b in matrix]
                    assert poly.substitute_linear(matrix) == reference_combination(
                        Powers(images), poly.terms)


class TestBivariatePoly:
    def test_product_difference_of_squares(self):
        u, v = BivariatePoly.monomial(1, 1, 0), BivariatePoly.monomial(1, 0, 1)
        assert (u + v) * (u - v) == u * u - v * v

    def test_monomial_powers(self):
        uv = BivariatePoly.monomial(1, 1, 1)
        powers = Powers([uv])
        assert powers.power(0, 2) * powers.power(0, 2) == BivariatePoly.monomial(1, 4, 4)
        assert powers.power(0, 4) == BivariatePoly.monomial(1, 4, 4)

    def test_pt1_square(self):
        # (u v^5 - u^5 v)^2 = u^2 v^10 - 2 u^6 v^6 + u^10 v^2
        p = BivariatePoly.from_terms([(1, 1, 5), (-1, 5, 1)])
        expected = BivariatePoly.from_terms([(1, 2, 10), (-2, 6, 6), (1, 10, 2)])
        assert Powers([p]).power(0, 2) == expected

    def test_degree_additivity(self):
        rng = random.Random(3)
        for _ in range(20):
            d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
            p = BivariatePoly.from_terms(
                [(rng.randint(1, 5), k, d1 - k) for k in range(d1 + 1)]
            )
            q = BivariatePoly.from_terms(
                [(rng.randint(1, 5), k, d2 - k) for k in range(d2 + 1)]
            )
            assert (p * q).homogeneous_degree() == d1 + d2

    def test_substitute_identity(self):
        p = parse_bivariate("u^3*v - 2*u*v + 7")
        identity = ((1, 0), (0, 1))
        assert p.substitute_linear(identity) == p

    def test_substitute_antidiagonal_on_uv(self):
        # u -> v, v -> -u sends uv to -uv
        p = BivariatePoly.monomial(1, 1, 1)
        m = ((0, 1), (-1, 0))
        assert p.substitute_linear(m) == -p

    def test_substitution_multiplicative(self):
        rng = random.Random(11)
        matrix = ((ONE + I, HALF), (SQRT2, -ONE))
        for _ in range(10):
            d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
            p = BivariatePoly.from_terms(
                [(rng.randint(-3, 3), k, d1 - k) for k in range(d1 + 1)]
            )
            q = BivariatePoly.from_terms(
                [(rng.randint(-3, 3), k, d2 - k) for k in range(d2 + 1)]
            )
            left = (p * q).substitute_linear(matrix)
            right = p.substitute_linear(matrix) * q.substitute_linear(matrix)
            assert left == right

    def test_homogeneity_detection(self):
        assert parse_bivariate("u^2 + u*v").homogeneous_degree() == 2
        assert parse_bivariate("u^2 + u").homogeneous_degree() is None

    @pytest.mark.parametrize("exponent", [(-1, 0), (0, -1), (-2, -3)])
    def test_negative_exponent_rejected(self, exponent):
        with pytest.raises(ValueError, match="negative exponent"):
            BivariatePoly({(1, 1): ONE, exponent: ONE})


class TestMultiPoly:
    def test_weighted_degree(self):
        r = parse_multi("x1*x2^2 - x3^2", [4, 4, 6])
        assert r.weighted_degree() == 12

    def test_substitute(self):
        u, v = BivariatePoly.monomial(1, 1, 0), BivariatePoly.monomial(1, 0, 1)
        r = parse_multi("x2^2 - x1*x3", [2, 2, 2])
        gens = [u * u, u * v, v * v]
        assert r.substitute(gens).is_zero()

    def test_mixed_degrees_not_homogeneous(self):
        r = parse_multi("x1 + x2", [2, 3])
        assert r.weighted_degree() is None

    @pytest.mark.parametrize("weights", [[2], [2, 3, 4], [2, 0], [-1, 3]],
                             ids=["too few", "too many", "zero", "negative"])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="one positive weight per variable"):
            MultiPoly(2, weights, {(1, 0): ONE})

    @pytest.mark.parametrize("weights", [[2, 0], [-1, 3]])
    def test_parse_multi_rejects_nonpositive_weight(self, weights):
        with pytest.raises(ValueError, match="one positive weight per variable"):
            parse_multi("x1", weights)

    @pytest.mark.parametrize("exponent", [(1,), (1, 0, 0), (1, -1), (-2, 0)],
                             ids=["short", "long", "negative second", "negative first"])
    def test_bad_exponent_rejected(self, exponent):
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly(2, [2, 3], {(1, 0): ONE, exponent: ONE})

    def test_trusted_constructor_drops_zeros(self):
        terms = {(1, 0): ONE, (0, 1): ZERO, (2, 0): HALF - HALF}
        trusted = MultiPoly._of(2, (2, 3), terms)
        assert trusted == MultiPoly(2, [2, 3], terms)
        assert trusted.terms == {(1, 0): ONE} and trusted.weights == (2, 3)


class TestHelpers:
    def test_weighted_exponents_in_ascending_grlex_order(self):
        assert weighted_exponents((2, 3), 6) == [(0, 2), (3, 0)]
        assert weighted_exponents((1, 1, 2), 2) == [(0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]
        assert weighted_exponents((4, 6), 5) == []
        assert weighted_exponents((4, 6), 0) == [(0, 0)]

    def test_weighted_exponents_of_no_weights(self):
        assert weighted_exponents((), 0) == [()]
        assert weighted_exponents((), 3) == []

    def test_factorizations_keep_the_least_high_vector_per_target(self):
        # weights 1, 1, 2 on the pairs (1, 0), (0, 1), (1, 1): at degree 4,
        # the one vector of total degree <= 2, then the least vector of total
        # degree >= 3 at each target; (1, 3, 0), (2, 2, 0) and (3, 1, 0) repeat
        # the targets of (0, 2, 1), (1, 1, 1) and (2, 0, 1) at total degree 4
        columns = Factorizations([(1, 0), (0, 1), (1, 1)], (1, 1, 2)).columns(4)
        assert columns == [
            ((0, 0, 2), (2, 2)), ((0, 2, 1), (1, 3)), ((1, 1, 1), (2, 2)),
            ((2, 0, 1), (3, 1)), ((0, 4, 0), (0, 4)), ((4, 0, 0), (4, 0)),
        ]
        assert columns == kept_columns([(1, 0), (0, 1), (1, 1)], (1, 1, 2), 4)

    def test_factorizations_of_no_factors(self):
        assert Factorizations([], ()).columns(0) == [((), ())]
        assert Factorizations([], ()).columns(3) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_factorizations_match_the_full_listing(self, seed):
        # random factors (repeats allowed) and weights; each instance is asked
        # for its degrees in random order, so its table grows and is read again
        rng = random.Random(seed)
        for _ in range(12):
            n, length = rng.randint(0, 5), rng.randint(1, 3)
            factors = [tuple(rng.randint(0, 3) for _ in range(length)) for _ in range(n)]
            weights = [rng.choice((1, 2, 3, 4, 6)) * rng.choice((1, 2)) for _ in range(n)]
            factorizations = Factorizations(factors, weights)
            for degree in rng.sample(range(-1, 30), 12) + [0]:
                assert factorizations.columns(degree) == kept_columns(factors, weights, degree), (
                    factors, weights, degree)

    def test_powers_match_repeated_products(self):
        p = parse_bivariate("u*v^5 - u^5*v")
        q = parse_bivariate("1/2*u^2 + s5*v^2")
        powers = Powers([p, q])
        assert powers.monomial((0, 0)) == BivariatePoly.constant(1)
        assert powers.monomial((3, 0)) == p * p * p
        assert powers.monomial((2, 3)) == p * p * q * q * q
        assert powers.power(1, 4) == q * q * q * q


def sparse(row):
    """A dense row as the sparse {column: entry} rows of exactmath.linalg."""
    return {j: x for j, x in enumerate(row) if x}


def assert_primitive(row):
    """Nonzero int entries with content 1 and a positive entry at the pivot,
    the least column."""
    assert all(type(x) is int and x for x in row.values())
    assert gcd(*row.values()) == 1 and row[min(row)] > 0


def monic(row, col):
    """row divided by its entry at col, in Fractions."""
    return {j: Fraction(x, row[col]) for j, x in row.items()}


class TestNullspace:
    def test_single_row(self):
        assert nullspace_basis([{0: 1, 1: -1}], 2) == [{0: 1, 1: 1}]

    def test_identity_has_trivial_kernel(self):
        identity = [{i: 1} for i in range(3)]
        assert nullspace_basis(identity, 3) == []

    def test_zero_rows_give_the_standard_basis(self):
        assert nullspace_basis([], 2) == [{0: 1}, {1: 1}]

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = rng.randint(2, 5)
            cols = rng.randint(2, 5)
            matrix = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            basis = nullspace_basis([sparse(row) for row in matrix], cols)
            pivots = list(rref([sparse(row) for row in matrix]))
            assert len(basis) == cols - len(pivots)
            for vec in basis:
                assert all(sum(row[k] * x for k, x in vec.items()) == 0 for row in matrix)

    def test_monomial_expansion_system_contains_binomial(self):
        # columns: x-monomials of weighted degree 10 for the (5, 2) map
        # (u^5, u^3 v, u v^2, v^5); brute-force expansion oracle
        gens = [(5, 0), (3, 1), (1, 2), (0, 5)]
        weights = [5, 4, 3, 5]
        monomials = []

        def scan(prefix, remaining):
            position = len(prefix)
            if position == 4:
                if remaining == 0:
                    monomials.append(tuple(prefix))
                return
            for count in range(remaining // weights[position] + 1):
                scan(prefix + [count], remaining - count * weights[position])

        scan([], 10)
        monomials.sort(reverse=True)
        images = []
        for alpha in monomials:
            a = sum(e * g[0] for e, g in zip(alpha, gens))
            b = sum(e * g[1] for e, g in zip(alpha, gens))
            images.append((a, b))
        matrix = {}
        for col, image in enumerate(images):
            matrix.setdefault(image, {})[col] = 1
        basis = nullspace_basis(list(matrix.values()), len(monomials))
        assert basis
        # the vector encoding z w^2 - x y
        target = {monomials.index((0, 1, 2, 0)): 1, monomials.index((1, 0, 0, 1)): -1}
        assert all(
            sum(row.get(k, 0) * x for k, x in target.items()) == 0 for row in matrix.values()
        )
        assert in_span(basis, target)

    def test_kernel_vector_matches_gauss_jordan(self):
        # at every free column of the reduced form: the reference's vector
        # for that column, as ints with content 1, positive at the free
        # column, which comes last, after the pivots in ascending order
        rng = random.Random(25)
        for entry in (small_entry, wide_entry):
            for _ in range(30):
                matrix = rank_deficient(rng, entry)
                form = rref([sparse(row) for row in matrix])
                _, pivots = reference_rref(matrix)
                frees = [c for c in range(len(matrix[0])) if c not in pivots]
                expected = reference_nullspace(matrix)
                assert len(frees) == len(expected)
                for free, reference in zip(frees, expected):
                    vec = kernel_vector(form, free)
                    assert monic(vec, free) == sparse(reference)
                    assert list(vec) == sorted(vec) and max(vec) == free and vec[free] > 0
                    assert all(type(x) is int and x for x in vec.values())
                    assert gcd(*vec.values()) == 1

    def test_basis_vectors_have_content_one(self):
        # free column 1 solves to (-2, 2) and free column 2 to (-1, 2)
        assert nullspace_basis([{0: 2, 1: 2, 2: 1}], 3) == [{0: -1, 1: 1}, {0: -1, 2: 2}]
        # the pivots 2 and 3 share free column 2: their lcm 6 clears both
        assert nullspace_basis([{0: 2, 2: 1}, {1: 3, 2: 1}], 3) == [{0: -3, 1: -2, 2: 6}]


def reference_rref(rows):
    """Textbook dense Gauss-Jordan over the rationals: (nonzero monic rows,
    pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def reference_nullspace(rows):
    reduced, pivots = reference_rref(rows)
    ncols = len(rows[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(reduced, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def reference_in_span(rows, vector):
    return len(reference_rref(rows + [vector])[1]) == len(reference_rref(rows)[1])


def small_entry(rng):
    return rng.randint(-5, 5) if rng.random() < 0.6 else 0


def wide_entry(rng):
    """Up to about 2^46, with common factors more often than chance."""
    if rng.random() < 0.4:
        return 0
    return rng.choice([-1, 1]) * rng.randint(1, 10 ** 12) * rng.choice([1, 4, 6, 35])


def combine(rng, rows, entry):
    """A random combination of rows with coefficients drawn by entry."""
    out = [0 for _ in rows[0]]
    for row in rows:
        c = entry(rng)
        out = [x + c * y for x, y in zip(out, row)]
    return out


def rank_deficient(rng, entry):
    """More rows than rank: random combinations of a few random rows (dense)."""
    ncols = rng.randint(2, 9)
    rank = rng.randint(1, ncols - 1)
    base = [[entry(rng) for _ in range(ncols)] for _ in range(rank)]
    return [combine(rng, base, entry) for _ in range(rng.randint(rank + 1, rank + 3))]


ENTRIES = [pytest.param(small_entry, id="small"), pytest.param(wide_entry, id="wide")]


class TestSparseElimination:
    """The fraction-free sparse elimination against the dense rational
    reference above; matrices are drawn dense and converted to sparse rows
    only when they are passed in.  Each row the elimination returns is the
    reference's row scaled to be primitive."""

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_rref_matches_gauss_jordan(self, entry):
        rng = random.Random(20)
        for _ in range(30):
            matrix = rank_deficient(rng, entry)
            rows = [sparse(row) for row in matrix]
            snapshot = [dict(row) for row in rows]
            reduced, pivots = reference_rref(matrix)
            result = rref(rows)
            assert [monic(row, col) for col, row in result.items()] == [
                sparse(row) for row in reduced]
            assert list(result) == pivots
            for row in result.values():
                assert_primitive(row)
            assert rows == snapshot

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_nullspace_matches_gauss_jordan(self, entry):
        rng = random.Random(21)
        for _ in range(30):
            matrix = rank_deficient(rng, entry)
            basis = nullspace_basis([sparse(row) for row in matrix], len(matrix[0]))
            expected = [sparse(vec) for vec in reference_nullspace(matrix)]
            # each vector is positive at its free column, its last one
            assert [monic(vec, max(vec)) for vec in basis] == expected
            # ints with content 1, and no stored zeros
            for vec in basis:
                assert all(type(x) is int and x for x in vec.values())
                assert gcd(*vec.values()) == 1 and vec[max(vec)] > 0

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_in_span_matches_gauss_jordan(self, entry):
        rng = random.Random(22)
        for _ in range(30):
            matrix = rank_deficient(rng, entry)
            inside = combine(rng, matrix, entry)
            outside = [entry(rng) for _ in matrix[0]]
            rows = [sparse(row) for row in matrix]
            for vector in (inside, outside):
                assert in_span(rows, sparse(vector)) == reference_in_span(matrix, vector)
            assert in_span(rows, sparse(inside))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_in_span_with_tuple_columns(self, entry):
        # Klein-monomial keys in an order unrelated to the integer columns
        rng = random.Random(24)
        for _ in range(30):
            matrix = rank_deficient(rng, entry)
            keys = rng.sample([(a, b, e) for a in range(4) for b in range(4) for e in (0, 1)],
                              len(matrix[0]))

            def relabel(row):
                return {keys[j]: x for j, x in sparse(row).items()}

            inside = combine(rng, matrix, entry)
            outside = [entry(rng) for _ in matrix[0]]
            rows = [relabel(row) for row in matrix]
            for vector in (inside, outside):
                assert in_span(rows, relabel(vector)) == reference_in_span(matrix, vector)
            assert in_span(rows, relabel(inside))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_normal_form_ignores_insertion_order(self, entry):
        rng = random.Random(23)
        for _ in range(30):
            matrix = rank_deficient(rng, entry)
            rows = [sparse(row) for row in matrix]
            shuffled = rows[:]
            rng.shuffle(shuffled)
            forms = [{}, {}]
            for form, ordered in zip(forms, (rows, shuffled[::-1])):
                for row in ordered:
                    insert_row(form, row)
            _, pivots = reference_rref(matrix)
            assert sorted(forms[0]) == sorted(forms[1]) == pivots
            for form in forms:
                for row in form.values():
                    assert_primitive(row)
            for _ in range(3):
                dense = [entry(rng) for _ in matrix[0]]
                vector = sparse(dense)
                first, second = (reduce_row(form, vector) for form in forms)
                assert first == second
                assert not set(first) & set(pivots)
                assert bool(first) == (not reference_in_span(matrix, dense))
                if first:
                    assert_primitive(first)
                # the residue is a nonzero multiple of the vector modulo
                # the span: it lies in the span of both, and adds to the
                # span as much as the vector does
                residue = [first.get(j, 0) for j in range(len(dense))]
                assert reference_in_span(matrix + [dense], residue)
                assert reference_in_span(matrix + [residue], dense)

    def test_stored_rows_are_primitive_copies(self):
        # every reduced row is stored divided by its content with a
        # positive pivot, and none aliases the row passed in
        form = {}
        primitive = {1: 1, 3: 2, 4: -3}
        insert_row(form, primitive)
        assert form[1] == primitive and form[1] is not primitive
        scaled = {0: -4, 2: 6}
        insert_row(form, scaled)
        assert form[0] == {0: 2, 2: -3}
        assert scaled == {0: -4, 2: 6}
        # 2 e_1 + 2 e_3 reduces by the row at 1 to -2 e_3 + 6 e_4, stored as
        # e_3 - 3 e_4
        insert_row(form, {1: 2, 3: 2})
        assert form[3] == {3: 1, 4: -3}
        # at pivot 0 the entries 6 and 2 have gcd 2: 1 * row - 3 * form[0]
        # leaves 9 e_2 + 4 e_5, which is primitive already
        assert reduce_row(form, {0: 6, 5: 4}) == {2: 9, 5: 4}
        primitive[3] = 0
        assert form[1] == {1: 1, 3: 2, 4: -3}


def reference_format_terms(terms, variables):
    """format_terms as it was written with one Fraction per printed part."""
    printed = []
    for exponent in sorted(terms, key=lambda e: (sum(e), tuple(e)), reverse=True):
        coeff = terms[exponent]
        monomial = "*".join(variables[k] if e == 1 else f"{variables[k]}^{e}"
                            for k, e in enumerate(exponent) if e)
        for numerator, symbol in zip(coeff.num, BASIS_SYMBOLS):
            if numerator == 0:
                continue
            mag = Fraction(abs(numerator), coeff.den)
            pieces = []
            if mag != 1 or (not symbol and not monomial):
                pieces.append(str(mag))
            if symbol:
                pieces.append(symbol)
            if monomial:
                pieces.append(monomial)
            printed.append(("-" if numerator < 0 else "+", "*".join(pieces)))
    if not printed:
        return "0"
    out = ("-" if printed[0][0] == "-" else "") + printed[0][1]
    return out + "".join(f" {sign} {body}" for sign, body in printed[1:])


class TestTextFormat:
    CASES = [
        "u^3*v - 33*u^8*v^4",
        "27*x1^5 + 25*s5*x2^3 + 4*x3^2",
        "3/2*i*s10*u^2 - v + 1",
        "-u + 2*s2",
        "0",
    ]

    @pytest.mark.parametrize("text", CASES[:1] + CASES[2:4])
    def test_bivariate_round_trip(self, text):
        p = parse_bivariate(text)
        assert parse_bivariate(format_bivariate(p)) == p

    def test_multi_round_trip(self):
        r = parse_multi("27*x1^5 + 25*s5*x2^3 + 4*x3^2", [12, 20, 30])
        assert parse_multi(format_multi(r), [12, 20, 30]) == r

    def test_zero_prints_as_zero(self):
        assert format_bivariate(BivariatePoly({})) == "0"

    def test_compound_coefficient_splits_into_terms(self):
        p = BivariatePoly.monomial(ONE + I, 2, 1)
        text = format_bivariate(p)
        assert text == "u^2*v + i*u^2*v"
        assert parse_bivariate(text) == p

    def test_random_round_trip(self):
        rng = random.Random(99)
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                terms[(rng.randint(0, 9), rng.randint(0, 9))] = random_scalar(rng, 4)
            p = BivariatePoly(terms)
            assert parse_bivariate(format_bivariate(p)) == p

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            parse_bivariate("u + + v")
        with pytest.raises(ValueError):
            parse_bivariate("u^2 * w")

    # an operator followed by no term, at the start as in the middle or end
    @pytest.mark.parametrize(
        "text", ["--u", "-+u", "+-u", "--u + v", "u - -v", "u + +v", "-", "u -"]
    )
    def test_dangling_operator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="dangling operator"):
            parse_bivariate(text)

    def test_one_leading_sign_is_read(self):
        assert parse_bivariate("-u") == parse_bivariate("0 - u")
        assert parse_bivariate("+u") == parse_bivariate("u")
        assert parse_bivariate("- u + v") == parse_bivariate("v - u")

    # Arabic-Indic digits in a coefficient, an exponent and a denominator
    @pytest.mark.parametrize("text", ["٣*u^2", "3*u^٢", "1/٣*u", "u^2*v^١"])
    def test_reject_other_scripts_digits(self, text):
        with pytest.raises(ValueError):
            parse_bivariate(text)

    @pytest.mark.parametrize("text", ["3/0*u", "u - 1/00"])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_bivariate(text)

    def test_magnitudes_match_the_fraction_formatter(self):
        rng = random.Random(1019)
        symbols = [ONE, I, SQRT2, SQRT5, SQRT10, I * SQRT2, I * SQRT5, I * SQRT10]
        seen = set()
        for _ in range(400):
            coeff = ZERO
            for symbol in rng.sample(symbols, rng.randint(1, 3)):
                value = rng.choice([1, -1, rng.randint(-30, 30), Fraction(rng.randint(-30, 30),
                                                                          rng.randint(1, 24))])
                coeff = coeff + symbol * value
            den = rng.choice([1, 1, 2, 6, 35])
            coeff = coeff / den
            terms = {(): coeff} if rng.random() < 0.3 else \
                {(rng.randint(0, 3), rng.randint(0, 3)): coeff, (4, 0): ONE}
            variables = () if () in terms else ("u", "v")
            assert format_terms(terms, variables) == reference_format_terms(terms, variables)
            seen.update((n < 0, n % coeff.den == 0, abs(n) == coeff.den) for n in coeff.num if n)
        # negative and positive parts, whole numbers, fractions and 1 were all printed
        assert {(True, True, True), (False, True, True), (True, False, False),
                (False, False, False), (False, True, False)} <= seen

    def test_invariance_negative_control_still_parses(self):
        p = parse_bivariate("u^10*v^2 + u^2*v^10 - 2*u^7*v^5")
        assert p.terms == {(10, 2): ONE, (2, 10): ONE, (7, 5): ONE * -2}
        assert parse_bivariate("3/2*u^12 + 0/5*v") == parse_bivariate("3/2*u^12")
