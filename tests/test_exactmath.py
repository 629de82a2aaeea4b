"""Tests for the exact arithmetic layer: ring, polynomials, linear algebra,
and the text format."""

import random
from fractions import Fraction

import pytest

from singmap.exactmath import (
    BivariatePoly,
    ExactMatrix,
    ExactScalar,
    HALF,
    I,
    ONE,
    SQRT2,
    SQRT5,
    SQRT10,
    ZERO,
    format_bivariate,
    format_multi,
    in_span,
    nullspace_basis,
    parse_bivariate,
    parse_multi,
)


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

    def test_inverse(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_scalar(rng)
            if a.is_zero():
                continue
            assert a * a.inverse() == ONE

    def test_results_hold_eight_fractions(self):
        # ring operations wrap their results without re-coercing, which is
        # sound only while every coordinate they produce is a Fraction
        rng = random.Random(20260418)
        for _ in range(200):
            a, b = random_scalar(rng), random_scalar(rng)
            n = rng.randint(-5, 5) or 1
            f = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            results = [
                a + b, a - b, -a, a * b,
                a + n, n + a, a - n, n - a, a * n, n * a, a / n,
                a + f, f + a, a - f, f - a, a * f, f * a, a / f,
                a.galois(True, True, True),
            ]
            for result in results:
                assert len(result.coords) == 8
                assert all(type(c) is Fraction for c in result.coords)

    def test_public_constructor_coerces_and_checks_length(self):
        assert all(type(c) is Fraction for c in ExactScalar([1, 0, 2, 0, 0, 0, 0, 3]).coords)
        with pytest.raises(ValueError):
            ExactScalar([1, 2, 3])

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_conjugation(self):
        z = HALF * (ONE + I) * SQRT5
        assert z.conjugate() == HALF * (ONE - I) * SQRT5
        assert (z * z.conjugate()).is_rational()

    def test_galois_fixes_norm(self):
        a = ONE + SQRT2 * 3 - I * SQRT5
        product = a
        for fi in (False, True):
            for f2 in (False, True):
                for f5 in (False, True):
                    if fi or f2 or f5:
                        product = product * a.galois(fi, f2, f5)
        assert product.is_rational()


class TestBivariatePoly:
    def test_product_difference_of_squares(self):
        u, v = BivariatePoly.u(), BivariatePoly.v()
        assert (u + v) * (u - v) == u ** 2 - v ** 2

    def test_monomial_powers(self):
        uv = BivariatePoly.monomial(1, 1, 1)
        assert uv ** 2 * uv ** 2 == BivariatePoly.monomial(1, 4, 4)

    def test_pt1_square(self):
        # (u v^5 - u^5 v)^2 = u^2 v^10 - 2 u^6 v^6 + u^10 v^2
        p = BivariatePoly.from_terms([(1, 1, 5), (-1, 5, 1)])
        expected = BivariatePoly.from_terms([(1, 2, 10), (-2, 6, 6), (1, 10, 2)])
        assert p ** 2 == expected

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
        assert parse_bivariate("u^2 + u*v").is_homogeneous()
        assert not parse_bivariate("u^2 + u").is_homogeneous()


class TestMultiPoly:
    def test_weighted_degree(self):
        r = parse_multi("x1*x2^2 - x3^2", [4, 4, 6])
        assert r.weighted_degree() == 12
        assert r.is_weighted_homogeneous()

    def test_substitute(self):
        u, v = BivariatePoly.u(), BivariatePoly.v()
        r = parse_multi("x2^2 - x1*x3", [2, 2, 2])
        gens = [u ** 2, u * v, v ** 2]
        assert r.substitute(gens).is_zero()

    def test_mixed_degrees_not_homogeneous(self):
        r = parse_multi("x1 + x2", [2, 3])
        assert not r.is_weighted_homogeneous()


class TestNullspace:
    def test_single_row(self):
        basis = nullspace_basis([[Fraction(1), Fraction(-1)]])
        assert basis == [[Fraction(1), Fraction(1)]]

    def test_identity_has_trivial_kernel(self):
        m = ExactMatrix.identity(2)
        assert m.nullspace() == []

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        for _ in range(25):
            rows = rng.randint(2, 5)
            cols = rng.randint(2, 5)
            matrix = ExactMatrix(
                [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
            )
            basis = matrix.nullspace()
            assert len(basis) == cols - matrix.rank()
            for vec in basis:
                assert all(x == 0 for x in matrix.mul_vector(vec))

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
        support = sorted(set(images))
        matrix = [[Fraction(0)] * len(monomials) for _ in support]
        for col, image in enumerate(images):
            matrix[support.index(image)][col] += 1
        basis = nullspace_basis([row[:] for row in matrix])
        assert basis
        # the vector encoding z w^2 - x y
        target = [Fraction(0)] * len(monomials)
        target[monomials.index((0, 1, 2, 0))] = Fraction(1)
        target[monomials.index((1, 0, 0, 1))] = Fraction(-1)
        assert all(
            sum(row[k] * target[k] for k in range(len(target))) == 0 for row in matrix
        )
        assert in_span(basis, target)

    def test_exact_scalar_entries(self):
        rows = [[ONE, SQRT5], [SQRT5, ExactScalar.rational(5)]]
        basis = nullspace_basis(rows)
        assert len(basis) == 1
        vec = basis[0]
        assert ONE * vec[0] + SQRT5 * vec[1] == ZERO


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
        assert format_bivariate(BivariatePoly.zero()) == "0"

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
