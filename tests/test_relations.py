"""Tests for relation discovery (binomial and bounded-degree) and the
substitution verifier."""

import random
from math import gcd

import pytest

from singmap.exactmath import (
    BivariatePoly,
    format_multi,
    parse_bivariate,
    parse_multi,
)
from singmap.groups import GroupDescriptor, GroupFamily, generator_matrices
from singmap.invariants import (
    cyclic_invariant_generators,
    klein_invariants,
    monomials_from_exponents,
)
from singmap.relations import (
    bounded_degree_relations,
    check_invariance,
    monomial_relations,
    verify_relation,
)


class TestMonomialRelations:
    def test_5_2_contains_oracle_binomial(self):
        gens = cyclic_invariant_generators(5, 2)
        result = monomial_relations(gens)
        # z w^2 - x y in the variables x1..x4 = (u^5, u^3 v, u v^2, v^5)
        target = parse_multi("x2*x3^2 - x1*x4", [5, 4, 3, 5])
        assert target in result.relations
        assert result.complete_up_to_bound

    def test_5_2_generators_are_determinantal(self):
        gens = cyclic_invariant_generators(5, 2)
        result = monomial_relations(gens)
        texts = {format_multi(r) for r in result.relations}
        assert texts == {"x1*x3 - x2^2", "x3^3 - x2*x4", "x2*x3^2 - x1*x4"}

    def test_5_2_high_powers_vanish_but_are_consequences(self):
        gens = cyclic_invariant_generators(5, 2)
        polys = monomials_from_exponents(gens)
        weights = [5, 4, 3, 5]
        z5 = parse_multi("x2^5 - x1^3*x4", weights)
        assert verify_relation(z5, polys)

    def test_wahl_count_stops_the_scan(self):
        gens = cyclic_invariant_generators(19, 1)
        result = monomial_relations(gens, expected_count=171)
        assert len(result.relations) == 171
        assert {r.weighted_degree() for r in result.relations} == {38}
        assert result.degree_bound == 722
        assert result.complete and result.stop_reason == "wahl-count"

    def test_2_1_single_relation(self):
        # y^2 = xz for (x, y, z) = (u^2, uv, v^2); normalization puts the
        # graded-lex leading monomial x1*x3 first with positive sign
        gens = cyclic_invariant_generators(2, 1)
        result = monomial_relations(gens)
        assert [format_multi(r) for r in result.relations] == ["x1*x3 - x2^2"]
        polys = monomials_from_exponents(gens)
        assert verify_relation(parse_multi("x2^2 - x1*x3", [2, 2, 2]), polys)

    def test_relations_all_weighted_homogeneous(self):
        for p, q in [(5, 2), (7, 3), (7, 1), (6, 5)]:
            result = monomial_relations(cyclic_invariant_generators(p, q), 4 * p)
            for r in result.relations:
                assert r.is_weighted_homogeneous()

    def test_soundness_random(self):
        rng = random.Random(20240911)
        pairs = [
            (p, q) for p in range(2, 21) for q in range(1, p) if gcd(p, q) == 1
        ]
        for p, q in rng.sample(pairs, 50):
            gens = cyclic_invariant_generators(p, q)
            polys = monomials_from_exponents(gens)
            result = monomial_relations(gens, 3 * max(a + b for a, b in gens))
            assert result.relations, (p, q)
            for r in result.relations:
                assert verify_relation(r, polys), (p, q, format_multi(r))


class TestBoundedDegreeRelations:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_binary_dihedral_hypersurface(self, n):
        gens = list(klein_invariants(GroupFamily.BINARY_DIHEDRAL, n).generators)
        result = bounded_degree_relations(gens, 4 * n + 4)
        assert len(result.relations) == 1
        expected = parse_multi(
            f"4*x1^{n + 1} - x1*x2^2 + x3^2", [4, 2 * n, 2 * n + 2]
        )
        assert result.relations[0] == expected

    def test_tetrahedral_e6(self):
        gens = list(klein_invariants(GroupFamily.BINARY_TETRAHEDRAL).generators)
        result = bounded_degree_relations(gens, 24)
        assert [format_multi(r) for r in result.relations] == [
            "108*x1^4 - x2^3 + x3^2"
        ]

    def test_dihedral_product_relations(self):
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2).generators
        gens = [
            base[0] ** 3,
            base[0] ** 2 * base[1],
            base[1] ** 3,
            base[2],
        ]
        result = bounded_degree_relations(gens, 24)
        texts = {format_multi(r) for r in result.relations}
        assert texts == {
            "x2*x4^2 + 4*x1*x2 - x1*x3",
            "x1*x4^2 + 4*x1^2 - x2^2",
            "x4^4 - 16*x1^2 + 8*x2^2 - x2*x3",
        }

    def test_bound_too_small_is_empty_but_complete(self):
        gens = list(klein_invariants(GroupFamily.BINARY_TETRAHEDRAL).generators)
        result = bounded_degree_relations(gens, 20)
        assert result.relations == ()
        assert result.complete_up_to_bound

    def test_without_expected_count_scans_to_the_bound(self):
        gens = list(klein_invariants(GroupFamily.BINARY_TETRAHEDRAL).generators)
        result = bounded_degree_relations(gens)
        assert result.degree_bound == 2 * (12 + 8)
        assert result.expected_count is None
        assert not result.complete
        assert result.stop_reason == "degree-bound"
        assert result.to_dict()["expected_relation_count"] is None

    def test_wahl_count_stops_the_scan(self):
        gens = list(klein_invariants(GroupFamily.BINARY_TETRAHEDRAL).generators)
        full = bounded_degree_relations(gens, 48)
        stopped = bounded_degree_relations(gens, 48, expected_count=1)
        assert stopped.relations == full.relations
        assert stopped.degree_bound == 48
        assert stopped.complete and stopped.stop_reason == "wahl-count"

    def test_bound_short_of_wahl_count_is_incomplete(self):
        gens = list(klein_invariants(GroupFamily.BINARY_TETRAHEDRAL).generators)
        result = bounded_degree_relations(gens, 20, expected_count=1)
        assert result.relations == ()
        assert result.complete_up_to_bound
        assert not result.complete
        assert result.stop_reason == "degree-bound"

    def test_more_relations_than_wahl_count_is_an_error(self):
        gens = list(klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2).generators)
        product = [gens[0] ** 3, gens[0] ** 2 * gens[1], gens[1] ** 3, gens[2]]
        with pytest.raises(RuntimeError):
            bounded_degree_relations(product, 24, expected_count=2)
        with pytest.raises(RuntimeError):
            # the six relations of L(4,1) all have weighted degree 8
            monomial_relations(cyclic_invariant_generators(4, 1), expected_count=5)

    def test_degree_bound_below_one_rejected(self):
        gens = list(klein_invariants(GroupFamily.BINARY_TETRAHEDRAL).generators)
        with pytest.raises(ValueError):
            bounded_degree_relations(gens, 0)
        with pytest.raises(ValueError):
            monomial_relations(cyclic_invariant_generators(5, 2), -1)

    def test_filtration_consistency(self):
        gens = list(klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2).generators)
        small = bounded_degree_relations(gens, 12)
        large = bounded_degree_relations(gens, 24)
        assert small.relations == large.relations[: len(small.relations)]

    def test_inhomogeneous_generator_rejected(self):
        with pytest.raises(ValueError):
            bounded_degree_relations([parse_bivariate("u^2 + u")], 8)


class TestOctahedralProduct:
    """The Z/7 x O* quotient (Seifert data {2; (2,1)(3,2)(4,1)}): a map of
    five products of the octahedral invariants and its sixteen image
    equations, every one verified by exact substitution."""

    EQUATIONS = [
        "x2*x4 - x3^2*x5",
        "x1*x5^2 - x2^2*x4",
        "x1*x5 - x2*x3^2",
        "11664*x1*x3 + 108*x2*x5 - x3*x4 + x5^2",
        "11664*x1^2 - x1*x4 + 108*x2^2*x3 + x2*x3*x5",
        "108*x1*x4*x5 - x2*x4^2 + x3*x5^3",
        "11664*x1*x2*x4 + 108*x2*x3*x5^2 - x2*x4^2 + x3*x5^3",
        "108*x1*x4 - x3^2*x4 + x3*x5^2",
        "11664*x1*x2*x4^2 - 216*x1*x4^2*x5 + x2*x4^3 - x5^5",
        "108*x2*x3*x4 - x3*x4*x5 + x5^3",
        "11664*x1^2*x4*x5 - 216*x1*x2*x4^2 + x1*x4^2*x5 - x2*x5^4",
        "108*x1*x3 + x2*x5 - x3^3",
        "629856*x1^2*x4 - 54*x1*x4^2 - 54*x2*x5^3 + x3*x4*x5^2 - x5^4",
        "136048896*x1^3 - 23328*x1^2*x4 + x1*x4^2 - 11664*x2^3*x5 - 216*x2^2*x5^2 - x2*x5^3",
        "136048896*x1^2*x2*x4 - 23328*x1*x2*x4^2 - 11664*x2^2*x5^3 + x2*x4^3 - 216*x2*x5^4 - x5^5",
        "136048896*x1^3*x4 - 23328*x1^2*x4^2 - 11664*x1*x2*x5^3 + x1*x4^3 - 216*x1*x5^4 - x2*x4*x5^3",
    ]

    @staticmethod
    def product_map():
        p1, p2, p3 = klein_invariants(GroupFamily.BINARY_OCTAHEDRAL).generators
        return [p1 ** 4 * p2, p1 ** 2 * p3, p1 * p2 ** 2, p2 ** 7, p2 ** 3 * p3]

    def test_all_sixteen_equations_verify(self):
        gens = self.product_map()
        weights = [g.homogeneous_degree() for g in gens]
        assert weights == [56, 42, 28, 56, 42]
        for text in self.EQUATIONS:
            relation = parse_multi(text, weights)
            assert relation.is_weighted_homogeneous(), text
            assert verify_relation(relation, gens), text

    def test_sign_variants_fail(self):
        # flipping one term's sign must break an identity: the verifier is
        # not fooled by weighted-homogeneous near-misses
        gens = self.product_map()
        weights = [g.homogeneous_degree() for g in gens]
        for text in [
            "136048896*x1^2*x2*x4 + 23328*x1*x2*x4^2 - 11664*x2^2*x5^3 + x2*x4^3 - 216*x2*x5^4 - x5^5",
            "136048896*x1^3*x4 - 23328*x1^2*x4^2 - 11664*x1*x2*x5^3 + x1*x4^3 + 216*x1*x5^4 - x2*x4*x5^3",
        ]:
            assert not verify_relation(parse_multi(text, weights), gens)

    def test_pipeline_reproduces_the_quotient(self):
        from singmap.pipeline import parse_seifert_shorthand, synthesize_map

        output = synthesize_map(parse_seifert_shorthand("2;(2,1)(3,2)(4,1)"), 140)
        assert output.group.label() == "Z/7 x O*"
        assert output.report.embedding_dimension == 5
        assert sorted(output.invariant_map.degrees) == [28, 42, 42, 56, 56]
        assert output.warnings == ()
        degrees = sorted(r.weighted_degree() for r in output.relations.relations)
        assert degrees == [84, 84, 98, 98, 112, 112]


class TestVerifyRelation:
    def test_e8_relation(self):
        basis = klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL)
        relation = parse_multi("27*x1^5 + 25*s5*x2^3 + 4*x3^2", basis.degrees)
        assert verify_relation(relation, list(basis.generators))

    def test_e7_relation(self):
        basis = klein_invariants(GroupFamily.BINARY_OCTAHEDRAL)
        relation = parse_multi("108*x1^3 - x1*x2^3 + x3^2", basis.degrees)
        assert verify_relation(relation, list(basis.generators))

    def test_trivial_equality_map(self):
        u = BivariatePoly.u()
        v = BivariatePoly.v()
        relation = parse_multi("x1 - x2", [1, 1])
        assert verify_relation(relation, [u, u])
        assert not verify_relation(relation, [u, v])

    def test_wrong_coefficient_fails(self):
        basis = klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL)
        wrong = parse_multi("27*x1^5 + 25*x2^3 + 4*x3^2", basis.degrees)
        assert not verify_relation(wrong, list(basis.generators))


class TestCheckInvariance:
    def test_pd1_under_both_generators(self):
        d = GroupDescriptor(GroupFamily.BINARY_DIHEDRAL, (2,), 1, 8)
        gens = generator_matrices(d)
        pd1 = parse_bivariate("u^2*v^2")
        assert check_invariance(pd1, gens)

    def test_uv_flips_under_antidiagonal(self):
        d = GroupDescriptor(GroupFamily.BINARY_DIHEDRAL, (2,), 1, 8)
        _, antidiag = generator_matrices(d).matrices
        uv = parse_bivariate("u*v")
        assert uv.substitute_linear(antidiag) == -uv
        assert not check_invariance(uv, [antidiag])

    def test_constant_invariant(self):
        d = GroupDescriptor(GroupFamily.BINARY_ICOSAHEDRAL, (), 1, 120)
        gens = generator_matrices(d)
        assert check_invariance(BivariatePoly.constant(1), gens)
