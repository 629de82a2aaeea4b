"""Tests for relation discovery (binomial and bounded-degree) and the
substitution verifier."""

import json
import random
import time
from math import gcd

import pytest

from singmap.exactmath import (
    BivariatePoly,
    ExactScalar,
    MultiPoly,
    ONE,
    Powers,
    format_multi,
    grlex_key,
    kernel_vector,
    nullspace_basis,
    parse_bivariate,
    parse_multi,
    rref,
)
from singmap.exactmath.linalg import insert_row, reduce_row
from singmap.exactmath.ring import BASIS_SYMBOLS
from singmap.groups import (
    GroupDescriptor,
    GroupFamily,
    UnsupportedFamilyError,
    check_invariance,
    generator_matrices,
)
from singmap.invariants import (
    KleinBasis,
    cyclic_invariant_generators,
    klein_invariants,
    monomials_from_exponents,
)
from singmap.relations import (
    MAX_CYCLIC_RELATIONS,
    RelationBudgetError,
    RelationSet,
    _in_klein_triple,
    bounded_degree_relations,
    check_degree_bound,
    monomial_relations,
    verify_relation,
    wahl_relation_count,
)

from test_exactmath import weighted_exponents


class TestMonomialRelations:
    def test_a_map_over_the_relation_budget_is_refused(self):
        # Wahl's count is read off (p, q) before any listing: L(200, 1) is
        # within the budget and L(201, 1) is not
        assert wahl_relation_count(len(cyclic_invariant_generators(200, 1))) == 19900
        assert 19900 <= MAX_CYCLIC_RELATIONS < 20100
        with pytest.raises(RelationBudgetError, match="L\\(201,1\\) has 20100 minimal relations"):
            monomial_relations(201, 1)
        assert issubclass(RelationBudgetError, ValueError)

    def test_5_2_contains_oracle_binomial(self):
        result = monomial_relations(5, 2)
        # z w^2 - x y in the variables x1..x4 = (u^5, u^3 v, u v^2, v^5)
        target = parse_multi("x2*x3^2 - x1*x4", [5, 4, 3, 5])
        assert target in result.relations
        assert result.to_dict()["complete_up_to_bound"] is True

    def test_5_2_generators_are_determinantal(self):
        result = monomial_relations(5, 2)
        texts = {format_multi(r) for r in result.relations}
        assert texts == {"x1*x3 - x2^2", "x3^3 - x2*x4", "x2*x3^2 - x1*x4"}

    def test_5_2_high_powers_vanish_but_are_consequences(self):
        gens = cyclic_invariant_generators(5, 2)
        polys = monomials_from_exponents(gens)
        weights = [5, 4, 3, 5]
        z5 = parse_multi("x2^5 - x1^3*x4", weights)
        assert verify_relation(z5, polys)

    def test_wahl_count_stops_the_scan(self):
        result = monomial_relations(19, 1, expected_count=171)
        assert len(result.relations) == 171
        assert {r.weighted_degree() for r in result.relations} == {38}
        assert result.degree_bound == 722
        assert result.complete and result.stop_reason == "wahl-count"

    def test_2_1_single_relation(self):
        # y^2 = xz for (x, y, z) = (u^2, uv, v^2); normalization puts the
        # graded-lex leading monomial x1*x3 first with positive sign
        result = monomial_relations(2, 1)
        assert [format_multi(r) for r in result.relations] == ["x1*x3 - x2^2"]
        polys = monomials_from_exponents(cyclic_invariant_generators(2, 1))
        assert verify_relation(parse_multi("x2^2 - x1*x3", [2, 2, 2]), polys)

    def test_relations_all_weighted_homogeneous(self):
        for p, q in [(5, 2), (7, 3), (7, 1), (6, 5)]:
            result = monomial_relations(p, q, 4 * p)
            for r in result.relations:
                assert r.weighted_degree() is not None

    def test_soundness_random(self):
        rng = random.Random(20240911)
        pairs = [
            (p, q) for p in range(2, 21) for q in range(1, p) if gcd(p, q) == 1
        ]
        for p, q in rng.sample(pairs, 50):
            gens = cyclic_invariant_generators(p, q)
            polys = monomials_from_exponents(gens)
            result = monomial_relations(p, q, 3 * max(a + b for a, b in gens))
            assert result.relations, (p, q)
            for r in result.relations:
                assert verify_relation(r, polys), (p, q, format_multi(r))


def reference_factorizations(target, gens):
    """All exponent vectors alpha with sum alpha_i gens_i = target."""
    out = []
    k = len(gens)

    def scan(position, prefix, a, b):
        if position == k:
            if a == 0 and b == 0:
                out.append(tuple(prefix))
            return
        ga, gb = gens[position]
        if position == k - 1:
            if ga == 0 and gb == 0:
                return
            count = None
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


def reference_monomial_relations(gens, degree_bound=None, expected_count=None):
    """The degree-by-degree scan over every image (A, B), each fiber found
    by search and connected by the earlier relations as rewriting moves;
    it stops after the degree at which expected_count relations are found."""
    gens = [tuple(g) for g in gens]
    weights = tuple(a + b for a, b in gens)
    if degree_bound is None:
        p = max(max(a for a, _ in gens), max(b for _, b in gens))
        degree_bound = 2 * p * max(weights)
    nvars = len(gens)
    relations = []
    moves = []
    for degree in range(min(weights), degree_bound + 1):
        if expected_count is not None and len(relations) >= expected_count:
            break
        for a_part in range(degree + 1):
            fiber = sorted(reference_factorizations((a_part, degree - a_part), gens), key=grlex_key)
            index = {alpha: k for k, alpha in enumerate(fiber)}
            parent = list(range(len(fiber)))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for alpha, beta in moves:
                for k, element in enumerate(fiber):
                    if all(e >= a for e, a in zip(element, alpha)):
                        partner = tuple(e - a + b for e, a, b in zip(element, alpha, beta))
                        rx, ry = find(k), find(index[partner])
                        if rx != ry:
                            parent[ry] = rx
            least = {}
            for k, alpha in enumerate(fiber):
                root = find(k)
                if root not in least or grlex_key(alpha) < grlex_key(least[root]):
                    least[root] = alpha
            representatives = sorted(least.values(), key=grlex_key)
            for other in representatives[1:]:
                relations.append(MultiPoly(nvars, weights, {other: ONE, representatives[0]: -ONE}))
                moves.append((other, representatives[0]))
    return RelationSet(tuple(relations), degree_bound, expected_count)


class TestRiemenschneiderImagesAgainstScan:
    def test_same_relations_as_the_full_scan(self):
        for p in range(2, 21):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                gens = cyclic_invariant_generators(p, q)
                wahl = wahl_relation_count(len(gens))
                for bound, count in [(None, wahl), (p, wahl), (p, None)]:
                    found = json.dumps(monomial_relations(p, q, bound, count).to_dict())
                    expected = json.dumps(
                        reference_monomial_relations(gens, bound, count).to_dict()
                    )
                    assert found == expected, (p, q, bound, count)

    def test_long_chain_is_fast(self):
        # L(400, 399): three generators (u^400, u v, v^400), one relation at
        # degree 800, which the full scan reaches after 321,000 images
        start = time.perf_counter()
        result = monomial_relations(400, 399, expected_count=1)
        elapsed = time.perf_counter() - start
        assert [format_multi(r) for r in result.relations] == ["x2^400 - x1*x3"]
        assert result.complete
        assert elapsed < 1.0, f"L(400, 399) relations took {elapsed:.2f} s"

    def test_wahl_count_is_met_up_to_p_40(self):
        # every coprime (p, q) with p <= 40: 489 lens spaces
        pairs = [(p, q) for p in range(2, 41) for q in range(1, p) if gcd(p, q) == 1]
        assert len(pairs) == 489
        for p, q in pairs:
            gens = cyclic_invariant_generators(p, q)
            polys = monomials_from_exponents(gens)
            result = monomial_relations(p, q, expected_count=wahl_relation_count(len(gens)))
            assert result.complete, (p, q)
            assert len(set(result.relations)) == len(result.relations), (p, q)
            for r in result.relations:
                assert r.weighted_degree() is not None, (p, q, format_multi(r))
                assert verify_relation(r, polys), (p, q, format_multi(r))

    @pytest.mark.parametrize("degree_bound", [None, 5])
    def test_smooth_point_has_no_relations(self, degree_bound):
        result = monomial_relations(1, 0, degree_bound)
        assert result.relations == ()
        assert result.degree_bound == 0
        assert result.complete

    @pytest.mark.parametrize("q", [1, 7, -1])
    def test_smooth_point_needs_q_zero(self, q):
        # refused as L(1, q) and hj_expand(1, q) refuse it, not read as (1, 0)
        with pytest.raises(ValueError):
            monomial_relations(1, q)


class CyclicDegreeMatrix:
    """The cyclic map of L(p, q) behind the five methods that
    bounded_degree_relations calls on a KleinBasis, so that the Klein
    engine can run on it.  A column target is a (u, v) exponent pair, the
    degree matrix has a 1 in the row of each column's pair, and a kernel
    vector is already the relation.  _in_klein_triple writes a relation in
    three variables, so a target is checked as u^a v^b 1^0 against the
    bases u, v and 1.  The Hilbert-count certificate reads monomials: the
    invariant (u, v) monomials of the degree, written u^a v^b 1^0, so
    that the rank certified is the number of them."""

    degrees = (1, 1, 0)

    def __init__(self, p, q):
        self.p, self.q = p, q
        self.powers = Powers([parse_bivariate("u"), parse_bivariate("v"), BivariatePoly.constant(1)])

    def monomials(self, degree):
        return [(a, degree - a, 0) for a in range(degree + 1)
                if (a + self.q * (degree - a)) % self.p == 0]

    def degree(self, exponent):
        return sum(exponent)

    @staticmethod
    def power_product(alpha, monomials):
        return (sum(e * a for e, (a, _) in zip(alpha, monomials)),
                sum(e * b for e, (_, b) in zip(alpha, monomials)), 0)

    def degree_matrix(self, columns):
        rows = {}
        for col, target in enumerate(columns):
            rows.setdefault(target, {})[col] = 1
        return [rows[target] for target in sorted(rows, reverse=True)]

    def relation_coefficients(self, vector, monomials, lead):
        return {k: ExactScalar.rational(w) for k, w in vector.items()}


class TestOneEngineForBothFamilies:
    def test_klein_engine_on_the_cyclic_matrix_gives_the_binomials(self):
        # the Klein engine, handed the cyclic 0/1 degree matrix, finds the
        # binomials that Riemenschneider's fibers give, in the same order
        # once sorted by image degree, image u-exponent and graded-lex lead;
        # the two engines stay apart only for cost and size
        pairs = [(p, q) for p in range(2, 41) for q in range(1, p) if gcd(p, q) == 1]
        assert len(pairs) == 489
        for p, q in pairs:
            gens = cyclic_invariant_generators(p, q)
            binomials = list(monomial_relations(p, q).relations)
            found = bounded_degree_relations(CyclicDegreeMatrix(p, q), gens).relations

            def order(relation):
                lead = relation.leading_exponent()
                image = CyclicDegreeMatrix.power_product(lead, gens)
                return relation.weighted_degree(), image[0], grlex_key(lead)

            assert binomials and set(found) == set(binomials), (p, q)
            assert sorted(found, key=order) == binomials == sorted(binomials, key=order), (p, q)


KLEIN_TRIPLE = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestBoundedDegreeRelations:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_binary_dihedral_hypersurface(self, n):
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, n)
        result = bounded_degree_relations(base, KLEIN_TRIPLE, 4 * n + 4)
        assert len(result.relations) == 1
        expected = parse_multi(
            f"4*x1^{n + 1} - x1*x2^2 + x3^2", [4, 2 * n, 2 * n + 2]
        )
        assert result.relations[0] == expected

    def test_tetrahedral_e6(self):
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        result = bounded_degree_relations(base, KLEIN_TRIPLE, 24)
        assert [format_multi(r) for r in result.relations] == [
            "108*x1^4 - x2^3 + x3^2"
        ]

    def test_dihedral_product_relations(self):
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        # x^3, x^2 y, y^3, z
        gens = [(3, 0, 0), (2, 1, 0), (0, 3, 0), (0, 0, 1)]
        result = bounded_degree_relations(base, gens, 24)
        texts = {format_multi(r) for r in result.relations}
        assert texts == {
            "x2*x4^2 + 4*x1*x2 - x1*x3",
            "x1*x4^2 + 4*x1^2 - x2^2",
            "x4^4 - 16*x1^2 + 8*x2^2 - x2*x3",
        }

    def test_bound_too_small_is_empty_but_complete(self):
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        result = bounded_degree_relations(base, KLEIN_TRIPLE, 20)
        assert result.relations == ()
        assert result.to_dict()["complete_up_to_bound"] is True

    def test_without_expected_count_scans_to_the_bound(self):
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        result = bounded_degree_relations(base, KLEIN_TRIPLE)
        assert result.degree_bound == 2 * (12 + 8)
        assert result.expected_count is None
        assert not result.complete
        assert result.stop_reason == "degree-bound"
        assert result.to_dict()["expected_relation_count"] is None

    def test_wahl_count_stops_the_scan(self):
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        full = bounded_degree_relations(base, KLEIN_TRIPLE, 48)
        stopped = bounded_degree_relations(base, KLEIN_TRIPLE, 48, expected_count=1)
        assert stopped.relations == full.relations
        assert stopped.degree_bound == 48
        assert stopped.complete and stopped.stop_reason == "wahl-count"

    def test_bound_short_of_wahl_count_is_incomplete(self):
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        result = bounded_degree_relations(base, KLEIN_TRIPLE, 20, expected_count=1)
        assert result.relations == ()
        assert result.to_dict()["complete_up_to_bound"] is True
        assert not result.complete
        assert result.stop_reason == "degree-bound"

    def test_more_relations_than_wahl_count_is_an_error(self):
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        product = [(3, 0, 0), (2, 1, 0), (0, 3, 0), (0, 0, 1)]
        with pytest.raises(RuntimeError):
            bounded_degree_relations(base, product, 24, expected_count=2)
        with pytest.raises(RuntimeError):
            # the six relations of L(4,1) all have weighted degree 8
            monomial_relations(4, 1, expected_count=5)

    def test_degree_bound_below_one_rejected(self):
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        with pytest.raises(ValueError):
            bounded_degree_relations(base, KLEIN_TRIPLE, 0)
        with pytest.raises(ValueError):
            monomial_relations(5, 2, -1)

    # True is not the bound 1
    @pytest.mark.parametrize("bound", [2.5, 24.0, "24", True])
    def test_degree_bound_must_be_an_integer(self, bound):
        with pytest.raises(TypeError):
            check_degree_bound(bound)
        # refused where it enters, not written to the JSON as 2.5
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        with pytest.raises(TypeError):
            bounded_degree_relations(base, KLEIN_TRIPLE, bound)
        for p, q in [(5, 2), (1, 0)]:
            with pytest.raises(TypeError):
                monomial_relations(p, q, bound)

    def test_filtration_consistency(self):
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        small = bounded_degree_relations(base, KLEIN_TRIPLE, 12)
        large = bounded_degree_relations(base, KLEIN_TRIPLE, 24)
        assert small.relations == large.relations[: len(small.relations)]

    def test_constant_generator_rejected(self):
        # the empty Klein monomial is the constant 1, outside the maximal ideal
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        with pytest.raises(ValueError):
            bounded_degree_relations(base, [(0, 0, 0), (0, 1, 0)], 8)


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
        p1_2, p2_2 = p1 * p1, p2 * p2
        p2_3 = p2_2 * p2
        return [p1_2 * p1_2 * p2, p1_2 * p3, p1 * p2_2, p2_3 * p2_3 * p2, p2_3 * p3]

    def test_all_sixteen_equations_verify(self):
        gens = self.product_map()
        weights = [g.homogeneous_degree() for g in gens]
        assert weights == [56, 42, 28, 56, 42]
        for text in self.EQUATIONS:
            relation = parse_multi(text, weights)
            assert relation.weighted_degree() is not None, text
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


class TestKleinTripleCheck:
    """bounded_degree_relations verifies each relation after rewriting it in
    the Klein triple: the check must still reject what substituting the
    generators rejects, and accept what it accepts."""

    OCTAHEDRAL_PRODUCT = [(4, 1, 0), (2, 0, 1), (1, 2, 0), (0, 7, 0), (0, 3, 1)]

    @pytest.mark.parametrize(
        "family, n, gens, flipped",
        [
            # T*: y^3 - 108 x^4 with the sign of 108 flipped
            (GroupFamily.BINARY_TETRAHEDRAL, None, KLEIN_TRIPLE, [(1, 0, 3), (108, 4, 0)]),
            # D*_8: x y^2 - 4 x^3 with the sign of 4 flipped, products x^3, x^2 y, y^3, z
            (GroupFamily.BINARY_DIHEDRAL, 2, [(3, 0, 0), (2, 1, 0), (0, 3, 0), (0, 0, 1)],
             [(1, 1, 2), (4, 3, 0)]),
        ],
    )
    def test_wrong_klein_relation_is_caught(self, family, n, gens, flipped):
        true_base = klein_invariants(family, n)
        wrong = KleinBasis(true_base.generators, true_base.degrees, square=tuple(flipped))
        with pytest.raises(RuntimeError, match="unsound relation"):
            bounded_degree_relations(wrong, gens, 24)

    def test_relation_on_one_klein_monomial_rewrites_to_zero(self):
        # Z/7 x O*: x2*x4 and x3^2*x5 are both x^2 y^7 z
        base = klein_invariants(GroupFamily.BINARY_OCTAHEDRAL)
        gens = self.OCTAHEDRAL_PRODUCT
        result = bounded_degree_relations(base, gens, 98)
        relation = parse_multi("x3^2*x5 - x2*x4", [base.degree(g) for g in gens])
        assert relation in result.relations
        assert relation.weighted_degree() == 98
        rewritten = _in_klein_triple(base, relation, gens)
        assert rewritten.is_zero()
        assert verify_relation(rewritten, base.powers)

    def test_common_monomial_is_divided_out(self):
        base = klein_invariants(GroupFamily.BINARY_OCTAHEDRAL)
        relation = parse_multi("11664*x1*x3 + 108*x2*x5 - x3*x4 + x5^2", [56, 42, 28, 56, 42])
        rewritten = _in_klein_triple(base, relation, self.OCTAHEDRAL_PRODUCT)
        # 11664 x^5 y^3 + 108 x^2 y^3 z^2 - x y^9 + y^6 z^2, divided by y^3
        expected = parse_multi("11664*x1^5 + 108*x1^2*x3^2 - x1*x2^6 + x2^3*x3^2", base.degrees)
        assert rewritten == expected
        assert verify_relation(rewritten, base.powers)

    @pytest.mark.parametrize("shorthand", [
        "2;(2,1)(3,2)(3,2)", "2;(2,1)(3,2)(4,3)", "2;(2,1)(3,2)(5,4)", "2;(2,1)(2,1)(5,2)",
        "2;(2,1)(3,1)(3,1)", "2;(2,1)(3,1)(4,3)", "2;(2,1)(3,2)(4,1)",
    ])
    def test_agrees_with_substituting_the_generators(self, monkeypatch, shorthand):
        # the product-map benchmark links; each relation is checked as emitted
        # and with the sign of one term flipped
        from singmap import pipeline

        calls = []

        def recording(base, gens, *args):
            calls.append((base, gens, bounded_degree_relations(base, gens, *args)))
            return calls[-1][2]

        monkeypatch.setattr(pipeline, "bounded_degree_relations", recording)
        pipeline.synthesize_map(pipeline.parse_seifert_shorthand(shorthand))
        [(base, gens, result)] = calls
        expanded = [base.powers.monomial(g) for g in gens]
        checked = 0
        for relation in result.relations:
            first = next(iter(relation.terms))
            flipped = MultiPoly(relation.nvars, relation.weights, {
                alpha: -coeff if alpha == first else coeff
                for alpha, coeff in relation.terms.items()
            })
            for candidate in (relation, flipped):
                by_triple = verify_relation(_in_klein_triple(base, candidate, gens), base.powers)
                assert by_triple == verify_relation(candidate, expanded)
                checked += by_triple
        assert checked == len(result.relations) > 0


class TestHilbertCountCertificate:
    """Each scanned degree's reduced form has H(d) rows, the number of
    Klein monomials of degree d with c <= 1; generators that miss an
    invariant raise instead of giving a short relation list."""

    def test_every_dropped_generator_is_caught(self):
        # Z/7 x O*: each of the five generators is needed at some pair sum
        base = klein_invariants(GroupFamily.BINARY_OCTAHEDRAL)
        gens = TestKleinTripleCheck.OCTAHEDRAL_PRODUCT
        for k in range(len(gens)):
            with pytest.raises(RuntimeError, match="Hilbert count"):
                bounded_degree_relations(base, gens[:k] + gens[k + 1:])

    def test_dropped_x_cubed_is_caught_at_degree_12(self):
        # Z/3 x D*_8 without x^3: at degree 12, x^2 y, y^3 and
        # z^2 = x y^2 - 4 x^3 span 3 of x^3, x^2 y, x y^2 and y^3
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        with pytest.raises(RuntimeError, match="rank 3 at degree 12, Hilbert count 4"):
            bounded_degree_relations(base, [(2, 1, 0), (0, 3, 0), (0, 0, 1)], 24)


def reference_bounded_degree_relations(base, gens, degree_bound=None, expected_count=None):
    """The multiples-and-quotient scan: per weighted degree, the kernel over
    the descending exponents, reduced modulo every multiple of every earlier
    relation, then the reduced echelon form of the nonzero residues.

    It runs on the integer normal forms, so a kernel vector w stands for
    the relation with coefficients w times the column factors, which
    base.relation_coefficients applies.  Each relation is kept with
    its integer vector, whose shifts stand for its multiples: the column
    factor of a product of Klein monomials exceeds that of the relation's
    own monomial by a factor common to all its terms, since at one weighted
    degree the power of z has one parity."""
    gens = [tuple(g) for g in gens]
    weights = tuple(base.degree(g) for g in gens)
    if degree_bound is None:
        degree_bound = 2 * sum(sorted(weights)[-2:])
    check_degree_bound(degree_bound)
    nvars = len(gens)
    relations = []
    step = gcd(*weights)
    for degree in range(step, degree_bound + 1, step):
        if expected_count is not None and len(relations) >= expected_count:
            break
        exponents = weighted_exponents(weights, degree)[::-1]
        index = {alpha: k for k, alpha in enumerate(exponents)}
        rows = {}
        for col, alpha in enumerate(exponents):
            for monomial, coeff in base.normal_form(base.power_product(alpha, gens)).items():
                rows.setdefault(monomial, {})[col] = coeff
        kernel = nullspace_basis([rows[m] for m in sorted(rows, reverse=True)], len(exponents))
        form = {}
        for relation, vector in relations:
            for gamma in weighted_exponents(weights, degree - relation.weighted_degree()):
                insert_row(form, {
                    index[tuple(a + g for a, g in zip(alpha, gamma))]: x
                    for alpha, x in vector.items()
                })
        residues = [residue for residue in (reduce_row(form, row) for row in kernel) if residue]
        targets = [base.power_product(alpha, gens) for alpha in exponents]
        for lead, row in rref(residues).items():
            coeffs = base.relation_coefficients(row, targets, lead)
            relation = MultiPoly(nvars, weights, {exponents[k]: x for k, x in coeffs.items()})
            assert verify_relation(_in_klein_triple(base, relation, gens), base.powers)
            relations.append((relation, {exponents[k]: x for k, x in row.items()}))
    relations = [relation for relation, _ in relations]
    relations.sort(key=lambda r: (r.weighted_degree(), grlex_key(r.leading_exponent())))
    return RelationSet(tuple(relations), degree_bound, expected_count)


# Z/m x D* links b;(2,1)(2,1)(n,q) and Z/m x T*, O*, I* links b;(2,1)(3,q)(p,q')
QUADRATIC_CRITERION_LINKS = [
    f"{b};(2,1)(2,1)({n},{q})"
    for b in (2, 3) for n in range(2, 8) for q in range(1, n) if gcd(n, q) == 1
] + [
    f"{b};(2,1)(3,{q})({p},{r})"
    for b in (2, 3) for q in (1, 2) for p in (3, 4, 5) for r in range(1, p) if gcd(p, r) == 1
]


@pytest.fixture(scope="module")
def pipeline_relation_calls():
    """(base, gens, args, result) of every bounded_degree_relations call the
    pipeline makes on QUADRATIC_CRITERION_LINKS; D' and T' links make none."""
    from singmap import pipeline

    calls = []

    def recording(base, gens, *args):
        calls.append((base, gens, args, bounded_degree_relations(base, gens, *args)))
        return calls[-1][3]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "bounded_degree_relations", recording)
        for shorthand in QUADRATIC_CRITERION_LINKS:
            try:
                pipeline.synthesize_map(pipeline.parse_seifert_shorthand(shorthand))
            except UnsupportedFamilyError:
                pass
    return calls


class TestQuadraticPartCriterion:
    """bounded_degree_relations reads each degree's new relations off their
    parts of total degree <= 2; the multiples-and-quotient scan above is the
    reference it must match exactly."""

    DIRECT_CALLS = [
        # Z/5 x D*_28: x1^3 x5 and x1^2 x2 x3 are both x^15 y z at degree 90,
        # so a high column repeats an earlier one
        (GroupFamily.BINARY_DIHEDRAL, 7,
         [(5, 0, 0), (4, 1, 0), (1, 0, 1), (0, 5, 0), (0, 1, 1)], 90),
        # Z/5 x D*_12: x1 x5 and x2 x3^2 are both x^5 y^2 z at degree 40, so
        # a high column equals a low one and gives a relation
        (GroupFamily.BINARY_DIHEDRAL, 3,
         [(5, 0, 0), (3, 0, 1), (1, 1, 0), (0, 5, 0), (0, 2, 1)], 40),
        *((GroupFamily.BINARY_DIHEDRAL, n, KLEIN_TRIPLE, 4 * n + 4) for n in (2, 3, 4, 5)),
        (GroupFamily.BINARY_DIHEDRAL, 2, KLEIN_TRIPLE, 12),
        (GroupFamily.BINARY_DIHEDRAL, 2, [(3, 0, 0), (2, 1, 0), (0, 3, 0), (0, 0, 1)], 24),
        (GroupFamily.BINARY_TETRAHEDRAL, None, KLEIN_TRIPLE, 20),
        (GroupFamily.BINARY_TETRAHEDRAL, None, KLEIN_TRIPLE, 24),
        (GroupFamily.BINARY_TETRAHEDRAL, None, KLEIN_TRIPLE, 48),
        (GroupFamily.BINARY_TETRAHEDRAL, None, KLEIN_TRIPLE, None),
        (GroupFamily.BINARY_OCTAHEDRAL, None, TestKleinTripleCheck.OCTAHEDRAL_PRODUCT, 98),
    ]

    @pytest.mark.parametrize("family, n, gens, bound", DIRECT_CALLS)
    @pytest.mark.parametrize("with_wahl", [False, True])
    def test_direct_calls_match_the_reference(self, family, n, gens, bound, with_wahl):
        base = klein_invariants(family, n)
        count = wahl_relation_count(len(gens)) if with_wahl else None
        found = bounded_degree_relations(base, gens, bound, count).to_dict()
        assert found == reference_bounded_degree_relations(base, gens, bound, count).to_dict()

    def test_pipeline_links_match_the_reference(self, pipeline_relation_calls):
        assert len(pipeline_relation_calls) > len(QUADRATIC_CRITERION_LINKS) // 2
        for base, gens, args, result in pipeline_relation_calls:
            expected = reference_bounded_degree_relations(base, gens, *args)
            assert result.to_dict() == expected.to_dict(), gens
            assert result.complete

    def test_every_relation_is_a_primitive_integer_vector(self, pipeline_relation_calls):
        # each coefficient an integer on the symbol 1 or s5, the integer
        # coordinates with gcd 1, and the graded-lex leading coefficient a
        # positive integer
        on_one_or_s5 = {BASIS_SYMBOLS.index(""), BASIS_SYMBOLS.index("s5")}
        for _, gens, _, result in pipeline_relation_calls:
            for relation in result.relations:
                coeffs = relation.terms.values()
                for coeff in coeffs:
                    symbols = {k for k, x in enumerate(coeff.num) if x}
                    assert coeff.den == 1 and len(symbols) == 1, (gens, relation)
                    assert symbols <= on_one_or_s5, (gens, relation)
                assert gcd(*(x for coeff in coeffs for x in coeff.num)) == 1, (gens, relation)
                lead = relation.terms[relation.leading_exponent()]
                assert lead.num[0] > 0 and not any(lead.num[1:]), (gens, relation)

    def test_every_relation_has_a_quadratic_term(self, pipeline_relation_calls):
        # the criterion rests on this: a minimal relation of a rational
        # singularity is never in m^3
        for _, gens, _, result in pipeline_relation_calls:
            for relation in result.relations:
                assert any(sum(alpha) == 2 for alpha in relation.terms), (gens, relation)

    def test_one_elimination_per_scanned_degree(self, monkeypatch):
        # the E8 triple has weights 12, 20, 30 and default bound 100, so the
        # pair sums 24, 32, 40, 42, 50, 60 are its six scanned degrees
        from singmap import relations

        calls = []

        def counting(rows):
            calls.append(1)
            return rref(rows)

        monkeypatch.setattr(relations, "rref", counting)
        base = klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL)
        found = bounded_degree_relations(base, KLEIN_TRIPLE)
        assert len(found.relations) == 1
        assert len(calls) == 6

    def test_one_kernel_vector_per_relation(self, monkeypatch):
        # the reduced form names the relations' columns, so no kernel vector
        # is read and then dropped: Z/5 x O* has Wahl's count 3
        from singmap import pipeline, relations

        calls = []

        def counting(form, free):
            calls.append(free)
            return kernel_vector(form, free)

        monkeypatch.setattr(relations, "kernel_vector", counting)
        link = pipeline.parse_seifert_shorthand("2;(2,1)(3,1)(4,3)")
        found = pipeline.synthesize_map(link).relations
        assert found.complete and len(found.relations) == 3
        assert len(calls) == 3


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
        u = BivariatePoly.monomial(1, 1, 0)
        v = BivariatePoly.monomial(1, 0, 1)
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
        _, antidiag = generator_matrices(d)
        uv = parse_bivariate("u*v")
        assert uv.substitute_linear(antidiag) == -uv
        assert not check_invariance(uv, [antidiag])

    def test_constant_invariant(self):
        d = GroupDescriptor(GroupFamily.BINARY_ICOSAHEDRAL, (), 1, 120)
        gens = generator_matrices(d)
        assert check_invariance(BivariatePoly.constant(1), gens)
