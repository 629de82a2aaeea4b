"""Tests for invariant generation: cyclic monomials, the classical triples
with Klein's relation and normal form, product-group congruence search and
minimalization."""

import io
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from singmap import invariants
from singmap.cli import main
from singmap.exactmath import (
    BivariatePoly,
    ExactScalar,
    Factorizations,
    ONE,
    Powers,
    SQRT5,
    format_bivariate,
    grlex_key,
    parse_bivariate,
    parse_multi,
    rref,
)
from singmap.groups import GroupDescriptor, GroupFamily, check_invariance, generator_matrices
from singmap.invariants import (
    InvariantError,
    KleinBasis,
    cyclic_invariant_generators,
    expressible_in,
    klein_invariants,
    minimalize_generators,
    monomials_from_exponents,
    product_invariant_monomials,
    semigroup_member,
)
from singmap.linkdata import LensData, seifert_to_plumbing
from singmap.resolution import multiplicity_and_embdim
from itertools import product
from math import gcd

from test_exactmath import weighted_exponents


class TestSemigroupMember:
    def test_sum_of_two(self):
        assert semigroup_member((4, 3), [(5, 0), (3, 1), (1, 2)])

    def test_double(self):
        assert semigroup_member((2, 4), [(1, 2)])

    def test_parity_obstruction(self):
        assert not semigroup_member((1, 1), [(2, 0), (0, 2)])

    def test_zero_is_member(self):
        assert semigroup_member((0, 0), [])

    def test_three_dimensional(self):
        assert semigroup_member((2, 2, 2), [(1, 1, 0), (1, 1, 2)])
        assert not semigroup_member((1, 0, 1), [(1, 1, 0), (0, 0, 2)])


class TestCyclicInvariants:
    def test_5_2(self):
        assert cyclic_invariant_generators(5, 2) == [(5, 0), (3, 1), (1, 2), (0, 5)]

    def test_2_1(self):
        assert cyclic_invariant_generators(2, 1) == [(2, 0), (1, 1), (0, 2)]

    def test_7_3(self):
        assert cyclic_invariant_generators(7, 3) == [(7, 0), (4, 1), (1, 2), (0, 7)]

    def test_smooth(self):
        assert cyclic_invariant_generators(1, 0) == [(1, 0), (0, 1)]

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            cyclic_invariant_generators(6, 3)

    def test_congruence_and_minimality(self):
        for p in range(2, 13):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                gens = cyclic_invariant_generators(p, q)
                for a, b in gens:
                    assert (a + q * b) % p == 0
                for k, g in enumerate(gens):
                    others = gens[:k] + gens[k + 1 :]
                    assert not semigroup_member(g, others)

    def test_count_is_embedding_dimension(self):
        for p in range(2, 13):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                gens = cyclic_invariant_generators(p, q)
                report = multiplicity_and_embdim(seifert_to_plumbing(LensData(p, q)))
                assert len(gens) == report.embedding_dimension


    def test_long_chain_closed_form(self):
        # L(p, p - 1) is A_{p-1}: x^p, xy, y^p
        assert cyclic_invariant_generators(4000, 3999) == [(4000, 0), (1, 1), (0, 4000)]
        gens = cyclic_invariant_generators(4000, 1)
        assert len(gens) == 4001
        assert gens == [(4000 - b, b) for b in range(4001)]


def reference_cyclic_basis(p, q):
    """Minimal nonzero elements of {(a, b) in N^2 : a + q b = 0 mod p}.

    Every nonzero element lies above one of (p, 0), ((-q b) mod p, b) for
    0 < b < p, (0, p); a candidate is a sum of two nonzero elements iff
    another candidate lies below it componentwise, and the difference is
    then again in the semigroup.
    """
    candidates = [(p, 0)] + [((-q * b) % p, b) for b in range(1, p)] + [(0, p)]
    return [
        c for c in candidates
        if not any(g != c and g[0] <= c[0] and g[1] <= c[1] for g in candidates)
    ]


class TestCyclicClosedFormAgainstSearch:
    def test_reference_agrees_with_semigroup_member(self):
        for p, q in [(5, 2), (7, 3), (11, 4), (12, 5), (13, 1)]:
            basis = reference_cyclic_basis(p, q)
            for k, g in enumerate(basis):
                assert not semigroup_member(g, basis[:k] + basis[k + 1 :])

    def test_every_coprime_pair_below_60(self):
        checked = 0
        for p in range(2, 60):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    assert cyclic_invariant_generators(p, q) == reference_cyclic_basis(p, q), (p, q)
                    checked += 1
        assert checked == 1085


class TestKleinInvariants:
    def test_tetrahedral_degrees(self):
        basis = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        assert basis.degrees == (6, 8, 12)

    def test_octahedral_p2(self):
        basis = klein_invariants(GroupFamily.BINARY_OCTAHEDRAL)
        assert basis.generators[1] == parse_bivariate("u^8 + v^8 + 14*u^4*v^4")
        assert basis.degrees == (12, 8, 18)

    def test_dihedral_n2_p3(self):
        basis = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        assert basis.generators[2] == parse_bivariate("u^5*v - u*v^5")
        assert basis.degrees == (4, 4, 6)

    def test_icosahedral_degrees_and_homogeneity(self):
        basis = klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL)
        assert basis.degrees == (12, 20, 30)
        assert [p.homogeneous_degree() for p in basis.generators] == [12, 20, 30]
        assert len(basis.generators[2].terms) == 14

    @pytest.mark.parametrize(
        "family,n",
        [
            (GroupFamily.BINARY_DIHEDRAL, 1),
            (GroupFamily.BINARY_DIHEDRAL, 2),
            (GroupFamily.BINARY_DIHEDRAL, 4),
            (GroupFamily.BINARY_TETRAHEDRAL, None),
            (GroupFamily.BINARY_OCTAHEDRAL, None),
            (GroupFamily.BINARY_ICOSAHEDRAL, None),
        ],
    )
    def test_invariance_under_exact_matrices(self, family, n):
        basis = klein_invariants(family, n)
        params = (n,) if n else ()
        order = {GroupFamily.BINARY_DIHEDRAL: 4 * (n or 0)}.get(family, 1)
        descriptor = GroupDescriptor(family, params, 1, max(order, 1))
        gens = generator_matrices(descriptor)
        for poly in basis.generators:
            assert check_invariance(poly, gens)

    def test_dihedral_without_exact_root(self):
        # n = 3 has no exact zeta_6; the congruence route still verifies
        basis = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 3)
        assert basis.degrees == (4, 6, 8)


# the triples as coefficient tables, kept as a reference independent of the
# ground form, Hessian and Jacobian they are now built from
TABLE_TRIPLES = {
    GroupFamily.BINARY_TETRAHEDRAL: [
        "u*v^5 - u^5*v",
        "u^8 + 14*u^4*v^4 + v^8",
        "u^12 - 33*u^8*v^4 - 33*u^4*v^8 + v^12",
    ],
    GroupFamily.BINARY_OCTAHEDRAL: [
        "u^10*v^2 - 2*u^6*v^6 + u^2*v^10",
        "u^8 + 14*u^4*v^4 + v^8",
        "u^17*v - 34*u^13*v^5 + 34*u^5*v^13 - u*v^17",
    ],
    GroupFamily.BINARY_ICOSAHEDRAL: [
        "s5*u^12 - 22*u^10*v^2 - 33*s5*u^8*v^4 + 44*u^6*v^6 - 33*s5*u^4*v^8"
        " - 22*u^2*v^10 + s5*v^12",
        "-3*u^20 - 38*s5*u^18*v^2 + 57*u^16*v^4 - 456*s5*u^14*v^6 + 1482*u^12*v^8"
        " + 988*s5*u^10*v^10 + 1482*u^8*v^12 - 456*s5*u^6*v^14 + 57*u^4*v^16"
        " - 38*s5*u^2*v^18 - 3*v^20",
        "225*u^29*v + 580*s5*u^27*v^3 + 15921*u^25*v^5 - 20880*s5*u^23*v^7"
        " + 90045*u^21*v^9 + 40020*s5*u^19*v^11 + 570285*u^17*v^13"
        " - 570285*u^13*v^17 - 40020*s5*u^11*v^19 - 90045*u^9*v^21"
        " + 20880*s5*u^7*v^23 - 15921*u^5*v^25 - 580*s5*u^3*v^27 - 225*u*v^29",
    ],
}


def table_dihedral_triple(n):
    """u^2 v^2, u^2n + v^2n and u v (u^2n - v^2n)."""
    return [
        BivariatePoly.monomial(1, 2, 2),
        BivariatePoly.from_terms([(1, 2 * n, 0), (1, 0, 2 * n)]),
        BivariatePoly.from_terms([(1, 2 * n + 1, 1), (-1, 1, 2 * n + 1)]),
    ]


def forms_triple(family, n=None):
    """(x, y, c J(x, y)) from the forms of _klein_forms."""
    x, y, c, _ = invariants._klein_forms(family, n)
    return [x, y, invariants._jacobian(x, y).scale(c)]


class TestKleinConstructions:
    """Each triple is a ground form x, a second form y and c J(x, y); the
    derived triples must equal the coefficient tables above."""

    @pytest.mark.parametrize("family", [
        GroupFamily.BINARY_TETRAHEDRAL, GroupFamily.BINARY_OCTAHEDRAL,
        GroupFamily.BINARY_ICOSAHEDRAL,
    ])
    def test_polyhedral_triples_match_the_tables(self, family):
        expected = [parse_bivariate(text) for text in TABLE_TRIPLES[family]]
        assert forms_triple(family) == expected

    @pytest.mark.parametrize("n", range(1, 12))
    def test_dihedral_triples_match_the_table(self, n):
        assert forms_triple(GroupFamily.BINARY_DIHEDRAL, n) == table_dihedral_triple(n)

    def test_no_forms_for_other_families(self):
        with pytest.raises(invariants.UnsupportedFamilyError):
            invariants._klein_forms(GroupFamily.CYCLIC, None)

    def test_hessian_of_the_octahedron_form(self):
        phi = parse_bivariate("u*v^5 - u^5*v")
        assert invariants._hessian(phi) == parse_bivariate("u^8 + 14*u^4*v^4 + v^8").scale(-25)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_jacobian_of_the_dihedral_forms(self, n):
        x, y, _ = table_dihedral_triple(n)
        expected = BivariatePoly.from_terms([(-4 * n, 2 * n + 1, 1), (4 * n, 1, 2 * n + 1)])
        assert invariants._jacobian(x, y) == expected


@pytest.fixture
def klein_memo(monkeypatch):
    """An empty memo of verified Klein bases for the test; the process's
    own dict is put back afterwards."""
    memo = {}
    monkeypatch.setattr(invariants, "_KLEIN_BASES", memo)
    return memo


class TestKleinMemo:
    # the seven links of the product-map benchmark workload
    PRODUCT_MAP = (
        "2;(2,1)(3,2)(3,2)", "2;(2,1)(3,2)(4,3)", "2;(2,1)(3,2)(5,4)", "2;(2,1)(2,1)(5,2)",
        "2;(2,1)(3,1)(3,1)", "2;(2,1)(3,1)(4,3)", "2;(2,1)(3,2)(4,1)",
    )

    def test_one_basis_per_family(self, klein_memo):
        tetra = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        assert klein_invariants(GroupFamily.BINARY_TETRAHEDRAL, None) is tetra
        assert klein_invariants(GroupFamily.BINARY_TETRAHEDRAL, 5) is tetra
        d2 = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        d3 = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 3)
        assert d2 is not d3 and d2.degrees != d3.degrees
        assert klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2) is d2
        assert len(klein_memo) == 3

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_dihedral_index_refuses_non_integers(self, klein_memo, n):
        # read before it keys the memo, so the answer cannot depend on
        # whether D*_4 or D*_8 was built before
        klein_invariants(GroupFamily.BINARY_DIHEDRAL, 1)
        klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        with pytest.raises(TypeError):
            klein_invariants(GroupFamily.BINARY_DIHEDRAL, n)
        assert len(klein_memo) == 2

    def test_each_triple_is_verified_once(self, klein_memo, monkeypatch):
        calls = []
        real = invariants.generator_matrices

        def counting(descriptor):
            calls.append((descriptor.family, descriptor.params[0] if descriptor.params else None))
            return real(descriptor)

        monkeypatch.setattr(invariants, "generator_matrices", counting)
        for family, n in [(GroupFamily.BINARY_ICOSAHEDRAL, None), (GroupFamily.BINARY_DIHEDRAL, 2),
                          (GroupFamily.BINARY_DIHEDRAL, 3)] * 3:
            klein_invariants(family, n)
        klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL, 7)
        assert calls == [(GroupFamily.BINARY_ICOSAHEDRAL, None), (GroupFamily.BINARY_DIHEDRAL, 2),
                         (GroupFamily.BINARY_DIHEDRAL, 3)]

    @pytest.mark.parametrize("corrupt, message", [
        # x replaced by u v, which the group does not fix
        (lambda x, y, c, s: (parse_bivariate("u*v"), y, c, s), "not fixed"),
        # an invariant triple on which z^2 = S fails: z doubled
        (lambda x, y, c, s: (x, y, 2 * c, s), "Klein relation"),
    ])
    def test_failed_verification_stores_nothing(self, klein_memo, monkeypatch, corrupt, message):
        real = invariants._klein_forms
        monkeypatch.setattr(invariants, "_klein_forms", lambda *args: corrupt(*real(*args)))
        for _ in range(2):
            with pytest.raises(InvariantError, match=message):
                klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
            assert klein_memo == {}
        monkeypatch.setattr(invariants, "_klein_forms", real)
        assert klein_invariants(GroupFamily.BINARY_TETRAHEDRAL).generators == tuple(
            forms_triple(GroupFamily.BINARY_TETRAHEDRAL))

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("family, n", [
        (GroupFamily.BINARY_ICOSAHEDRAL, None),
        (GroupFamily.BINARY_OCTAHEDRAL, None),
        (GroupFamily.BINARY_DIHEDRAL, 2),  # exact generator matrices
        (GroupFamily.BINARY_DIHEDRAL, 3),  # congruence and J
    ])
    def test_one_wrong_coefficient_stores_nothing(self, klein_memo, monkeypatch, family, n,
                                                  which):
        def plus_lead(poly):
            return poly + BivariatePoly.monomial(1, *poly.leading_exponent())

        # x or y through the forms, z = c J(x, y) through the Jacobian
        if which == 2:
            jacobian = invariants._jacobian
            monkeypatch.setattr(invariants, "_jacobian", lambda f, g: plus_lead(jacobian(f, g)))
        else:
            forms = invariants._klein_forms

            def corrupted(*args):
                x, y, c, square = forms(*args)
                xy = [x, y]
                xy[which] = plus_lead(xy[which])
                return (*xy, c, square)

            monkeypatch.setattr(invariants, "_klein_forms", corrupted)
        # x = u^2 v^2 of D* stays invariant when scaled; only z^2 = S fails
        dihedral_x = family is GroupFamily.BINARY_DIHEDRAL and which == 0
        with pytest.raises(InvariantError, match="Klein relation" if dihedral_x else "not fixed"):
            klein_invariants(family, n)
        assert klein_memo == {}

    def test_output_does_not_depend_on_map_order(self, klein_memo):
        def map_all(links):
            klein_memo.clear()
            outputs = {}
            for link in links:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(["map", "--seifert", link])
                outputs[link] = (code, out.getvalue(), err.getvalue())
            return outputs

        forward = map_all(self.PRODUCT_MAP)
        assert map_all(reversed(self.PRODUCT_MAP)) == forward
        assert {code for code, _, _ in forward.values()} == {0}


def triple_product(powers, exponent):
    """x^a y^b z^c from the powers of a Powers over the triple (x, y, z),
    without its kept monomials."""
    product = BivariatePoly.constant(1)
    for i, e in enumerate(exponent):
        product = product * powers.power(i, e)
    return product


def scalar_power(scalar, e):
    """scalar^e for e >= 0 by repeated products."""
    power = ONE
    for _ in range(e):
        power = power * scalar
    return power


def normal_form_in_uv(powers, form, y_scale=ONE):
    """Substitute the Klein triple of powers into an integer normal form
    {(i, j, e): c} over x, y' = y_scale y and z."""
    total = BivariatePoly({})
    for exponent, coeff in form.items():
        coeff = coeff * scalar_power(y_scale, exponent[1])
        total = total + triple_product(powers, exponent).scale(coeff)
    return total


class TestKleinNormalForm:
    # family, D* index, weighted degree up to which every monomial is
    # checked, and the scale of y' = scale * y and the den of
    # S = S'(x, y') / den: the integer form of x^a y^b z^c is its normal form
    # times the column factor scale^b den^(c div 2)
    CASES = [
        (GroupFamily.BINARY_DIHEDRAL, 2, 36, ONE, 1),
        (GroupFamily.BINARY_DIHEDRAL, 3, 40, ONE, 1),
        (GroupFamily.BINARY_DIHEDRAL, 5, 52, ONE, 1),
        (GroupFamily.BINARY_TETRAHEDRAL, None, 60, ONE, 1),
        (GroupFamily.BINARY_OCTAHEDRAL, None, 72, ONE, 1),
        (GroupFamily.BINARY_ICOSAHEDRAL, None, 120, SQRT5, 4),
    ]

    @pytest.mark.parametrize("family,n,top,y_scale,den", CASES)
    def test_normal_form_is_the_product(self, family, n, top, y_scale, den):
        base = klein_invariants(family, n)
        powers = Powers(base.generators)

        def factor(t):
            return scalar_power(y_scale, t[1]) * den ** (t[2] // 2)

        z_powers = set()
        for degree in range(1, top + 1):
            monomials = weighted_exponents(base.degrees, degree)
            for t in monomials:
                form = base.normal_form(t)
                assert all(e in (0, 1) for _, _, e in form)
                assert all(type(c) is int for c in form.values())
                expanded = normal_form_in_uv(powers, form, y_scale)
                assert expanded == triple_product(powers, t).scale(factor(t)), t
                # a kernel vector's entries are scaled by their column factors
                coeffs = base.relation_coefficients({0: 1, 1: 1}, [monomials[0], t], 0)
                lead, other = coeffs.values()
                assert other * factor(monomials[0]) == lead * factor(t)
                z_powers.add(t[2])
        assert {0, 1, 2, 3, 4} <= z_powers

    def test_relation_vanishes_and_a_wrong_square_does_not(self):
        base = klein_invariants(GroupFamily.BINARY_OCTAHEDRAL)
        assert base.relation().substitute(list(base.generators)).is_zero()
        assert base.relation() == parse_multi("108*x1^3 - x1*x2^3 + x3^2", base.degrees)
        # I*: integer coefficients with content 1, y^3 on s5
        icosahedral = klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL)
        assert icosahedral.relation() == parse_multi(
            "27*x1^5 + 25*s5*x2^3 + 4*x3^2", icosahedral.degrees)
        flipped = tuple((-c if (i, j) == (3, 0) else c, i, j) for c, i, j in base.square)
        wrong = KleinBasis(base.generators, base.degrees, square=flipped)
        assert not wrong.relation().substitute(list(base.generators)).is_zero()
        z = base.generators[2]
        assert normal_form_in_uv(Powers(wrong.generators), wrong.normal_form((0, 0, 2))) != z * z

    @pytest.mark.parametrize("family,n,top,y_scale,den", CASES)
    def test_monomials_of_a_degree(self, family, n, top, y_scale, den):
        base = klein_invariants(family, n)
        for degree in range(top + 1):
            assert sorted(base.monomials(degree)) == sorted(weighted_exponents(base.degrees, degree))

    def test_leading_exponent_adds_up(self):
        base = klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL)
        for t in [(5, 0, 0), (0, 3, 0), (2, 1, 3), (0, 0, 2)]:
            assert base.leading_exponent(t) == base.powers.monomial(t).leading_exponent()


class TestKeptExpansions:
    """Powers keeps every Klein-monomial expansion of a family's basis."""

    # family, D* index, weighted degree up to which every monomial is checked
    CASES = [
        (GroupFamily.BINARY_DIHEDRAL, 2, 36),
        (GroupFamily.BINARY_DIHEDRAL, 5, 52),
        (GroupFamily.BINARY_TETRAHEDRAL, None, 60),
        (GroupFamily.BINARY_OCTAHEDRAL, None, 72),
        (GroupFamily.BINARY_ICOSAHEDRAL, None, 90),
    ]

    @pytest.mark.parametrize("family,n,top", CASES)
    def test_kept_expansions_are_the_products(self, klein_memo, family, n, top):
        base = klein_invariants(family, n)
        powers = Powers(base.generators)
        rng = random.Random(top)
        for degree in range(1, top + 1):
            monomials = weighted_exponents(base.degrees, degree)
            if not monomials:
                continue
            # a combination before any of its monomials is kept, and after
            terms = {t: ExactScalar.rational(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
                     for t in monomials}
            first = base.powers.combination(terms)
            fresh = BivariatePoly({})
            for t in monomials:
                kept = base.powers.monomial(t)
                assert kept == triple_product(powers, t), t
                assert base.powers.monomial(t) is kept and base.powers.monomial(list(t)) is kept
                fresh = fresh + kept.scale(terms[t])
            assert first == fresh == base.powers.combination(terms)


class TestProductMonomials:
    def test_dihedral_example(self):
        expected = [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (0, 0, 1)]
        assert product_invariant_monomials((4, 4, 6), 3) == expected
        # the halved equation has the same solutions
        assert product_invariant_monomials((2, 2, 3), 3) == expected

    def test_tetrahedral_m5_list(self):
        expected = [
            (5, 0, 0),
            (3, 0, 1),
            (2, 1, 0),
            (1, 3, 0),
            (1, 0, 2),
            (0, 5, 0),
            (0, 1, 1),
            (0, 0, 5),
        ]
        assert product_invariant_monomials((3, 4, 6), 5) == expected
        assert product_invariant_monomials((6, 8, 12), 5) == expected

    def test_trivial_modulus(self):
        assert product_invariant_monomials((4, 4, 6), 1) == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        ]

    def test_congruence_holds(self):
        degrees = (6, 8, 12)
        for m in (5, 7, 11):
            for a in product_invariant_monomials(degrees, m):
                assert sum(x * d for x, d in zip(a, degrees)) % m == 0


def reference_product_monomials(degrees, m):
    """The congruence semigroup's Hilbert basis by semigroup membership:
    every nonzero solution in the box [0..m]^j that is not a sum of the
    other box solutions, sorted descending."""
    solutions = [
        a for a in product(range(m + 1), repeat=len(degrees))
        if any(a) and sum(x * d for x, d in zip(a, degrees)) % m == 0
    ]
    return sorted(
        (a for k, a in enumerate(solutions)
         if not semigroup_member(a, solutions[:k] + solutions[k + 1:])),
        reverse=True,
    )


class TestProductMonomialsAgainstSearch:
    # the degree triples of D*_8, D*_12, D*_16, D*_20, T*, O* and I*
    FAMILY_DEGREES = [
        (4, 4, 6), (4, 6, 8), (4, 8, 10), (4, 10, 12), (6, 8, 12), (12, 8, 18), (12, 20, 30),
    ]

    def test_family_degrees_up_to_m_13(self):
        for degrees in self.FAMILY_DEGREES:
            for m in range(1, 14):
                assert product_invariant_monomials(degrees, m) == \
                    reference_product_monomials(degrees, m), (degrees, m)

    # pairs, whose prefixes have one immediate predecessor, and quadruples,
    # whose prefixes have up to three
    @pytest.mark.parametrize("degrees, top", [
        ((1, 1), 13), ((2, 3), 13), ((4, 6), 13), ((5, 7), 13),
        ((1, 2, 3, 4), 6), ((4, 4, 6, 9), 6), ((3, 5, 7, 11), 5), ((6, 8, 12, 12), 5),
    ])
    def test_other_lengths(self, degrees, top):
        for m in range(1, top + 1):
            assert product_invariant_monomials(degrees, m) == \
                reference_product_monomials(degrees, m), (degrees, m)


class TestMinimalize:
    def test_dihedral_candidates_reduce_to_four(self):
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        triples = product_invariant_monomials((4, 4, 6), 3)
        kept = minimalize_generators(base, triples, target_count=4)
        assert kept == [(3, 0, 0), (2, 1, 0), (0, 3, 0), (0, 0, 1)]
        expected = [
            parse_bivariate("u^6*v^6"),
            parse_bivariate("u^8*v^4 + u^4*v^8"),
            parse_bivariate("u^12 + 3*u^8*v^4 + 3*u^4*v^8 + v^12"),
            parse_bivariate("u^5*v - u*v^5"),
        ]
        assert [base.powers.monomial(t) for t in kept] == expected

    def test_cyclic_monomials_already_minimal(self):
        # the degree-3 monomials in x, y alone: without z no relation applies
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        triples = [(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0)]
        assert minimalize_generators(base, triples, target_count=3) == triples

    def test_power_eliminated(self):
        # x, y, z generate the whole ring, so x^2 is dropped at degree 8
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        kept = minimalize_generators(base, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)])
        assert kept == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("n,m,kept", [
        # Z/13 x D*_28 (3;(2,1)(2,1)(7,1)) and Z/15 x D*_32 (3;(2,1)(2,1)(8,1))
        (7, 13, [(13, 0, 0), (9, 0, 1), (3, 1, 0), (1, 9, 0), (1, 0, 3),
                 (0, 13, 0), (0, 10, 1), (0, 4, 3), (0, 1, 4)]),
        (8, 15, [(15, 0, 0), (11, 1, 0), (3, 0, 1), (2, 1, 2), (1, 8, 1),
                 (0, 15, 0), (0, 12, 1), (0, 9, 2), (0, 3, 4), (0, 0, 5)]),
    ])
    def test_shared_leading_monomials_are_ordered_by_support(self, n, m, kept):
        # candidates with the same leading (u, v) monomial are scanned in the
        # order of their sorted (u, v) supports; the survivors depend on it
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, n)
        candidates = product_invariant_monomials(base.degrees, m)
        leads = [base.leading_exponent(c) for c in candidates]
        assert len(set(leads)) < len(leads)
        assert minimalize_generators(base, candidates, target_count=len(kept)) == kept

    def test_dropped_candidate_fails_the_hilbert_count(self):
        # Z/5 x T*: x^2 y is the only candidate that reaches x^2 y at degree
        # 20, so without it the degree has rank 1 of the 2 that H(20) counts
        base = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
        candidates = product_invariant_monomials(base.degrees, 5)
        assert (2, 1, 0) in minimalize_generators(base, candidates)
        with pytest.raises(RuntimeError, match="rank 1 at degree 20, Hilbert count 2"):
            minimalize_generators(base, [c for c in candidates if c != (2, 1, 0)])

    def test_z_squared_is_rewritten(self):
        # x*y^2 = z^2 + 4*x^3 in the D*_8 ring: expressible in z and x^3 only
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
        assert expressible_in(base, (1, 2, 0), [(3, 0, 0), (0, 0, 1)])
        assert not expressible_in(base, (1, 2, 0), [(3, 0, 0), (0, 3, 0)])
        assert not expressible_in(base, (0, 0, 1), [(3, 0, 0), (1, 2, 0)])


def reference_minimalize(base, candidates):
    """Greedy deletion from the top: visit the candidates in descending
    graded-lex order of their leading (u, v) monomial, ties by sorted (u, v)
    support, and drop each one expressible in the rest.  The survivors keep
    their input order."""
    candidates = [tuple(c) for c in candidates]
    leads = [base.leading_exponent(c) for c in candidates]
    shared = Counter(leads)

    def scan_key(k):
        lead = leads[k]
        support = tuple(sorted(base.powers.monomial(candidates[k]).terms)) if shared[lead] > 1 else ()
        return grlex_key(lead), support

    kept = list(range(len(candidates)))
    for k in sorted(kept, key=scan_key, reverse=True):
        if expressible_in(base, candidates[k], [candidates[j] for j in kept if j != k]):
            kept.remove(k)
    return [candidates[j] for j in kept]


def reference_products_up_to(base, factors, top):
    """{weighted degree: the distinct Klein monomials prod factors^alpha of
    that degree} for every degree up to top, by an unbounded knapsack over
    degrees; a degree with none is absent."""
    reach = {0: {(0, 0, 0)}}
    for x, y, z in factors:
        weight = base.degree((x, y, z))
        for total in range(weight, top + 1):  # ascending, so a factor may repeat
            below = reach.get(total - weight)
            if below:
                reach.setdefault(total, set()).update(
                    (a + x, b + y, c + z) for a, b, c in below
                )
    return reach


def reference_products_of_degree(base, factors, degree):
    """The distinct Klein monomials prod factors^alpha of the given weighted
    degree."""
    return reference_products_up_to(base, factors, degree).get(degree, set())


class TestMinimalizeAgainstDeletion:
    CASES = [
        (GroupFamily.BINARY_DIHEDRAL, n, m) for n in (4, 5, 9) for m in (1, 5, 7, 11, 13)
    ] + [
        (tag, None, m)
        for tag in (GroupFamily.BINARY_TETRAHEDRAL, GroupFamily.BINARY_OCTAHEDRAL,
                    GroupFamily.BINARY_ICOSAHEDRAL)
        for m in (1, 5, 7)
    ] + [
        # Z/35 x D*_36: the largest modulus of the pinned maps
        (GroupFamily.BINARY_DIHEDRAL, 9, 35),
    ]

    @pytest.mark.parametrize("tag,n,m", CASES)
    def test_same_survivors_as_greedy_deletion(self, tag, n, m):
        # insertion from the bottom keeps what deletion from the top keeps,
        # and with the minimal count the pass may stop early
        base = klein_invariants(tag, n)
        candidates = product_invariant_monomials(base.degrees, m)
        kept = reference_minimalize(base, candidates)
        assert minimalize_generators(base, candidates) == kept
        assert minimalize_generators(base, candidates, target_count=len(kept)) == kept
        for k, survivor in enumerate(kept):
            assert not expressible_in(base, survivor, kept[:k] + kept[k + 1:]), survivor
        for dropped in set(candidates) - set(kept):
            assert expressible_in(base, dropped, kept), dropped

    @pytest.mark.parametrize("tag,n,m", CASES)
    def test_monomials_over_a_candidate_span_the_products_below(self, tag, n, m):
        # at each candidate degree d, the Klein monomials with a candidate
        # strictly below them span what the kept generators of degree < d
        # span with their products: the two column sets have one rank, and
        # together no more
        base = klein_invariants(tag, n)
        candidates = product_invariant_monomials(base.degrees, m)
        kept = minimalize_generators(base, candidates)
        for degree in sorted({base.degree(c) for c in candidates}):
            over = [t for t in base.monomials(degree)
                    if any(c != t and all(a <= b for a, b in zip(c, t)) for c in candidates)]
            below = [k for k in kept if base.degree(k) < degree]
            products = sorted(reference_products_of_degree(base, below, degree))
            ranks = [len(rref(base.degree_matrix(columns)))
                     for columns in (over, products, over + products)]
            assert ranks[0] == ranks[1] == ranks[2], (degree, ranks)

    @pytest.mark.parametrize("tag,n,m", CASES)
    def test_products_of_degree_match_the_knapsack(self, tag, n, m):
        # the targets of Factorizations.columns, which expressible_in spans
        # with, are every product of the candidates at each degree, asked of
        # one instance in ascending degree as a relation scan asks
        base = klein_invariants(tag, n)
        candidates = product_invariant_monomials(base.degrees, m)
        top = max(base.degree(c) for c in candidates)
        factorizations = Factorizations(candidates, [base.degree(c) for c in candidates])
        reach = reference_products_up_to(base, candidates, top)
        for degree in range(top + 1):
            assert {t for _, t in factorizations.columns(degree)} == (
                reach.get(degree, set())), degree


def test_formatted_generators():
    from singmap.invariants import InvariantBasis

    basis = InvariantBasis.from_polys(
        monomials_from_exponents(cyclic_invariant_generators(5, 2))
    )
    assert [format_bivariate(p) for p in basis.generators] == ["u^5", "u^3*v", "u*v^2", "v^5"]
