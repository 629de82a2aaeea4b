"""Tests for invariant generation: cyclic monomials, the classical triples,
product-group congruence search and minimalization."""

import pytest

from singmap.exactmath import BivariatePoly, parse_bivariate
from singmap.groups import GroupDescriptor, GroupFamily, generator_matrices
from singmap.invariants import (
    cyclic_invariant_generators,
    klein_invariants,
    minimalize_generators,
    monomials_from_exponents,
    product_invariant_monomials,
    semigroup_member,
)
from singmap.linkdata import LensData, seifert_to_plumbing
from singmap.resolution import multiplicity_and_embdim
from singmap.relations import check_invariance
from math import gcd


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
        assert all(p.is_homogeneous() for p in basis.generators)
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


class TestMinimalize:
    def test_dihedral_candidates_reduce_to_four(self):
        base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2).generators
        triples = product_invariant_monomials((4, 4, 6), 3)
        candidates = []
        for a1, a2, a3 in triples:
            candidates.append(base[0] ** a1 * base[1] ** a2 * base[2] ** a3)
        kept = minimalize_generators(candidates, target_count=4)
        expected = [
            parse_bivariate("u^6*v^6"),
            parse_bivariate("u^8*v^4 + u^4*v^8"),
            parse_bivariate("u^12 + 3*u^8*v^4 + 3*u^4*v^8 + v^12"),
            parse_bivariate("u^5*v - u*v^5"),
        ]
        assert kept == expected

    def test_cyclic_monomials_already_minimal(self):
        polys = monomials_from_exponents(cyclic_invariant_generators(5, 2))
        assert minimalize_generators(polys, target_count=4) == polys

    def test_power_eliminated(self):
        u = BivariatePoly.u()
        kept = minimalize_generators([u ** 2, u ** 4], target_count=1)
        assert kept == [u ** 2]

    def test_degree_bound_skips_large_candidates(self):
        u = BivariatePoly.u()
        kept = minimalize_generators([u ** 2, u ** 4], target_count=1, degree_bound=3)
        assert kept == [u ** 2, u ** 4]  # u^4 is above the bound, so untouched


def test_map_string():
    from singmap.invariants import InvariantBasis

    basis = InvariantBasis.from_polys(
        monomials_from_exponents(cyclic_invariant_generators(5, 2))
    )
    assert basis.map_string() == "F(u,v) = (u^5, u^3*v, u*v^2, v^5)"
