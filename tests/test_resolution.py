"""Tests for Laufer's algorithm, rationality, multiplicity and the
closed-form tables."""

import random
from fractions import Fraction

import pytest

from singmap.linkdata import (
    Family,
    FamilyTag,
    LensData,
    LinkError,
    PlumbingGraph,
    SeifertData,
    euler_invariants,
    negdef_check,
    seifert_to_plumbing,
)
from singmap.resolution import (
    Cycle,
    closed_form_multiplicity,
    fundamental_cycle,
    multiplicity_and_embdim,
    rationality_and_genus,
)
from singmap.suites import family_sweep


def star(b, fibers):
    return seifert_to_plumbing(SeifertData(b, fibers))


def relabel(graph, order):
    """The graph with vertex order[k] renamed k."""
    new = {old: k for k, old in enumerate(order)}
    return PlumbingGraph(
        [graph.weights[old] for old in order],
        [(new[i], new[j]) for i, j in graph.edges],
    )


def naive_laufer(graph):
    """Laufer's sequence with no bookkeeping: add E_i at the first vertex
    with Z . E_i > 0, then recompute every product."""
    z = [1] * graph.size
    while True:
        products = [Cycle(tuple(z)).dot_vertex(graph, i) for i in range(graph.size)]
        offenders = [i for i, product in enumerate(products) if product > 0]
        if not offenders:
            return tuple(z)
        z[offenders[0]] += 1


class TestFundamentalCycle:
    def test_a2_chain(self):
        graph = PlumbingGraph([-2, -2], [(0, 1)])
        assert fundamental_cycle(graph).multiplicities == (1, 1)

    def test_single_minus_three(self):
        graph = PlumbingGraph([-3], [])
        assert fundamental_cycle(graph).multiplicities == (1,)

    def test_e8_cycle(self):
        graph = star(2, [(2, 1), (3, 2), (5, 4)])
        cycle = fundamental_cycle(graph)
        assert max(cycle.multiplicities) == 6
        assert cycle.self_intersection(graph) == -2
        # the classical E8 highest-root multiplicities as a multiset
        assert sorted(cycle.multiplicities) == [2, 2, 3, 3, 4, 4, 5, 6]

    def test_rejects_non_negative_definite(self):
        graph = PlumbingGraph([0], [])
        with pytest.raises(LinkError):
            fundamental_cycle(graph)

    def test_everywhere_at_least_one(self):
        for link, _, _ in family_sweep(4, 5):
            graph = seifert_to_plumbing(link)
            cycle = fundamental_cycle(graph)
            assert all(z >= 1 for z in cycle.multiplicities)

    def test_relabelling_permutes_the_cycle(self):
        # relabelling the vertices reorders Laufer's worklist; Z_min is the
        # same cycle, carried along by the relabelling
        rng = random.Random(1972)
        for link, _, _ in family_sweep(5, 7):
            graph = seifert_to_plumbing(link)
            cycle = fundamental_cycle(graph).multiplicities
            orders = [list(reversed(range(graph.size)))]
            orders += [rng.sample(range(graph.size), graph.size) for _ in range(3)]
            for order in orders:
                relabelled = relabel(graph, order)
                assert fundamental_cycle(relabelled).multiplicities == tuple(
                    cycle[old] for old in order
                ), (link, order)

    def test_worklist_pushes_a_vertex_again(self):
        # a step that leaves its own vertex's product positive must push it
        # again; on this tree the worklist does so
        graph = PlumbingGraph(
            [-3, -2, -3, -2, -3, -2, -2, -2, -2, -2],
            [(0, 1), (1, 2), (0, 3), (1, 4), (3, 5), (5, 6), (5, 7), (0, 8), (1, 9)],
        )
        cycle = fundamental_cycle(graph).multiplicities
        assert cycle == naive_laufer(graph) == (2, 3, 1, 2, 1, 2, 1, 1, 1, 2)

    def test_matches_the_naive_sequence_on_random_trees(self):
        rng = random.Random(1959)
        checked = 0
        while checked < 300:
            size = rng.randint(2, 14)
            graph = PlumbingGraph(
                [rng.choice([-2, -3]) for _ in range(size)],
                [(rng.randrange(k), k) for k in range(1, size)],
            )
            if not negdef_check(graph):
                continue
            assert fundamental_cycle(graph).multiplicities == naive_laufer(graph), graph
            checked += 1


class TestRationality:
    def test_an_chain(self):
        for n in range(1, 8):
            graph = PlumbingGraph([-2] * n, [(i, i + 1) for i in range(n - 1)])
            cycle = fundamental_cycle(graph)
            p_a, rational = rationality_and_genus(graph, cycle)
            assert p_a == 0 and rational

    def test_e8(self):
        graph = star(2, [(2, 1), (3, 2), (5, 4)])
        p_a, rational = rationality_and_genus(graph, fundamental_cycle(graph))
        assert p_a == 0 and rational

    def test_single_minus_three(self):
        graph = PlumbingGraph([-3], [])
        p_a, rational = rationality_and_genus(graph, fundamental_cycle(graph))
        assert p_a == 0 and rational


class TestMultiplicityReport:
    def test_lens_5_2(self):
        report = multiplicity_and_embdim(seifert_to_plumbing(LensData(5, 2)))
        assert report.multiplicity == 3
        assert report.embedding_dimension == 4
        assert report.rational

    def test_e8_is_hypersurface(self):
        report = multiplicity_and_embdim(star(2, [(2, 1), (3, 2), (5, 4)]))
        assert report.multiplicity == 2
        assert report.embedding_dimension == 3

    def test_smooth_point(self):
        report = multiplicity_and_embdim(seifert_to_plumbing(LensData(1, 0)))
        assert report.multiplicity == 1
        assert report.embedding_dimension == 2

    def test_serialization_keys(self):
        report = multiplicity_and_embdim(seifert_to_plumbing(LensData(3, 2)))
        data = report.to_dict()
        assert set(data) == {
            "rational",
            "multiplicity",
            "embedding_dimension",
            "fundamental_cycle",
            "arithmetic_genus",
        }


def seifert_family(tag, params, b, fibers):
    """Family(tag, params) with the Euler invariants of {b; fibers}."""
    return Family(tag, params, *euler_invariants(SeifertData(b, fibers)))


def lens_family(p, q):
    return Family(FamilyTag.LENS, (p, q), *euler_invariants(LensData(p, q)))


class TestClosedForms:
    def test_tetrahedral_e6(self):
        family = seifert_family(FamilyTag.TETRAHEDRAL, (2, 2), 2, [(2, 1), (3, 2), (3, 2)])
        assert closed_form_multiplicity(family, 2) == 2

    def test_icosahedral_b3(self):
        family = seifert_family(FamilyTag.ICOSAHEDRAL, (1, 1), 3, [(2, 1), (3, 1), (5, 1)])
        assert closed_form_multiplicity(family, 3) == 7

    def test_dihedral_b3(self):
        family = seifert_family(FamilyTag.DIHEDRAL, (2, 1), 3, [(2, 1), (2, 1), (2, 1)])
        assert closed_form_multiplicity(family, 3) == 3

    def test_dihedral_b2_leading_twos(self):
        # (5, 3) expands to [2, 3]: one leading 2
        family = seifert_family(FamilyTag.DIHEDRAL, (5, 3), 2, [(2, 1), (2, 1), (5, 3)])
        assert closed_form_multiplicity(family, 2) == 3

    def test_lens_rows(self):
        assert closed_form_multiplicity(lens_family(5, 2)) == 3
        assert closed_form_multiplicity(lens_family(1, 0)) == 1
        assert closed_form_multiplicity(lens_family(7, 1)) == 7

    def test_rejects_unknown_parameters(self):
        # (4, 2) is no fiber, so these are the invariants {2; (2,1)(3,2)(4,2)} would have
        not_a_link = Family(FamilyTag.OCTAHEDRAL, (2, 2), Fraction(1, 12), Fraction(-1, 3))
        with pytest.raises(ValueError):
            closed_form_multiplicity(not_a_link, 2)
        with pytest.raises(ValueError):
            closed_form_multiplicity(seifert_family(FamilyTag.TETRAHEDRAL, (1, 1), 2, [(2, 1), (3, 1), (3, 1)]), None)

    def test_matches_laufer_on_sweep(self):
        for link, family, b in family_sweep(4, 6):
            graph = seifert_to_plumbing(link)
            report = multiplicity_and_embdim(graph)
            assert report.rational
            assert report.multiplicity == max(
                1, closed_form_multiplicity(family, b)
            ), (link, family)
