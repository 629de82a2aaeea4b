"""Tests for Seifert data, plumbing graphs, continued fractions and the
finiteness criterion."""

import random
from fractions import Fraction
from math import gcd

import pytest

from singmap.linkdata import (
    Family,
    FamilyTag,
    LensData,
    LinkError,
    PlumbingGraph,
    SeifertData,
    _chain_to_lens,
    euler_invariants,
    finite_pi1_family,
    graph_to_link,
    hj_expand,
    hj_value,
    negdef_check,
    seifert_to_lens,
    seifert_to_plumbing,
)
from singmap.invariants import cyclic_invariant_generators
from singmap.suites import family_sweep


class TestHirzebruchJung:
    def test_examples(self):
        assert hj_expand(5, 2) == [3, 2]
        assert hj_expand(7, 1) == [7]
        assert hj_expand(1, 0) == []

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chain_of_twos(self, n):
        assert hj_expand(n + 1, n) == [2] * n

    def test_values(self):
        assert hj_value([3, 2]) == (5, 2)
        assert hj_value([2]) == (2, 1)
        assert hj_value([2, 2, 2]) == (4, 3)

    def test_round_trip_small(self):
        for p in range(2, 40):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    assert hj_value(hj_expand(p, q)) == (p, q)

    def test_rejects_non_coprime(self):
        with pytest.raises(LinkError):
            hj_expand(6, 2)
        with pytest.raises(LinkError):
            hj_expand(1, 1)

    @pytest.mark.parametrize("p, q", [(0, 0), (1, 1), (5, 0), (5, 5), (6, 4)])
    def test_one_lens_pair_rule(self, p, q):
        # LensData, hj_expand and the cyclic generators refuse a bad pair
        # with one exception and one message
        with pytest.raises(LinkError) as lens:
            LensData(p, q)
        for refuse in (hj_expand, cyclic_invariant_generators):
            with pytest.raises(LinkError) as other:
                refuse(p, q)
            assert str(other.value) == str(lens.value)

    def test_rejects_entries_below_two(self):
        with pytest.raises(LinkError):
            hj_value([2, 1, 2])

    @pytest.mark.parametrize("cf", [[2.5], [2, True], ["3"]])
    def test_value_refuses_non_integers(self, cf):
        with pytest.raises(TypeError):
            hj_value(cf)


class TestSeifertToPlumbing:
    def test_d4_star(self):
        link = SeifertData(2, [(2, 1), (2, 1), (2, 1)])
        graph = seifert_to_plumbing(link)
        assert graph.weights == (-2, -2, -2, -2)
        assert sorted(graph.valences()) == [1, 1, 1, 3]

    def test_lens_bamboo(self):
        graph = seifert_to_plumbing(LensData(5, 2))
        assert graph.weights == (-3, -2)
        assert graph.edges == ((0, 1),)

    def test_e8_graph(self):
        link = SeifertData(2, [(2, 1), (3, 2), (5, 4)])
        graph = seifert_to_plumbing(link)
        assert graph.weights == (-2,) * 8
        assert is_tree(graph)
        assert graph.valences().count(3) == 1  # one central vertex, legs 1/2/4

    def test_smooth_point(self):
        graph = seifert_to_plumbing(LensData(1, 0))
        assert graph.weights == (-1,)
        assert graph.edges == ()

    def test_fibers_with_p1_dropped(self):
        link = SeifertData(3, [(1, 0), (2, 1), (1, 0)])
        assert link.fibers == ((2, 1),)

    def test_equal_links_compare_equal_however_written(self):
        # fibers in any order, with or without (1, 0); edges either way round
        assert SeifertData(2, [(5, 4), (1, 0), (3, 1), (2, 1)]) == SeifertData(2, [(2, 1), (3, 1), (5, 4)])
        assert PlumbingGraph([-2, -3], [(1, 0)]).edges == ((0, 1),)

    @pytest.mark.parametrize("fiber", [(0, 1), (2, -1)])
    def test_bad_fiber_refused(self, fiber):
        with pytest.raises(LinkError, match=rf"bad fiber \({fiber[0]}, {fiber[1]}\)"):
            SeifertData(2, [(2, 1), fiber])

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_p1_fiber_with_nonzero_q_rejected(self, q):
        # (1, q) shifts the Euler number by q, so dropping it would change the link
        with pytest.raises(LinkError, match=rf"fiber \(1, {q}\) is not in normal form"):
            SeifertData(2, [(2, 1), (2, 1), (3, 1), (1, q)])

    def test_normal_form_enforced(self):
        with pytest.raises(LinkError):
            SeifertData(2, [(4, 2)])
        with pytest.raises(LinkError):
            SeifertData(2, [(3, 3)])

    # int() would truncate 2.9 to 2 and read "3" as 3; refused where it is
    # built, not later in seifert_to_plumbing
    @pytest.mark.parametrize("b, fibers", [
        (2.9, [(2, 1), (3, 1), (5, 4)]),
        (2, [(2.2, 1), (3, 1), (5, 4)]),
        (2, [(2, 1.0), (3, 1), (5, 4)]),
        ("2", [(2, 1), (3, 1), (5, 4)]),
        # a bool is an int subclass, but True is not the fiber (2, 1)
        (2, [(2, True), (3, 1), (5, 4)]),
        (2.0, ((2, 1), (3, 1), (5, 4))),
        (2, ((2, 1), (3.0, 1), (5, 4))),
        (2, ((2, 1), (3, 1), (5, "4"))),
    ])
    def test_constructor_refuses_non_integers(self, b, fibers):
        with pytest.raises(TypeError):
            SeifertData(b, fibers)

    @pytest.mark.parametrize("p, q", [(1.0, 0), (5.0, 2.0), (5, 2.0), ("5", 2), (True, False), (3, True)])
    def test_lens_refuses_non_integers(self, p, q):
        # refused by the lens-pair rule itself, not later in lcm or gcd, so
        # by every reader of a lens pair
        for read in (LensData, hj_expand, cyclic_invariant_generators):
            with pytest.raises(TypeError):
                read(p, q)

    def test_constructors_keep_integers(self):
        assert LensData(5, 2) == LensData(5, 2) and LensData(1, 0).p == 1
        data = SeifertData(2, [[2, 1], [3, 1], [5, 4]])
        assert data.fibers == ((2, 1), (3, 1), (5, 4))
        assert data == SeifertData(2, [(5, 4), (3, 1), (2, 1)])

    @pytest.mark.parametrize("weights, edges", [
        ([-2.7, -3.2], [(0, 1)]),
        ([-2, -3], [(0, 1.9)]),
        (["-2", -3], [(0, 1)]),
        # not the edge (0, 1)
        ([-2, -2], [(False, True)]),
        ((-2.5, True), ((0, 1),)),
    ])
    def test_plumbing_refuses_non_integers(self, weights, edges):
        with pytest.raises(TypeError):
            PlumbingGraph(weights, edges)

    def test_output_always_normal_form(self):
        for b in range(2, 6):
            for p, q in [(2, 1), (5, 2), (7, 6), (5, 3)]:
                graph = seifert_to_plumbing(
                    SeifertData(b, [(2, 1), (2, 1), (p, q)])
                )
                assert all(w <= -2 for w in graph.weights)


class TestNegativeDefinite:
    def test_e8_is_negative_definite(self):
        link = SeifertData(2, [(2, 1), (3, 2), (5, 4)])
        assert negdef_check(seifert_to_plumbing(link))

    def test_zero_vertex(self):
        assert not negdef_check(PlumbingGraph([0], []))

    def test_b1_star_fails(self):
        # e(L) = -1 + 3/2 > 0
        link = SeifertData(1, [(2, 1), (2, 1), (2, 1)])
        graph = seifert_to_plumbing(link)
        assert not negdef_check(graph)
        _, e = euler_invariants(link)
        assert e > 0

    def test_matches_euler_sign_exhaustively(self):
        # all three-fiber stars with b <= 5, p_i <= 7, singular or not
        pairs = [
            (p, q) for p in range(2, 8) for q in range(1, p) if gcd(p, q) == 1
        ]
        checked = 0
        for b in range(2, 6):
            for f1 in [(2, 1)]:
                for f2 in pairs:
                    for f3 in pairs:
                        link = SeifertData(b, [f1, f2, f3])
                        _, e = euler_invariants(link)
                        graph = seifert_to_plumbing(link)
                        assert negdef_check(graph) == (e < 0), link
                        checked += 1
        assert checked == 4 * len(pairs) ** 2


    def test_rejects_connected_non_tree(self):
        triangle = PlumbingGraph([-2, -2, -2], [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(LinkError, match="tree"):
            negdef_check(triangle)
        doubled = PlumbingGraph([-2, -2], [(0, 1), (0, 1)])
        with pytest.raises(LinkError, match="tree"):
            negdef_check(doubled)

    def test_rejects_disconnected(self):
        for graph in (
            PlumbingGraph([-2, -2], []),
            PlumbingGraph([-2, -2, -2, -2], [(0, 1), (0, 1), (2, 3)]),
            PlumbingGraph([], []),
        ):
            with pytest.raises(LinkError, match="graph must be connected"):
                negdef_check(graph)


def is_tree(graph: PlumbingGraph) -> bool:
    """Reference: connected, read off the walk's length, with one edge fewer
    than vertices."""
    return len(graph.edges) == graph.size - 1 and len(graph.walk()) == graph.size


# -- reference: dense Sylvester test by fraction-free (Bareiss) elimination,
# cubic in the number of vertices but independent of the tree structure


def reference_negdef(graph: PlumbingGraph) -> bool:
    n = graph.size
    work = [[0] * n for _ in range(n)]
    for i, w in enumerate(graph.weights):
        work[i][i] = -w
    for a, b in graph.edges:
        work[a][b] -= 1
        work[b][a] -= 1
    previous_pivot = 1
    for k in range(n):
        # the Bareiss pivot is the (k+1)-st leading principal minor of -M
        if work[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * work[k][k] - work[i][k] * work[k][j]) // previous_pivot
        previous_pivot = work[k][k]
    return True


def random_tree(rng: random.Random) -> PlumbingGraph:
    """1-12 vertices, weights in [-5, 0], random shape, shuffled labels."""
    n = rng.randint(1, 12)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[v], labels[rng.randrange(v)]) for v in range(1, n)]
    weights = [rng.randint(-5, 0) for _ in range(n)]
    return PlumbingGraph(weights, edges)


class TestNegativeDefiniteAgainstReference:
    def test_reference_on_known_cases(self):
        e8 = SeifertData(2, [(2, 1), (3, 2), (5, 4)])
        assert reference_negdef(seifert_to_plumbing(e8))
        b1 = SeifertData(1, [(2, 1), (2, 1), (2, 1)])
        assert not reference_negdef(seifert_to_plumbing(b1))

    def test_random_trees(self):
        rng = random.Random(20261018)
        definite = 0
        for _ in range(6000):
            graph = random_tree(rng)
            assert is_tree(graph)
            expected = reference_negdef(graph)
            assert negdef_check(graph) == expected, graph
            definite += expected
        # both answers are exercised
        assert 500 < definite < 5500

    def test_random_stars_and_bamboos(self):
        # the two shapes the pipeline builds, with long legs
        rng = random.Random(4)
        for _ in range(300):
            legs = rng.choice([1, 2, 3])
            fibers = []
            for _ in range(legs):
                p = rng.randint(2, 30)
                q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
                fibers.append((p, q))
            link = SeifertData(rng.randint(1, 4), fibers)
            graph = seifert_to_plumbing(link)
            assert negdef_check(graph) == reference_negdef(graph), link


def reference_preorder(graph: PlumbingGraph, root: int):
    """(vertex, parent, depth) of a tree by recursion: each vertex, then the
    subtrees of its children in ascending order."""
    out = []

    def visit(vertex, parent, depth):
        out.append((vertex, parent, depth))
        for child in graph.neighbors(vertex):
            if child != parent:
                visit(child, vertex, depth + 1)

    visit(root, -1, 0)
    return out


class TestWalk:
    def test_parents_first_and_one_step_deeper(self):
        rng = random.Random(20261020)
        for _ in range(1500):
            graph = random_tree(rng)
            root = rng.randrange(graph.size)
            walk = graph.walk(root)
            assert walk[0] == (root, -1, 0)
            assert sorted(v for v, _, _ in walk) == list(range(graph.size))
            position = {v: k for k, (v, _, _) in enumerate(walk)}
            depth = {v: d for v, _, d in walk}
            for vertex, parent, d in walk[1:]:
                assert parent in graph.neighbors(vertex), graph
                assert position[parent] < position[vertex], graph
                assert d == depth[parent] + 1, graph
            assert walk == reference_preorder(graph, root), graph

    def test_cycles_and_components_end(self):
        triangle = PlumbingGraph([-2, -2, -2], [(0, 1), (1, 2), (0, 2)])
        assert triangle.walk() == [(0, -1, 0), (1, 0, 1), (2, 1, 2)]
        assert not is_tree(triangle)
        # a triangle and a lone vertex have a tree's edge count, so is_tree walks
        apart = PlumbingGraph([-2] * 4, [(0, 1), (1, 2), (0, 2)])
        assert [v for v, _, _ in apart.walk(2)] == [2, 0, 1]
        assert not is_tree(apart)
        with pytest.raises(LinkError, match="connected tree"):
            graph_to_link(apart)
        square = PlumbingGraph([-2] * 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert [v for v, _, _ in square.walk(2)] == [2, 1, 0, 3]
        assert not is_tree(square)
        # two components, the second with as many edges as the tree count allows
        for graph in (PlumbingGraph([-2] * 4, [(0, 1), (2, 3)]),
                      PlumbingGraph([-2] * 4, [(0, 1), (0, 1), (2, 3)])):
            assert [v for v, _, _ in graph.walk()] == [0, 1]
            assert [v for v, _, _ in graph.walk(3)] == [3, 2]
            assert not is_tree(graph)
        empty = PlumbingGraph([], [])
        assert empty.walk() == [] and not is_tree(empty)

    def test_shuffled_plumbing_reads_back_as_the_normalized_link(self):
        # a lens reads back with the smaller of q and q^-1 mod p, the
        # reversed chain's q
        rng = random.Random(1981)
        for link, _, _ in family_sweep(5, 7):
            graph = seifert_to_plumbing(link)
            order = rng.sample(range(graph.size), graph.size)
            new = {old: k for k, old in enumerate(order)}
            shuffled = PlumbingGraph(
                [graph.weights[old] for old in order],
                [(new[i], new[j]) for i, j in graph.edges],
            )
            if isinstance(link, LensData):
                _, reversed_q = hj_value(hj_expand(link.p, link.q)[::-1])
                link = LensData(link.p, min(link.q, reversed_q))
            assert graph_to_link(shuffled) == link


def reference_chain_to_lens(chain):
    """The bamboo read from both ends, keeping the smaller q."""
    p1, q1 = hj_value(chain)
    p2, q2 = hj_value(chain[::-1])
    assert p1 == p2
    return p1, min(q1, q2)


def test_chain_to_lens_reads_the_other_end_as_the_inverse():
    count = 0
    for p in range(2, 400):
        for q in range(1, p):
            if gcd(p, q) == 1:
                chain = hj_expand(p, q)
                assert _chain_to_lens(chain) == reference_chain_to_lens(chain), (p, q)
                count += 1
    assert count == 48517
    assert _chain_to_lens([]) == (1, 0)


class TestAdjacency:
    def test_neighbors_match_edge_scan(self):
        rng = random.Random(7)
        for _ in range(200):
            graph = random_tree(rng)
            for i in range(graph.size):
                scan = sorted(
                    [b for a, b in graph.edges if a == i] + [a for a, b in graph.edges if b == i]
                )
                assert graph.neighbors(i) == tuple(scan)
                assert graph.neighbors(i) is graph.neighbors(i)

    def test_cached_adjacency_leaves_equality_and_hash(self):
        first = PlumbingGraph([-2, -3], [(0, 1)])
        second = PlumbingGraph([-2, -3], [(1, 0)])
        first.neighbors(0)
        assert first == second and hash(first) == hash(second)


def reference_euler_invariants(b, fibers):
    """chi = 2 - k + sum 1/p_i and e = -b + sum q_i/p_i, one Fraction per fiber."""
    chi, e = Fraction(2 - len(fibers)), Fraction(-b)
    for p, q in fibers:
        chi += Fraction(1, p)
        e += Fraction(q, p)
    return chi, e


class TestEulerInvariants:
    def test_lens_is_one_fiber_over_b_zero(self):
        assert euler_invariants(LensData(1, 0)) == reference_euler_invariants(0, [(1, 0)])
        assert euler_invariants(LensData(1, 0)) == (Fraction(2), Fraction(0))
        for p in range(2, 40):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    expected = reference_euler_invariants(0, [(p, q)])
                    assert euler_invariants(LensData(p, q)) == expected, (p, q)

    @pytest.mark.parametrize("b", [-3, 0, 1, 5])
    def test_no_fibers_matches_reference(self, b):
        link = SeifertData(b, [])
        assert euler_invariants(link) == reference_euler_invariants(b, []) == (2, -b)

    @pytest.mark.parametrize("b", [-4, -1, 0])
    def test_nonpositive_b_matches_reference(self, b):
        fibers = [(2, 1), (3, 2), (7, 3)]
        link = SeifertData(b, fibers)
        assert euler_invariants(link) == reference_euler_invariants(b, fibers)

    def test_seeded_corpus_matches_reference(self):
        rng = random.Random(19)
        for _ in range(2000):
            b = rng.randint(-5, 8)
            fibers = []
            for _ in range(rng.randint(0, 5)):
                p = rng.randint(2, 30)
                fibers.append((p, rng.choice([q for q in range(1, p) if gcd(p, q) == 1])))
            link = SeifertData(b, fibers)
            assert euler_invariants(link) == reference_euler_invariants(b, fibers), link

    def test_icosahedral_values(self):
        link = SeifertData(2, [(2, 1), (3, 1), (5, 1)])
        chi, e = euler_invariants(link)
        assert chi == Fraction(1, 30)
        assert e == Fraction(-29, 30)

    def test_no_fibers(self):
        link = SeifertData(2, [])
        assert euler_invariants(link) == (Fraction(2), Fraction(-2))

    def test_boundary_case_e_zero(self):
        link = SeifertData(1, [(2, 1), (2, 1)])
        _, e = euler_invariants(link)
        assert e == 0
        assert finite_pi1_family(link).tag is FamilyTag.NOT_FINITE


class TestFamilyRecognition:
    def test_family_carries_euler_invariants(self):
        for link, family, _ in family_sweep(12, 12):
            recognized = finite_pi1_family(link)
            assert (recognized.chi, recognized.e) == euler_invariants(link), link
            assert recognized == family, link

    def test_icosahedral(self):
        link = SeifertData(2, [(2, 1), (3, 1), (5, 1)])
        assert finite_pi1_family(link) == Family(FamilyTag.ICOSAHEDRAL, (1, 1), *euler_invariants(link))

    def test_lens(self):
        link = LensData(7, 3)
        assert finite_pi1_family(link) == Family(FamilyTag.LENS, (7, 3), *euler_invariants(link))

    def test_not_finite_2_3_7(self):
        link = SeifertData(2, [(2, 1), (3, 1), (7, 1)])
        chi, _ = euler_invariants(link)
        assert chi == Fraction(-1, 42)
        assert not finite_pi1_family(link).is_finite

    def test_dihedral_all_twos(self):
        link = SeifertData(3, [(2, 1), (2, 1), (2, 1)])
        assert finite_pi1_family(link) == Family(FamilyTag.DIHEDRAL, (2, 1), *euler_invariants(link))

    def test_two_fiber_data_reduces_to_lens(self):
        link = SeifertData(2, [(2, 1), (3, 1)])
        family = finite_pi1_family(link)
        assert family.tag is FamilyTag.LENS
        lens = seifert_to_lens(link)
        assert (lens.p, lens.q) == family.params
        # chain [2, 2, 3] evaluates to 7/5 read one way, 7/3 the other
        assert lens == LensData(7, 3)

    def test_four_fibers_not_finite(self):
        link = SeifertData(2, [(2, 1), (2, 1), (2, 1), (2, 1)])
        assert not finite_pi1_family(link).is_finite


class TestGraphInput:
    def test_bamboo_round_trip(self):
        graph = seifert_to_plumbing(LensData(7, 3))
        recovered = graph_to_link(graph)
        assert isinstance(recovered, LensData)
        assert recovered.p == 7
        assert recovered.q in (3, 5)  # 3 * 5 = 15 = 1 mod 7
        assert recovered.q == min(3, 5)

    def test_star_round_trip(self):
        link = SeifertData(3, [(2, 1), (3, 1), (5, 2)])
        recovered = graph_to_link(seifert_to_plumbing(link))
        assert recovered == link

    def test_single_minus_one_is_sphere(self):
        assert graph_to_link(PlumbingGraph([-1], [])) == LensData(1, 0)

    def test_reject_four_legs(self):
        graph = PlumbingGraph(
            [-2, -2, -2, -2, -2],
            [(0, 1), (0, 2), (0, 3), (0, 4)],
        )
        with pytest.raises(LinkError):
            graph_to_link(graph)

    def test_reject_disconnected(self):
        graph = PlumbingGraph([-2, -2], [])
        with pytest.raises(LinkError):
            graph_to_link(graph)

    def test_reject_weight_above_minus_two(self):
        graph = PlumbingGraph([-2, -1], [(0, 1)])
        with pytest.raises(LinkError):
            graph_to_link(graph)

    def test_star_round_trip_exhaustive(self):
        from singmap.suites import family_sweep

        for link, _, _ in family_sweep(5, 7):
            if isinstance(link, LensData):
                continue
            assert graph_to_link(seifert_to_plumbing(link)) == link
