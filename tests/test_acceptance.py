"""Acceptance suite: every criterion exact, each with its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  All checks are exact (integer / rational / ring equality); the
only tolerances are the wall-clock budgets.
"""

import random
import time
from dataclasses import replace
from math import gcd

from singmap.exactmath import format_multi, parse_multi
from singmap.linkdata import (
    LensData,
    PlumbingGraph,
    SeifertData,
    euler_invariants,
    finite_pi1_family,
    hj_expand,
    hj_value,
    negdef_check,
    seifert_to_plumbing,
)
from singmap.resolution import (
    closed_form_multiplicity,
    fundamental_cycle,
    multiplicity_and_embdim,
    rationality_and_genus,
)
from singmap.groups import GroupFamily, group_from_seifert
from singmap.invariants import (
    cyclic_invariant_generators,
    monomials_from_exponents,
    product_invariant_monomials,
)
from singmap.relations import monomial_relations, verify_relation
from singmap.pipeline import synthesize_map
from singmap import suites
from singmap.suites import (
    family_sweep,
    suite_ade_equations,
    suite_cyclic_table,
    suite_group_orders,
    suite_invariance,
    suite_multiplicity_crosscheck,
)


def report(number, label, elapsed, budget):
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s < {budget}s)")


def test_criterion_1_cyclic_map_table():
    start = time.perf_counter()
    checks = suite_cyclic_table()
    assert len(checks) == 14
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "14-row cyclic map table, exponents and embedding dimensions", elapsed, 1)


def test_criterion_2_example_5_2():
    start = time.perf_counter()
    exponents = cyclic_invariant_generators(5, 2)
    assert exponents == [(5, 0), (3, 1), (1, 2), (0, 5)]
    generators = monomials_from_exponents(exponents)
    weights = [5, 4, 3, 5]
    # x = u^5 -> x1, z = u^3 v -> x2, w = u v^2 -> x3, y = v^5 -> x4
    stated = [
        "x2^5 - x1^3*x4",      # z^5 = x^3 y
        "x3^5 - x1*x4^2",      # w^5 = x y^2
        "x2^4*x3^3 - x1^3*x4^2",  # z^4 w^3 = x^3 y^2
        "x2^2*x3^4 - x1^2*x4^2",  # z^2 w^4 = x^2 y^2
    ]
    for text in stated:
        assert verify_relation(parse_multi(text, weights), generators), text
    discovered = monomial_relations(5, 2)
    oracle = parse_multi("x2*x3^2 - x1*x4", weights)  # z w^2 = x y
    assert oracle in discovered.relations
    for relation in discovered.relations:
        assert verify_relation(relation, generators)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "(5,2) generators, stated relations, z*w^2 - x*y discovered", elapsed, 1)


def test_criterion_3_ade_equations():
    start = time.perf_counter()
    checks = suite_ade_equations()
    assert len(checks) == 7  # D with n in 2..5, E6, E7, E8
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "A/D/E image equations substitute to zero exactly", elapsed, 10)


def test_criterion_4_invariance_suite():
    start = time.perf_counter()
    checks = suite_invariance()
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    names = [name for name, _, _ in checks]
    assert "corrupted exponent rejected" in names
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(4, "all invariant triples fixed by both generators; corruption fails", elapsed, 5)


def test_criterion_5_group_orders():
    start = time.perf_counter()
    checks = suite_group_orders()
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, "closure orders |T*|=24, |O*|=48, |I*|=120, |D*_8|=8", elapsed, 10)


def test_criterion_6_multiplicity_crosscheck():
    start = time.perf_counter()
    instances = family_sweep(5, 7)
    assert len(instances) > 100
    for link, family, b in instances:
        graph = seifert_to_plumbing(link)
        _, e = euler_invariants(link)
        assert negdef_check(graph) == (isinstance(link, LensData) or e < 0), link
        cycle = fundamental_cycle(graph)
        p_a, rational = rationality_and_genus(graph, cycle)
        assert rational, link
        laufer = max(1, -cycle.self_intersection(graph))
        table = max(1, closed_form_multiplicity(family, b))
        assert laufer == table, (link, laufer, table)
    # two-sided negative-definiteness vs Euler-number sign, all 3-fiber stars
    pairs = [(p, q) for p in range(2, 8) for q in range(1, p) if gcd(p, q) == 1]
    for b in range(2, 6):
        for f2 in pairs:
            for f3 in pairs:
                link = SeifertData(b, [(2, 1), f2, f3])
                _, e = euler_invariants(link)
                assert negdef_check(seifert_to_plumbing(link)) == (e < 0), link
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        6,
        f"-Z^2 = table, p_a = 0 on {len(instances)} instances; negdef iff e < 0",
        elapsed,
        30,
    )


def test_multiplicity_crosscheck_reads_laufers_report(monkeypatch):
    # the suite compares the report's multiplicity with the closed forms, so
    # a report one too high must fail it
    assert suite_multiplicity_crosscheck()[0][1]
    real = suites.multiplicity_and_embdim
    monkeypatch.setattr(suites, "multiplicity_and_embdim",
                        lambda graph: replace(real(graph), multiplicity=real(graph).multiplicity + 1))
    [(_, ok, detail)] = suite_multiplicity_crosscheck()
    assert not ok and "Laufer" in detail, detail


def test_criterion_7_group_formulas():
    start = time.perf_counter()
    expected_simple = [
        ((2, 2), GroupFamily.BINARY_TETRAHEDRAL, 3),  # E6 fibers (3, q1), (3, q2)
        ((2, 3), GroupFamily.BINARY_OCTAHEDRAL, 4),   # E7 fibers (3, 2), (4, 3)
        ((2, 4), GroupFamily.BINARY_ICOSAHEDRAL, 5),  # E8 fibers (3, 2), (5, 4)
    ]
    for (q1, q2), family, third_p in expected_simple:
        link = SeifertData(2, [(2, 1), (3, q1), (third_p, q2)])
        descriptor = group_from_seifert(finite_pi1_family(link))
        assert descriptor.family is family, link
        assert descriptor.cyclic_factor == 1, link
    for k in range(1, 6):
        link = SeifertData(2, [(2, 1), (2, 1), (k + 1, k)])
        descriptor = group_from_seifert(finite_pi1_family(link))
        assert descriptor.family is GroupFamily.BINARY_DIHEDRAL
        assert descriptor.cyclic_factor == 1
        assert descriptor.params == (k + 1,)
        assert descriptor.order == 4 * (k + 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(7, "E6/E7/E8 give bare T*/O*/I*; D_{k+3} chain gives D*_{4(k+1)}", elapsed, 1)


def test_criterion_8_dihedral_product_example():
    start = time.perf_counter()
    output = synthesize_map(SeifertData(3, [(2, 1), (2, 1), (2, 1)]))
    generators = list(output.invariant_map.generators)
    from singmap.exactmath import parse_bivariate

    assert generators == [
        parse_bivariate("u^6*v^6"),
        parse_bivariate("u^8*v^4 + u^4*v^8"),
        parse_bivariate("u^12 + 3*u^8*v^4 + 3*u^4*v^8 + v^12"),
        parse_bivariate("u^5*v - u*v^5"),
    ]
    weights = list(output.invariant_map.degrees)
    stated = [
        "x2*x4^2 + 4*x1*x2 - x1*x3",
        "x1*x4^2 + 4*x1^2 - x2^2",
        "x4^4 - 16*x1^2 + 8*x2^2 - x2*x3",
    ]
    for text in stated:
        assert verify_relation(parse_multi(text, weights), generators), text
    emitted = {format_multi(r) for r in output.relations.relations}
    assert emitted == set(stated)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(8, "dihedral product: four generators and all three relations", elapsed, 5)


def test_criterion_9_property_suites():
    start = time.perf_counter()
    # Hirzebruch-Jung round trip for every coprime pair with p <= 200
    count = 0
    for p in range(1, 201):
        for q in range(p == 1 and 0 or 1, p):
            if gcd(p, q) != 1:
                continue
            assert hj_value(hj_expand(p, q)) == (p, q)
            count += 1
    assert count > 12000
    # Laufer's Z_min is carried along by a relabelling of the vertices,
    # reversed and shuffled, across the family sweep
    shuffle = random.Random(1972)
    for link, _, _ in family_sweep(5, 7):
        graph = seifert_to_plumbing(link)
        cycle = fundamental_cycle(graph).multiplicities
        for order in (list(reversed(range(graph.size))), shuffle.sample(range(graph.size), graph.size)):
            new = {old: k for k, old in enumerate(order)}
            relabelled = PlumbingGraph(
                [graph.weights[old] for old in order],
                [(new[i], new[j]) for i, j in graph.edges],
            )
            assert fundamental_cycle(relabelled).multiplicities == tuple(cycle[old] for old in order)
    # relation soundness on 50 random cyclic actions
    rng = random.Random(20240911)
    pairs = [(p, q) for p in range(2, 21) for q in range(1, p) if gcd(p, q) == 1]
    for p, q in rng.sample(pairs, 50):
        exponents = cyclic_invariant_generators(p, q)
        generators = monomials_from_exponents(exponents)
        found = monomial_relations(p, q, 3 * max(a + b for a, b in exponents))
        for relation in found.relations:
            assert verify_relation(relation, generators), (p, q)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, "HJ round trip p<=200, relabelling invariance, relation soundness", elapsed, 60)


def test_documented_inconsistency_tetrahedral_m5():
    """The tetrahedral product with modulus 5 arises from b = 2 (embedding
    dimension 5), while embedding dimension 6 would need b = 3 (whose
    modulus is 11).  The m = 5 solution list itself is pinned here; no
    numeric claim is made for an embedding dimension under m = 5.
    """
    assert product_invariant_monomials((3, 4, 6), 5) == [
        (5, 0, 0),
        (3, 0, 1),
        (2, 1, 0),
        (1, 3, 0),
        (1, 0, 2),
        (0, 5, 0),
        (0, 1, 1),
        (0, 0, 5),
    ]
    b2 = SeifertData(2, [(2, 1), (3, 1), (3, 1)])
    descriptor = group_from_seifert(finite_pi1_family(b2))
    assert descriptor.cyclic_factor == 5
    assert multiplicity_and_embdim(seifert_to_plumbing(b2)).embedding_dimension == 5
    b3 = SeifertData(3, [(2, 1), (3, 1), (3, 1)])
    descriptor = group_from_seifert(finite_pi1_family(b3))
    assert descriptor.cyclic_factor == 11
    assert multiplicity_and_embdim(seifert_to_plumbing(b3)).embedding_dimension == 6
