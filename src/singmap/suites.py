"""Named verification suites, shared by the CLI and the acceptance tests.

Each suite returns a list of (check name, passed, detail) triples; a suite
passes when every check does.  Everything here is exact: no tolerances.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .exactmath import parse_bivariate
from .linkdata import (
    Family,
    FamilyTag,
    LensData,
    SeifertData,
    euler_invariants,
    negdef_check,
    seifert_to_plumbing,
)
from .resolution import closed_form_multiplicity, multiplicity_and_embdim
from .groups import (
    GroupFamily,
    binary_group,
    check_invariance,
    generator_matrices,
    group_closure_order,
    has_unit_determinant,
)
from .invariants import cyclic_invariant_generators, klein_invariants
from .relations import verify_relation

Check = Tuple[str, bool, str]

_POLYHEDRAL = (
    GroupFamily.BINARY_TETRAHEDRAL,
    GroupFamily.BINARY_OCTAHEDRAL,
    GroupFamily.BINARY_ICOSAHEDRAL,
)


# Rows of the small cyclic map table: (p, q) -> expected exponent pairs.
CYCLIC_TABLE = {
    (2, 1): [(2, 0), (1, 1), (0, 2)],
    (3, 1): [(3, 0), (2, 1), (1, 2), (0, 3)],
    (3, 2): [(3, 0), (1, 1), (0, 3)],
    (4, 1): [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)],
    (4, 3): [(4, 0), (1, 1), (0, 4)],
    (5, 1): [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5)],
    (5, 2): [(5, 0), (3, 1), (1, 2), (0, 5)],
    (5, 4): [(5, 0), (1, 1), (0, 5)],
    (6, 1): [(6, 0), (5, 1), (4, 2), (3, 3), (2, 4), (1, 5), (0, 6)],
    (6, 5): [(6, 0), (1, 1), (0, 6)],
    (7, 1): [(7, 0), (6, 1), (5, 2), (4, 3), (3, 4), (2, 5), (1, 6), (0, 7)],
    (7, 2): [(7, 0), (5, 1), (3, 2), (1, 3), (0, 7)],
    (7, 3): [(7, 0), (4, 1), (1, 2), (0, 7)],
    (7, 6): [(7, 0), (1, 1), (0, 7)],
}


def suite_cyclic_table() -> List[Check]:
    """Synthesized cyclic maps against the 14-row table, with embedding
    dimension read off the lens-space plumbing."""
    checks = []
    for (p, q), expected in sorted(CYCLIC_TABLE.items()):
        got = cyclic_invariant_generators(p, q)
        report = multiplicity_and_embdim(seifert_to_plumbing(LensData(p, q)))
        ok = got == expected and report.embedding_dimension == len(expected)
        detail = f"map exponents {got}, embdim {report.embedding_dimension}"
        checks.append((f"({p},{q})", ok, detail))
    return checks


def _ade_cases():
    """(name, Klein relation z^2 - S(x, y), triple) for each family."""
    cases = [
        (f"D (n={n}): x(y^2-4x^{n})-z^2", klein_invariants(GroupFamily.BINARY_DIHEDRAL, n))
        for n in (2, 3, 4, 5)
    ]
    cases += [
        ("E6: 108x^4-y^3+z^2", klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)),
        ("E7: 108x^3-xy^3+z^2", klein_invariants(GroupFamily.BINARY_OCTAHEDRAL)),
        ("E8: 27x^5+25*s5*y^3+4z^2", klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL)),
    ]
    return [(name, base.relation(), base.generators) for name, base in cases]


def suite_ade_equations() -> List[Check]:
    """The four hypersurface equations vanish identically under exact
    substitution of their invariant triples."""
    checks = []
    for name, relation, gens in _ade_cases():
        ok = verify_relation(relation, list(gens))
        checks.append((name, ok, "substitutes to zero" if ok else "NONZERO residue"))
    return checks


def _invariance_generator_sets():
    groups = [binary_group(GroupFamily.BINARY_DIHEDRAL, n) for n in (1, 2, 4)]
    groups += [binary_group(family) for family in _POLYHEDRAL]
    return [
        (group.label(), klein_invariants(group.family, *group.params), generator_matrices(group))
        for group in groups
    ]


def suite_invariance() -> List[Check]:
    """Every invariant triple is fixed by both generator matrices; a
    deliberately corrupted exponent must fail (negative control)."""
    checks = []
    for label, basis, gens in _invariance_generator_sets():
        for k, poly in enumerate(basis.generators, start=1):
            ok = check_invariance(poly, gens)
            checks.append((f"{label} p{k}", ok, f"degree {basis.degrees[k - 1]}"))
    # negative control: nudge one exponent of the octahedral degree-12 form
    corrupted = parse_bivariate("u^10*v^2 + u^2*v^10 - 2*u^7*v^5")
    octahedral = binary_group(GroupFamily.BINARY_OCTAHEDRAL)
    failed = not check_invariance(corrupted, generator_matrices(octahedral))
    checks.append(("corrupted exponent rejected", failed, "negative control"))
    return checks


def suite_group_orders() -> List[Check]:
    """Closure orders of the exact generator sets, plus unit determinants."""
    groups = [binary_group(family) for family in _POLYHEDRAL]
    groups.append(binary_group(GroupFamily.BINARY_DIHEDRAL, 2))
    checks = []
    for group in groups:
        gens = generator_matrices(group)
        got = group_closure_order(gens)
        dets = all(has_unit_determinant(m) for m in gens)
        checks.append(
            (group.label(), got == group.order and dets, f"closure {got}, unit determinants {dets}")
        )
    return checks


def family_sweep(b_max: int = 5, p_max: int = 7):
    """Every finite-family instance with b <= b_max and leg parameters <= p_max."""
    from math import gcd

    coprime_pairs = [
        (p, q) for p in range(2, p_max + 1) for q in range(1, p) if gcd(p, q) == 1
    ]
    instances = []

    def add(link, tag, params, b):
        instances.append((link, Family(tag, params, *euler_invariants(link)), b))

    for p, q in coprime_pairs:
        add(LensData(p, q), FamilyTag.LENS, (p, q), None)
    for b in range(2, b_max + 1):
        for p, q in coprime_pairs:
            add(SeifertData(b, [(2, 1), (2, 1), (p, q)]), FamilyTag.DIHEDRAL, (p, q), b)
        for q1 in (1, 2):
            for q2 in (1, 2):
                link = SeifertData(b, [(2, 1), (3, q1), (3, q2)])
                add(link, FamilyTag.TETRAHEDRAL, tuple(sorted((q1, q2))), b)
            for q2 in (1, 3):
                link = SeifertData(b, [(2, 1), (3, q1), (4, q2)])
                add(link, FamilyTag.OCTAHEDRAL, (q1, q2), b)
            for q2 in (1, 2, 3, 4):
                link = SeifertData(b, [(2, 1), (3, q1), (5, q2)])
                add(link, FamilyTag.ICOSAHEDRAL, (q1, q2), b)
    return instances


def suite_multiplicity_crosscheck() -> List[Check]:
    """Laufer's report (multiplicity_and_embdim: -Z_min^2, clamped at 1 for
    the smooth point) equals the closed-form table with p_a(Z_min) = 0, and
    negative definiteness agrees with the sign of e(L), across the family
    sweep with b <= 5 and leg parameters <= 7."""
    instances = family_sweep(5, 7)
    failures = []
    count = 0
    for link, family, b in instances:
        count += 1
        graph = seifert_to_plumbing(link)
        negdef = negdef_check(graph)
        if isinstance(link, SeifertData) and negdef != (family.e < 0):
            failures.append(f"{link}: negdef {negdef} but e = {family.e}")
            continue
        if not negdef:
            continue
        report = multiplicity_and_embdim(graph)
        table_mult = closed_form_multiplicity(family, b)
        if not report.rational:
            failures.append(f"{link}: p_a = {report.arithmetic_genus}")
        elif report.multiplicity != table_mult:
            failures.append(f"{link}: Laufer {report.multiplicity} != closed form {table_mult}")
    ok = not failures
    detail = f"{count} instances" + ("" if ok else "; first failure: " + failures[0])
    return [("sweep b<=5, p<=7", ok, detail)]


SUITES: Dict[str, Callable[[], List[Check]]] = {
    "cyclic-table": suite_cyclic_table,
    "ade-equations": suite_ade_equations,
    "multiplicity-crosscheck": suite_multiplicity_crosscheck,
    "group-orders": suite_group_orders,
    "invariance": suite_invariance,
}


def run_suite(name: str) -> Tuple[bool, List[Check]]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checks = SUITES[name]()
    return all(ok for _, ok, _ in checks), checks
