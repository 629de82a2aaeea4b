"""Binary polyhedral groups, their invariant triples, and the A-D-E
hypersurface equations.

The binary dihedral, tetrahedral, octahedral and icosahedral groups sit in
SU(2) as unit quaternions.  Each has three generating invariant
polynomials; substituting them into one irreducible equation gives zero
identically, which exhibits the quotient as a hypersurface in C^3.
Everything below is exact arithmetic in Q[i, sqrt2, sqrt5]: no floats.
"""

from singmap.exactmath import format_bivariate, parse_multi
from singmap.groups import (
    GroupDescriptor,
    GroupFamily,
    check_invariance,
    generator_matrices,
    group_closure_order,
)
from singmap.invariants import klein_invariants
from singmap.relations import bounded_degree_relations, verify_relation

print("Group orders by exact closure enumeration")
print("=" * 50)
for family, params, expected in [
    (GroupFamily.BINARY_DIHEDRAL, (2,), 8),
    (GroupFamily.BINARY_TETRAHEDRAL, (), 24),
    (GroupFamily.BINARY_OCTAHEDRAL, (), 48),
    (GroupFamily.BINARY_ICOSAHEDRAL, (), 120),
]:
    descriptor = GroupDescriptor(family, params, 1, expected)
    order = group_closure_order(generator_matrices(descriptor))
    print(f"  {descriptor.label():8s} closure order {order}")

print()
print("Invariant triples and their degrees")
print("=" * 50)
for family, n in [
    (GroupFamily.BINARY_DIHEDRAL, 2),
    (GroupFamily.BINARY_TETRAHEDRAL, None),
    (GroupFamily.BINARY_OCTAHEDRAL, None),
    (GroupFamily.BINARY_ICOSAHEDRAL, None),
]:
    basis = klein_invariants(family, n)
    label = f"{family.value}" + (f" (n={n})" if n else "")
    print(f"  {label}: degrees {basis.degrees}")
    descriptor = GroupDescriptor(
        family, (n,) if n else (), 1, 1
    )
    gens = generator_matrices(descriptor)
    assert all(check_invariance(p, gens) for p in basis.generators)
print("  (each triple is fixed by both group generators, exactly)")

print()
print("Hypersurface equations found by exact linear algebra")
print("=" * 50)
triple = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]  # x, y, z as Klein exponents
tetra = klein_invariants(GroupFamily.BINARY_TETRAHEDRAL)
found = bounded_degree_relations(tetra, triple, 24)
print("  E6:", str(found.relations[0]), "= 0")

icosa = klein_invariants(GroupFamily.BINARY_ICOSAHEDRAL)
found = bounded_degree_relations(icosa, triple, 60)
print("  E8:", str(found.relations[0]), "= 0")
print()
print("  the degree-30 icosahedral invariant, for the record:")
print("   ", format_bivariate(icosa.generators[2]))

octa = klein_invariants(GroupFamily.BINARY_OCTAHEDRAL)
e7 = parse_multi("108*x1^3 - x1*x2^3 + x3^2", octa.degrees)
print("  E7 verified by substitution:", verify_relation(e7, list(octa.generators)))
