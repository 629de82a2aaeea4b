"""A product group Z/m x D*_8, end to end.

Adding a central factor diag(zeta_m, zeta_m) to a binary polyhedral group
keeps exactly those products x^a y^b z^c of its three basic invariants whose
total degree is divisible by m.  The Hilbert basis of that congruence
semigroup over-generates.  Klein's relation z^2 = S(x, y) gives every such
monomial a normal form x^a y^b z^(c mod 2) S^(c div 2); a candidate is
dropped when its normal form lies in the span of the normal forms of
products of the others, which prunes the list to the embedding dimension.
The image equations come out of the bounded-degree kernel search on the
same normal forms, and only the chosen generators are expanded in u, v.

The worked case: Seifert data {3; (2,1)(2,1)(2,1)}, fundamental group
Z/3 x D*_8, a quotient of embedding dimension 4.
"""

from singmap.linkdata import SeifertData, finite_pi1_family
from singmap.groups import group_from_seifert
from singmap.invariants import klein_invariants, product_invariant_monomials
from singmap.pipeline import synthesize_map
from singmap.groups import GroupFamily
from singmap.relations import verify_relation

link = SeifertData(3, [(2, 1), (2, 1), (2, 1)])
family = finite_pi1_family(link)
group = group_from_seifert(family)
print("link: {3; (2,1)(2,1)(2,1)}")
print("group:", group.label(), "of order", group.order)

base = klein_invariants(GroupFamily.BINARY_DIHEDRAL, 2)
print("\nbase invariants have degrees", base.degrees)
print("Klein relation:", base.relation(), "= 0")
triples = product_invariant_monomials(base.degrees, group.cyclic_factor)
print("degree condition mod", group.cyclic_factor, "admits exponent triples:")
for t in triples:
    print("   ", t)

output = synthesize_map(link)
print("\nafter pruning to the embedding dimension "
      f"({output.report.embedding_dimension}):")
for poly, degree in zip(output.invariant_map.generators, output.invariant_map.degrees):
    print(f"    degree {degree:2d}:", poly)

print("\nequations of the image:")
for relation in output.relations.relations:
    print("   ", relation, "= 0")
    assert verify_relation(relation, list(output.invariant_map.generators))
print("all equations verified by exact substitution")
