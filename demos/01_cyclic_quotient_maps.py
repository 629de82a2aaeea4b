"""Cyclic quotient singularities: from a lens space to a monomial map.

The lens space L(p, q) is the link of the quotient of C^2 by the diagonal
action diag(zeta_p, zeta_p^q).  The invariant monomials u^a v^b are exactly
those with a + q b = 0 mod p, and the minimal ones among them give a finite
map whose image is the singularity.  The image is cut out by binomial
equations: two monomials in the generators agree exactly when they expand
to the same monomial in u, v.
"""

from singmap.exactmath import format_bivariate, format_multi
from singmap.invariants import cyclic_invariant_generators, monomials_from_exponents
from singmap.linkdata import LensData, seifert_to_plumbing
from singmap.relations import monomial_relations, verify_relation
from singmap.resolution import multiplicity_and_embdim

print("The (5,2) action")
print("=" * 40)
exponents = cyclic_invariant_generators(5, 2)
print("minimal invariant monomials:", exponents)
generators = monomials_from_exponents(exponents)
print("map: F(u,v) = (" + ", ".join(format_bivariate(p) for p in generators) + ")")

report = multiplicity_and_embdim(seifert_to_plumbing(LensData(5, 2)))
print(f"multiplicity {report.multiplicity}, embedding dimension "
      f"{report.embedding_dimension} (= number of map components)")

found = monomial_relations(5, 2)
print("binomial equations of the image:")
for relation in found.relations:
    print("   ", format_multi(relation), "= 0")

print()
print("Every relation is verified by exact substitution:")
for relation in found.relations:
    assert verify_relation(relation, generators)
print("    all verified.")

print()
print("Maps for all cyclic actions of order at most 7")
print("=" * 40)
for p in range(2, 8):
    for q in range(1, p):
        from math import gcd

        if gcd(p, q) != 1:
            continue
        exps = cyclic_invariant_generators(p, q)
        components = ", ".join(format_bivariate(m) for m in monomials_from_exponents(exps))
        print(f"  ({p},{q}): ({components})")
