"""Laufer's algorithm on plumbing graphs: fundamental cycles, rationality,
multiplicity and embedding dimension.

A star-shaped plumbing graph encodes the link of a Seifert fibered
singularity.  The fundamental cycle Z_min starts from multiplicity 1
everywhere and bumps a vertex whenever Z . E_i > 0; for rational
singularities the multiplicity is -Z_min^2 and the embedding dimension is
one more.  Closed-form multiplicity tables per family cross-check every
instance.
"""

from singmap.linkdata import (
    SeifertData,
    euler_invariants,
    negdef_check,
    seifert_to_plumbing,
)
from singmap.resolution import (
    closed_form_multiplicity,
    fundamental_cycle,
    multiplicity_and_embdim,
    rationality_and_genus,
)
from singmap.suites import family_sweep

print("The E8 germ, step by step")
print("=" * 50)
link = SeifertData(2, [(2, 1), (3, 2), (5, 4)])
graph = seifert_to_plumbing(link)
print("weights:", graph.weights)
print("edges:  ", graph.edges)
chi, e = euler_invariants(link)
print(f"chi = {chi} > 0 and e = {e} < 0: a singularity link with finite pi_1")
assert negdef_check(graph)

cycle = fundamental_cycle(graph)
print("fundamental cycle:", cycle.multiplicities)
p_a, rational = rationality_and_genus(graph, cycle)
print(f"p_a(Z_min) = {p_a} -> rational: {rational}")
report = multiplicity_and_embdim(graph)
print(f"multiplicity -Z^2 = {report.multiplicity}, embedding dimension "
      f"{report.embedding_dimension}: a hypersurface")

print()
print("Sweep: Laufer vs closed forms, all families with b <= 5, p <= 7")
print("=" * 50)
agree = 0
for link, family, b in family_sweep(5, 7):
    graph = seifert_to_plumbing(link)
    laufer = max(1, -fundamental_cycle(graph).self_intersection(graph))
    table = max(1, closed_form_multiplicity(family, b))
    assert laufer == table, (link, laufer, table)
    agree += 1
print(f"{agree} instances: -Z_min^2 equals the table value in every case")

print()
print("Sample of the dihedral b = 2 case (leading 2s in the leg matter)")
print("=" * 50)
for p, q in [(5, 3), (8, 5), (7, 4), (4, 1)]:
    link = SeifertData(2, [(2, 1), (2, 1), (p, q)])
    report = multiplicity_and_embdim(seifert_to_plumbing(link))
    print(f"  leg ({p},{q}): multiplicity {report.multiplicity}, "
          f"embedding dimension {report.embedding_dimension}")
