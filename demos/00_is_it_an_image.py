"""The decision procedure: is a given normal surface singularity the image
of a finite holomorphic map germ (C^2, 0) -> (C^n, 0)?

The answer depends only on the link: yes exactly when the fundamental
group of the link is finite, i.e. when the singularity is a quotient of
(C^2, 0) by a finite linear group.  Feeding in Seifert invariants (or a
plumbing graph), the classifier checks negative definiteness, evaluates
the orbifold Euler characteristic chi and the rational Euler number e,
matches the finite families, and names the acting group.
"""

from singmap.linkdata import SeifertData, euler_invariants
from singmap.pipeline import (
    InfinitePi1Error,
    NotSingularityLinkError,
    classify_link,
)

CASES = [
    ("E8 link", SeifertData(2, [(2, 1), (3, 2), (5, 4)])),
    ("Z/29 x I* quotient", SeifertData(2, [(2, 1), (3, 1), (5, 1)])),
    ("D' action (even m)", SeifertData(2, [(2, 1), (2, 1), (3, 1)])),
    ("hyperbolic-base orbifold", SeifertData(2, [(2, 1), (3, 1), (7, 1)])),
    ("not a singularity link", SeifertData(1, [(2, 1), (2, 1), (2, 1)])),
]

for label, link in CASES:
    chi, e = euler_invariants(link)
    print(f"{label}: {{{link.b}; {''.join(str(f) for f in link.fibers)}}}")
    print(f"    chi = {chi}, e = {e}")
    try:
        out = classify_link(link)
    except NotSingularityLinkError as err:
        print(f"    -> {err}")
    except InfinitePi1Error:
        print("    -> pi_1 of the link is infinite: NOT an image of a finite map")
    else:
        print(f"    -> pi_1 = {out.group.label()} of order {out.group.order}: "
              "IS the image of a finite map")
        print(f"       multiplicity {out.report.multiplicity}, "
              f"embedding dimension {out.report.embedding_dimension}")
    print()
