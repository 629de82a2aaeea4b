"""singmap: decide which normal surface singularities are images of finite
map germs from (C^2, 0), straight from their link data, and synthesize a
concrete map (a tuple of invariant polynomials) together with verified
defining relations of the image.

The pipeline: Seifert invariants or a plumbing graph describe the link;
the finite-fundamental-group families are recognized; Laufer's algorithm
on the dual resolution graph gives multiplicity and embedding dimension;
invariant polynomials of the acting group give the map; exact linear
algebra over Q[i, sqrt2, sqrt5] finds and verifies the image relations.
"""

from .exactmath import (
    BivariatePoly,
    ExactScalar,
    MultiPoly,
    parse_bivariate,
    parse_multi,
)
from .linkdata import (
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
from .resolution import (
    closed_form_multiplicity,
    fundamental_cycle,
    multiplicity_and_embdim,
    rationality_and_genus,
)
from .groups import (
    check_invariance,
    generator_matrices,
    group_closure_order,
    group_from_seifert,
)
from .invariants import (
    cyclic_invariant_generators,
    klein_invariants,
    minimalize_generators,
    product_invariant_monomials,
    semigroup_member,
)
from .relations import (
    bounded_degree_relations,
    monomial_relations,
    verify_relation,
)
from .pipeline import classify_link, parse_link_descriptor, synthesize_map

__version__ = "0.1.0"
