"""Laufer's algorithm on plumbing graphs.

Computes the fundamental cycle Z_min, the arithmetic genus p_a(Z_min) via
adjunction (all base curves rational here), multiplicity -Z_min^2 and the
embedding dimension mult + 1 in the rational case.  Closed-form multiplicity
tables per family serve as an independent cross-check of the computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .linkdata import (
    Family,
    FamilyTag,
    LinkError,
    PlumbingGraph,
    hj_expand,
    negdef_check,
)


@dataclass(frozen=True)
class Cycle:
    """Positive integer multiplicities indexed by graph vertices."""

    multiplicities: Tuple[int, ...]

    def dot_vertex(self, graph: PlumbingGraph, i: int) -> int:
        """Intersection number Z . E_i."""
        z = self.multiplicities
        return z[i] * graph.weights[i] + sum(z[j] for j in graph.neighbors(i))

    def self_intersection(self, graph: PlumbingGraph) -> int:
        z = self.multiplicities
        return sum(z[i] * self.dot_vertex(graph, i) for i in range(graph.size))

    def canonical_dot(self, graph: PlumbingGraph) -> int:
        """Z . K with K . E_i = -e_i - 2 on rational base curves."""
        return sum(
            z * (-e - 2) for z, e in zip(self.multiplicities, graph.weights)
        )


def fundamental_cycle(graph: PlumbingGraph) -> Cycle:
    """Laufer's computation sequence for Z_min.

    Start from the reduced cycle (all multiplicities 1); while some vertex
    has Z . E_i > 0, add that E_i.  Every such sequence ends at Z_min,
    whichever offending vertex is chosen, and negative definiteness bounds
    its length.  The offenders wait on a worklist: adding E_i lowers no
    product but Z . E_i, so a vertex is on it exactly while its product is
    positive, pushed again while it stays so and when a neighbour's step
    turns it positive.
    """
    if not negdef_check(graph):
        raise LinkError("graph is not negative definite")
    z = [1] * graph.size
    # products[i] = Z . E_i, updated incrementally
    products = [w + len(graph.neighbors(i)) for i, w in enumerate(graph.weights)]
    pending = [i for i, product in enumerate(products) if product > 0]
    while pending:
        i = pending.pop()
        z[i] += 1
        products[i] += graph.weights[i]
        if products[i] > 0:
            pending.append(i)
        for j in graph.neighbors(i):
            products[j] += 1
            if products[j] == 1:
                pending.append(j)
    return Cycle(tuple(z))


def rationality_and_genus(graph: PlumbingGraph, cycle: Cycle) -> Tuple[int, bool]:
    """(p_a(Z), rational?) with p_a = 1 + (Z^2 + Z.K)/2."""
    z2 = cycle.self_intersection(graph)
    zk = cycle.canonical_dot(graph)
    total = z2 + zk
    if total % 2:
        raise RuntimeError("adjunction sum must be even")
    p_a = 1 + total // 2
    return p_a, p_a == 0


@dataclass(frozen=True)
class SingularityReport:
    rational: bool
    multiplicity: int
    embedding_dimension: int
    fundamental_cycle: Cycle
    arithmetic_genus: int

    def to_dict(self) -> dict:
        return {
            "rational": self.rational,
            "multiplicity": self.multiplicity,
            "embedding_dimension": self.embedding_dimension,
            "fundamental_cycle": list(self.fundamental_cycle.multiplicities),
            "arithmetic_genus": self.arithmetic_genus,
        }


def multiplicity_and_embdim(graph: PlumbingGraph) -> SingularityReport:
    """Multiplicity -Z_min^2 and embedding dimension mult + 1.

    Multiplicity <= 1 is reported as a smooth point (embedding dimension 2).
    Non-rational input cannot arise from the families in scope but is
    flagged rather than silently mis-reported.
    """
    cycle = fundamental_cycle(graph)
    p_a, rational = rationality_and_genus(graph, cycle)
    mult = -cycle.self_intersection(graph)
    if mult <= 1:
        mult, embdim = 1, 2
    else:
        embdim = mult + 1
    return SingularityReport(
        rational=rational,
        multiplicity=mult,
        embedding_dimension=embdim,
        fundamental_cycle=cycle,
        arithmetic_genus=p_a,
    )


_TETRAHEDRAL_MULT = {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 0}
_OCTAHEDRAL_MULT = {(1, 1): 3, (1, 3): 1, (2, 1): 2, (2, 3): 0}
_ICOSAHEDRAL_MULT = {
    (1, 1): 4,
    (2, 1): 3,
    (1, 2): 2,
    (2, 2): 1,
    (1, 3): 2,
    (2, 3): 1,
    (1, 4): 1,
    (2, 4): 0,
}


def closed_form_multiplicity(family: Family, b: int = None) -> int:
    """Family multiplicity tables, independent of Laufer's algorithm.

    Lens: -2(k-1) + sum a_i over the expansion of (p, q); smooth gives 1.
    Dihedral: b - 2k + sum a_i over the k entries of the leg's expansion.
    The polyhedral families add a constant to b per (q1, q2).
    """
    if family.tag is FamilyTag.LENS:
        p, q = family.params
        chain = hj_expand(p, q)
        if not chain:
            return 1
        return -2 * (len(chain) - 1) + sum(chain)
    if b is None:
        raise ValueError("b is required for the three-fiber families")
    if family.tag is FamilyTag.DIHEDRAL:
        p, q = family.params
        chain = hj_expand(p, q)
        if b < 2:
            raise ValueError(f"b = {b} is outside the table (need b >= 2)")
        return b - 2 * len(chain) + sum(chain)
    tables = {
        FamilyTag.TETRAHEDRAL: _TETRAHEDRAL_MULT,
        FamilyTag.OCTAHEDRAL: _OCTAHEDRAL_MULT,
        FamilyTag.ICOSAHEDRAL: _ICOSAHEDRAL_MULT,
    }
    table = tables.get(family.tag)
    if table is None:
        raise ValueError(f"no multiplicity table for {family.tag}")
    key = tuple(family.params)
    if key not in table or b < 2:
        raise ValueError(f"parameters {key}, b = {b} are outside the table")
    return table[key] + b
