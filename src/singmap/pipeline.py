"""End-to-end classification and map synthesis.

classify_link runs: family recognition, group identification, plumbing
construction, negative-definiteness, Laufer's algorithm.  synthesize_map
adds the invariant-polynomial map and its verified relations.  Output is a
plain dict with a stable key layout so the CLI can serialize it
byte-identically for identical inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .exactmath import BivariatePoly, format_bivariate
from .linkdata import (
    Family,
    LensData,
    LinkError,
    PlumbingGraph,
    SeifertData,
    euler_invariants,
    finite_pi1_family,
    graph_to_link,
    negdef_check,
    seifert_to_plumbing,
)
from .resolution import SingularityReport, multiplicity_and_embdim
from .groups import (
    GroupDescriptor,
    GroupFamily,
    UnsupportedFamilyError,
    group_from_seifert,
)
from .invariants import (
    InvariantBasis,
    cyclic_invariant_generators,
    klein_invariants,
    minimalize_generators,
    monomials_from_exponents,
    product_invariant_monomials,
)
from .relations import (
    RelationSet,
    bounded_degree_relations,
    monomial_relations,
    wahl_relation_count,
)


class NotSingularityLinkError(ValueError):
    """Input data does not describe the link of a normal surface singularity."""


class InfinitePi1Error(ValueError):
    """The link has infinite fundamental group; not an image of a finite map."""


@dataclass(frozen=True)
class ClassificationOutput:
    link: object
    family: Family
    group: Optional[GroupDescriptor]
    graph: PlumbingGraph
    report: SingularityReport
    invariant_map: Optional[InvariantBasis] = None
    relations: Optional[RelationSet] = None
    warnings: Tuple[str, ...] = ()

    @property
    def is_image_of_finite_map(self) -> bool:
        return self.family.is_finite

    def to_dict(self) -> dict:
        chi, e = euler_invariants(self.link)
        out = {
            "input": link_to_dict(self.link),
            "euler": {"chi": str(chi), "e": str(e)},
            "family": self.family.tag.value,
            "family_params": list(self.family.params),
            "group": self.group.to_dict() if self.group else None,
            "plumbing": {
                "weights": list(self.graph.weights),
                "edges": [list(edge) for edge in self.graph.edges],
            },
            "report": self.report.to_dict(),
            "is_image_of_finite_map": self.is_image_of_finite_map,
        }
        if self.invariant_map is not None:
            out["map"] = [format_bivariate(p) for p in self.invariant_map.generators]
            out["map_degrees"] = list(self.invariant_map.degrees)
        if self.relations is not None:
            out["relations"] = self.relations.to_dict()
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def link_to_dict(link) -> dict:
    if isinstance(link, LensData):
        return {"lens": [link.p, link.q]}
    return {"seifert": {"b": link.b, "fibers": [list(f) for f in link.fibers]}}


# -- input parsing ------------------------------------------------------------


_SEIFERT_RE = re.compile(r"^\s*(\d+)\s*;\s*((?:\(\s*\d+\s*,\s*\d+\s*\))+)\s*$")
_FIBER_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_seifert_shorthand(text: str) -> SeifertData:
    """Parse 'b;(p1,q1)(p2,q2)...' into normalized Seifert data."""
    m = _SEIFERT_RE.match(text)
    if not m:
        raise LinkError(f"cannot parse Seifert shorthand {text!r}")
    b = int(m.group(1))
    fibers = [(int(p), int(q)) for p, q in _FIBER_RE.findall(m.group(2))]
    return SeifertData.normalized(b, fibers)


def parse_lens_shorthand(text: str) -> LensData:
    parts = text.split(",")
    if len(parts) != 2:
        raise LinkError(f"cannot parse lens shorthand {text!r}; expected 'p,q'")
    return LensData(int(parts[0].strip()), int(parts[1].strip()))


def _integer(value, what: str) -> int:
    # bool is a subclass of int, but true/false are not integers in a descriptor
    if isinstance(value, bool) or not isinstance(value, int):
        raise LinkError(f"{what} must be an integer, got {value!r}")
    return value


def _integers(value, what: str, length: Optional[int] = None) -> List[int]:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        shape = f"{length} integers" if length is not None else "integers"
        raise LinkError(f"{what} must be a list of {shape}, got {value!r}")
    return [_integer(x, f"each {what} entry") for x in value]


def _pairs(value, what: str) -> List[Tuple[int, int]]:
    if not isinstance(value, list):
        raise LinkError(f"{what} must be a list of pairs, got {value!r}")
    return [tuple(_integers(pair, what, 2)) for pair in value]


def _body(descriptor: dict, key: str) -> dict:
    body = descriptor[key]
    if not isinstance(body, dict):
        raise LinkError(f"{key} descriptor must be a JSON object, got {body!r}")
    return body


def parse_link_descriptor(descriptor: dict):
    """JSON link descriptor: {'lens': [p, q]} or {'seifert': {...}} or
    {'graph': {'weights': [...], 'edges': [...]}}.  Every number must be a
    JSON integer; anything else raises LinkError."""
    if not isinstance(descriptor, dict):
        raise LinkError("link descriptor must be a JSON object")
    if "lens" in descriptor:
        p, q = _integers(descriptor["lens"], "lens", 2)
        return LensData(p, q)
    if "seifert" in descriptor:
        body = _body(descriptor, "seifert")
        if "b" not in body:
            raise LinkError("seifert descriptor needs the key b")
        fibers = _pairs(body.get("fibers", []), "seifert fibers")
        return SeifertData.normalized(_integer(body["b"], "seifert b"), fibers)
    if "graph" in descriptor:
        body = _body(descriptor, "graph")
        if "weights" not in body:
            raise LinkError("graph descriptor needs the key weights")
        weights = _integers(body["weights"], "graph weights")
        graph = PlumbingGraph.build(weights, _pairs(body.get("edges", []), "graph edges"))
        return graph_to_link(graph)
    raise LinkError("descriptor needs one of the keys: lens, seifert, graph")


# -- classification --------------------------------------------------------------


def classify_link(link) -> ClassificationOutput:
    """Family, group, plumbing graph and singularity report of a link.

    Raises NotSingularityLinkError when the plumbing is not negative
    definite and InfinitePi1Error when the fundamental group is infinite.
    """
    graph = seifert_to_plumbing(link)
    if not negdef_check(graph):
        _, e = euler_invariants(link)
        raise NotSingularityLinkError(
            f"plumbing is not negative definite (e(L) = {e}); not a singularity link"
        )
    family = finite_pi1_family(link)
    if not family.is_finite:
        chi, e = euler_invariants(link)
        raise InfinitePi1Error(
            f"fundamental group is infinite (chi = {chi}, e = {e})"
        )
    b = link.b if isinstance(link, SeifertData) else None
    group = group_from_seifert(family, b)
    report = multiplicity_and_embdim(graph)
    return ClassificationOutput(link, family, group, graph, report)


def _expected_relation_count(report: SingularityReport, generator_count: int) -> Optional[int]:
    """Wahl's count when the map is a minimal embedding of a rational
    singularity, else None (the relation scan then runs to its bound)."""
    if report.rational and generator_count == report.embedding_dimension:
        return wahl_relation_count(report.embedding_dimension)
    return None


def _generator_warnings(generator_count: int, report: SingularityReport) -> List[str]:
    if generator_count == report.embedding_dimension:
        return []
    return [
        f"generator count {generator_count} differs from embedding dimension "
        f"{report.embedding_dimension}"
    ]


def _cyclic_map(p: int, q: int, report: SingularityReport, max_degree):
    exponents = cyclic_invariant_generators(p, q)
    basis = InvariantBasis.from_polys(monomials_from_exponents(exponents))
    expected = _expected_relation_count(report, len(exponents))
    if p == 1:
        relations = RelationSet((), (1, 1), 0, True, expected)
    else:
        relations = monomial_relations(exponents, max_degree, expected)
    return basis, relations, _generator_warnings(len(exponents), report)


def _product_map(
    group: GroupDescriptor, report: SingularityReport, max_degree
) -> Tuple[InvariantBasis, RelationSet, List[str]]:
    base = klein_invariants(
        group.family,
        group.params[0] if group.family is GroupFamily.BINARY_DIHEDRAL else None,
    )
    m = group.cyclic_factor
    if m == 1:
        generators = list(base.generators)
    else:
        exponent_triples = product_invariant_monomials(base.degrees, m)
        candidates = []
        for triple in exponent_triples:
            poly = BivariatePoly.constant(1)
            for base_poly, power in zip(base.generators, triple):
                for _ in range(power):
                    poly = poly * base_poly
            candidates.append(poly)
        generators = minimalize_generators(candidates, target_count=report.embedding_dimension)
    basis = InvariantBasis.from_polys(generators, group)
    relations = bounded_degree_relations(
        generators, max_degree, _expected_relation_count(report, len(generators))
    )
    return basis, relations, _generator_warnings(len(generators), report)


def synthesize_map(link, max_degree: int = None) -> ClassificationOutput:
    """Classification plus a concrete map and verified relations.

    Cyclic quotients get the monomial map and its binomial relations;
    binary polyhedral quotients (and their cyclic products) get invariant
    polynomial generators and bounded-degree relations.  D' and T' raise
    UnsupportedFamilyError.

    When the map is a minimal embedding of a rational singularity, the
    relation scan stops at Wahl's count and the relation set is certified
    complete; a scan that reaches its degree bound short of that count
    leaves a warning.
    """
    classified = classify_link(link)
    group = classified.group
    if group.family is GroupFamily.CYCLIC:
        basis, relations, warnings = _cyclic_map(*group.params, classified.report, max_degree)
    elif group.family in (GroupFamily.D_PRIME, GroupFamily.T_PRIME):
        raise UnsupportedFamilyError(
            f"no map construction for {group.label()}: no matrix representation"
        )
    else:
        basis, relations, warnings = _product_map(group, classified.report, max_degree)
    if relations.expected_count is not None and not relations.complete:
        warnings.append(
            f"relation search stopped at degree bound {relations.degree_bound} with "
            f"{len(relations.relations)} of the {relations.expected_count} relations "
            "Wahl's count requires; the relation set is incomplete"
        )
    return ClassificationOutput(
        classified.link,
        classified.family,
        group,
        classified.graph,
        classified.report,
        invariant_map=basis,
        relations=relations,
        warnings=tuple(warnings),
    )
