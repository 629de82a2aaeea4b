"""Traced run: spans and counters installed around singmap from outside.

Each function is wrapped where its caller looks the name up (`from x import
f` binds f in the caller's module), and every original is restored by
`uninstall`.  A span records (name, start, end, parent, link id) in memory;
`write` dumps them as JSON lines when the run ends.  Self time is a span's
duration minus the part its child spans cover.  The hot scalar operations
get counters only, since a span per call would swamp what it measures.

Per-layer metrics are per pass over the workload's links.  The traced
warm-up (link id "setup") is kept apart: only klein_invariants and
generator_matrices, whose work set-up exists to do, include it.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from time import perf_counter

from workloads import FIXED_CASES

# (module, attribute looked up there, span name)
SPANS = (
    ("singmap.cli", "main", "cli.main"),
    ("singmap.cli", "classify_link", "pipeline.classify_link"),
    ("singmap.cli", "synthesize_map", "pipeline.synthesize_map"),
    ("singmap.pipeline", "classify_link", "pipeline.classify_link"),
    ("singmap.pipeline", "ClassificationOutput.to_dict", "pipeline.to_dict"),
    ("singmap.pipeline", "_cyclic_map", "pipeline.cyclic_map"),
    ("singmap.pipeline", "_product_map", "pipeline.product_map"),
    ("singmap.pipeline", "seifert_to_plumbing", "linkdata.seifert_to_plumbing"),
    ("singmap.pipeline", "negdef_check", "linkdata.negdef_check"),
    ("singmap.pipeline", "finite_pi1_family", "linkdata.finite_pi1_family"),
    ("singmap.pipeline", "group_from_seifert", "groups.group_from_seifert"),
    ("singmap.pipeline", "multiplicity_and_embdim", "resolution.multiplicity_and_embdim"),
    ("singmap.pipeline", "klein_invariants", "invariants.klein_invariants"),
    ("singmap.pipeline", "cyclic_invariant_generators", "invariants.cyclic_invariant_generators"),
    ("singmap.pipeline", "product_invariant_monomials", "invariants.product_invariant_monomials"),
    ("singmap.pipeline", "minimalize_generators", "invariants.minimalize_generators"),
    ("singmap.pipeline", "bounded_degree_relations", "relations.bounded_degree_relations"),
    ("singmap.pipeline", "monomial_relations", "relations.monomial_relations"),
    ("singmap.resolution", "fundamental_cycle", "resolution.fundamental_cycle"),
    ("singmap.resolution", "negdef_check", "linkdata.negdef_check"),
    ("singmap.invariants", "klein_invariants", "invariants.klein_invariants"),
    ("singmap.invariants", "generator_matrices", "groups.generator_matrices"),
    ("singmap.invariants", "semigroup_member", "invariants.semigroup_member"),
    ("singmap.invariants", "expressible_in", "invariants.expressible_in"),
    ("singmap.invariants", "in_span", "exactmath.in_span"),
    ("singmap.relations", "verify_relation", "relations.verify_relation"),
    ("singmap.relations", "rref", "exactmath.rref"),
    ("singmap.exactmath", "nullspace_basis", "exactmath.nullspace_basis"),
)

COUNTERS = (
    ("singmap.exactmath.ring", "ExactScalar.__init__", "exactmath.scalar_new"),
    ("singmap.exactmath.ring", "ExactScalar.__mul__", "exactmath.scalar_mul"),
    ("singmap.exactmath.ring", "ExactScalar.__rmul__", "exactmath.scalar_mul"),
    ("singmap.exactmath.poly", "BivariatePoly.__mul__", "exactmath.poly_mul"),
)


def _relation_counts(args, result):
    return {"relations.relations_emitted": len(result.relations)}


def _bounded_relation_counts(args, result):
    degrees = {relation.weighted_degree() for relation in result.relations}
    return {"relations.relations_emitted": len(result.relations),
            "relations.useful_degrees": len(degrees)}


# span name -> counts taken from its arguments and result
MEASURES = {
    "linkdata.seifert_to_plumbing": lambda args, graph: {"linkdata.plumbing_vertices": graph.size},
    "invariants.product_invariant_monomials":
        lambda args, out: {"invariants.candidates": len(out)},
    "invariants.minimalize_generators": lambda args, out: {"invariants.kept": len(out)},
    "exactmath.nullspace_basis": lambda args, out: {
        "exactmath.nullspace_basis.cells": len(args[0]) * len(args[0][0]) if args[0] else 0},
    "relations.bounded_degree_relations": _bounded_relation_counts,
    "relations.monomial_relations": _relation_counts,
}

# coefficients in the printed polynomials; exponents (after ^) and basis
# symbols (s2, s5, s10) and variable indices (x1) are not coefficients
_COEFFICIENT = re.compile(r"(?<![\w^/])(\d+)(?:/(\d+))?")

SPANNED_SELF = (
    "linkdata.negdef_check", "linkdata.seifert_to_plumbing", "resolution.fundamental_cycle",
    "resolution.multiplicity_and_embdim", "invariants.minimalize_generators",
    "invariants.expressible_in", "exactmath.in_span", "invariants.product_invariant_monomials",
    "pipeline.product_map", "relations.bounded_degree_relations",
    "exactmath.nullspace_basis", "exactmath.rref", "relations.verify_relation",
    "invariants.cyclic_invariant_generators", "invariants.semigroup_member",
    "relations.monomial_relations",
    "groups.group_from_seifert", "pipeline.classify_link", "pipeline.synthesize_map",
    "pipeline.to_dict", "cli.main",
)
SPANNED_CALLS = (
    "linkdata.negdef_check", "invariants.expressible_in", "exactmath.in_span",
    "exactmath.nullspace_basis", "exactmath.rref", "relations.verify_relation",
    "invariants.semigroup_member",
)
COUNTED = ("linkdata.plumbing_vertices", "resolution.laufer_steps", "invariants.candidates",
           "exactmath.nullspace_basis.cells", "relations.relations_emitted",
           "exactmath.scalar_new.calls", "exactmath.scalar_mul.calls", "exactmath.poly_mul.calls")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPANNED_SELF:
        units[f"{name}.self_s"] = "s"
    for name in SPANNED_CALLS:
        units[f"{name}.calls"] = "count"
    for name in COUNTED:
        units[name] = "count"
    units["invariants.kept_ratio"] = "ratio"
    units["relations.useful_degree_ratio"] = "ratio"
    units["exactmath.max_coeff_bits"] = "bits"
    units["invariants.klein_invariants.self_s"] = "s"
    units["groups.generator_matrices.calls"] = "count"
    for case in FIXED_CASES:
        units[f"pipeline.synthesize_map.s.{case}"] = "s"
    units["trace.span_coverage"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, link id]
        self.stack = []
        self.link_id = None
        self.cases = {}
        self.links = {}
        self.counts = Counter()
        self.hot = {name: [0] for _, _, name in COUNTERS}
        self.setup_counts = Counter()
        self._originals = []

    # -- installation ------------------------------------------------------------

    def install(self):
        for module_name, path, name in SPANS:
            owner, attribute = _resolve(module_name, path)
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._spanned(name, original))
        for module_name, path, name in COUNTERS:
            owner, attribute = _resolve(module_name, path)
            original = getattr(owner, attribute)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, _counted(original, self.hot[name]))

    def uninstall(self):
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _spanned(self, name, fn):
        spans, stack, measure = self.spans, self.stack, MEASURES.get(name)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.link_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if measure:
                self.counts.update(measure(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-link hooks called by the benchmark loop -------------------------------

    def begin_link(self, link, link_id):
        self.link_id = link_id
        if link is not None:
            self.cases[link_id] = link.case
            self.links[link_id] = link.key

    def end_link(self, data):
        if self.link_id == "setup":
            for name, cell in self.hot.items():
                self.setup_counts[name] = cell[0]
                cell[0] = 0
            return
        if data is None:
            return
        report = data.get("report")
        if report:
            cycle = report["fundamental_cycle"]
            self.counts["resolution.laufer_steps"] += sum(cycle) - len(cycle)
        texts = list(data.get("map", ()))
        texts += data.get("relations", {}).get("relations", [])
        bits = [int(n).bit_length() for text in texts
                for match in _COEFFICIENT.finditer(text) for n in match.groups() if n]
        if bits:
            self.counts["exactmath.max_coeff_bits"] = max(
                self.counts["exactmath.max_coeff_bits"], *bits)

    # -- results -------------------------------------------------------------------

    def metrics(self, passes, busy):
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s, setup_self = Counter(), Counter(), Counter()
        per_case, top_level = Counter(), 0.0
        for index, (name, start, end, parent, link_id) in enumerate(self.spans):
            own = end - start - covered[index]
            if link_id == "setup":
                setup_self[name] += own
                calls["setup:" + name] += 1
                continue
            calls[name] += 1
            self_s[name] += own
            if parent < 0:
                top_level += end - start
            if name == "pipeline.synthesize_map" and self.cases.get(link_id):
                per_case[self.cases[link_id]] += end - start
        counts = Counter(self.counts)
        for name, cell in self.hot.items():
            counts[name + ".calls"] = cell[0]
        values = {}
        for name in SPANNED_SELF:
            values[f"{name}.self_s"] = self_s[name] / passes
        for name in SPANNED_CALLS:
            values[f"{name}.calls"] = calls[name] / passes
        for name in COUNTED:
            values[name] = counts[name] / passes
        values["invariants.kept_ratio"] = _ratio(counts["invariants.kept"],
                                                 counts["invariants.candidates"])
        values["relations.useful_degree_ratio"] = _ratio(
            counts["relations.useful_degrees"], calls["exactmath.nullspace_basis"])
        values["exactmath.max_coeff_bits"] = counts["exactmath.max_coeff_bits"]
        values["invariants.klein_invariants.self_s"] = (
            setup_self["invariants.klein_invariants"]
            + self_s["invariants.klein_invariants"] / passes)
        values["groups.generator_matrices.calls"] = (
            calls["setup:groups.generator_matrices"]
            + calls["groups.generator_matrices"] / passes)
        for case in FIXED_CASES:
            values[f"pipeline.synthesize_map.s.{case}"] = per_case[case] / passes
        values["trace.span_coverage"] = top_level / busy
        units = metric_units()
        return {name: {"value": values[name], "unit": units[name]}
                for name in units if name in values}

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for link_id, key in self.links.items():
                handle.write(json.dumps({"link": link_id, "argv": key}) + "\n")
            for name, start, end, parent, link_id in self.spans:
                handle.write(json.dumps({"name": name, "start": start - origin,
                                         "end": end - origin, "parent": parent,
                                         "link": link_id}) + "\n")


def _counted(fn, cell):
    def wrapper(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return wrapper


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
