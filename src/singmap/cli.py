"""Command line interface: classify, map, verify.

Exit codes: 0 success, 2 parse error, 3 not a singularity link, 4 infinite
fundamental group, 5 unsupported family.  Output is deterministic JSON by
default; --text renders a readable report with the plumbing graph drawn as
an indented tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .linkdata import LinkError, PlumbingGraph
from .groups import UnsupportedFamilyError
from .pipeline import (
    ClassificationOutput,
    InfinitePi1Error,
    NotSingularityLinkError,
    classify_link,
    link_to_dict,
    parse_lens_shorthand,
    parse_link_descriptor,
    parse_seifert_shorthand,
    synthesize_map,
)
from .relations import parse_degree_bound
from .suites import SUITES, run_suite

EXIT_PARSE = 2
EXIT_NOT_LINK = 3
EXIT_INFINITE = 4
EXIT_UNSUPPORTED = 5

# error class -> exit code; the first match wins, so the subclasses of
# ValueError come before ValueError (which covers LinkError and
# json.JSONDecodeError)
EXIT_CODES = (
    (NotSingularityLinkError, EXIT_NOT_LINK),
    (InfinitePi1Error, EXIT_INFINITE),
    (UnsupportedFamilyError, EXIT_UNSUPPORTED),
    (ValueError, EXIT_PARSE),
    (OSError, EXIT_PARSE),
)


def _add_link_arguments(parser: argparse.ArgumentParser):
    parser.add_argument("--lens", metavar="P,Q", help="lens space L(p,q)")
    parser.add_argument(
        "--seifert",
        metavar="DATA",
        help="Seifert invariants as 'b;(p1,q1)(p2,q2)(p3,q3)'",
    )
    parser.add_argument(
        "--graph", metavar="FILE", help="JSON file with a link descriptor"
    )
    parser.add_argument("--text", action="store_true", help="human-readable output")
    parser.add_argument(
        "--json", action="store_true", help="JSON output (the default)"
    )


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; LinkError when it repeats a key, where
    json.load would keep the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise LinkError(f"descriptor repeats the key {key!r}")
        obj[key] = value
    return obj


def _resolve_link(args) -> object:
    chosen = [x for x in (args.lens, args.seifert, args.graph) if x]
    if len(chosen) != 1:
        raise LinkError("provide exactly one of --lens, --seifert, --graph")
    if args.lens:
        return parse_lens_shorthand(args.lens)
    if args.seifert:
        return parse_seifert_shorthand(args.seifert)
    with open(args.graph) as handle:
        try:
            descriptor = json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise LinkError(f"{args.graph}: JSON nested too deeply") from None
    return parse_link_descriptor(descriptor)


def _graph_as_tree(graph: PlumbingGraph) -> str:
    """The tree drawn as its walk from vertex 0 (PlumbingGraph.walk), each
    vertex indented two spaces per step of depth, so one line below its
    parent."""
    return "\n".join("  " * depth + f"o weight {graph.weights[v]}" for v, _, depth in graph.walk())


def _render_text(output: ClassificationOutput) -> str:
    data = output.to_dict()
    lines = [
        f"input: {json.dumps(data['input'], sort_keys=True)}",
        f"family: {data['family']} {tuple(data['family_params'])}",
        f"group: {data['group']['label']} (order {data['group']['order']})",
        f"euler: chi = {data['euler']['chi']}, e = {data['euler']['e']}",
        "plumbing graph:",
        _graph_as_tree(output.graph),
        f"rational: {data['report']['rational']}"
        f", multiplicity: {data['report']['multiplicity']}"
        f", embedding dimension: {data['report']['embedding_dimension']}",
        f"fundamental cycle: {data['report']['fundamental_cycle']}",
        f"is image of a finite map: {data['is_image_of_finite_map']}",
    ]
    if "map" in data:
        lines.append("map components:")
        for component in data["map"]:
            lines.append(f"  {component}")
    if "relations" in data:
        body = data["relations"]
        lines.append(
            f"relations (degree bound {body['degree_bound']}, "
            f"complete up to bound: {body['complete_up_to_bound']}, "
            f"complete: {body['complete']}, stop reason: {body['stop_reason']}):"
        )
        for relation in body["relations"]:
            lines.append(f"  {relation} = 0")
    for warning in data.get("warnings", []):
        lines.append(f"WARN: {warning}")
    return "\n".join(lines)


def _emit(output: ClassificationOutput, args) -> int:
    if args.text and not args.json:
        print(_render_text(output))
    else:
        # streamed: a long plumbing graph is never held as one string
        json.dump(output.to_dict(), sys.stdout, sort_keys=True, indent=2)
        print()
    return 0


def _emit_not_finite(link, error: InfinitePi1Error, args) -> int:
    verdict = {
        "input": link_to_dict(link),
        "euler": {"chi": str(error.chi), "e": str(error.e)},
        "family": "not-finite",
        "is_image_of_finite_map": False,
    }
    if args.text and not args.json:
        print(error)
        print("is image of a finite map: False")
    else:
        json.dump(verdict, sys.stdout, sort_keys=True, indent=2)
        print()
    print(f"error: {error}", file=sys.stderr)
    return EXIT_INFINITE


def _run_link(args) -> int:
    """classify or map: the degree bound is read before the link, also
    where no relation scan runs."""
    max_degree = args.max_degree
    if max_degree is not None:
        max_degree = parse_degree_bound(max_degree, "--max-degree")
    link = _resolve_link(args)
    try:
        if args.command == "classify":
            return _emit(classify_link(link), args)
        return _emit(synthesize_map(link, max_degree), args)
    except InfinitePi1Error as error:
        return _emit_not_finite(link, error, args)


def _run_verify(args) -> int:
    passed, checks = run_suite(args.suite)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    good = sum(1 for _, ok, _ in checks if ok)
    print(f"{good}/{len(checks)} checks passed")
    return 0 if passed else 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="singmap",
        description=(
            "Classify links of normal surface singularities that are images "
            "of finite map germs from (C^2, 0), and synthesize such maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="recognize family, group and topology")
    _add_link_arguments(classify)
    classify.set_defaults(handler=_run_link, max_degree=None)

    map_cmd = sub.add_parser("map", help="synthesize a map and verified relations")
    _add_link_arguments(map_cmd)
    map_cmd.add_argument(
        "--max-degree",
        default=None,
        help="weighted-degree bound for the relation search",
    )
    map_cmd.set_defaults(handler=_run_link)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    verify.set_defaults(handler=_run_verify)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except tuple(kind for kind, _ in EXIT_CODES) as error:
        print(f"error: {error}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(error, kind))


if __name__ == "__main__":
    sys.exit(main())
