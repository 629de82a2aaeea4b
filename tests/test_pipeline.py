"""Tests for the classification pipeline and link descriptor parsing."""

import json

import pytest

from singmap import linkdata, pipeline
from singmap.exactmath import format_bivariate
from singmap.groups import GroupFamily, UnsupportedFamilyError
from singmap.linkdata import LensData, LinkError, SeifertData
from singmap.pipeline import (
    InfinitePi1Error,
    NotSingularityLinkError,
    classify_link,
    parse_lens_shorthand,
    parse_link_descriptor,
    parse_seifert_shorthand,
    synthesize_map,
)


class TestParsing:
    def test_seifert_shorthand(self):
        link = parse_seifert_shorthand("2;(2,1)(3,2)(5,4)")
        assert link == SeifertData(2, [(2, 1), (3, 2), (5, 4)])

    def test_lens_shorthand(self):
        assert parse_lens_shorthand("5,2") == LensData(5, 2)
        assert parse_lens_shorthand(" 7 , 3 ") == LensData(7, 3)

    def test_bad_shorthand(self):
        with pytest.raises(LinkError):
            parse_seifert_shorthand("2;(2,1)(3,2")
        with pytest.raises(LinkError):
            parse_lens_shorthand("5")

    def test_descriptor_lens(self):
        assert parse_link_descriptor({"lens": [5, 2]}) == LensData(5, 2)

    def test_descriptor_seifert(self):
        link = parse_link_descriptor({"seifert": {"b": 2, "fibers": [[2, 1], [3, 1], [5, 1]]}})
        assert link == SeifertData(2, [(2, 1), (3, 1), (5, 1)])

    def test_descriptor_graph(self):
        link = parse_link_descriptor(
            {"graph": {"weights": [-3, -2], "edges": [[0, 1]]}}
        )
        assert link == LensData(5, 2)

    def test_descriptor_unknown_key(self):
        with pytest.raises(LinkError, match="needs one of the keys: lens, seifert, graph"):
            parse_link_descriptor({"unknown": 1})

    @pytest.mark.parametrize("descriptor, message", [
        ({"seifert": {"b": 2, "fiber": [[2, 1], [3, 2], [5, 4]]}},
         "seifert descriptor has the unknown key 'fiber'; its keys are b, fibers"),
        ({"lens": [5, 2], "extra": 1},
         "descriptor has the unknown key 'extra'; its keys are lens, seifert, graph"),
        ({"graph": {"weights": [-2], "edge": []}},
         "graph descriptor has the unknown key 'edge'; its keys are weights, edges"),
        # an unknown key is named before a missing one
        ({"graph": {"weight": [-2]}},
         "graph descriptor has the unknown key 'weight'; its keys are weights, edges"),
    ])
    def test_descriptor_with_unknown_key_rejected(self, descriptor, message):
        with pytest.raises(LinkError) as raised:
            parse_link_descriptor(descriptor)
        assert str(raised.value) == message

    @pytest.mark.parametrize("descriptor, kinds", [
        ({"lens": [5, 2], "seifert": {}}, "lens, seifert"),
        ({"graph": {"weights": [-2]}, "lens": [5, 2]}, "lens, graph"),
        ({"lens": [5, 2], "seifert": {"b": 2}, "graph": {}}, "lens, seifert, graph"),
    ])
    def test_descriptor_with_two_kinds_rejected(self, descriptor, kinds):
        with pytest.raises(LinkError, match=f"exactly one of the keys lens, seifert, graph, got {kinds}$"):
            parse_link_descriptor(descriptor)


class TestClassify:
    def test_e8(self):
        output = classify_link(SeifertData(2, [(2, 1), (3, 2), (5, 4)]))
        assert output.group.family is GroupFamily.BINARY_ICOSAHEDRAL
        assert output.report.multiplicity == 2
        assert output.is_image_of_finite_map

    def test_not_negative_definite(self):
        with pytest.raises(NotSingularityLinkError):
            classify_link(SeifertData(1, [(2, 1), (2, 1), (2, 1)]))

    def test_negative_definiteness_decided_once(self, monkeypatch):
        # classify_link and fundamental_cycle both ask; one elimination answers
        calls = []
        real = linkdata._leaves_first_elimination

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(linkdata, "_leaves_first_elimination", counting)
        output = classify_link(SeifertData(2, [(2, 1), (3, 2), (5, 4)]))
        assert len(calls) == 1 and calls[0] is output.graph

    @pytest.mark.parametrize("link", [
        LensData(5, 2),
        SeifertData(2, [(2, 1), (3, 1)]),
        SeifertData(2, [(2, 1), (3, 2), (5, 4)]),
        SeifertData(2, [(2, 1), (2, 1), (3, 1)]),
    ])
    def test_euler_invariants_evaluated_once(self, monkeypatch, link):
        # finite_pi1_family evaluates them; the group and the output dict
        # read them off the Family
        calls = []
        real = linkdata.euler_invariants

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(linkdata, "euler_invariants", counting)
        monkeypatch.setattr(pipeline, "euler_invariants", counting)
        classify_link(link).to_dict()
        assert calls == [link]

    def test_infinite_pi1(self):
        with pytest.raises(InfinitePi1Error):
            classify_link(SeifertData(2, [(2, 1), (3, 1), (7, 1)]))

    def test_output_dict_is_json_ready(self):
        output = classify_link(LensData(5, 2))
        payload = json.dumps(output.to_dict(), sort_keys=True)
        data = json.loads(payload)
        assert data["report"]["fundamental_cycle"] == [1, 1]
        assert data["plumbing"]["weights"] == [-3, -2]


class TestSynthesize:
    def test_cyclic_map_counts_match(self):
        output = synthesize_map(LensData(7, 3))
        assert [format_bivariate(p) for p in output.invariant_map.generators] == [
            "u^7",
            "u^4*v",
            "u*v^2",
            "v^7",
        ]
        assert len(output.invariant_map.generators) == output.report.embedding_dimension
        assert output.warnings == ()

    def test_bare_dihedral_map(self):
        # D_5: b = 2 with leg (3, 2); hypersurface, so 3 generators
        output = synthesize_map(SeifertData(2, [(2, 1), (2, 1), (3, 2)]))
        assert output.group.family is GroupFamily.BINARY_DIHEDRAL
        assert output.group.params == (3,)
        assert output.report.embedding_dimension == 3
        assert len(output.invariant_map.generators) == 3
        assert [str(r) for r in output.relations.relations] == [
            "4*x1^4 - x1*x2^2 + x3^2"
        ]

    def test_dprime_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            synthesize_map(SeifertData(2, [(2, 1), (2, 1), (3, 1)]))

    def test_tprime_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            synthesize_map(SeifertData(2, [(2, 1), (3, 1), (3, 2)]))

    def test_relations_all_verified(self):
        output = synthesize_map(LensData(5, 2))
        gens = list(output.invariant_map.generators)
        from singmap.relations import verify_relation

        for relation in output.relations.relations:
            assert verify_relation(relation, gens)

    def test_icosahedral_product_with_exact_degrees(self):
        # b = 3, q1 = 2, q2 = 4: m = 90 - 15 - 20 - 24 = 31, Z/31 x I*
        link = SeifertData(3, [(2, 1), (3, 2), (5, 4)])
        output = classify_link(link)
        assert output.group.family is GroupFamily.BINARY_ICOSAHEDRAL
        assert output.group.cyclic_factor == 31
        assert output.group.order == 31 * 120
