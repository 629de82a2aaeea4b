"""Tests of the benchmark's own machinery: seeded inputs, output checks
(with negative controls) and the tracer's install/restore.

    python3 -m pytest perfbench -q
"""

import json

import checks
import tracing
import workloads
from run import ROOT, call_cli, import_package

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7)
        assert workloads.inputs_digest(first) == workloads.inputs_digest(
            workloads.generate(name, 7))
    assert workloads.inputs_digest(workloads.generate("classify-sweep", 1)) != \
        workloads.inputs_digest(workloads.generate("classify-sweep", 2))


def test_classify_sweep_mix():
    links = workloads.generate("classify-sweep", 3)
    assert len(links) == workloads.CLASSIFY_LINKS
    codes = [checks.expected_exit(link) for link in links if link.seifert]
    assert {0, 3, 4} <= set(codes)
    chains = [link for link in links if link.lens and link.lens[1] == link.lens[0] - 1
              and link.lens[0] >= workloads.CLASSIFY_CHAIN_RANGE[0]]
    assert len(chains) >= 40


def test_every_generated_input_has_a_reference():
    reference = checks.load_reference()
    for name in workloads.WORKLOADS:
        for link in workloads.generate(name, 11):
            if not (link.lens and link.argv[0] == "classify"):
                assert link.key in reference, link.key


def test_e6_map_passes_and_negative_controls_fail():
    cli = import_package(ROOT)
    link = workloads.fixed_link("E6")
    reference = checks.load_reference()
    code, out, _, _ = call_cli(cli, link.argv)
    assert checks.check(link, code, out, reference)[0] is None
    data = json.loads(out)
    data["relations"]["relations"][0] = data["relations"]["relations"][0].replace("x1", "x2", 1)
    assert checks.check(link, code, json.dumps(data), reference)[0] is not None
    assert checks.check(link, 3, out, reference)[0] is not None


def test_lens_classify_closed_forms_and_wrong_exit():
    cli = import_package(ROOT)
    link = workloads.lens_classify_link(19, 7)
    code, out, _, _ = call_cli(cli, link.argv)
    assert checks.check(link, code, out, {})[0] is None
    assert checks.check(link, 4, out, {})[0] is not None


def test_tracer_restores_every_original():
    cli = import_package(ROOT)
    before = {(m, p): tracing._resolve(m, p) for m, p, _ in tracing.SPANS + tracing.COUNTERS}
    before = {k: getattr(*v) for k, v in before.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_link(workloads.lens_classify_link(5, 2), 0)
        code, out, _, _ = call_cli(cli, ("classify", "--lens", "5,2"))
        tracer.end_link(json.loads(out))
    finally:
        tracer.uninstall()
    after = {k: getattr(*tracing._resolve(*k)) for k in before}
    assert after == before
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "pipeline.classify_link", "linkdata.negdef_check"} <= names
    metrics = tracer.metrics(1, 1.0)
    assert metrics["linkdata.negdef_check.calls"]["value"] == 2


def test_spec_lists_every_traced_metric():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == list(tracing.metric_units())
