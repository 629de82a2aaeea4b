"""Record reference.json: the pinned output subset of every input the
workloads can draw, except lens classify, whose closed forms are instead
confirmed here on the whole lens domain.  Run from the repository root on
the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It takes a few minutes and stops at the first input whose output breaks an
independent check.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
import workloads as w
from run import ROOT, call_cli, import_package


def write_reference(body: dict):
    """One case per line, so a changed output shows as a one-line diff."""
    head = {key: value for key, value in body.items() if key != "cases"}
    cases = sorted(body["cases"].items())
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in cases]
    text = json.dumps(head, sort_keys=True)[:-1] + ', "cases": {\n' + ",\n".join(lines) + "\n}}\n"
    checks.REFERENCE_PATH.write_text(text)


def main() -> int:
    cli = import_package(ROOT)
    links = [w.fixed_link(name) for name in w.FIXED_CASES]
    links += [w.cyclic_link(p, q) for p, q in w.cyclic_domain()]
    links += [w.seifert_classify_link(b, f) for b, f in w.three_fiber_domain()]
    links += [w.seifert_classify_link(b, f) for b, f in w.four_fiber_domain()]
    cases = {}
    for link in links:
        code, out, _, _ = call_cli(cli, link.argv)
        data = json.loads(out) if out else None
        cases[link.key] = [code, checks.digest(data)]
        problem, _ = checks.check(link, code, out, cases)
        if problem:
            print(f"{link.key}: {problem}", file=sys.stderr)
            return 1
    lens = [(p, q) for p in range(2, w.CLASSIFY_LENS_P_MAX + 1) for q in w.coprime_residues(p)
            if len(w.hj_expand(p, q)) <= w.CLASSIFY_LENS_MAX_CHAIN]
    lens += [(p, p - 1) for p in range(w.CLASSIFY_CHAIN_RANGE[0], w.CLASSIFY_CHAIN_RANGE[1] + 1)]
    for p, q in lens:
        link = w.lens_classify_link(p, q)
        code, out, _, _ = call_cli(cli, link.argv)
        problem, _ = checks.check(link, code, out, cases)
        if problem:
            print(f"{link.key}: {problem}", file=sys.stderr)
            return 1
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    body = {
        "commit": commit,
        "subset_keys": list(checks.SUBSET_KEYS),
        "lens_classify_checked": len(lens),
        "cases": cases,
    }
    write_reference(body)
    print(f"recorded {len(cases)} cases; lens closed forms hold on {len(lens)} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
