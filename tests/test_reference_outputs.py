"""The product-map outputs pinned in perfbench/reference.json, and the
reach of `map` on a large product group.

reference.json stores, per CLI input, the exit code and a sha256 digest of
the output's pinned keys (named in its header).  The digest is recomputed
here from the JSON that `singmap map` prints; the file is only read.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from singmap.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

# the seven links of the product-map workload: E6, E7, E8, Z/3 x D*_20,
# Z/5 x T*, Z/5 x O*, Z/7 x O*
PRODUCT_MAP = (
    "2;(2,1)(3,2)(3,2)",
    "2;(2,1)(3,2)(4,3)",
    "2;(2,1)(3,2)(5,4)",
    "2;(2,1)(2,1)(5,2)",
    "2;(2,1)(3,1)(3,1)",
    "2;(2,1)(3,1)(4,3)",
    "2;(2,1)(3,2)(4,1)",
)


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def pinned_digest(data, keys):
    subset = {}
    for key in keys:
        head, _, tail = key.partition(".")
        value = data.get(head)
        if value is not None and tail:
            value = value.get(tail)
        if value is not None:
            subset[key] = value
    text = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("shorthand", PRODUCT_MAP)
def test_product_map_matches_reference(reference, shorthand):
    keys = reference["subset_keys"]
    assert {"map", "map_degrees", "relations.relations"} <= set(keys)
    code, data = run(["map", "--seifert", shorthand])
    assert [code, pinned_digest(data, keys)] == reference["cases"][f"map --seifert {shorthand}"]


def test_z11_times_icosahedral_is_complete():
    # Z/11 x I*: embedding dimension 4, so Wahl's count is 3
    code, data = run(["map", "--seifert", "2;(2,1)(3,1)(5,4)"])
    assert code == 0
    e = data["report"]["embedding_dimension"]
    body = data["relations"]
    assert len(data["map"]) == e
    assert body["complete"] is True
    assert body["stop_reason"] == "wahl-count"
    assert len(body["relations"]) == body["expected_relation_count"] == (e - 1) * (e - 2) // 2
