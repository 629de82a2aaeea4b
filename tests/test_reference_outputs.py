"""The product-map outputs pinned in perfbench/reference.json, further
product and cyclic links pinned here, and the reach of `map` on large
product groups.

reference.json stores, per CLI input, the exit code and a sha256 digest of
the output's pinned keys (named in its header).  The digest is recomputed
here from the JSON that `singmap map` prints; the file is only read.
PINNED_OUTPUTS holds the exit code and the first 16 hex digits of the
sha256 of the whole stdout and stderr, recorded with the (u, v)
minimalizer and kernel that the Klein normal form replaced.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import time
from contextlib import redirect_stderr

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


PINNED_OUTPUTS = {
    # b;(2,1)(2,1)(n,q), b in {2, 3}, n <= 6: Z/m x D*, D*, and D' (exit 5)
    "map --seifert 2;(2,1)(2,1)(2,1)": (0, "49ef6c0a0dcedbe3", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(2,1)(3,1)": (5, "e3b0c44298fc1c14", "388b44725e094492"),
    "map --seifert 2;(2,1)(2,1)(3,2)": (0, "2efc264f6c1b7129", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(2,1)(4,1)": (0, "8ffe98d96803075f", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(2,1)(4,3)": (0, "a728a596d07fdf81", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(2,1)(5,1)": (5, "e3b0c44298fc1c14", "d4bf8c1c42e12f63"),
    "map --seifert 2;(2,1)(2,1)(5,2)": (0, "75470ffbf3e09c2e", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(2,1)(5,3)": (5, "e3b0c44298fc1c14", "477ae4ed82ec5249"),
    "map --seifert 2;(2,1)(2,1)(5,4)": (0, "529d56a00fef693d", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(2,1)(6,1)": (0, "f3238f2f6d93b1c5", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(2,1)(6,5)": (0, "aace429e0c305421", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(2,1)(2,1)": (0, "7637881393e999e0", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(2,1)(3,1)": (0, "7ed6e6c7cf9d69ec", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(2,1)(3,2)": (5, "e3b0c44298fc1c14", "113c3d6ee98cc008"),
    "map --seifert 3;(2,1)(2,1)(4,1)": (0, "7be66b3ef94b4292", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(2,1)(4,3)": (0, "4d5d8cc6111a068d", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(2,1)(5,1)": (0, "38256c1b02b4ffb4", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(2,1)(5,2)": (5, "e3b0c44298fc1c14", "42c29421c18809f7"),
    "map --seifert 3;(2,1)(2,1)(5,3)": (0, "6453eb1ab5f7a018", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(2,1)(5,4)": (5, "e3b0c44298fc1c14", "969db51710c3e32b"),
    "map --seifert 3;(2,1)(2,1)(6,1)": (0, "0de5e7ee32e2ade3", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(2,1)(6,5)": (0, "99a2c698583e4c70", "e3b0c44298fc1c14"),
    # Z/11 x O*, Z/11 x T*, Z/7 x I*, Z/13 x I*, Z/23 x O*
    "map --seifert 2;(2,1)(3,1)(4,1)": (0, "b308d78f81c193fc", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,1)(3,1)": (0, "caa7bfdc9a328b0b", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,2)(5,3)": (0, "4c45404e3d935e3e", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,2)(5,2)": (0, "a8a9aa3ee98a723e", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,1)(4,1)": (0, "1f6fe9ef4a3c7973", "e3b0c44298fc1c14"),
    # Z/15 x D*_32 and Z/11 x D*_48, recorded with the dense elimination
    # that the sparse one in exactmath.linalg replaced
    "map --seifert 3;(2,1)(2,1)(8,1)": (0, "33fababd9cc99ada", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(2,1)(12,1)": (0, "0cf3037a54a90590", "e3b0c44298fc1c14"),
    # Z/59 x I* and Z/47 x O*, recorded while relations were still verified
    # by substituting the generators' (u, v) expansions
    "map --seifert 3;(2,1)(3,1)(5,1)": (0, "0fc2ddc67537fb89", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,1)(4,1)": (0, "99f55a29993758ed", "e3b0c44298fc1c14"),
    # Z/89 x I*, the heaviest span-membership test of minimalization,
    # recorded while expressible_in still indexed Klein monomials densely
    "map --seifert 4;(2,1)(3,1)(5,1)": (0, "0a4f8497bd02d18d", "e3b0c44298fc1c14"),
    # Z/17 x D*_36 and Z/23 x D*_32, recorded while each degree's new
    # relations were found by quotienting the kernel by multiples of the
    # earlier ones
    "map --seifert 3;(2,1)(2,1)(9,1)": (0, "970c8357b0360621", "e3b0c44298fc1c14"),
    "map --seifert 4;(2,1)(2,1)(8,1)": (0, "5e8c729e1f8fa981", "e3b0c44298fc1c14"),
    # Z/35 x D*_36, recorded while each degree's new relations were picked
    # out of a full kernel basis
    "map --seifert 5;(2,1)(2,1)(9,1)": (0, "6abea19743924fb3", "e3b0c44298fc1c14"),
    # the cyclic quotients L(101, 3) (36 generators, 595 relations) and
    # L(120, 1) (121 generators), recorded while each image's binomials were
    # found by a union-find over the earlier relations as rewriting moves
    "map --lens 101,3": (0, "02222b45f455f1b9", "e3b0c44298fc1c14"),
    "map --lens 120,1": (0, "760ea2dc55a8efd9", "e3b0c44298fc1c14"),
    # the rest of b;(2,1)(3,q)(5,r) for 1 <= b <= 5 that exits 0 (b = 1 is
    # not a singularity link): Z/m x I*, E8 among them, recorded while I*
    # was still eliminated over Q(i, sqrt2, sqrt5)
    "map --seifert 2;(2,1)(3,1)(5,1)": (0, "a3d64b18bdec22d9", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,1)(5,2)": (0, "c866e993f022a70e", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,1)(5,3)": (0, "6edcfe8130f9d6c0", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,1)(5,4)": (0, "d7dc1ae2a5de1cd7", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,2)(5,1)": (0, "1d63f5c15ec3f1fa", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,2)(5,4)": (0, "21783ab901e2d366", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,1)(5,2)": (0, "2bdb1b92bfe2acb9", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,1)(5,3)": (0, "c71a1fc59018f9ee", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,1)(5,4)": (0, "8ccf90dfa590bda9", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,2)(5,1)": (0, "7b5544b042ae5265", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,2)(5,2)": (0, "eeb2b0c47d28a813", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,2)(5,3)": (0, "a12f2d8b41e94500", "e3b0c44298fc1c14"),
    "map --seifert 3;(2,1)(3,2)(5,4)": (0, "0cd94453e7343eac", "e3b0c44298fc1c14"),
    "map --seifert 4;(2,1)(3,1)(5,2)": (0, "4df2802a3f39d7b3", "e3b0c44298fc1c14"),
    "map --seifert 4;(2,1)(3,1)(5,3)": (0, "7a2c1c772a8748a8", "e3b0c44298fc1c14"),
    "map --seifert 4;(2,1)(3,1)(5,4)": (0, "f299bad8dc80ea2d", "e3b0c44298fc1c14"),
    "map --seifert 4;(2,1)(3,2)(5,1)": (0, "7c8a2dd06599b8e2", "e3b0c44298fc1c14"),
    "map --seifert 4;(2,1)(3,2)(5,2)": (0, "f3f134c7c05f927f", "e3b0c44298fc1c14"),
    "map --seifert 4;(2,1)(3,2)(5,3)": (0, "f1a56a995de20b66", "e3b0c44298fc1c14"),
    "map --seifert 4;(2,1)(3,2)(5,4)": (0, "bc7eabaef374a98f", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,1)(5,1)": (0, "ea41c05d1d61653f", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,1)(5,2)": (0, "eff94d050110d76c", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,1)(5,3)": (0, "09528ad65016abb7", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,1)(5,4)": (0, "e977de64bc92f367", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,2)(5,1)": (0, "a95bb9bebfc76fa5", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,2)(5,2)": (0, "276390ed57b0f24d", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,2)(5,3)": (0, "729e37beb010b513", "e3b0c44298fc1c14"),
    "map --seifert 5;(2,1)(3,2)(5,4)": (0, "6bd7ad2e05b0417d", "e3b0c44298fc1c14"),
    # --text reports
    "map --seifert 3;(2,1)(2,1)(2,1) --text": (0, "588d3168d1a05bff", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,1)(4,3) --text": (0, "a524d909b4e8c3ac", "e3b0c44298fc1c14"),
    "map --seifert 2;(2,1)(3,2)(5,4) --text": (0, "6ca2c18537eeb491", "e3b0c44298fc1c14"),
}


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


def sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("argv", sorted(PINNED_OUTPUTS))
def test_pinned_product_outputs(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv.split())
    assert (code, sha16(out.getvalue()), sha16(err.getvalue())) == PINNED_OUTPUTS[argv]


def test_z29_times_icosahedral_is_complete_and_fast():
    # Z/29 x I*: embedding dimension 7, so Wahl's count is 15
    start = time.perf_counter()
    code, data = run(["map", "--seifert", "2;(2,1)(3,1)(5,1)"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert data["group"]["label"] == "Z/29 x I*"
    body = data["relations"]
    assert body["complete"] is True
    assert len(body["relations"]) == body["expected_relation_count"] == 15
    assert elapsed < 10.0


def test_z11_times_dihedral_48_is_complete_and_fast():
    # Z/11 x D*_48: embedding dimension 13, so Wahl's count is 66
    start = time.perf_counter()
    code, data = run(["map", "--seifert", "2;(2,1)(2,1)(12,1)"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert data["group"]["label"] == "Z/11 x D*_48"
    body = data["relations"]
    assert body["complete"] is True
    assert len(body["relations"]) == body["expected_relation_count"] == 66
    assert elapsed < 10.0


def test_z17_times_dihedral_36_is_complete_and_fast():
    # Z/17 x D*_36: embedding dimension 11, so Wahl's count is 45
    start = time.perf_counter()
    code, data = run(["map", "--seifert", "3;(2,1)(2,1)(9,1)"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert data["group"]["label"] == "Z/17 x D*_36"
    body = data["relations"]
    assert body["complete"] is True
    assert len(body["relations"]) == body["expected_relation_count"] == 45
    assert elapsed < 10.0


def test_z35_times_dihedral_36_is_complete_and_fast():
    # Z/35 x D*_36: embedding dimension 13, so Wahl's count is 66
    start = time.perf_counter()
    code, data = run(["map", "--seifert", "5;(2,1)(2,1)(9,1)"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert data["group"]["label"] == "Z/35 x D*_36"
    body = data["relations"]
    assert body["complete"] is True
    assert len(body["relations"]) == body["expected_relation_count"] == 66
    # 0.45 to 0.8 s on a shared 2-vCPU x86 host; an elimination over
    # Q(i, sqrt2, sqrt5) took 2.6 to 3.4 s there and fails the bound
    assert elapsed < 5.0
