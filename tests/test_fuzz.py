"""Seeded fuzz test of the input boundary.

Lens and Seifert shorthands and --graph JSON descriptors, well formed and
malformed, go through cli.main.  Whatever the input, the exit code is one of
the documented ones and no exception escapes: a traceback is a crash.  Every
chain stays short (p <= 60), so each call is cheap.
"""

import io
import json
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

from singmap.cli import main

EXIT_CODES = {0, 2, 3, 4, 5}
P_MAX = 60

# tokens that are not plain small integers
ODD_TOKENS = ["", " ", "x", "3.5", "1e2", "-0", "+4", "0x10", "1_0", "٣", "nan", "()", "7 7"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse usage errors
            code = stop.code
        except Exception:
            return None, traceback.format_exc()
    return code, err.getvalue()


def assert_clean(argv, detail=""):
    code, err = run(argv)
    assert code in EXIT_CODES and "Traceback" not in err, (argv, detail, code, err)
    return code


def number(rng):
    if rng.random() < 0.1:
        return rng.choice(ODD_TOKENS)
    return str(rng.randint(-3, P_MAX))


def coprime_pair(rng, p_max=P_MAX):
    p = rng.randint(2, p_max)
    return p, rng.choice([q for q in range(1, p) if gcd(p, q) == 1])


def lens_shorthand(rng):
    if rng.random() < 0.5:
        return "%d,%d" % coprime_pair(rng)
    parts = [number(rng) for _ in range(rng.choice([1, 2, 2, 2, 3]))]
    return rng.choice([",", ", ", ";", ",,"]).join(parts)


def fiber_text(rng):
    if rng.random() < 0.7:
        return "(%d,%d)" % coprime_pair(rng, 12)
    return "(%s,%s)" % (number(rng), number(rng))


def seifert_shorthand(rng):
    b = str(rng.randint(0, 4)) if rng.random() < 0.9 else number(rng)
    fibers = "".join(fiber_text(rng) for _ in range(rng.choice([0, 1, 2, 3, 3, 3, 4, 5])))
    text = f"{b};{fibers}"
    if rng.random() < 0.15 and text:
        cut = rng.randrange(len(text))
        text = text[:cut] + rng.choice(["", "(", ")", ";", "a", " "]) + text[cut + 1 :]
    return text


def random_tree_edges(rng, n):
    labels = list(range(n))
    rng.shuffle(labels)
    return [[labels[v], labels[rng.randrange(v)]] for v in range(1, n)]


def junk(rng, depth=0):
    kinds = ["int", "float", "str", "null", "bool"]
    if depth < 3:
        kinds += ["list", "dict"]
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.randint(-10, 10)
    if kind == "float":
        return rng.choice([2.5, -1.0, 1e300])
    if kind == "str":
        return rng.choice(["", "2", "lens", "-2"])
    if kind == "null":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "list":
        return [junk(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(["lens", "seifert", "graph", "b", "fibers", "weights", "edges"]): junk(rng, depth + 1)}


def graph_descriptor(rng):
    n = rng.randint(1, 9)
    weights = [rng.randint(-6, 1) for _ in range(n)]
    edges = random_tree_edges(rng, n)
    mutation = rng.choice(
        ["none", "none", "none", "cycle", "drop", "range", "loop", "shape", "weight", "edges"]
    )
    if mutation == "cycle" and n >= 2:
        edges.append([0, n - 1] if [0, n - 1] not in edges else [n - 1, 0])
    elif mutation == "drop" and edges:
        edges.pop(rng.randrange(len(edges)))
    elif mutation == "range":
        edges.append([rng.randrange(n), rng.choice([n, n + 5, -1, 10**30])])
    elif mutation == "loop":
        edges.append([n - 1, n - 1])
    elif mutation == "shape":
        edges.append(rng.choice([[0], [0, 1, 2], [], "01", {"a": 0}, [0, "1"], [0.0, 1]]))
    elif mutation == "weight":
        weights[rng.randrange(n)] = junk(rng)
    elif mutation == "edges":
        edges = junk(rng)
    return {"graph": {"weights": weights, "edges": edges}}


def descriptor(rng):
    kind = rng.choice(["graph", "graph", "graph", "lens", "seifert", "junk"])
    if kind == "graph":
        return graph_descriptor(rng)
    if kind == "lens":
        value = list(coprime_pair(rng)) if rng.random() < 0.5 else junk(rng)
        return {"lens": value}
    if kind == "seifert":
        fibers = [list(coprime_pair(rng, 12)) for _ in range(rng.randint(0, 4))]
        body = {"b": rng.randint(0, 4), "fibers": fibers}
        if rng.random() < 0.4:
            body[rng.choice(["b", "fibers", "extra"])] = junk(rng)
        return {"seifert": body}
    return junk(rng)


def test_shorthands():
    rng = random.Random(5001)
    codes = set()
    for _ in range(800):
        flag, text = rng.choice(
            [("--lens", lens_shorthand), ("--seifert", seifert_shorthand)]
        )
        text = text(rng)
        codes.add(assert_clean(["classify", flag, text, rng.choice(["--json", "--text"])]))
    # every verdict is reached, not only parse errors
    assert {0, 2, 3, 4} <= codes


def test_graph_descriptors(tmp_path):
    rng = random.Random(5002)
    path = tmp_path / "link.json"
    codes = set()
    for _ in range(800):
        data = descriptor(rng)
        text = json.dumps(data)
        if rng.random() < 0.05:
            text = text[: rng.randrange(len(text) + 1)]  # truncated JSON
        path.write_text(text)
        codes.add(assert_clean(["classify", "--graph", str(path)], text))
    assert {0, 2, 3, 4} <= codes


def test_files_that_are_not_descriptors(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    for path in (deep, binary, tmp_path, tmp_path / "missing.json"):
        assert assert_clean(["classify", "--graph", str(path)]) == 2


def test_map_on_small_inputs():
    rng = random.Random(5003)
    codes = set()
    for _ in range(60):
        if rng.random() < 0.6:
            link = ["--lens", "%d,%d" % coprime_pair(rng, 12)]
        else:
            fibers = "".join("(%d,%d)" % coprime_pair(rng, 5) for _ in range(rng.choice([2, 3, 3])))
            link = ["--seifert", f"{rng.randint(1, 3)};{fibers}"]
        bound = rng.choice([str(rng.randint(-2, 12)), "x", "2.5"])
        codes.add(assert_clean(["map", *link, "--max-degree", bound]))
    assert 0 in codes and 2 in codes
