"""Output checks: a link fails on a wrong exit code, on output that differs
from the reference, or on output that breaks an independent identity.

The reference pins a fixed subset of keys, so keys added later do not trip
it.  The independent checks use only the link data and classical formulas:

- exit code from the signs of e(L) and chi: a Seifert link with e >= 0 is
  not negative definite (3); otherwise chi <= 0 means infinite pi_1 (4);
  lens spaces and the remaining Seifert links are finite quotients (0);
- relation count against Wahl's (e - 1)(e - 2) / 2 for embedding dimension
  e >= 3 (Wahl, Ann. Sci. ENS 10, 1977);
- generator count against the embedding dimension;
- lens embedding dimension as the length of the Hirzebruch-Jung expansion
  of p / (p - q) plus 2 (Riemenschneider, Math. Ann. 209, 1974).

Classify output for lens spaces is checked against closed forms instead of
a table: a chain with every weight <= -2 has Z_min = the reduced cycle, so
multiplicity = sum a_i - 2(k - 1).  The reference recorder confirmed these
equal the package's output on the whole lens domain of classify-sweep.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Optional

from workloads import Link, hj_expand, lens_embedding_dimension

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SUBSET_KEYS = ("family", "group", "report", "map", "map_degrees", "relations.relations")

EXIT_OK, EXIT_NOT_LINK, EXIT_INFINITE = 0, 3, 4


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["cases"]


def subset(data: Optional[dict]) -> dict:
    """The pinned keys of one output; {} when the command printed nothing."""
    if data is None:
        return {}
    out = {}
    for key in SUBSET_KEYS:
        head, _, tail = key.partition(".")
        value = data.get(head)
        if value is not None and tail:
            value = value.get(tail)
        if value is not None:
            out[key] = value
    return out


def digest(data: Optional[dict]) -> str:
    text = json.dumps(subset(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def euler(link: Link):
    """(chi, e) with chi = 2 - k + sum 1/p_i and e = -b + sum q_i/p_i."""
    b, fibers = link.seifert
    chi = Fraction(2 - len(fibers)) + sum(Fraction(1, p) for p, _ in fibers)
    e = Fraction(-b) + sum(Fraction(q, p) for p, q in fibers)
    return chi, e


def expected_exit(link: Link) -> int:
    if link.lens is not None:
        return EXIT_OK
    chi, e = euler(link)
    if e >= 0:
        return EXIT_NOT_LINK
    return EXIT_INFINITE if chi <= 0 else EXIT_OK


def wahl_count(e: int) -> int:
    return (e - 1) * (e - 2) // 2


def lens_classify_subset(p: int, q: int) -> dict:
    chain = hj_expand(p, q)
    multiplicity = sum(chain) - 2 * (len(chain) - 1)
    return {
        "family": "lens",
        "group": {"family": "cyclic", "label": f"Z/{p}", "m": 1, "order": p, "p": p, "q": q},
        "report": {
            "arithmetic_genus": 0,
            "embedding_dimension": multiplicity + 1,
            "fundamental_cycle": [1] * len(chain),
            "multiplicity": multiplicity,
            "rational": True,
        },
    }


def check(link: Link, code, stdout: str, reference: dict):
    """(problem or None, parsed output or None) for one CLI call."""
    expected = expected_exit(link)
    if code != expected:
        return f"exit code {code}, expected {expected}", None
    data = None
    if code in (EXIT_OK, EXIT_INFINITE):
        try:
            data = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON", None
    elif stdout:
        return f"unexpected stdout with exit code {code}", None
    problem = _against_reference(link, code, data, reference) or _identities(link, data)
    return problem, data


def _against_reference(link: Link, code, data, reference):
    if link.lens is not None and link.argv[0] == "classify":
        if subset(data) != lens_classify_subset(*link.lens):
            return "classify output differs from the lens closed forms"
        return None
    pinned = reference.get(link.key)
    if pinned is None:
        return "no reference for this input"
    if [code, digest(data)] != pinned:
        return "output differs from the reference"
    return None


def _identities(link: Link, data):
    if data is None or "report" not in data:
        return None
    e = data["report"]["embedding_dimension"]
    if link.lens is not None and e != lens_embedding_dimension(*link.lens):
        return (f"embedding dimension {e}, Hirzebruch-Jung dual gives "
                f"{lens_embedding_dimension(*link.lens)}")
    if "map" in data:
        if len(data["map"]) != e:
            return f"{len(data['map'])} generators for embedding dimension {e}"
        count = len(data["relations"]["relations"])
        if e >= 3 and count != wahl_count(e):
            return f"{count} relations, Wahl's count is {wahl_count(e)}"
    return None
