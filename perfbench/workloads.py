"""Seeded inputs for the four benchmark workloads.

Every workload is a list of `Link`s: the argv handed to `singmap.cli.main`
plus the link data the output checks need.  The same seed always gives the
same list.  Draws whose cost grows steeply (the p of the long chains
L(p, p-1), cubic in p; the p and q of cyclic-map) take one value per equal
slice of their range, so every seed carries nearly the same cost profile
and run-to-run spread comes from the program, not from the draw.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Tuple

Fibers = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Link:
    """One call of the CLI: a named fixed case or a generated link."""

    argv: Tuple[str, ...]
    lens: Optional[Tuple[int, int]] = None
    seifert: Optional[Tuple[int, Fibers]] = None
    case: Optional[str] = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# name: (Seifert shorthand, --max-degree or None, Klein family, D* index)
FIXED_CASES = {
    "E6": ("2;(2,1)(3,2)(3,2)", None, "BINARY_TETRAHEDRAL", None),
    "E7": ("2;(2,1)(3,2)(4,3)", None, "BINARY_OCTAHEDRAL", None),
    "E8": ("2;(2,1)(3,2)(5,4)", None, "BINARY_ICOSAHEDRAL", None),
    "Z3xD20": ("2;(2,1)(2,1)(5,2)", None, "BINARY_DIHEDRAL", 5),
    "Z5xT": ("2;(2,1)(3,1)(3,1)", None, "BINARY_TETRAHEDRAL", None),
    "Z5xO": ("2;(2,1)(3,1)(4,3)", None, "BINARY_OCTAHEDRAL", None),
    "Z7xO": ("2;(2,1)(3,2)(4,1)", None, "BINARY_OCTAHEDRAL", None),
    # each bound is the degree of the link's highest minimal relation
    "Z11xO": ("2;(2,1)(3,1)(4,1)", 154, "BINARY_OCTAHEDRAL", None),
    "Z11xT": ("3;(2,1)(3,1)(3,1)", 132, "BINARY_TETRAHEDRAL", None),
    "Z7xI": ("2;(2,1)(3,2)(5,3)", 168, "BINARY_ICOSAHEDRAL", None),
}

PRODUCT_MAP_CASES = ("E6", "E7", "E8", "Z3xD20", "Z5xT", "Z5xO", "Z7xO")
PRODUCT_LARGE_M_CASES = ("Z11xO", "Z11xT", "Z7xI")

CYCLIC_LINKS = 150
CYCLIC_P_RANGE = (2, 40)
CYCLIC_CHAIN_RANGE = (80, 160)

CLASSIFY_LINKS = 2000
CLASSIFY_LENS_P_MAX = 400
CLASSIFY_LENS_MAX_CHAIN = 10
CLASSIFY_CHAIN_RANGE = (50, 200)
THREE_FIBER_P_MAX = 7
FOUR_FIBER_P_MAX = 4
B_RANGE = (1, 6)


def seifert_text(b: int, fibers: Fibers) -> str:
    return f"{b};" + "".join(f"({p},{q})" for p, q in fibers)


def parse_seifert(text: str) -> Tuple[int, Fibers]:
    b, rest = text.split(";")
    pairs = rest.strip("()").split(")(")
    return int(b), tuple(tuple(int(x) for x in pair.split(",")) for pair in pairs)


def fixed_link(name: str) -> Link:
    shorthand, max_degree, _, _ = FIXED_CASES[name]
    argv = ("map", "--seifert", shorthand)
    if max_degree is not None:
        argv += ("--max-degree", str(max_degree))
    return Link(argv, seifert=parse_seifert(shorthand), case=name)


def cyclic_link(p: int, q: int) -> Link:
    return Link(("map", "--lens", f"{p},{q}", "--max-degree", str(2 * p)), lens=(p, q))


def lens_classify_link(p: int, q: int) -> Link:
    return Link(("classify", "--lens", f"{p},{q}"), lens=(p, q))


def seifert_classify_link(b: int, fibers: Fibers) -> Link:
    return Link(("classify", "--seifert", seifert_text(b, fibers)), seifert=(b, fibers))


def coprime_residues(p: int) -> List[int]:
    return [q for q in range(1, p) if gcd(p, q) == 1]


def hj_expand(p: int, q: int) -> List[int]:
    """Hirzebruch-Jung expansion p/q = a1 - 1/(a2 - ...), every a_i >= 2."""
    out = []
    while q > 0:
        a = -(-p // q)
        out.append(a)
        p, q = q, a * q - p
    return out


def normal_fibers(p_max: int) -> List[Tuple[int, int]]:
    return [(p, q) for p in range(2, p_max + 1) for q in coprime_residues(p)]


def stratified(rng: random.Random, items: list, count: int) -> list:
    """One uniform draw from each of `count` equal slices of `items`; a
    slice left empty because `items` is short draws from all of them."""
    n = len(items)
    return [rng.choice(items[n * k // count:n * (k + 1) // count] or items)
            for k in range(count)]


def lens_embedding_dimension(p: int, q: int) -> int:
    """Length of the Hirzebruch-Jung expansion of p/(p - q), plus 2."""
    return len(hj_expand(p, p - q)) + 2


# -- finite input domains (shared with the reference recorder) ------------------


def three_fiber_domain() -> List[Tuple[int, Fibers]]:
    fibers = normal_fibers(THREE_FIBER_P_MAX)
    return [
        (b, ((2, 1), f2, f3))
        for b in range(B_RANGE[0], B_RANGE[1] + 1)
        for i, f2 in enumerate(fibers)
        for f3 in fibers[i:]
    ]


def four_fiber_domain() -> List[Tuple[int, Fibers]]:
    fibers = normal_fibers(FOUR_FIBER_P_MAX)
    out = []

    def extend(prefix, start):
        if len(prefix) == 4:
            out.extend((b, tuple(prefix)) for b in range(B_RANGE[0], B_RANGE[1] + 1))
            return
        for k in range(start, len(fibers)):
            extend(prefix + [fibers[k]], k)

    extend([], 0)
    return out


def cyclic_domain() -> List[Tuple[int, int]]:
    lo, hi = CYCLIC_P_RANGE
    pairs = [(p, q) for p in range(lo, hi + 1) for q in coprime_residues(p)]
    lo, hi = CYCLIC_CHAIN_RANGE
    return pairs + [(p, p - 1) for p in range(lo, hi + 1)]


# -- workloads ---------------------------------------------------------------------


def fixed_cases(names):
    """A workload of fixed cases; the seed only shuffles their order."""

    def generate(rng: random.Random) -> List[Link]:
        links = [fixed_link(name) for name in names]
        rng.shuffle(links)
        return links

    return generate


def cyclic_map(rng: random.Random) -> List[Link]:
    """95% p in [2, 40] with q among the coprime residues, 5% long chains
    L(p, p-1) with p in [80, 160].  Each p occurs equally often, give or take
    one; its q values are drawn one per slice of its residues ordered by
    embedding dimension, which sets the cost of the relation scan."""
    chains = round(0.05 * CYCLIC_LINKS)
    span = list(range(CYCLIC_P_RANGE[0], CYCLIC_P_RANGE[1] + 1))
    rest = CYCLIC_LINKS - chains
    ps = span * (rest // len(span)) + stratified(rng, span, rest % len(span))
    links = []
    for p in span:
        residues = sorted(coprime_residues(p),
                          key=lambda q: (lens_embedding_dimension(p, q), q))
        links += [cyclic_link(p, q) for q in stratified(rng, residues, ps.count(p))]
    lo, hi = CYCLIC_CHAIN_RANGE
    links += [cyclic_link(p, p - 1) for p in stratified(rng, list(range(lo, hi + 1)), chains)]
    rng.shuffle(links)
    return links


def classify_sweep(rng: random.Random) -> List[Link]:
    """50% three-fiber (2,1)(p,q)(p',q') with b in [1, 6] and p <= 7, 10%
    four-fiber, 38% lens with p <= 400 and a chain of at most 10 vertices,
    2% long chains L(p, p-1) with p in [50, 200]."""
    three = three_fiber_domain()
    four = four_fiber_domain()
    n_three = CLASSIFY_LINKS * 50 // 100
    n_four = CLASSIFY_LINKS * 10 // 100
    n_chain = CLASSIFY_LINKS * 2 // 100
    n_lens = CLASSIFY_LINKS - n_three - n_four - n_chain
    links = [seifert_classify_link(*rng.choice(three)) for _ in range(n_three)]
    links += [seifert_classify_link(*rng.choice(four)) for _ in range(n_four)]
    while n_lens:
        p = rng.randint(2, CLASSIFY_LENS_P_MAX)
        q = rng.choice(coprime_residues(p))
        if len(hj_expand(p, q)) <= CLASSIFY_LENS_MAX_CHAIN:
            links.append(lens_classify_link(p, q))
            n_lens -= 1
    lo, hi = CLASSIFY_CHAIN_RANGE
    chains = stratified(rng, list(range(lo, hi + 1)), n_chain)
    links += [lens_classify_link(p, p - 1) for p in chains]
    rng.shuffle(links)
    return links


WORKLOADS = {
    "product-map": fixed_cases(PRODUCT_MAP_CASES),
    "product-large-m": fixed_cases(PRODUCT_LARGE_M_CASES),
    "cyclic-map": cyclic_map,
    "classify-sweep": classify_sweep,
}


def generate(workload: str, seed: int) -> List[Link]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def klein_families(links: List[Link]) -> List[Tuple[str, Optional[int]]]:
    """Klein families (GroupFamily member name, D* index) the links map
    through; the warm-up verifies each once so the loop finds them cached."""
    seen = []
    for link in links:
        if link.case is not None:
            _, _, family, n = FIXED_CASES[link.case]
            if (family, n) not in seen:
                seen.append((family, n))
    return seen


def inputs_digest(links: List[Link]) -> str:
    text = json.dumps([list(link.argv) for link in links])
    return hashlib.sha256(text.encode()).hexdigest()[:16]
