"""Links of surface singularities: Seifert invariants and plumbing graphs.

Seifert data is kept in normal form {b; (p1,q1)..(pk,qk)} with gcd(p,q) = 1
and 1 <= q < p; the central plumbing weight is -b.  Lens spaces are stored
as the bare pair (p, q).  Negative continued fractions translate between
fiber pairs and bamboo weights, and the orbifold Euler characteristic and
rational Euler number decide which links have finite fundamental group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index
from typing import List, Sequence, Tuple


class LinkError(ValueError):
    """Invalid or non-normal-form link description."""


# One grammar for the numbers read from text, in the link shorthands and in
# the degree bounds: nonnegative integers in ASCII digits, with optional
# ASCII whitespace around them (compile with re.ASCII).  Plain \d, \s and
# int() would also read other scripts' digits and spaces, signs and
# underscores.
_NUMBER = r"\s*([0-9]+)\s*"


def _index(value) -> int:
    """operator.index, refusing a bool as it refuses a float: True is not
    the integer 1 in a link or a bound."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return index(value)


def _check_lens_pair(p: int, q: int) -> Tuple[int, int]:
    """The lens-pair rule, shared by LensData, hj_expand and
    invariants.cyclic_invariant_generators: p and q read through _index
    (TypeError for a float, a string or a bool), then LinkError unless
    (p, q) is (1, 0) or 1 <= q < p with gcd(p, q) = 1.  Returns the pair
    as integers."""
    p, q = _index(p), _index(q)
    if p < 1:
        raise LinkError(f"lens p must be positive, got {p}")
    if p == 1:
        if q != 0:
            raise LinkError("lens (1, q) requires q = 0")
    elif not (1 <= q < p):
        raise LinkError(f"lens q must satisfy 1 <= q < p, got ({p}, {q})")
    elif gcd(p, q) != 1:
        raise LinkError(f"lens pair ({p}, {q}) is not coprime")
    return p, q


@dataclass(frozen=True)
class LensData:
    """Lens space L(p, q): cyclic quotient link; (1, 0) is the 3-sphere."""

    p: int
    q: int

    def __post_init__(self):
        # a float, a string or a bool is a TypeError here, not deep in lcm or gcd
        p, q = _check_lens_pair(self.p, self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class SeifertData:
    """Seifert invariants over the sphere: {b; (p_i, q_i)}.

    The constructor reads, checks and canonicalizes its integers: each
    fiber is read through _index (TypeError for a float, a string or a
    bool), a fiber with p < 1 or q < 0 is a bad fiber, the non-singular
    fibers (1, 0) are dropped and the rest sorted ascending, and then b is
    read.  Every kept fiber, (1, q) with q != 0 included, must be in normal
    form, or LinkError is raised.  So two lists of the same fibers in any
    order give equal data."""

    b: int
    fibers: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        kept = []
        for p, q in self.fibers:
            p, q = _index(p), _index(q)
            if p < 1 or q < 0:
                raise LinkError(f"bad fiber ({p}, {q})")
            if (p, q) != (1, 0):
                kept.append((p, q))
        object.__setattr__(self, "fibers", tuple(sorted(kept)))
        object.__setattr__(self, "b", _index(self.b))
        for p, q in self.fibers:
            if not 1 <= q < p:
                raise LinkError(f"fiber ({p}, {q}) is not in normal form")
            if gcd(p, q) != 1:
                raise LinkError(f"fiber ({p}, {q}) is not coprime")


@dataclass(frozen=True)
class PlumbingGraph:
    """Weighted tree: vertex self-intersections and unordered edges.

    The constructor reads weights and edges through _index (TypeError for
    a float, a string or a bool), writes each edge (i, j) with i < j and
    sorts the edge list, so the same graph compares equal however its
    edges were written; an edge that is a loop or names no vertex is a
    LinkError.  Every question about the tree's shape reads one walk: the
    leaves-first elimination of negdef_check, graph_to_link's tree test,
    bamboo and legs, and the CLI's text drawing."""

    weights: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(_index(w) for w in self.weights))
        object.__setattr__(self, "edges", tuple(sorted(
            tuple(sorted((_index(i), _index(j)))) for i, j in self.edges)))
        for i, j in self.edges:
            if not 0 <= i < j < self.size:
                raise LinkError(f"bad edge ({i}, {j})")

    @property
    def size(self) -> int:
        return len(self.weights)

    @cached_property
    def _adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        adjacent = [[] for _ in self.weights]
        for a, b in self.edges:
            adjacent[a].append(b)
            adjacent[b].append(a)
        return tuple(tuple(sorted(row)) for row in adjacent)

    @cached_property
    def _negative_definite(self) -> bool:
        return _leaves_first_elimination(self)

    def neighbors(self, i: int) -> Tuple[int, ...]:
        return self._adjacency[i]

    def valences(self) -> List[int]:
        return [len(row) for row in self._adjacency]

    def walk(self, root: int = 0) -> List[Tuple[int, int, int]]:
        """(vertex, parent, depth) for each vertex reached from root, in
        depth-first preorder with neighbours in ascending order; the root's
        parent is -1, and the empty graph reaches nothing.  Each vertex is
        taken once, so a cycle or a second component cannot make it loop,
        and an explicit stack lets long chains walk too."""
        seen = [False] * self.size
        order = []
        stack = [(root, -1, 0)] if self.size else []
        while stack:
            vertex, parent, depth = stack.pop()
            if seen[vertex]:
                continue
            seen[vertex] = True
            order.append((vertex, parent, depth))
            stack.extend((j, vertex, depth + 1) for j in reversed(self._adjacency[vertex]) if not seen[j])
        return order


# -- Hirzebruch-Jung continued fractions ------------------------------------


def hj_expand(p: int, q: int) -> List[int]:
    """Expansion p/q = a1 - 1/(a2 - 1/(... - 1/ak)) with every a_i >= 2.

    The smooth case p = 1 (with q = 0) yields the empty expansion.  Any
    other pair breaking the lens-pair rule of LensData (_check_lens_pair)
    raises LinkError with LensData's message.
    """
    p, q = _check_lens_pair(p, q)
    out = []
    while q > 0:
        a = -(-p // q)  # ceil division
        out.append(a)
        p, q = q, a * q - p
    return out


def hj_value(cf: Sequence[int]) -> Tuple[int, int]:
    """Evaluate a negative continued fraction back to the pair (p, q); each
    entry is read through _index and must be at least 2."""
    cf = [_index(a) for a in cf]
    if any(a < 2 for a in cf):
        raise LinkError(f"all entries must be >= 2, got {list(cf)}")
    p, q = 1, 0
    for a in reversed(cf):
        p, q = a * p - q, p
    return p, q


# -- Seifert <-> plumbing -----------------------------------------------------


def seifert_to_plumbing(link) -> PlumbingGraph:
    """Star-shaped graph with central weight -b, or a bamboo for lens data."""
    if isinstance(link, LensData):
        chain = hj_expand(link.p, link.q)
        if not chain:
            # smooth point: the 3-sphere as a single (-1)-vertex
            return PlumbingGraph([-1], [])
        weights = [-a for a in chain]
        edges = [(i, i + 1) for i in range(len(chain) - 1)]
        return PlumbingGraph(weights, edges)
    weights = [-link.b]
    edges = []
    for p, q in link.fibers:
        chain = hj_expand(p, q)
        previous = 0
        for a in chain:
            weights.append(-a)
            edges.append((previous, len(weights) - 1))
            previous = len(weights) - 1
    return PlumbingGraph(weights, edges)


def negdef_check(graph: PlumbingGraph) -> bool:
    """Exact negative-definiteness of the intersection matrix of a tree.

    Gaussian elimination on -M that takes leaves first, which on a tree
    creates no fill-in (Neumann's plumbing calculus): each vertex's pivot is
    -w_v minus 1/pivot of each of its children, and -M is positive definite
    iff every pivot is positive.  The reversed walk from vertex 0 puts every
    child before its parent.  Linear in the number of vertices, and run
    once per graph: the answer is kept on the graph, so classify_link and
    fundamental_cycle share one elimination.  LinkError when the graph is
    not a tree.
    """
    return graph._negative_definite


def _leaves_first_elimination(graph: PlumbingGraph) -> bool:
    walk = graph.walk()
    if not graph.size or len(walk) != graph.size:
        raise LinkError("graph must be connected")
    if len(graph.edges) != graph.size - 1:
        raise LinkError("graph must be a tree")
    pivots = [Fraction(-w) for w in graph.weights]
    for v, parent, _ in reversed(walk):
        if pivots[v] <= 0:
            return False
        if parent >= 0:
            pivots[parent] -= 1 / pivots[v]
    return True


# -- Euler invariants and finiteness ------------------------------------------


def euler_invariants(link) -> Tuple[Fraction, Fraction]:
    """(orbifold Euler characteristic, rational Euler number).

    chi = 2 - k + sum 1/p_i and e = -b + sum q_i/p_i (Jankins-Neumann),
    summed over the common denominator lcm(p_i).  Lens data L(p, q) is the
    Seifert data b = 0 with the single fiber (p, q).
    """
    if isinstance(link, LensData):
        b, fibers = 0, ((link.p, link.q),)
    else:
        b, fibers = link.b, link.fibers
    den = lcm(*(p for p, _ in fibers))
    chi = Fraction((2 - len(fibers)) * den + sum(den // p for p, _ in fibers), den)
    e = Fraction(sum(q * (den // p) for p, q in fibers) - b * den, den)
    return chi, e


class FamilyTag(enum.Enum):
    LENS = "lens"
    DIHEDRAL = "dihedral"
    TETRAHEDRAL = "tetrahedral"
    OCTAHEDRAL = "octahedral"
    ICOSAHEDRAL = "icosahedral"
    NOT_FINITE = "not-finite"


@dataclass(frozen=True)
class Family:
    """Recognized finite-pi1 family with its fiber parameters and the
    link's Euler invariants chi and e (see euler_invariants).

    params: (p, q) for LENS and DIHEDRAL, (q1, q2) for the three polyhedral
    families, () for NOT_FINITE.
    """

    tag: FamilyTag
    params: Tuple[int, ...]
    chi: Fraction
    e: Fraction

    @property
    def is_finite(self) -> bool:
        return self.tag is not FamilyTag.NOT_FINITE


def _chain_to_lens(chain: Sequence[int]) -> Tuple[int, int]:
    """Canonical (p, q) of a bamboo, reading from the end giving smaller q:
    read from the other end, the chain gives q^-1 mod p."""
    if not chain:
        return (1, 0)
    p, q = hj_value(chain)
    return (p, min(q, pow(q, -1, p)))


def seifert_to_lens(link: SeifertData) -> LensData:
    """Collapse Seifert data with at most two singular fibers to a lens space."""
    if len(link.fibers) > 2:
        raise LinkError("only 0, 1 or 2 singular fibers give a lens space")
    if link.b < 2:
        raise LinkError(f"central weight -b with b = {link.b} is not in normal form")
    chain: List[int] = []
    if len(link.fibers) >= 1:
        chain.extend(reversed(hj_expand(*link.fibers[0])))
    chain.append(link.b)
    if len(link.fibers) == 2:
        chain.extend(hj_expand(*link.fibers[1]))
    return LensData(*_chain_to_lens(chain))


def finite_pi1_family(link) -> Family:
    """Match normalized link data against the finite-fundamental-group
    families, carrying the link's Euler invariants; NOT_FINITE when
    chi <= 0 or e = 0."""
    chi, e = euler_invariants(link)
    return Family(*_family_of(link, chi, e), chi, e)


def _family_of(link, chi: Fraction, e: Fraction) -> Tuple[FamilyTag, Tuple[int, ...]]:
    if isinstance(link, LensData):
        return FamilyTag.LENS, (link.p, link.q)
    if chi <= 0 or e == 0:
        return FamilyTag.NOT_FINITE, ()
    if len(link.fibers) <= 2:
        lens = seifert_to_lens(link)
        return FamilyTag.LENS, (lens.p, lens.q)
    # chi > 0 leaves three fibers only on the platonic triples (2, 2, p),
    # (2, 3, 3), (2, 3, 4) and (2, 3, 5); p = 2 forces q = 1
    _, (p2, q2), (p3, q3) = sorted(link.fibers)
    if p2 == 2:
        return FamilyTag.DIHEDRAL, (p3, q3)
    tag = {3: FamilyTag.TETRAHEDRAL, 4: FamilyTag.OCTAHEDRAL, 5: FamilyTag.ICOSAHEDRAL}[p3]
    return tag, (q2, q3)


# -- plumbing graph -> link ----------------------------------------------------


def graph_to_link(graph: PlumbingGraph):
    """Recognize a normal-form bamboo or 3-legged star; reject anything else.

    One walk answers everything: it starts at the first vertex of valence
    3, or else at the first of least valence (an end of a bamboo, or the
    lone vertex), and the graph is a tree when it has one edge fewer than
    vertices and the walk reaches them all.  Bamboos give LensData, read
    as the walk (q canonicalized to the smaller of the two orientations);
    stars give SeifertData, each leg the part of the walk from the centre
    that starts at depth 1.
    """
    valences = graph.valences()
    centers = [i for i, v in enumerate(valences) if v == 3]
    root = centers[0] if centers else min(range(graph.size), key=valences.__getitem__, default=0)
    walk = graph.walk(root)
    if len(graph.edges) != graph.size - 1 or len(walk) != graph.size:
        raise LinkError("plumbing graph must be a connected tree")
    if graph.size == 1 and graph.weights[0] == -1:
        return LensData(1, 0)
    if any(v > 3 for v in valences):
        raise LinkError("vertex of valence > 3: not a bamboo or 3-legged star")
    if len(centers) > 1:
        raise LinkError("more than one branching vertex")
    if not centers:
        if any(w > -2 for w in graph.weights):
            raise LinkError("bamboo weight above -2: not in normal form")
        return LensData(*_chain_to_lens([-graph.weights[v] for v, _, _ in walk]))
    b = -graph.weights[root]
    if b < 2:
        raise LinkError(f"central weight {graph.weights[root]} is not in normal form")
    legs: List[List[int]] = []
    for v, _, depth in walk[1:]:
        if graph.weights[v] > -2:
            raise LinkError("leg weight above -2: not in normal form")
        if depth == 1:
            legs.append([])
        legs[-1].append(-graph.weights[v])
    return SeifertData(b, [hj_value(leg) for leg in legs])
