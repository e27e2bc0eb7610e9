"""Forbidden-graph specifications and the machinery behind "F-free".

The spec grammar, also used verbatim on the command line:

* ``K<s>``      complete graph on s >= 2 vertices, i.e. ``F1,<s>``
* ``F<k>``      k triangles sharing exactly one common vertex, ``F<k>,3``
* ``F<k>,<s>``  k copies of K_s (s >= 3) sharing a single vertex
* ``g6:<str>``  arbitrary graph given as graph6, named by its text

A size-only spec is named by its canonical spelling, without leading
zeros: ``K<s>`` when k = 1, else ``F<k>`` when s = 3, else ``F<k>,<s>``.

Containment is subgraph containment (not induced): G contains F iff
some injection of V(F) into V(G) maps every edge of F onto an edge of
G.  F does not need to be connected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import _kernels
from .errors import ParseError, SizeCapError
from .graphs import _G6_SPACE, LIST_CAP, Graph, _check_bitset_cap, from_graph6

CHROMATIC_CAP = 12
_SIZE_DIGITS = len(str(LIST_CAP))

_SIZE_RE = re.compile(r"^(?:K(\d+)|F(\d+)(?:,(\d+))?)$")  # K<s> is F1,<s>; F<k> is F<k>,3


@dataclass(frozen=True)
class ForbiddenSpec:
    """A parsed forbidden graph with its derived coloring data.

    ``r = chi - 1`` is the class count of the Turan graphs that
    edge-extremal F-free graphs approximate.  ``chi`` is checked on
    construction: up to CHROMATIC_CAP vertices it must be the exact
    chromatic number, which is computed when ``chi`` is left out;
    above the cap it must lie in [2, max degree + 1].
    """

    source: str
    graph: Graph
    chi: int | None = None

    def __post_init__(self):
        g = self.graph
        if g.m == 0:
            raise ValueError(f"forbidden graph must have at least one edge: {self.source!r}")
        if self.chi is None:
            object.__setattr__(self, "chi", chromatic_number(g))  # SizeCapError above the cap
        elif g.n <= CHROMATIC_CAP:
            chi = chromatic_number(g)
            if self.chi != chi:
                raise ValueError(f"chi={self.chi} is not the chromatic number {chi} of {self.source!r}")
        elif not 2 <= self.chi <= max(g.degrees()) + 1:
            raise ValueError(
                f"chi={self.chi} of {self.source!r} is outside [2, max degree + 1]"
            )

    @property
    def r(self) -> int:
        return self.chi - 1


def intersecting_cliques(k: int, s: int) -> Graph:
    """k copies of K_s glued at a single shared vertex, vertex 0."""
    if k < 1 or s < 2:
        raise ValueError(f"need k >= 1 and s >= 2, got k={k}, s={s}")
    n = 1 + k * (s - 1)
    rows = [(1 << n) - 2]
    for lo in range(1, n, s - 1):  # a copy's other vertices: lo .. lo + s - 2
        block = ((1 << (s - 1)) - 1) << lo | 1
        rows.extend(block & ~(1 << v) for v in range(lo, lo + s - 1))
    return Graph.from_adj(tuple(rows))


def friendship_graph(k: int) -> Graph:
    """k triangles sharing exactly one common vertex (k=2: bowtie)."""
    return intersecting_cliques(k, 3)


def _size(run: str) -> int:
    """A size-only spec's digit run as an int.  A run of more significant
    digits than LIST_CAP has is a size above LIST_CAP, and k >= 1 copies
    of K_s, s >= 2, have n >= max(k + 1, s) vertices and n(n - 1)/2 >= n
    pairs, so it is past the pair cap whatever the spec.  It is refused
    before ``int()``, which refuses runs past 4 300 digits itself."""
    digits = run.lstrip("0") or "0"
    if len(digits) > _SIZE_DIGITS:
        raise SizeCapError(f"size-only patterns cap n(n - 1)/2 at {LIST_CAP}, "
                           f"got a size with {len(digits)} digits")
    return int(digits)


def _check_pairs(token: str, n: int):
    """Refuse a size-only spec on n vertices with more than LIST_CAP vertex
    pairs, before it is built: its bitset rows hold up to n bits each and
    its edge list has at most n(n - 1)/2 entries."""
    pairs = n * (n - 1) // 2
    if pairs > LIST_CAP:
        raise SizeCapError(f"size-only patterns cap n(n - 1)/2 at {LIST_CAP}, "
                           f"got {pairs} (n = {n}) in {token!r}")


def parse_forbidden(spec: str) -> ForbiddenSpec:
    """Parse a forbidden-graph spec string into a ForbiddenSpec.

    Only space, tab, CR and LF around the spec are ignored, as in graph6.
    """
    token = spec.strip(_G6_SPACE)
    if m := _SIZE_RE.match(token):
        k, s = _size(m[2] or "1"), _size(m[1] or m[3] or "3")
        s_min = 2 if m[1] else 3
        if k < 1:
            raise ParseError(f"need k >= 1 in {token!r}")
        if s < s_min:
            raise ParseError(f"clique size must be >= {s_min} in {token!r}")
        _check_pairs(token, 1 + k * (s - 1))
        name = f"K{s}" if k == 1 else f"F{k}" if s == 3 else f"F{k},{s}"
        return ForbiddenSpec(name, intersecting_cliques(k, s), chi=s)
    if token.startswith("g6:"):
        body = token[3:]
        try:
            graph = from_graph6(body)
        except ParseError as exc:
            # the decoder counts from the body; ParseError counts from the token
            offset = None if exc.offset is None else exc.offset + len("g6:")
            raise ParseError(f"bad graph6 in {token!r}: {exc.message}", offset=offset) from exc
        if graph.m == 0:
            raise ParseError(f"forbidden graph must have at least one edge: {token!r}")
        return ForbiddenSpec(token, graph)
    raise ParseError(
        f"unknown forbidden-graph spec {token!r} "
        "(expected K<s>, F<k>, F<k>,<s>, or g6:<graph6>)"
    )


def contains_subgraph(g: Graph, pattern: Graph) -> bool:
    """True iff g has a (not necessarily induced) subgraph copy of pattern.

    A copy whose largest host vertex is v lies in g[0..v] and uses v, so
    g contains the pattern iff the anchored kernel finds a copy through v
    in the first v + 1 vertices for some v >= pattern.n - 1.
    """
    _check_bitset_cap(g.n)
    if pattern.n == 0:
        return True
    if pattern.n > g.n or pattern.m > g.m:
        return False
    return any(
        _kernels.contains_subgraph_anchored(v + 1, g.adj, pattern.n, pattern.adj)
        for v in range(pattern.n - 1, g.n)
    )


def is_free(g: Graph, spec: ForbiddenSpec) -> bool:
    return not contains_subgraph(g, spec.graph)


# ---------------------------------------------------------------------------
# r-partitions by branch and bound: chromatic number, certified max-cut
# ---------------------------------------------------------------------------


def _partition_below(g: Graph, r: int, bound: int) -> list[int] | None:
    """The first least-cost r-assignment with fewer than ``bound``
    internal edges, or None when every assignment has at least ``bound``.

    Branch and bound over assignments of vertices 0..n-1 in
    symmetry-broken order: vertex i may only open class min(i, used
    classes).  A leaf is kept only when it beats the best so far, so
    the result is the first least-cost leaf in that order.  With
    ``bound`` 1 it is a proper r-coloring.
    """
    n = g.n
    best, best_assign = bound, None
    assign = [0] * n
    masks = [0] * r

    def rec(v: int, used: int, cost: int):
        nonlocal best, best_assign
        if v == n:
            best, best_assign = cost, assign[:]
            return
        row = g.adj[v]
        for c in range(min(used + 1, r)):
            extra = (row & masks[c]).bit_count()
            if cost + extra >= best:
                continue
            assign[v] = c
            masks[c] |= 1 << v
            rec(v + 1, max(used, c + 1), cost + extra)
            masks[c] &= ~(1 << v)

    if bound > 0:  # every leaf but n = 0's empty one passes the prune first
        rec(0, 0, 0)
    return best_assign


def chromatic_number(g: Graph) -> int:
    """Exact vertex chromatic number: the least k that admits a coloring."""
    if g.n > CHROMATIC_CAP:
        raise SizeCapError(
            f"exact chromatic number caps n at {CHROMATIC_CAP}, got {g.n}"
        )
    return next(k for k in range(g.n + 1) if _partition_below(g, k, 1) is not None)
