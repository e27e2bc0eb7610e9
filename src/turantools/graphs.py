"""Immutable simple graphs with bitset adjacency, builders, and graph6.

Vertices are ``0..n-1``; adjacency is one integer bitmask per vertex.
Graphs are values: every operation returns a new instance, so they can
be shared freely across threads and worker processes.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import _kernels
from .errors import ParseError, SizeCapError

BITSET_CAP = 64  # combinatorial kernels keep one machine word per row
LIST_CAP = 1 << 21  # entries a size-only input may expand into (parts, zero coefficients)
_G6_SPACE = " \t\r\n"  # graph6 bytes are 63..126; readers skip only these around them


def _check_pair(n: int, u: int, v: int):
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            _check_pair(n, u, v)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def from_adj(cls, rows: tuple[int, ...]) -> "Graph":
        """Wrap prevalidated adjacency rows (internal fast path)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(rows))
        object.__setattr__(g, "adj", tuple(rows))
        return g

    @property
    def m(self) -> int:
        """Edge count, counted on each read."""
        return sum(r.bit_count() for r in self.adj) // 2

    def __setattr__(self, *_):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- queries ----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.adj]

    def neighbors(self, v: int) -> Iterator[int]:
        row = self.adj[v]
        while row:
            u = (row & -row).bit_length() - 1
            yield u
            row &= row - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            while row:
                v = (row & -row).bit_length() - 1 + u + 1
                yield (u, v)
                row &= row - 1

    def non_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not (self.adj[u] >> v) & 1:
                    yield (u, v)

    def connected_components(self) -> list[list[int]]:
        seen = 0
        comps = []
        for s in range(self.n):
            if (seen >> s) & 1:
                continue
            comp = 1 << s
            frontier = 1 << s
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = self.adj[v] & ~comp
                comp |= new
                frontier |= new
            seen |= comp
            comps.append([v for v in range(self.n) if (comp >> v) & 1])
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    # -- derived graphs ----------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        _check_pair(self.n, u, v)
        rows = list(self.adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph.from_adj(tuple(rows))

    def without_edge(self, u: int, v: int) -> "Graph":
        _check_pair(self.n, u, v)
        rows = list(self.adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph.from_adj(tuple(rows))

    def relabel(self, perm: Iterable[int]) -> "Graph":
        """Image under ``v -> perm[v]``; ``perm`` must permute range(n)."""
        perm = list(perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm} is not a permutation of range({self.n})")
        rows = [0] * self.n
        for u in range(self.n):
            row = self.adj[u]
            nr = 0
            while row:
                v = (row & -row).bit_length() - 1
                nr |= 1 << perm[v]
                row &= row - 1
            rows[perm[u]] = nr
        return Graph.from_adj(tuple(rows))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph.from_adj(tuple(full & ~(1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_multipartite(parts: Iterable[int]) -> Graph:
    """Complete multipartite graph with the given class sizes.

    Edges join exactly the pairs in distinct classes, so the edge count
    is (n^2 - sum of squared sizes) / 2.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("part sizes must be a nonempty list")
    if any(p <= 0 for p in parts):
        raise ValueError(f"part sizes must be positive, got {parts}")
    full = (1 << sum(parts)) - 1
    rows = []
    start = 0
    for p in parts:
        # parts are contiguous: every vertex of this one gets the same row
        rows += [full & ~(((1 << p) - 1) << start)] * p
        start += p
    return Graph.from_adj(tuple(rows))


def turan_parts(n: int, r: int) -> list[int]:
    """Balanced part sizes: ``n mod r`` parts of size ceil(n/r), rest floor."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if r > LIST_CAP:
        raise SizeCapError(f"Turan part lists cap r at {LIST_CAP}, got {r}")
    q, k = divmod(n, r)
    return [q + 1] * k + [q] * (r - k)


def turan_graph(n: int, r: int) -> Graph:
    """Complete r-partite graph with part sizes as equal as possible."""
    return complete_multipartite(turan_parts(n, r))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph.from_adj(tuple(rows))


# ---------------------------------------------------------------------------
# graph6 codec (McKay format)
# ---------------------------------------------------------------------------

# base64's alphabet; graph6 writes the same 6-bit values as the bytes 63..126
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_B64_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_G6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64)
_REV8 = bytes(sum(((b >> i) & 1) << (7 - i) for i in range(8)) for b in range(256))  # bit order
_G6_NON_BODY = re.compile("[^?-~]")  # a body byte is 63..126


def _graph6(n: int, packed: bytes) -> str:
    """graph6 of the n-vertex graph whose triangle ``packed`` holds.

    Pair (u, v), u < v, is pair v(v-1)/2 + u of the column-major upper
    triangle (0,1), (0,2), (1,2), (0,3), ...; the triangle integer T of
    a graph sets bit t exactly for its edges.  ``packed`` (the layout of
    ``CanonicalForm.bytes``) holds T's bits by eight, bit t at the high
    end of byte t // 8.  A graph6 body groups the same bits by six, high
    bit first, each group one byte 63..126: base64 of ``packed`` in that
    alphabet, cut after ceil(pairs / 6) bytes.
    """
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    body = base64.b64encode(packed)[: (n * (n - 1) // 2 + 5) // 6]
    return header + body.translate(_B64_TO_G6).decode("ascii")


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 string (bit-exact, no trailing newline)."""
    n = g.n
    if n > 258047:  # the four-byte header's cap, checked before the triangle is built
        raise SizeCapError(f"graph6 encoding supports n <= 258047, got {n}")
    t = sum((g.adj[v] & ((1 << v) - 1)) << (v * (v - 1) // 2) for v in range(1, n))
    return _graph6(n, t.to_bytes((n * (n - 1) // 2 + 7) // 8, "little").translate(_REV8))


def from_graph6(s: str) -> Graph:
    """Decode a graph6 string; raises ParseError with a byte offset into s."""
    end = len(s.rstrip(_G6_SPACE))
    pos = len(s) - len(s.lstrip(_G6_SPACE))
    if s.startswith(">>graph6<<", pos):
        pos += len(">>graph6<<")
    if pos >= end:
        raise ParseError("empty graph6 string", offset=pos)
    code = ord(s[pos])
    if code == 126:  # '~': long form
        if end - pos >= 2 and ord(s[pos + 1]) == 126:
            raise ParseError("graph6 8-byte order not supported", offset=pos)
        if end - pos < 4:
            raise ParseError("truncated graph6 long-form header", offset=end)
        n = 0
        for i in range(pos + 1, pos + 4):
            c = ord(s[i]) - 63
            if not 0 <= c <= 63:
                raise ParseError(f"invalid graph6 byte {s[i]!r}", offset=i)
            n = (n << 6) | c
        pos += 4
    else:
        n = code - 63
        if not 0 <= n <= 62:
            raise ParseError(f"invalid graph6 header byte {s[pos]!r}", offset=pos)
        pos += 1
    nbits = n * (n - 1) // 2
    body = s[pos:end]
    expect = (nbits + 5) // 6
    if len(body) != expect:
        raise ParseError(
            f"graph6 body for n={n} needs {expect} bytes, got {len(body)}",
            offset=pos + min(len(body), expect),
        )
    bad = _G6_NON_BODY.search(body)
    if bad:
        raise ParseError(f"invalid graph6 byte {bad.group()!r}", offset=pos + bad.start())
    b64 = body.encode("ascii").translate(_G6_TO_B64)
    # 'A' pads with zero bits to whole base64 quads; see _graph6 for the layout
    t = int.from_bytes(base64.b64decode(b64 + b"A" * (-len(b64) % 4)).translate(_REV8), "little")
    if t >> nbits:
        raise ParseError("nonzero padding bits in graph6 body", offset=pos + len(body) - 1)
    rows = [0] * n
    for v in range(1, n):
        low = (t >> (v * (v - 1) // 2)) & ((1 << v) - 1)
        rows[v] |= low
        while low:
            u = (low & -low).bit_length() - 1
            rows[u] |= 1 << v
            low &= low - 1
    return Graph.from_adj(tuple(rows))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalForm:
    """Complete isomorphism invariant: packed canonical upper triangle."""

    n: int
    bytes: bytes

    def graph6(self) -> str:
        """The class's canonical graph6 string; ``bytes`` is ``_graph6``'s layout."""
        return _graph6(self.n, self.bytes)


def _check_bitset_cap(n: int):
    if n > BITSET_CAP:
        raise SizeCapError(f"combinatorial path caps n at {BITSET_CAP}, got {n}")


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of ``g``; equal exactly for isomorphic graphs."""
    _check_bitset_cap(g.n)
    return CanonicalForm(g.n, _kernels.canonical_bytes(g.n, g.adj))
