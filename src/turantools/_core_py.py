"""Pure-Python bitset kernels (fallback twin of the compiled extension).

All functions work on "raw" graphs: a vertex count ``n`` plus a tuple
``adj`` of ``n`` integers, where bit ``v`` of ``adj[u]`` is set iff
``uv`` is an edge.  The enumeration path caps ``n`` at 64 so each row
fits one machine word in the compiled twin.

The compiled module ``turantools._core`` implements the same functions
with identical semantics; ``turantools._kernels`` picks one at import
time.  Keep the two in lockstep: the test suite asserts byte-for-byte
parity of their outputs.
"""

from __future__ import annotations

from functools import lru_cache

BACKEND = "python"


def _check_args(rows, **counts):
    """Raise the compiled twin's ValueError: for a negative count first,
    then for more than 64 ``rows``."""
    for what, n in counts.items():
        if n < 0:
            raise ValueError(f"{what} must be non-negative, got {n}")
    if rows > 64:
        raise ValueError("bitset kernels cap graphs at 64 vertices")


# ---------------------------------------------------------------------------
# canonical labeling: individualization/refinement with automorphism pruning
# ---------------------------------------------------------------------------


def _pack_upper_triangle(n, adj, order):
    """Pack the upper triangle of the reordered adjacency matrix.

    Bits run column-major (pairs (0,1), (0,2), (1,2), (0,3), ...), MSB
    first inside each byte; trailing bits of the last byte are zero.
    This is the same bit sequence graph6 uses, just in 8-bit groups.
    """
    out = bytearray((n * (n - 1) // 2 + 7) // 8)
    t = 0
    for j in range(1, n):
        aj = adj[order[j]]
        for i in range(j):
            if (aj >> order[i]) & 1:
                out[t >> 3] |= 0x80 >> (t & 7)
            t += 1
    return bytes(out)


def _refine(n, adj, cells):
    """Coarsest equitable refinement of an ordered partition.

    Splitter cell s splits every cell by neighbor counts into it,
    ordering subcells by ascending count.  After a split the splitter
    goes back to the first cell, else on to the next; the result (cells
    and their order) depends only on the isomorphism type plus the
    incoming cell order, never on vertex ids.  An empty cell is dropped.
    """
    s = 0
    while s < len(cells):
        smask = 0
        for v in cells[s]:
            smask |= 1 << v
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            groups = {}
            for v in cell:
                groups.setdefault((adj[v] & smask).bit_count(), []).append(v)
            if len(groups) == 1:
                out.append(cell)
            else:
                for k in sorted(groups):
                    out.append(groups[k])
        s = s + 1 if len(out) == len(cells) else 0
        cells = out
    return cells


def _join_orbits(orbits, g):
    """Merge the orbits, each labeled by its least vertex, that ``g`` joins:
    where v and g[v] differ in label, the larger label becomes the smaller."""
    for v, w in enumerate(g):
        a, b = orbits[v], orbits[w]
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            for u, label in enumerate(orbits):
                if label == hi:
                    orbits[u] = lo


class _CanonSearch:
    def __init__(self, n, adj):
        self.n = n
        self.adj = adj
        self.best = None
        self.best_order = None
        # automorphisms as vertex -> vertex tuples: seeded twin
        # transpositions, then those found at leaves
        self.gens = []

    def run(self):
        n, adj = self.n, self.adj
        self._seed_twins()
        # the first splitter, the whole vertex set, splits out the degree cells
        self._search(_refine(n, adj, [list(range(n))]), [])
        # at depth 0 every generator fixes the (empty) prefix
        orbits = list(range(n))
        for g in self.gens:
            _join_orbits(orbits, g)
        return self.best, tuple(self.best_order), tuple(orbits)

    def _seed_twins(self):
        """Store the transpositions of twins as generators before searching.

        Vertices with equal open neighbourhoods (false twins) or equal
        closed ones (true twins) are swapped by an automorphism.  Each twin
        class is chained, (u v) for consecutive members u < v: a star
        centred on u fixes no prefix holding u, so it would stop pruning
        below the first level.
        """
        n, adj = self.n, self.adj
        last = {}  # (closed?, neighbourhood) -> the latest vertex with it
        for v in range(n):
            for key in ((False, adj[v]), (True, adj[v] | 1 << v)):
                u = last.get(key)
                last[key] = v
                if u is not None:
                    perm = list(range(n))
                    perm[u], perm[v] = v, u
                    self.gens.append(tuple(perm))

    def _record_leaf(self, order):
        bts = _pack_upper_triangle(self.n, self.adj, order)
        # Comparing with the best leaf alone finds the rest of the group:
        # every automorphism maps it to a leaf of equal form, reached later
        # or in a branch pruned by generators already known (found at
        # leaves or seeded from twins, which no leaf finds).  No found
        # generator repeats one: a known best -> leaf map would have pruned
        # that leaf.
        if self.best is None or bts < self.best:
            self.best = bts
            self.best_order = order
        elif bts == self.best:
            self._add_gen(self.best_order, order)

    def _add_gen(self, order_a, order_b):
        # equal packed triangles mean order_a[i] -> order_b[i] preserves edges
        perm = [0] * self.n
        for i in range(self.n):
            perm[order_a[i]] = order_b[i]
        self.gens.append(tuple(perm))

    def _search(self, cells, prefix):
        target = -1
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                target = i
                break
        if target < 0:
            self._record_leaf([cell[0] for cell in cells])
            return
        orbits = list(range(self.n))
        applied = 0
        # An automorphism fixing the prefix keeps every cell, so v's orbit
        # lies in the target cell, and its label orbits[v], the least
        # vertex, came earlier in ascending order: a label other than v
        # was expanded or joined to an expanded vertex.
        for v in sorted(cells[target]):
            # pick up generators found so far, by earlier siblings too
            for g in self.gens[applied:]:
                if all(g[p] == p for p in prefix):
                    _join_orbits(orbits, g)
            applied = len(self.gens)
            if orbits[v] != v:
                continue
            child = (
                cells[:target]
                + [[v], [w for w in cells[target] if w != v]]
                + cells[target + 1 :]
            )
            prefix.append(v)
            self._search(_refine(self.n, self.adj, child), prefix)
            prefix.pop()


def canonical_labeling(n, adj):
    """Canonical form of a raw graph.

    Returns ``(form, order, orbits)`` where ``form`` is the
    lexicographically smallest packed upper triangle over all labelings
    compatible with iterated refinement (a complete isomorphism
    invariant), ``order[i]`` is the original vertex placed at canonical
    position ``i`` by one labeling attaining it, and ``orbits[v]`` is the
    least vertex in v's orbit under the automorphisms the search found.
    The search prunes a branch only when a found automorphism maps it
    onto an explored one, so these generate the whole group.
    """
    _check_args(n, n=n)
    return _CanonSearch(n, adj).run()


def canonical_bytes(n, adj):
    """The form half of ``canonical_labeling(n, adj)``."""
    return canonical_labeling(n, adj)[0]


# ---------------------------------------------------------------------------
# subgraph containment (subgraph, not induced)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _anchored_plan(fn, fadj):
    """The search plans, one per start: the least vertex of each
    automorphism orbit.

    If sigma is an automorphism of the pattern and a copy maps f to the
    host's last vertex, composing it with sigma^-1 gives a copy that maps
    sigma(f) there, so one start per orbit decides the same answer.  Memoized:
    callers pass ``fadj`` as a tuple, and a walk asks for the same few
    patterns at every candidate.
    """
    degs = tuple(fadj[v].bit_count() for v in range(fn))
    orbits = _CanonSearch(fn, fadj).run()[2]
    return tuple(_pattern_order(fn, fadj, degs, f) for f in range(fn) if orbits[f] == f)


def _pattern_order(fn, fadj, degs, start):
    """Order pattern vertices from ``start`` so each has many
    already-placed neighbors, and return that order's plan: per position
    i, the pair ``(need, back)`` of the degree of the i-th vertex and
    the earlier positions of its neighbors."""
    order = [start]
    placed = 1 << start
    while len(order) < fn:
        best, best_key = -1, None
        for v in range(fn):
            if (placed >> v) & 1:
                continue
            key = ((fadj[v] & placed).bit_count(), degs[v], -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed |= 1 << best
    return tuple((degs[v], tuple(j for j in range(i) if (fadj[v] >> order[j]) & 1))
                 for i, v in enumerate(order))


def _embed(gn, gadj, gdegs, plan):
    """Depth-first search for an injection of the planned pattern into
    the host whose first vertex is ``gn - 1``.  Each level carries
    ``used``, the host vertices placed at earlier positions."""
    full = (1 << gn) - 1
    assigned = [0] * len(plan)
    stack = [(0, 1 << (gn - 1), 0)]
    while stack:
        pos, cand, used = stack[-1]
        if cand == 0:
            stack.pop()
            continue
        v = (cand & -cand).bit_length() - 1
        stack[-1] = (pos, cand & (cand - 1), used)
        if gdegs[v] < plan[pos][0]:
            continue
        assigned[pos] = v
        if pos + 1 == len(plan):
            return True
        used |= 1 << v
        nxt = full & ~used
        for j in plan[pos + 1][1]:
            nxt &= gadj[assigned[j]]
        stack.append((pos + 1, nxt, used))
    return False


def contains_subgraph_anchored(gn, gadj, fn, fadj):
    """True iff some copy of the pattern among host vertices
    ``0..gn-1`` uses vertex ``gn - 1``.

    A copy is an injection of the ``fn`` pattern vertices into the first
    ``gn`` host vertices that maps every pattern edge onto a host edge.
    Only the first ``gn`` rows of ``gadj`` are read, and row bits at or
    above ``gn`` never change the answer, so a caller may pass the rows
    of a larger graph.  Two callers: ``augment_children``, whose parent
    is already pattern-free, so any new copy uses the new vertex, and
    ``patterns.contains_subgraph``, which asks for each host vertex v
    with ``gn = v + 1``.
    """
    _check_args(0, gn=gn, fn=fn)
    if fn == 0 or fn > gn:
        return False
    _check_args(gn)
    gdegs = [gadj[v].bit_count() for v in range(gn)]
    return any(_embed(gn, gadj, gdegs, plan) for plan in _anchored_plan(fn, tuple(fadj)))


# ---------------------------------------------------------------------------
# canonical augmentation step
# ---------------------------------------------------------------------------


def _mark_orbit(mask, images, seen):
    """Add the orbit of ``mask`` under the generators to ``seen``."""
    seen.add(mask)
    todo = [mask]
    while todo:
        m = todo.pop()
        for img in images:
            out = 0
            rest = m
            while rest:
                low = rest & -rest
                out |= img[low.bit_length() - 1]
                rest ^= low
            if out not in seen:
                seen.add(out)
                todo.append(out)


def augment_children(n, adj, fn, fadj):
    """One level of canonical augmentation: each candidate and its verdict.

    Extends the ``n``-vertex parent by a new vertex joined to subsets of
    the old vertices.  A child is a candidate iff it stays free of the
    forbidden pattern (when one is given), and it passes iff its new
    vertex lies in the automorphism orbit of its canonically-last vertex
    (McKay's rule).  ``enumeration._emit`` keeps a class iff one of its
    candidates passes, that is iff deleting the class's canonically-last
    vertex gives back the parent's class, so each isomorphism class
    comes from exactly one parent, and emits it as its first candidate
    in subset order.

    Only subsets that give the new vertex the maximum degree are tried:
    the canonically-last vertex lies in the maximum-degree cell, so the
    orbit test fails on every other child, and every candidate of a
    kept class shares its new vertex's degree e(child) - e(parent), so
    skipping the others drops neither a kept class's first candidate
    nor its passing one.  So a k-subset is skipped iff k < D, the
    parent's maximum degree, or k = D and it holds a vertex of degree D,
    which its new edge lifts to D + 1 > k.

    Of the subsets left, only the least of each orbit under the parent's
    automorphisms is expanded.  An automorphism g of the parent, with
    the new vertex fixed, maps the child of S onto the child of g(S), so
    both get the same containment and orbit verdicts; and a class's
    first candidate is always the least subset of its orbit.

    Returns ``[(child_adj, child_canon, passed), ...]`` in subset order.
    """
    if n >= 64:
        raise ValueError("augmentation kernel caps graphs at 64 vertices")
    _check_args(fn, n=n, fn=fn)
    search = _CanonSearch(n, adj)
    search.run()
    # each generator as the image of every vertex bit, for mapping masks
    images = [[1 << g[v] for v in range(n)] for g in search.gens]
    seen = set()
    out = []
    newbit = 1 << n
    base = list(adj) + [0]
    degs = [adj[v].bit_count() for v in range(n)]
    top = max(degs, default=0)
    tops = sum(1 << v for v in range(n) if degs[v] == top)
    for mask in range(1 << n):
        k = mask.bit_count()
        if k < top or (k == top and mask & tops):
            continue
        if images:
            if mask in seen:
                continue
            _mark_orbit(mask, images, seen)
        child = base.copy()
        child[n] = mask
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            child[v] |= newbit
            m &= m - 1
        child = tuple(child)
        if fn and contains_subgraph_anchored(n + 1, child, fn, fadj):
            continue
        form, order, orbits = canonical_labeling(n + 1, child)
        out.append((child, form, orbits[n] == orbits[order[n]]))
    return out
