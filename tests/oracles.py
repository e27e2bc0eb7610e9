"""Independent oracles the tests check the library against.

Everything here is deliberately naive: labeled exhaustion, permutation
brute force, Leibniz determinant expansion, big-integer Faddeev-LeVerrier,
multipartite cofactors multiplied out factor by factor, dense
eigensolves, power iteration in plain numpy expressions, Sturm sequences
over the rationals with Fraction bisection, an extremal scan that
power-iterates every class, branch and bound from a fixed start.  None
of it shares code paths with the implementations under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from turantools import spectral
from turantools.errors import NonConvergenceError
from turantools.extremal import TIE_WINDOW
from turantools.graphs import Graph
from turantools.spectral import SpectralResult


def all_labeled_graphs(n):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return any(g.relabel(p) == h for p in itertools.permutations(range(g.n)))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """The whole automorphism group of g, by permutation brute force."""
    return [p for p in itertools.permutations(range(g.n)) if g.relabel(p) == g]


def _extend_automorphism(n, adj, degs, prefix_images) -> bool:
    """Does some automorphism send vertex t to prefix_images[t] for all t?

    Completes the forced partial map by backtracking, preserving both
    adjacency and non-adjacency (graph-to-itself isomorphism).  The
    caller guarantees the forced pairs are consistent among themselves.
    """
    full = (1 << n) - 1
    images = list(prefix_images) + [0] * (n - len(prefix_images))
    used0 = 0
    for w in prefix_images:
        used0 |= 1 << w

    def rec(u, used):
        if u == n:
            return True
        cand = full & ~used
        au = adj[u]
        for t in range(u):
            if (au >> t) & 1:
                cand &= adj[images[t]]
            else:
                cand &= ~adj[images[t]]
        while cand:
            w = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if degs[w] != degs[u]:
                continue
            images[u] = w
            if rec(u + 1, used | (1 << w)):
                return True
        return False

    return rec(len(prefix_images), used0)


def labeled_class_count(n, predicate=None) -> int:
    """Isomorphism classes among all labeled graphs, deduped by
    canonical form.  Independent of the augmentation path under test;
    canonical_form itself is checked against permutation brute force in
    the graph tests."""
    from turantools.graphs import canonical_form

    forms = set()
    for g in all_labeled_graphs(n):
        if predicate is not None and not predicate(g):
            continue
        forms.add(canonical_form(g))
    return len(forms)


def labeled_class_count_bruteforce(n, predicate=None) -> int:
    """Like labeled_class_count but deduped by permutation brute force;
    fully independent of the package.  Feasible for n <= 5."""
    buckets: dict = {}
    for g in all_labeled_graphs(n):
        if predicate is not None and not predicate(g):
            continue
        key = (g.m, tuple(sorted(g.degrees())))
        reps = buckets.setdefault(key, [])
        if not any(brute_isomorphic(g, r) for r in reps):
            reps.append(g)
    return sum(len(v) for v in buckets.values())


def contains_by_injections(g: Graph, f: Graph) -> bool:
    """Subgraph containment by exhaustive injection enumeration."""
    if f.n > g.n:
        return False
    fedges = list(f.edges())
    for image in itertools.permutations(range(g.n), f.n):
        if all(g.has_edge(image[u], image[v]) for u, v in fedges):
            return True
    return False


def contains_by_injections_anchored(g: Graph, f: Graph, anchor: int) -> bool:
    """Is there a copy of f in g whose image holds ``anchor``?  Injections
    are extended one pattern vertex at a time, in vertex order, and each
    is dropped at the first pattern edge it misses."""

    def extend(image):
        u = len(image)
        if u == f.n:
            return anchor in image
        return any(
            extend(image + [w])
            for w in range(g.n)
            if w not in image and all(g.has_edge(image[t], w) for t in f.neighbors(u) if t < u)
        )

    return f.n <= g.n and extend([])


def max_edges_labeled(n, free_predicate) -> int:
    """ex(n, .) by labeled brute force over all graphs."""
    best = -1
    for g in all_labeled_graphs(n):
        if g.m > best and free_predicate(g):
            best = g.m
    return best


def charpoly_leibniz(g: Graph) -> tuple[int, ...]:
    """det(xI - A) by signed permutation expansion with integer polys.

    Matrix entries are x on the diagonal and -1 at edges; zero entries
    prune the permutation tree.
    """
    n = g.n
    coeffs = [0] * (n + 1)
    adj = g.adj

    def expand(row, remaining_cols, poly, parity):
        if row == n:
            sign = 1 if parity % 2 == 0 else -1
            for i, c in enumerate(poly):
                coeffs[i] += sign * c
            return
        for idx, col in enumerate(remaining_cols):
            if col == row:
                expand(row + 1, remaining_cols[:idx] + remaining_cols[idx + 1 :], [0] + poly, parity + idx)
            elif (adj[row] >> col) & 1:
                expand(
                    row + 1,
                    remaining_cols[:idx] + remaining_cols[idx + 1 :],
                    [-c for c in poly],
                    parity + idx,
                )

    expand(0, tuple(range(n)), [1], 0)
    return tuple(coeffs)


def charpoly_faddeev_bigint(g: Graph) -> tuple[int, ...]:
    """det(xI - A) by the Faddeev-LeVerrier recursion in Python ints.

    Row i of A*M is the sum of M's rows at i's neighbours; no entry can
    overflow, so this is the reference for the fixed-width version.
    """
    n = g.n
    nbrs = [list(g.neighbors(u)) for u in range(n)]
    coeffs_high = [1]  # coefficient of x^n, then x^(n-1), ...
    zero = [0] * n
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] += coeffs_high[-1]
        # the zero row keeps an isolated vertex's row at length n
        m = [list(map(sum, zip(zero, *(m[t] for t in nb)))) for nb in nbrs]
        q, r = divmod(-sum(m[i][i] for i in range(n)), k)
        assert r == 0
        coeffs_high.append(q)
    return tuple(reversed(coeffs_high))


def multipartite_char_poly_products(parts) -> tuple[int, ...]:
    """x^(n-r) * (prod_j (x+n_j) - sum_i n_i * prod_{j!=i} (x+n_j)), each
    cofactor multiplied out from its r - 1 linear factors."""

    def times_linear(poly, c):  # poly * (x + c), lowest degree first
        return [c * a + b for a, b in zip(poly + [0], [0] + poly)]

    total = [1]
    for p in parts:
        total = times_linear(total, p)
    acc = total
    for i, p in enumerate(parts):
        rest = [1]
        for j, q in enumerate(parts):
            if j != i:
                rest = times_linear(rest, q)
        acc = [c - p * d for c, d in zip(acc, rest + [0])]
    return tuple([0] * (sum(parts) - len(parts)) + acc)


def secular_root_reference(parts) -> float:
    """Largest root of sum_i n_i / (lam + n_i) = 1, correctly rounded.

    Bisects in exact Fractions between the minimum and maximum degree,
    n - max(parts) and n - min(parts), summing one term per part, until
    both ends round to the same double.
    """
    n = sum(parts)
    lo, hi = Fraction(n - max(parts)), Fraction(n - min(parts))
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        if sum(Fraction(p) / (mid + p) for p in parts) >= 1:
            lo = mid
        else:
            hi = mid
    return float(lo)


def to_graph6_bitwise(g: Graph) -> str:
    """graph6 by appending one bit per pair and regrouping them by six."""
    n = g.n
    if n <= 62:
        header = chr(n + 63)
    else:
        header = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            bits.append((col >> u) & 1)
    chars = []
    for i in range(0, len(bits), 6):
        group = bits[i : i + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return header + "".join(chars)


def canonical_graph6_relabeled(g: Graph) -> str:
    """Canonical graph6 by labeling g, relabeling it and encoding the copy.

    This route shares the canonical search with ``canonical_form``, so it
    checks how the form becomes a string; the search itself is checked
    against permutation brute force in the graph tests.
    """
    from turantools import _kernels

    _, order, _ = _kernels.canonical_labeling(g.n, g.adj)
    perm = [0] * g.n
    for pos, v in enumerate(order):
        perm[v] = pos
    return to_graph6_bitwise(g.relabel(perm))


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return a


def eig_max(g: Graph) -> float:
    if g.n == 0:
        raise ValueError("empty graph")
    return float(np.max(np.linalg.eigvalsh(adjacency_matrix(g))))


def perron_vector(g: Graph) -> np.ndarray:
    """Dense-eigensolve Perron vector, max-entry normalized (connected g)."""
    vals, vecs = np.linalg.eigh(adjacency_matrix(g))
    vec = vecs[:, -1]
    if vec.sum() < 0:
        vec = -vec
    return vec / vec.max()


def spectral_radius_reference(g: Graph, tol: float) -> SpectralResult:
    """The power iteration in its plain-expression form, one temporary
    per step, forming the whole residual vector every sweep, where
    ``spectral_radius`` first tests one residual entry in Python floats.
    Every field of the result, and the ``best`` / ``iterations`` of a
    NonConvergenceError, is the bit pattern the program must reproduce.
    The sweep cap is read from ``turantools.spectral`` at call time, so
    a test that patches it patches both.
    """
    if not spectral.MIN_TOL <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= {spectral.MIN_TOL}, got {tol}")
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    cap = spectral.ITERATION_CAP

    def power_iteration(sub):
        x = np.ones(sub.shape[0])
        for sweep in range(1, cap + 1):
            y = sub @ x
            lam = float(x @ y) / float(x @ x)
            residual = float(np.max(np.abs(y - lam * x)))
            if residual <= tol:
                return lam, x, residual, sweep
            x = y + x  # (A + I) x
            x /= x.max()
        raise NonConvergenceError(
            f"power iteration failed to reach tol={tol} in {cap} sweeps",
            best=lam,
            iterations=cap,
        )

    a = adjacency_matrix(g)
    best = None  # (lam, comp, x, residual)
    total_sweeps = 0
    for comp in g.connected_components():
        lam, x, residual, sweeps = power_iteration(a[np.ix_(comp, comp)])
        total_sweeps += sweeps
        if best is None or lam > best[0]:
            best = (lam, comp, x, residual)
    lam, comp, x, residual = best
    full = np.zeros(g.n)
    full[comp] = x
    return SpectralResult(
        lam=lam,
        vector=tuple(full.tolist()),
        residual=residual,
        iterations=total_sweeps,
    )


def random_graph(rng, n, p=0.5) -> Graph:
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )


def random_connected_graph(rng, n, p=0.5) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if g.is_connected():
            return g


# ---------------------------------------------------------------------------
# exact largest roots: rational bisection on a true Sturm sequence
# ---------------------------------------------------------------------------


def _q_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _q_divmod(a, b):
    """Quotient and remainder of a by b over the rationals."""
    a, b = [Fraction(c) for c in _q_trim(a)], _q_trim(b)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        a = _q_trim(a[:-1])
    return q, a


def _q_gcd(a, b):
    """A greatest common divisor over the rationals (any nonzero scale)."""
    a, b = _q_trim(a), _q_trim(b)
    while b:
        a, b = b, _q_divmod(a, b)[1]
    return a


def _q_integral(p):
    """The positive multiple of p with integer coefficients."""
    den = 1
    for c in p:
        den = den * Fraction(c).denominator // math.gcd(den, Fraction(c).denominator)
    return [int(c * den) for c in p]


def rational_sturm_sequence(coeffs):
    """(square-free part of p, its Sturm sequence): p / gcd(p, p') scaled
    to a positive lead, then P0, P1 = P0', P_(k+1) = -rem(P_(k-1), P_k)
    over the rationals, each member scaled by a positive factor to
    integer coefficients."""
    p = _q_trim(coeffs)
    sf = _q_divmod(p, _q_gcd(p, [i * c for i, c in enumerate(p)][1:]))[0] if p else p
    if sf and sf[-1] < 0:  # _q_gcd's scale is arbitrary
        sf = [-c for c in sf]
    seq = [sf, [i * c for i, c in enumerate(sf)][1:]] if len(sf) > 1 else [sf]
    while len(seq[-1]) > 1:
        r = _q_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append([-c for c in r])
    return _q_integral(sf), [_q_integral(s) for s in seq]


def _fraction_variations(chain, x):
    """Sign changes along the chain at x, from p(num/den) * den**deg."""
    num, den = x.numerator, x.denominator
    signs = []
    for p in chain:
        acc, scale = 0, 1
        for c in reversed(p):
            acc = acc * num + c * scale
            scale *= den
        if acc:
            signs.append(acc > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _fraction_sample_between(lo, hi):
    """A rational in (lo, hi) that is not an integer, so never a root of
    a characteristic polynomial (its roots are algebraic integers)."""
    mid = (lo + hi) / 2
    if mid.denominator != 1:
        return mid
    gap = hi - lo
    if gap > Fraction(2, 3):
        return mid + Fraction(1, 3)
    return mid + gap / 6


class FractionLargestRoot:
    """Isolating interval (lo, hi] for the largest root, with Fraction
    endpoints and one Sturm-sequence evaluation per bisection step.

    The reference for the integer bisection: it samples the same points,
    so every interval it visits is the library's.  ``isolation_steps``
    counts the steps construction took.
    """

    def __init__(self, coeffs):
        self.poly, self.chain = rational_sturm_sequence(coeffs)
        if len(self.poly) <= 1:
            raise ValueError("polynomial has no roots")
        bound = Fraction(max(map(abs, self.poly[:-1]), default=0), abs(self.poly[-1])) + 1
        self.lo = -bound - Fraction(1, 3)
        self.hi = bound + Fraction(1, 3)
        self.vlo = _fraction_variations(self.chain, self.lo)
        self.vtop = _fraction_variations(self.chain, self.hi)
        if self.vlo - self.vtop < 1:
            raise ValueError("polynomial has no real roots")
        self.isolation_steps = 0
        while self.vlo - self.vtop > 1:
            self.step()
            self.isolation_steps += 1

    def width(self):
        return self.hi - self.lo

    def step(self):
        mid = _fraction_sample_between(self.lo, self.hi)
        vmid = _fraction_variations(self.chain, mid)
        if vmid - self.vtop >= 1:
            self.lo, self.vlo = mid, vmid
        else:
            self.hi = mid

    def refine_to(self, width):
        while self.width() > width:
            self.step()
        return self.lo, self.hi


def fraction_compare_largest_roots(p, q) -> int:
    """-1, 0, or 1 as the largest real root of p is below, equal to, or
    above that of q: equal iff gcd(p, q) has a root in both isolating
    intervals, else the wider interval is bisected until they part."""
    ip, iq = FractionLargestRoot(p), FractionLargestRoot(q)
    _, g = rational_sturm_sequence(_q_gcd(ip.poly, iq.poly))
    if all(_fraction_variations(g, i.lo) - _fraction_variations(g, i.hi) for i in (ip, iq)):
        return 0
    while ip.lo < iq.hi and iq.lo < ip.hi:
        (ip if ip.width() >= iq.width() else iq).step()
    return -1 if ip.hi <= iq.lo else 1


def scan_reference(graphs):
    """The extremal scan with every class power-iterated: the loop of
    ``extremal._scan`` before its 2-walk bound, on the plain-expression
    power iteration and the Fraction/Sturm comparison of the bigint
    characteristic polynomials.  Returns the same ``(ex, edge_members,
    lambda_star, spectral_members, exact)`` tuple."""
    ex, edge_best = -1, []
    lam, finalists = -math.inf, []
    for g in graphs:
        if g.m > ex:
            ex, edge_best = g.m, [g]
        elif g.m == ex:
            edge_best.append(g)
        r = spectral_radius_reference(g, spectral.DEFAULT_TOL).lam
        if r > lam:
            lam = r
            finalists = [c for c in finalists if c[0] >= lam - TIE_WINDOW]
        if r >= lam - TIE_WINDOW:
            finalists.append((r, g))
    winners = finalists[:1]
    for cand in finalists[1:]:
        verdict = fraction_compare_largest_roots(
            charpoly_faddeev_bigint(cand[1]), charpoly_faddeev_bigint(winners[0][1])
        )
        if verdict > 0:
            winners = [cand]
        elif verdict == 0:
            winners.append(cand)
    lam = max(w[0] for w in winners)
    return ex, edge_best, lam, [w[1] for w in winners], len(finalists) > 1


def exhaustive_min_internal_unseeded(g: Graph, r: int) -> list[int]:
    """Branch and bound for an assignment to r classes with the fewest
    internal edges, searched in symmetry-broken order (vertex i may only
    open class min(i, used classes)) from the bound of the fixed start
    assignment min(v, r - 1).  The reference for the seeded search."""
    n = g.n

    def internal(assign):
        return sum(1 for u, v in g.edges() if assign[u] == assign[v])

    best_assign = [min(v, r - 1) for v in range(n)]
    best_cost = internal(best_assign)
    assign = [0] * n
    masks = [0] * r

    def rec(v, used, cost):
        nonlocal best_cost, best_assign
        if cost >= best_cost:
            return
        if v == n:
            best_cost, best_assign = cost, assign[:]
            return
        for c in range(min(used + 1, r)):
            extra = (g.adj[v] & masks[c]).bit_count()
            if cost + extra >= best_cost:
                continue
            assign[v] = c
            masks[c] |= 1 << v
            rec(v + 1, max(used, c + 1), cost + extra)
            masks[c] &= ~(1 << v)

    rec(0, 0, 0)
    return best_assign
