"""Byte-for-byte parity between the compiled and pure-Python kernels,
brute-force checks of the orbits and representatives both return, and
an every-subset reference for the max-degree prefilter and the
subset-orbit skip of augmentation.

The compiled twin (the ``core`` fixture) is built from ``_core.c`` once
per session into a temporary directory, so these tests run wherever a
C compiler exists, whether or not the installed package carries the
extension.
"""

import hashlib
import inspect
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from turantools import _core_py, _kernels, patterns
from turantools.enumeration import _emit, generate
from turantools.graphs import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    to_graph6,
    turan_graph,
)
from turantools.patterns import parse_forbidden

from oracles import (
    _extend_automorphism,
    automorphisms,
    contains_by_injections,
    contains_by_injections_anchored,
    random_graph,
)

# The anchored kernels try one start per automorphism orbit of the
# pattern.  Patterns with large groups (K3-K5, F2, F3, F2,4, C5 `DUW`,
# W5 `D]{`), then ones with a degree class of two or more orbits (the
# house `DUw`, the kite `DTw`, `DQw`).
SYMMETRIC_PATTERNS = ("K3", "K4", "K5", "F2", "F3", "F2,4",
                      "g6:DUW", "g6:DUw", "g6:DTw", "g6:DQw", "g6:D]{")

# Label K_n (argv[2] == "complete") or the edgeless graph on n = argv[3]
# vertices with the twin loaded from argv[1]; prints the seconds the
# labeling took, the form in hex, then the order.
LABEL = """
import importlib.util, sys, time
spec = importlib.util.spec_from_file_location("turantools._core", sys.argv[1])
twin = importlib.util.module_from_spec(spec)
spec.loader.exec_module(twin)
n = int(sys.argv[3])
full = (1 << n) - 1 if sys.argv[2] == "complete" else 0
start = time.perf_counter()
form, order, _ = twin.canonical_labeling(n, tuple(full & ~(1 << v) for v in range(n)))
print(time.perf_counter() - start, form.hex(), *order)
"""


# Parity of the twin loaded from argv[1] with _core_py, imported from the
# package directory argv[2]: labelings of every class with n <= 7, of
# n = 0 and 1, of edgeless graphs and of seeded G(n, p) with n <= 40,
# augmentation of the empty graph and every class with n <= 7 with no
# pattern, K3 and F2, and anchored containment of the patterns argv[3:]
# at every vertex a of the (n, adj) hosts listed on stdin, each swapped
# with the last vertex, where the kernels search from.
PARITY = """
import ast, importlib.util, random, sys
sys.path.insert(0, sys.argv[2])
from turantools import _core_py
from turantools.enumeration import generate
from turantools.graphs import Graph
from turantools.patterns import parse_forbidden
spec = importlib.util.spec_from_file_location("turantools._core", sys.argv[1])
twin = importlib.util.module_from_spec(spec)
spec.loader.exec_module(twin)
rng = random.Random(21)
def gnp(n, p):
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return tuple(adj)
classes = [(g.n, g.adj) for n in range(1, 8) for g in generate(n)]
graphs = classes + [(0, ()), (1, (0,)), (40, (0,) * 40), (64, (0,) * 64)]
graphs += [(n, gnp(n, rng.random())) for n in [rng.randint(2, 40) for _ in range(300)]]
for n, adj in graphs:
    assert twin.canonical_labeling(n, adj) == _core_py.canonical_labeling(n, adj), (n, adj)
patterns = [(0, ())] + [(f.graph.n, f.graph.adj) for f in map(parse_forbidden, ("K3", "F2"))]
for n, adj in [(0, ())] + classes:
    for fn, fadj in patterns:
        assert twin.augment_children(n, adj, fn, fadj) == _core_py.augment_children(
            n, adj, fn, fadj), (n, adj, fn)
hosts = ast.literal_eval(sys.stdin.read())
for f in map(parse_forbidden, sys.argv[3:]):
    for n, adj in hosts:
        for a in range(n):
            perm = list(range(n))
            perm[a], perm[-1] = n - 1, a
            args = (n, Graph.from_adj(adj).relabel(perm).adj, f.graph.n, f.graph.adj)
            assert twin.contains_subgraph_anchored(*args) == _core_py.contains_subgraph_anchored(
                *args), (f.source, adj, a)
"""


def _label_in_subprocess(twin, shape, n):
    """Label K_n or the edgeless graph in a child process.

    A C loop cannot be interrupted in-process, hence the subprocess and
    its timeout.  Returns (seconds, form, order)."""
    proc = subprocess.run([sys.executable, "-c", LABEL, twin.__file__, shape, str(n)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    seconds, form_hex, *order = proc.stdout.split()
    return float(seconds), bytes.fromhex(form_hex), tuple(map(int, order))


def _anchored_hosts():
    """150 seeded G(n, p) hosts with n <= 8, dense enough to hold K5."""
    rng = random.Random(42)
    hosts = []
    for _ in range(150):
        n = rng.randint(1, 8)
        hosts.append(random_graph(rng, n, p=rng.choice([0.4, 0.6, 0.8])))
    return hosts


def _swap_last(g, a):
    """g with vertices a and g.n - 1 swapped: the anchored kernels search
    from the last vertex, so on this host they answer for vertex a."""
    perm = list(range(g.n))
    perm[a], perm[-1] = g.n - 1, a
    return g.relabel(perm)


def _symmetric_hosts():
    """Hosts with n <= 8 whose large groups make most subsets orbit-mates:
    edgeless, complete, Turán, unbalanced complete bipartite and cycles."""
    hosts = []
    for n in range(1, 9):
        hosts += [empty_graph(n), complete_graph(n)]
        hosts += [turan_graph(n, r) for r in range(2, n)]
        hosts += [complete_multipartite([a, n - a]) for a in range(1, n // 2)]
        hosts += [cycle_graph(n)] if n >= 3 else []
    return hosts


def test_backend_names(core):
    assert _core_py.BACKEND == "python"
    assert core.BACKEND == "c"
    assert sys.modules.get("turantools._core") is not core


def test_docstring_parity(core):
    # the twins define the same kernels, _kernels re-exports each of them,
    # and each documents the same contract twice
    pure = {k for k, v in vars(_core_py).items()
            if inspect.isfunction(v) and v.__module__ == _core_py.__name__
            and not k.startswith("_")}
    compiled = {k for k, v in vars(core).items() if inspect.isbuiltin(v)}
    names = {k for k, v in vars(_kernels).items() if callable(v) and not k.startswith("_")}
    assert pure == compiled == names
    for name in names:
        doc = getattr(_core_py, name).__doc__
        assert doc, name
        assert inspect.cleandoc(getattr(core, name).__doc__) == inspect.cleandoc(doc), name


def test_interface_parity(core):
    # one interface for both twins: each kernel _kernels binds takes the
    # same parameters in each, and the compiled module exports no more
    names = {k for k, v in vars(_kernels).items() if callable(v) and not k.startswith("_")}
    for name in names:
        assert inspect.signature(getattr(core, name)) == inspect.signature(
            getattr(_core_py, name)), name
    assert {k for k in vars(core) if not k.startswith("_")} == names | {"BACKEND"}


def test_canonical_parity_random(core):
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
        bc, oc, rc = core.canonical_labeling(n, g.adj)
        bp, op, rp = _core_py.canonical_labeling(n, g.adj)
        assert bc == bp
        assert sorted(oc) == sorted(op) == list(range(n))
        assert rc == rp


def test_unit_partition_refines_as_the_degree_cells():
    # both twins start the search from the unit partition: its first
    # splitter, the whole vertex set, splits out the degree cells
    # (ascending degree, ascending ids inside), so refining either one
    # gives the same partition
    rng = random.Random(20)
    graphs = [g for n in range(1, 8) for g in generate(n)]
    graphs += [random_graph(rng, rng.randint(0, 24), p=rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
               for _ in range(400)]
    graphs += [empty_graph(n) for n in (0, 1, 2, 40)]
    graphs += [complete_graph(9), cycle_graph(10), turan_graph(12, 3), from_graph6("IheA@GUAo")]
    for g in graphs:
        degs = g.degrees()
        cells = [[v for v in range(g.n) if degs[v] == d] for d in sorted(set(degs))]
        unit = _core_py._refine(g.n, g.adj, [list(range(g.n))])
        assert unit == _core_py._refine(g.n, g.adj, cells), g
        if len(set(degs)) <= 1:  # regular: the degree partition is equitable
            assert unit == cells, g


# sha256 of repr(canonical_labeling(n, adj)), the triples one after
# another, over the empty graph, every class on 1..7 vertices in the
# order generate lists them, K24 and the edgeless graph on 24 vertices
LABELING_SHA256 = "e4584169804c367753219fed7f7ff7b953737b27341ecb6121a4b6a1628b97b7"


def test_labeling_is_pinned(backend):
    # the parity tests compare the twins with each other, so a change made
    # alike in both passes them; this compares each twin's forms, orders
    # and orbits with the recorded digest
    graphs = [(0, ())] + [(g.n, g.adj) for g in generate(7, n_min=1)]
    graphs += [(24, complete_graph(24).adj), (24, (0,) * 24)]
    digest = hashlib.sha256()
    for n, adj in graphs:
        digest.update(repr(backend.canonical_labeling(n, adj)).encode())
    assert digest.hexdigest() == LABELING_SHA256


def test_parity_under_ubsan(core_ubsan):
    # an out-of-bounds index on a local array passes the -O3 parity tests;
    # UBSan aborts on it, so the checks run in a child process
    package = Path(_core_py.__file__).parents[1]
    hosts = repr([(g.n, g.adj) for g in _anchored_hosts()])
    proc = subprocess.run([sys.executable, "-c", PARITY, str(core_ubsan), str(package),
                           *SYMMETRIC_PATTERNS],
                          input=hosts, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def _relation_graph(n, adjacent):
    """The graph on 0..n-1 with an edge uv iff ``adjacent(u, v)``."""
    return Graph.from_adj(tuple(sum(1 << v for v in range(n) if v != u and adjacent(u, v))
                                for u in range(n)))


def test_canonical_parity_symmetric_families(core):
    # the search stores generators only from leaves matching the best one;
    # large groups must still come out whole, with equal triples in both twins
    squares = {x * x % 37 for x in range(1, 37)}
    petersen = from_graph6("IheA@GUAo")
    transitive = [
        complete_graph(9),
        empty_graph(9),
        turan_graph(10, 2),
        turan_graph(10, 5),
        turan_graph(9, 3),
        _relation_graph(64, lambda u, v: (u ^ v).bit_count() == 1),  # Q6
        _relation_graph(37, lambda u, v: (u - v) % 37 in squares),  # Paley(37)
        _relation_graph(36, lambda u, v: u // 6 == v // 6 or u % 6 == v % 6),  # rook 6x6
        disjoint_union(disjoint_union(petersen, petersen), petersen),
        complete_multipartite([8, 8]),
        turan_graph(20, 4),
    ]
    cycles = empty_graph(0)
    for k in (5, 5, 6, 6, 6):
        cycles = disjoint_union(cycles, cycle_graph(k))
    hosts = [(g, (0,) * g.n) for g in transitive] + [(cycles, (0,) * 10 + (10,) * 18)]
    for g, orbits in hosts:
        triple = _core_py.canonical_labeling(g.n, g.adj)
        assert core.canonical_labeling(g.n, g.adj) == triple
        assert triple[2] == orbits, g.n


def test_containment_parity(core):
    rng = random.Random(99)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9))
        f = random_graph(rng, rng.randint(1, 6))
        a = rng.randrange(g.n)
        h = _swap_last(g, a)
        assert core.contains_subgraph_anchored(
            h.n, h.adj, f.n, f.adj
        ) == _core_py.contains_subgraph_anchored(h.n, h.adj, f.n, f.adj)
        # rows carrying bits at or above gn answer as if masked to gn bits
        gn = a + 1
        masked = tuple(row & ((1 << gn) - 1) for row in g.adj[:gn])
        at = _core_py.contains_subgraph_anchored(gn, masked, f.n, f.adj)
        for twin in (_core_py, core):
            assert twin.contains_subgraph_anchored(gn, g.adj, f.n, f.adj) == at


def test_anchored_containment_matches_oracle_on_symmetric_patterns(backend):
    # one start per orbit of the pattern: an embedding with start f at the
    # last host vertex, composed with an automorphism, puts any vertex of
    # f's orbit there.  A start per degree class would miss copies in the
    # house, kite and DQw, whose degree classes hold more than one orbit.
    hosts = _anchored_hosts()
    for spec in SYMMETRIC_PATTERNS:
        f = parse_forbidden(spec).graph
        for g in hosts:
            for a in range(g.n):
                h = _swap_last(g, a)
                assert backend.contains_subgraph_anchored(
                    h.n, h.adj, f.n, f.adj
                ) == contains_by_injections_anchored(g, f, a), (spec, to_graph6(g), a)


def test_containment_parity_with_list_rows(core):
    # the pure twin memoizes per pattern, so a list pattern must still work
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 8))
        f = random_graph(rng, rng.randint(1, 5))
        h = _swap_last(g, rng.randrange(g.n))
        at = _core_py.contains_subgraph_anchored(h.n, h.adj, f.n, f.adj)
        for twin in (_core_py, core):
            assert twin.contains_subgraph_anchored(h.n, list(h.adj), f.n, list(f.adj)) == at


def test_public_containment_matches_injections(backend, monkeypatch):
    # patterns.contains_subgraph asks the anchored kernel once per largest
    # host vertex; disconnected patterns and isolated pattern vertices
    # place copies on host vertices no pattern edge touches
    monkeypatch.setattr(patterns, "_kernels", backend)
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 8), p=rng.choice([0.3, 0.5, 0.8]))
        f = random_graph(rng, rng.randint(1, 4), p=0.6)
        shape = rng.randrange(3)
        if shape == 1:
            f = disjoint_union(f, random_graph(rng, rng.randint(1, 3), p=0.7))
        elif shape == 2:
            f = disjoint_union(f, empty_graph(rng.randint(1, 2)))
        assert patterns.contains_subgraph(g, f) == contains_by_injections(g, f), (g, f)


def test_augment_parity(core):
    # random parents, then symmetric ones, where the twins skip subsets
    # by the parent's generators
    rng = random.Random(5)
    hosts = [random_graph(rng, rng.randint(1, 6)) for _ in range(80)] + _symmetric_hosts()
    forbidden = [(0, ())] + [(f.n, f.adj)
                             for f in (complete_graph(3), parse_forbidden("F2").graph)]
    for g in hosts:
        for fn, fadj in forbidden:
            assert core.augment_children(g.n, g.adj, fn, fadj) == _core_py.augment_children(
                g.n, g.adj, fn, fadj
            ), (g, fn)
    # the empty parent, the root of the walk: K1, which passes, unless a
    # one-vertex pattern forbids every vertex
    for fn, fadj, children in [(0, (), [((0,), b"", True)]), (1, (0,), [])]:
        assert core.augment_children(0, (), fn, fadj) == children
        assert _core_py.augment_children(0, (), fn, fadj) == children


@pytest.mark.parametrize("n", [24, 40])
def test_complete_graph_labels_in_bounded_time(core, n):
    # K_n has n(n-1)/2 automorphism generators; a search that stops
    # storing them stops pruning and runs for minutes
    _, form, order = _label_in_subprocess(core, "complete", n)
    pairs = n * (n - 1) // 2
    nbytes = (pairs + 7) // 8
    assert form == (((1 << pairs) - 1) << (8 * nbytes - pairs)).to_bytes(nbytes, "big")
    if n == 24:
        k24 = complete_graph(24)
        assert (form, order) == _core_py.canonical_labeling(24, k24.adj)[:2]


def test_edgeless_labels_in_bounded_time(backend):
    # the 63 twin transpositions, seeded as a chain, leave one path to a
    # single leaf; seeded as stars, no generator fixes the first vertex
    # chosen, and n = 64 takes seconds compiled and minutes pure
    seconds, form, order = _label_in_subprocess(backend, "edgeless", 64)
    assert seconds < 1.0
    assert form == bytes(64 * 63 // 16) and order == tuple(range(64))


def test_labeling_reconstructs_graph(backend):
    # the packed triangle under the returned order must reproduce the form
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        form, order, _ = backend.canonical_labeling(n, g.adj)
        perm = [0] * n
        for pos, v in enumerate(order):
            perm[v] = pos
        relabeled = g.relabel(perm)
        assert backend.canonical_bytes(n, relabeled.adj) == form
        # and the canonical graph packs exactly to the form
        bits = []
        for j in range(1, n):
            for i in range(j):
                bits.append(relabeled.has_edge(i, j))
        packed = bytearray((len(bits) + 7) // 8)
        for t, b in enumerate(bits):
            if b:
                packed[t >> 3] |= 0x80 >> (t & 7)
        assert bytes(packed) == form


def test_size_guard(backend):
    with pytest.raises(ValueError):
        backend.augment_children(64, tuple([0] * 64), 0, ())


CAP = "bitset kernels cap graphs at 64 vertices"


@pytest.mark.parametrize("name,args,expected", [
    ("canonical_labeling", (-1, ()), "n must be non-negative, got -1"),
    ("canonical_bytes", (-1, ()), "n must be non-negative, got -1"),
    ("canonical_labeling", (65, (0,) * 65), CAP),
    ("contains_subgraph_anchored", (-1, (), -1, ()), "gn must be non-negative, got -1"),
    ("contains_subgraph_anchored", (3, (6, 5, 3), -2, ()), "fn must be non-negative, got -2"),
    ("contains_subgraph_anchored", (2, (2, 1), 3, (6, 5, 3)), False),
    ("contains_subgraph_anchored", (3, (6, 5, 3), 0, ()), False),
    # no host vertex gn - 1 to search from, and patterns too large or
    # empty for a 65-vertex host: each returns early, before the cap
    ("contains_subgraph_anchored", (0, (), 1, (0,)), False),
    ("contains_subgraph_anchored", (65, (0,) * 65, 66, (0,) * 66), False),
    ("contains_subgraph_anchored", (65, (0,) * 65, 0, ()), False),
    ("contains_subgraph_anchored", (65, (0,) * 65, 2, (2, 1)), CAP),
    ("augment_children", (-1, (), -1, ()), "n must be non-negative, got -1"),
    ("augment_children", (2, (2, 1), -1, ()), "fn must be non-negative, got -1"),
    ("augment_children", (3, (0, 0, 0), 65, (0,) * 65), CAP),
])
def test_bad_arguments_match_across_twins(backend, name, args, expected):
    # counts first, then the pattern-size early return, then the 64-row
    # cap: the order and messages of the compiled twin
    if expected is False:
        assert getattr(backend, name)(*args) is False
        return
    with pytest.raises(ValueError) as err:
        getattr(backend, name)(*args)
    assert str(err.value) == expected


def test_short_adjacency_raises(backend):
    with pytest.raises(IndexError):
        backend.canonical_labeling(3, (0, 0))


def _orbits_by_permutation(g):
    least = list(range(g.n))
    for perm in permutations(range(g.n)):
        if g.relabel(perm) == g:
            for v in range(g.n):
                least[perm[v]] = min(least[perm[v]], v)
    return tuple(least)


def _orbits_by_extension(g):
    least = list(range(g.n))
    for v in range(g.n):
        # move v to vertex 0, then ask for an automorphism sending it to w
        swap = list(range(g.n))
        swap[0], swap[v] = v, 0
        h = g.relabel(swap)
        degs = h.degrees()
        for w in range(v):
            if least[w] == w and _extend_automorphism(g.n, h.adj, degs, [swap[w]]):
                least[v] = w
                break
    return tuple(least)


def test_orbits_match_brute_force_on_small_classes(backend):
    for n in range(1, 7):
        for g in generate(n):
            assert backend.canonical_labeling(n, g.adj)[2] == _orbits_by_permutation(g), g


def test_orbits_match_brute_force_on_random_graphs(backend):
    rng = random.Random(2024)
    graphs = [complete_multipartite([1, 3, 3]), cycle_graph(8), turan_graph(11, 3)]
    for _ in range(400):
        graphs.append(random_graph(rng, rng.randint(7, 11), p=rng.choice([0.1, 0.2, 0.5, 0.8])))
    for g in graphs:
        assert backend.canonical_labeling(g.n, g.adj)[2] == _orbits_by_extension(g), g


@pytest.mark.parametrize(
    "parent,kept,naive",
    [("FCOe_", {"GCOebO", "GCOebS"}, {"GCOedG", "GCOedK"}), ("FCpeg", {"GCpenO"}, {"GCpelg"})],
)
def test_class_is_emitted_as_its_first_candidate(backend, parent, kept, naive):
    # these children have pseudo-similar vertices: the first candidate in
    # subset order fails the orbit test, a later isomorphic one passes,
    # and the class is still emitted as the first candidate
    g = from_graph6(parent)
    raw = backend.augment_children(7, g.adj, 0, ())
    children = {to_graph6(Graph.from_adj(adj)) for adj, _ in _emit(raw)}
    assert kept <= children
    assert not naive & children
    # in the raw list, each kept child fails the orbit test and comes
    # before an isomorphic naive child that passes
    labeled = [(to_graph6(Graph.from_adj(adj)), form, passed) for adj, form, passed in raw]
    for at, (g6, form, passed) in enumerate(labeled):
        if g6 in kept:
            assert not passed
            assert any(later in naive and ok for later, f, ok in labeled[at + 1:] if f == form)


def _augment_every_subset(twin, n, adj, fn, fadj):
    """augment_children without the max-degree prefilter or the orbit
    skip: every subset gets the containment test, then each candidate
    its orbit-test verdict, in subset order."""
    candidates = []
    for mask in range(1 << n):
        child = tuple(row | (1 << n) if (mask >> v) & 1 else row for v, row in enumerate(adj))
        child += (mask,)
        if fn and twin.contains_subgraph_anchored(n + 1, child, fn, fadj):
            continue
        form, order, orbits = twin.canonical_labeling(n + 1, child)
        candidates.append((child, form, orbits[n] == orbits[order[n]]))
    return candidates


@pytest.mark.parametrize("forbid", [None, "F2", "K3"])
def test_augment_matches_every_subset_loop(backend, forbid):
    # the prefilter and the orbit skip drop no class's first candidate
    # and no class's only passing ones, so both lists emit the same
    spec = parse_forbidden(forbid) if forbid else None
    fn, fadj = (spec.graph.n, spec.graph.adj) if spec else (0, ())
    for g in [g for n in range(1, 7) for g in generate(n, spec)] + _symmetric_hosts():
        expected = _emit(_augment_every_subset(backend, g.n, g.adj, fn, fadj))
        assert _emit(backend.augment_children(g.n, g.adj, fn, fadj)) == expected, g


# sha256 of repr(_emit(augment_children(n, adj, fn, fadj))), one list
# after another, over every parent of three walks in the order they
# expand them: unpruned to 7 vertices, F2-free to 8 and K3-free to 9
EMITTED_SHA256 = "9d9f6ae61d1bd0e0f4f6a6d0af03dac2027a15917c8a02518d9a23743f6aef86"


def test_emitted_lists_are_pinned(backend):
    # the parity and every-subset tests compare each twin with another
    # list, so a change made alike in both passes them; this compares the
    # classes each twin emits, and the candidate each is emitted as, with
    # the recorded digest
    digest = hashlib.sha256()
    for forbid, n in [(None, 7), ("F2", 8), ("K3", 9)]:
        spec = parse_forbidden(forbid) if forbid else None
        fn, fadj = (spec.graph.n, spec.graph.adj) if spec else (0, ())
        parents = [(0, ())] + [(g.n, g.adj) for g in generate(n - 1, spec, n_min=1)]
        for pn, padj in parents:
            digest.update(repr(_emit(backend.augment_children(pn, padj, fn, fadj))).encode())
    assert digest.hexdigest() == EMITTED_SHA256


def test_augment_labels_only_top_degree_children(monkeypatch):
    # a child passes only if its new vertex has the maximum degree, so
    # the prefilter leaves no other child to label
    parents = [g for n in range(1, 7) for g in generate(n)]
    k3 = complete_graph(3)
    labeled = []
    label = _core_py.canonical_labeling

    def spy(n, adj):
        labeled.append(adj)
        return label(n, adj)

    monkeypatch.setattr(_core_py, "canonical_labeling", spy)
    for g in parents:
        _core_py.augment_children(g.n, g.adj, 0, ())
        _core_py.augment_children(g.n, g.adj, k3.n, k3.adj)
    assert labeled
    for adj in labeled:
        assert adj[-1].bit_count() == max(row.bit_count() for row in adj), adj


def _subset_orbit_count(g, masks):
    """The number of Aut(g)-orbits that meet the vertex subsets ``masks``."""
    group = automorphisms(g)
    return len({min(sum(1 << p[v] for v in range(g.n) if (mask >> v) & 1) for p in group)
                for mask in masks})


@pytest.mark.parametrize("forbid", [None, "K3"])
def test_augment_labels_one_child_per_subset_orbit(monkeypatch, forbid):
    # of the subsets that give the new vertex the maximum degree and keep
    # the child pattern-free, only one per Aut(parent)-orbit is labeled
    spec = parse_forbidden(forbid) if forbid else None
    f = spec.graph if spec else None
    parents = [g for n in range(1, 7) for g in generate(n, spec)]
    labeled = []
    label = _core_py.canonical_labeling

    def spy(n, adj):
        labeled.append(adj)
        return label(n, adj)

    monkeypatch.setattr(_core_py, "canonical_labeling", spy)
    for g in parents:
        n, masks = g.n, []
        for mask in range(1 << n):
            rows = tuple(row | (1 << n) if (mask >> v) & 1 else row for v, row in enumerate(g.adj))
            child = Graph.from_adj(rows + (mask,))
            degs = child.degrees()
            if degs[n] == max(degs) and not (f and contains_by_injections(child, f)):
                masks.append(mask)
        labeled.clear()
        _core_py.augment_children(n, g.adj, *((f.n, f.adj) if f else (0, ())))
        assert len(labeled) == _subset_orbit_count(g, masks), g
