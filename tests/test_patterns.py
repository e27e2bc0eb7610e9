import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turantools import patterns
from turantools.enumeration import generate
from turantools.errors import ParseError, SizeCapError
from turantools.graphs import (
    LIST_CAP,
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    complete_multipartite,
    empty_graph,
    from_graph6,
    path_graph,
    to_graph6,
)
from turantools.patterns import (
    ForbiddenSpec,
    chromatic_number,
    contains_subgraph,
    friendship_graph,
    intersecting_cliques,
    is_free,
    parse_forbidden,
)

from oracles import contains_by_injections, random_graph


class TestParse:
    def test_complete(self):
        spec = parse_forbidden("K3")
        assert spec.graph == complete_graph(3)
        assert (spec.chi, spec.r) == (3, 2)

    def test_friendship(self):
        spec = parse_forbidden("F2")
        assert (spec.graph.n, spec.graph.m) == (5, 6)
        assert (spec.chi, spec.r) == (3, 2)
        # two triangles meeting in exactly one vertex
        degs = sorted(spec.graph.degrees())
        assert degs == [2, 2, 2, 2, 4]

    def test_intersecting_cliques(self):
        spec = parse_forbidden("F2,4")
        assert (spec.graph.n, spec.graph.m) == (7, 12)
        assert (spec.chi, spec.r) == (4, 3)

    def test_intersecting_cliques_rows_match_the_edge_list(self):
        # each block's rows are built directly; the edge list of every
        # block's pairs is the construction they replace
        for k in range(1, 5):
            for s in range(2, 6):
                edges = []
                for copy in range(k):
                    block = [0] + [1 + copy * (s - 1) + i for i in range(s - 1)]
                    edges += itertools.combinations(block, 2)
                assert intersecting_cliques(k, s) == Graph(1 + k * (s - 1), edges), (k, s)
            assert intersecting_cliques(1, s) == complete_graph(s)

    def test_g6_spec(self):
        spec = parse_forbidden("g6:" + to_graph6(cycle_graph(5)))
        assert (spec.chi, spec.r) == (3, 2)

    @pytest.mark.parametrize(
        "bad",
        ["K1", "K0", "F0", "F2,2", "F0,4", "W5", "", "g6:", "g6:C~x", "k3 extra",
         # only space, tab, CR and LF are stripped, as in graph6
         "g6:Ch\x1c", "\x0bK3\x1f"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError) as err:
            parse_forbidden(bad)
        assert bad.strip()[:2] in str(err.value) or "spec" in str(err.value)
        if bad.startswith("g6:"):
            # the graph6 decoder's byte offset is reported once
            assert str(err.value).count("(byte ") == 1
        if bad == "g6:C~x":
            # counted inside the whole token, not inside the graph6 body
            assert err.value.offset == 5
            assert str(err.value).endswith("(byte 5)")

    def test_rejects_edgeless(self):
        with pytest.raises(ParseError):
            parse_forbidden("g6:" + to_graph6(empty_graph(3)))

    @pytest.mark.parametrize("n", [0, 2])
    def test_spec_without_edges_cannot_be_built(self, n):
        with pytest.raises(ValueError, match="at least one edge"):
            ForbiddenSpec("e", empty_graph(n), chi=n)

    @pytest.mark.parametrize("chi", [1, 2, 4, 7])
    def test_spec_with_a_wrong_chi_cannot_be_built(self, chi):
        # chi = 7 would report against T(n, 6); chi = 1 against no Turan graph
        with pytest.raises(ValueError, match="not the chromatic number 3"):
            ForbiddenSpec("t", complete_graph(3), chi=chi)

    def test_chi_above_the_chromatic_cap_is_bounded_by_degree(self):
        k13 = complete_graph(13)
        assert ForbiddenSpec("K13", k13, chi=13).r == 12
        for chi in (1, 14):
            with pytest.raises(ValueError, match="outside"):
                ForbiddenSpec("K13", k13, chi=chi)

    @pytest.mark.parametrize("token", ["K2049", "F1024", "F2,1025", "F1,2049", "F2,3000"])
    def test_size_only_spec_over_the_pair_cap_is_refused_unbuilt(self, token, monkeypatch):
        # more than LIST_CAP vertex pairs: refused before any row or edge
        # list exists (F2,3000 built 9 million edges in 643 MB); every
        # size-only spec is built by intersecting_cliques
        monkeypatch.setattr(patterns, "intersecting_cliques", None)
        with pytest.raises(SizeCapError, match=r"cap n\(n - 1\)/2 at 2097152"):
            parse_forbidden(token)

    @pytest.mark.parametrize(
        "token,digits",
        [("K" + "9" * 5000, 5000), ("F" + "9" * 5000, 5000), ("F2," + "9" * 5000, 5000),
         ("K10000000", 8), ("F1,010000000", 8), ("F10000000,2", 8)],
        ids=["K-5000", "Fk-5000", "Fks-5000", "K-8", "Fks-8-padded", "Fk-8-bad-s"])
    def test_size_past_seven_digits_is_refused_before_int(self, token, digits):
        # int() refuses a run past 4 300 digits with its own message; a
        # size past 7 significant digits is over the pair cap whatever the
        # spec, so the run is counted first, even where another check fails
        assert 10**7 * (10**7 - 1) // 2 > LIST_CAP
        with pytest.raises(SizeCapError, match=f"got a size with {digits} digits"):
            parse_forbidden(token)

    @pytest.mark.parametrize("token", ["K0003", "K" + "0" * 5000 + "3"], ids=["K-4", "K-5001"])
    def test_leading_zeros_are_not_counted(self, token):
        spec = parse_forbidden(token)
        assert (spec.source, spec.graph, spec.chi) == ("K3", complete_graph(3), 3)
        assert parse_forbidden("F" + "0" * 5000 + "2,04").graph == intersecting_cliques(2, 4)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_every_spelling_of_a_pattern_parses_alike(self, k):
        # K<s> is F1,<s> and F<k> is F<k>,3; each (k, s) is named by one
        # canonical spelling, whatever the zero padding
        for s in range(2 if k == 1 else 3, 7):
            name = f"K{s}" if k == 1 else f"F{k}" if s == 3 else f"F{k},{s}"
            shapes = ["F{k},{s}"] * (s >= 3) + ["K{s}"] * (k == 1) + ["F{k}"] * (s == 3)
            for shape, kz, sz in itertools.product(shapes, range(3), range(3)):
                token = shape.format(k="0" * kz + str(k), s="0" * sz + str(s))
                spec = parse_forbidden(token)
                assert (spec.source, spec.graph, spec.chi) == (
                    name, intersecting_cliques(k, s), s), token

    @pytest.mark.parametrize("token,n", [("K2048", 2048), ("F1023", 2047)])
    def test_size_only_spec_at_the_pair_cap_builds(self, token, n):
        # K2049 and F1024 (n = 2049) are the next sizes, refused above
        assert n * (n - 1) // 2 <= LIST_CAP
        assert parse_forbidden(token).graph.n == n

    def test_left_out_chi_is_computed(self):
        assert ForbiddenSpec("c5", cycle_graph(5)).chi == 3
        with pytest.raises(SizeCapError):
            ForbiddenSpec("k13", complete_graph(13))

    @pytest.mark.parametrize(
        "token,chi",
        [(f"K{s}", s) for s in range(2, 9)]
        + [(f"F{k}", 3) for k in range(1, 7)]
        + [("F2,4", 4), ("g6:Ch", 2), ("g6:Dhc", 3), ("g6:" + to_graph6(complete_graph(12)), 12)],
    )
    def test_every_spec_the_suite_parses_builds(self, token, chi):
        assert parse_forbidden(token).chi == chi

    def test_g6_spec_computes_chi_once(self, monkeypatch):
        calls = []
        counted = patterns.chromatic_number

        def spy(g):
            calls.append(g)
            return counted(g)

        monkeypatch.setattr(patterns, "chromatic_number", spy)
        assert parse_forbidden("g6:Dhc").chi == 3
        assert len(calls) == 1

    def test_surrounding_graph6_whitespace_is_stripped(self):
        assert parse_forbidden(" K3\n").source == "K3"
        spec = parse_forbidden("\tF2\r\n")
        assert spec.source == "F2" and spec.graph == friendship_graph(2)

    def test_r_is_chi_minus_one(self):
        for token in ["K2", "K3", "K5", "F1", "F3", "F2,4", "F2,5"]:
            spec = parse_forbidden(token)
            assert spec.r == spec.chi - 1 >= 1


class TestContainment:
    def test_k5_contains_bowtie(self):
        assert contains_subgraph(complete_graph(5), friendship_graph(2))

    def test_c5_is_triangle_free(self):
        assert not contains_subgraph(cycle_graph(5), complete_graph(3))

    def test_not_induced_semantics(self):
        # C4 sits inside K4 as a (non-induced) subgraph
        assert contains_subgraph(complete_graph(4), cycle_graph(4))

    def test_disconnected_pattern(self):
        two_edges = disjoint_union(path_graph(2), path_graph(2))
        assert contains_subgraph(path_graph(4), two_edges)
        # P3's two edges share a vertex, so no pair of disjoint edges
        assert not contains_subgraph(path_graph(3), two_edges)

    def test_empty_pattern(self):
        assert contains_subgraph(Graph(0), Graph(0))
        assert contains_subgraph(cycle_graph(5), Graph(0))

    def test_host_over_bitset_cap(self):
        host = empty_graph(65)
        with pytest.raises(SizeCapError):
            contains_subgraph(host, complete_graph(3))
        with pytest.raises(SizeCapError):
            is_free(host, parse_forbidden("K3"))

    def test_versus_injection_oracle(self):
        rng = random.Random(77)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 7))
            f = random_graph(rng, rng.randint(1, 5))
            assert contains_subgraph(g, f) == contains_by_injections(g, f)

    def test_monotone_under_edge_addition(self):
        rng = random.Random(13)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 7))
            f = random_graph(rng, rng.randint(1, 4), p=0.6)
            if not contains_subgraph(g, f):
                continue
            non = list(g.non_edges())
            if non:
                u, v = rng.choice(non)
                assert contains_subgraph(g.with_edge(u, v), f)

    @settings(max_examples=100)
    @given(st.integers(2, 7), st.randoms(use_true_random=False))
    def test_supergraph_keeps_pattern(self, n, pyrandom):
        g = random_graph(pyrandom, n)
        f = random_graph(pyrandom, pyrandom.randint(1, min(4, n)))
        if contains_subgraph(g, f):
            h = g
            for u, v in g.non_edges():
                h = h.with_edge(u, v)
            assert contains_subgraph(h, f)


class TestChromatic:
    @pytest.mark.parametrize(
        "g,expect",
        [
            (complete_graph(4), 4),
            (cycle_graph(5), 3),
            (cycle_graph(6), 2),
            (friendship_graph(2), 3),
            (path_graph(4), 2),
            (empty_graph(3), 1),
            (Graph(0), 0),
        ],
    )
    def test_known(self, g, expect):
        assert chromatic_number(g) == expect

    def test_family_identities(self):
        for s in range(2, 9):
            assert chromatic_number(complete_graph(s)) == s
        for k in range(1, 5):
            assert chromatic_number(friendship_graph(k)) == 3
        for s in range(3, 6):
            assert chromatic_number(intersecting_cliques(2, s)) == s

    def test_cap(self):
        with pytest.raises(SizeCapError):
            chromatic_number(empty_graph(13))

    def test_versus_exhaustive_assignments(self):
        rng = random.Random(3)

        def oracle(g):
            if g.n == 0:
                return 0
            if g.m == 0:
                return 1
            for k in range(1, g.n + 1):
                for assign in itertools.product(range(k), repeat=g.n):
                    if all(assign[u] != assign[v] for u, v in g.edges()):
                        return k
            return g.n

        graphs = [random_graph(rng, rng.randint(1, 6)) for _ in range(40)]
        for g in graphs + list(generate(6, n_min=1)):
            assert chromatic_number(g) == oracle(g), to_graph6(g)

    def test_pinned_at_the_cap(self):
        # Graphs whose clique number (Grotzsch plus K1, C11 plus K1) or
        # degree-ordered greedy coloring (the alternately labeled crown and
        # the g6 graphs) misses chi, so neither bound may stand in for the
        # exact search; values checked by inclusion-exclusion over the
        # independent sets.
        c5 = [(i, (i + 1) % 5) for i in range(5)]
        grotzsch = Graph(11, c5 + [(5 + u, v) for u, v in c5] + [(5 + v, u) for u, v in c5]
                         + [(10, 5 + i) for i in range(5)])
        crown = Graph(12, [(2 * i, 2 * j + 1) for i in range(6) for j in range(6) if i != j])
        cases = [
            (complete_graph(12), 12),
            (disjoint_union(grotzsch, empty_graph(1)), 4),
            (disjoint_union(cycle_graph(11), empty_graph(1)), 3),
            (complete_multipartite([4, 4, 4]), 3),
            (crown, 2),
            (from_graph6("K?@@y?d@??Q@"), 2),
            (from_graph6("KcW\\?[zD{}DJ"), 4),
            (from_graph6("Kf`rT}rwvxxr"), 5),
            (from_graph6("K|[\\~~x~yzz~"), 7),
        ]
        start = time.perf_counter()
        assert [chromatic_number(g) for g, _ in cases] == [chi for _, chi in cases]
        # a few milliseconds on a desktop; an unpruned search takes far longer
        assert time.perf_counter() - start < 2.0


def test_is_free_matches_contains():
    spec = parse_forbidden("K3")
    assert is_free(cycle_graph(5), spec)
    assert not is_free(complete_graph(3), spec)
