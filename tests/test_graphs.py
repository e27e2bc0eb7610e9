import dataclasses
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import turantools
from turantools.enumeration import generate
from turantools.errors import ParseError, SizeCapError
from turantools.graphs import (
    LIST_CAP,
    CanonicalForm,
    Graph,
    canonical_form,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    path_graph,
    to_graph6,
    turan_graph,
    turan_parts,
)

from oracles import (
    all_labeled_graphs,
    brute_isomorphic,
    canonical_graph6_relabeled,
    random_graph,
    to_graph6_bitwise,
)


def _graphs(draw_n=st.integers(0, 8)):
    @st.composite
    def strat(draw):
        n = draw(draw_n)
        pairs = list(itertools.combinations(range(n), 2))
        mask = draw(st.integers(0, (1 << len(pairs)) - 1)) if pairs else 0
        return Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])

    return strat()


class TestGraphBasics:
    def test_immutable(self):
        g = complete_graph(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_degree_and_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degrees() == [1, 2, 2, 1]
        assert sum(g.degrees()) == 2 * g.m
        assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_rejects_self_loops_and_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("u,v", [(0, 7), (7, 0), (-1, 0), (0, -3), (1, 1)])
    def test_edge_edits_reject_bad_vertices(self, u, v):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.with_edge(u, v)
        with pytest.raises(ValueError):
            g.without_edge(u, v)

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 3], [-1, 0, 1]])
    def test_relabel_rejects_non_permutations(self, perm):
        with pytest.raises(ValueError):
            complete_graph(3).relabel(perm)

    def test_components(self):
        g = disjoint_union(complete_graph(3), path_graph(2))
        assert g.connected_components() == [[0, 1, 2], [3, 4]]
        assert not g.is_connected()
        assert cycle_graph(5).is_connected()
        assert Graph(0).is_connected() and Graph(1).is_connected()


class TestBuilders:
    def test_complete_multipartite_examples(self):
        assert complete_multipartite([1, 1, 1]) == complete_graph(3)
        k23 = complete_multipartite([2, 3])
        assert (k23.n, k23.m) == (5, 6)
        g = complete_multipartite([2, 2, 1])
        assert (g.n, g.m) == (5, (25 - (4 + 4 + 1)) // 2)
        # explicit adjacency: parts {0,1}, {2,3}, {4}
        assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
        assert g.has_edge(0, 2) and g.has_edge(1, 4) and g.has_edge(3, 4)

    @pytest.mark.parametrize("parts", [[], [0], [3, -1], [0, 2]])
    def test_complete_multipartite_rejects(self, parts):
        with pytest.raises(ValueError):
            complete_multipartite(parts)

    def test_edge_count_formula(self):
        rng = random.Random(0)
        for _ in range(50):
            parts = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
            g = complete_multipartite(parts)
            n = sum(parts)
            assert g.m == (n * n - sum(p * p for p in parts)) // 2

    def test_turan_examples(self):
        assert canonical_form(turan_graph(4, 2)) == canonical_form(cycle_graph(4))
        assert turan_graph(7, 3).m == 16
        assert turan_graph(5, 5) == complete_graph(5)

    def test_turan_parts_balanced(self):
        for n in range(1, 20):
            for r in range(1, n + 1):
                parts = turan_parts(n, r)
                assert sum(parts) == n and len(parts) == r
                assert max(parts) - min(parts) <= 1

    @pytest.mark.parametrize("n,r", [(3, 0), (3, 4), (0, 1)])
    def test_turan_rejects(self, n, r):
        with pytest.raises(ValueError):
            turan_graph(n, r)

    def test_turan_part_count_is_capped(self):
        # checked before the list is built; r = 10**6 is admitted
        assert turan_parts(10**12, 2) == [5 * 10**11] * 2
        assert len(turan_parts(1_500_000, 10**6)) == 10**6
        with pytest.raises(SizeCapError):
            turan_parts(LIST_CAP + 1, LIST_CAP + 1)


class TestGraph6:
    def test_known_encodings(self):
        assert to_graph6(complete_graph(5)) == "D~{"
        assert to_graph6(empty_graph(5)) == "D??"
        assert from_graph6("D~{") == complete_graph(5)

    @settings(max_examples=150)
    @given(_graphs(st.integers(0, 12)))
    def test_round_trip(self, g):
        assert from_graph6(to_graph6(g)) == g

    def test_long_form_round_trip(self):
        g = Graph(70, [(0, 69), (1, 2), (30, 40)])
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g

    def test_short_form_boundary(self):
        rng = random.Random(62)
        g = random_graph(rng, 62, p=0.1)
        s = to_graph6(g)
        assert not s.startswith("~")
        assert from_graph6(s) == g

    def test_matches_the_bitwise_encoder(self):
        # every class on up to 8 vertices, then a seeded corpus up to n = 70
        # that decodes back and, up to the bitset cap, reaches the long
        # header at n = 63 and 64 on the canonical path too
        for g in generate(8, n_min=1):
            assert to_graph6(g) == to_graph6_bitwise(g)
        rng = random.Random(70)
        for n in list(range(71)) + [rng.randint(1, 70) for _ in range(100)]:
            g = random_graph(rng, n, p=rng.choice([0.1, 0.5, 0.9]))
            s = to_graph6_bitwise(g)
            assert to_graph6(g) == s, n
            assert from_graph6(s) == g, n
            if n <= 64:
                assert canonical_form(g).graph6() == canonical_graph6_relabeled(g), n

    def test_size_cap_refuses_before_encoding(self):
        # The triangle of 258 048 vertices alone takes over 4 GB, so the cap
        # must refuse it first.  The child's address-space limit turns a
        # late check into a quick MemoryError, not a machine out of memory.
        child = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from turantools.graphs import Graph, to_graph6\n"
            "to_graph6(Graph(258048))\n"
        )
        src = str(Path(turantools.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.stderr.endswith(
            "SizeCapError: graph6 encoding supports n <= 258047, got 258048\n"), proc.stderr

    def test_header_prefix_stripped(self):
        # with the blanks a graph6 line may carry around it: space, tab, CR, LF
        for text in (">>graph6<<D~{", "D~{\r", "D~{\r\n", " \tD~{\n"):
            assert from_graph6(text) == complete_graph(5), text

    # Each bad argument with the byte offset its ParseError must report.
    PARSE_ERROR_OFFSETS = {
        "": 0,
        "D~": 2,
        "D~{{": 3,
        "~??": 3,
        chr(30) + "??": 0,  # only space, tab, CR and LF are skipped
        chr(11) + "A_": 0,
        "A_" + chr(28): 2,
        "D~" + chr(5): 2,
        # counted from the argument, not from the stripped body
        ">>graph6<<D~" + chr(5): 12,
        "  D~" + chr(5): 4,
        " >>graph6<<~?" + chr(5) + "?": 13,
        "   ": 3,
        "A@": 1,  # n = 2 has one pair; the body's five other bits are padding
        "~~??????": 0,  # the 8-byte order (n > 258047) is refused at its header
        " ~~??????": 1,
        "D\xe9?": 1,  # a non-ASCII body byte
        "  D~{\xe9": 5,
    }

    @pytest.mark.parametrize("bad", list(PARSE_ERROR_OFFSETS))
    def test_parse_errors_carry_offsets(self, bad):
        offset = self.PARSE_ERROR_OFFSETS[bad]
        with pytest.raises(ParseError) as err:
            from_graph6(bad)
        assert err.value.offset == offset
        assert str(err.value).endswith(f"(byte {offset})")


class TestCanonicalForm:
    def test_relabelings_collide(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 0), (0, 2)])
        assert canonical_form(a) == canonical_form(b)

    def test_distinct_graphs_differ(self):
        assert canonical_form(complete_graph(3)) != canonical_form(path_graph(3))

    def test_permutation_fuzz(self):
        rng = random.Random(2024)
        g = random_graph(rng, 8)
        base = canonical_form(g)
        for _ in range(1000):
            perm = list(range(8))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == base

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 7)
            g, h = random_graph(rng, n), random_graph(rng, n)
            assert (canonical_form(g) == canonical_form(h)) == brute_isomorphic(g, h)

    def test_complete_invariant_exhaustive_n4(self):
        forms = {}
        for g in all_labeled_graphs(4):
            forms.setdefault(canonical_form(g), g)
        assert len(forms) == 11
        for (fa, ga), (fb, gb) in itertools.combinations(forms.items(), 2):
            assert not brute_isomorphic(ga, gb)

    def test_canonical_graph_is_member_of_class(self):
        # the canonical string decodes to a member of g's class, whose
        # own canonical string is the same
        rng = random.Random(9)
        for _ in range(50):
            g = random_graph(rng, rng.randint(0, 8))
            s = canonical_form(g).graph6()
            cg = from_graph6(s)
            if g.n <= 7:
                assert brute_isomorphic(g, cg)
            assert canonical_form(cg) == canonical_form(g)
            assert canonical_form(cg).graph6() == s

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            canonical_form(empty_graph(65))

    def test_form_includes_vertex_count(self):
        assert canonical_form(empty_graph(1)) != canonical_form(empty_graph(0))
        assert CanonicalForm(2, b"") != CanonicalForm(3, b"")

    def test_form_is_a_plain_value(self):
        form = canonical_form(cycle_graph(5))
        same = CanonicalForm(5, canonical_form(cycle_graph(5).relabel([1, 2, 3, 4, 0])).bytes)
        assert dataclasses.astuple(form) == (5, form.bytes)
        assert form == same and hash(form) == hash(same)


