import random

import pytest

from turantools.enumeration import generate
from turantools.graphs import (
    complete_graph,
    cycle_graph,
    from_graph6,
    to_graph6,
    turan_graph,
    turan_parts,
)
from turantools.patterns import chromatic_number, friendship_graph, parse_forbidden
from turantools.spectral import turan_perron_closed
from turantools.structure import (
    AUTO_EXHAUSTIVE_BUDGET,
    _exhaustive_min_internal,
    _internal_count,
    _local_search,
    _part_masks,
    degree_class_report,
    inclusion_exclusion_bound,
    max_cut_partition,
    structural_checks,
)

from oracles import exhaustive_min_internal_unseeded, random_graph

K3 = parse_forbidden("K3")
K4 = parse_forbidden("K4")


class TestMaxCut:
    # below AUTO_EXHAUSTIVE_BUDGET max_cut_partition searches exhaustively,
    # so every report from it here is certified

    def test_c4_bipartite(self):
        rep = max_cut_partition(cycle_graph(4), 2)
        assert rep.cross_edges == 4 and rep.internal_total == 0
        assert rep.certified

    def test_k4_balanced_cut(self):
        rep = max_cut_partition(complete_graph(4), 2)
        assert rep.certified and rep.cross_edges == 4
        assert rep.internal_edges == (1, 1)

    def test_bowtie_cut(self):
        rep = max_cut_partition(friendship_graph(2), 2)
        assert rep.certified and rep.cross_edges == 4

    def test_accounting_invariants(self):
        rng = random.Random(1)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 7))
            r = rng.randint(2, 4)
            rep = max_cut_partition(g, r)
            assert rep.certified
            assert rep.cross_edges + rep.internal_total == g.m
            assert rep.missing_cross_edges >= 0
            sizes = rep.part_sizes
            pair_cap = sum(
                sizes[i] * sizes[j]
                for i in range(r)
                for j in range(i + 1, r)
            )
            assert rep.missing_cross_edges == pair_cap - rep.cross_edges
            assert sorted(v for part in rep.parts for v in part) == list(range(g.n))

    def test_exhaustive_at_least_local(self):
        rng = random.Random(2)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7))
            r = rng.randint(2, 3)
            ex = _internal_count(g, _part_masks(_exhaustive_min_internal(g, r), r))
            ls = _internal_count(g, _part_masks(_local_search(g, r), r))
            assert ex <= ls

    def test_seeded_bound_returns_the_unseeded_assignment(self):
        rng = random.Random(4)
        graphs = []
        for n in range(2, 15):
            graphs += [random_graph(rng, n, p) for p in (0.1, 0.3, 0.5, 0.8)]
            for r in range(2, min(n, 4) + 1):
                t = turan_graph(n, r)
                if turan_parts(n, r)[0] >= 2:  # vertices 0 and 1 share a part
                    t = t.with_edge(0, 1)
                perm = list(range(n))
                rng.shuffle(perm)
                graphs += [turan_graph(n, r), t.relabel(perm)]
        for g in graphs:
            for r in range(2, 5):
                expected = exhaustive_min_internal_unseeded(g, r)
                assert _exhaustive_min_internal(g, r) == expected, (to_graph6(g), r)

    def test_chromatic_number_is_the_least_zero_cost_cut(self):
        # both callers of patterns._partition_below: chi parts admit no
        # internal edge, chi - 1 parts force one
        for g in generate(7, n_min=2):
            chi = chromatic_number(g)
            if chi < 2:
                continue
            assert max_cut_partition(g, chi).internal_total == 0, to_graph6(g)
            if chi >= 3:
                assert max_cut_partition(g, chi - 1).internal_total > 0, to_graph6(g)

    def test_single_moves_never_improve_certified_optimum(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 7))
            r = rng.randint(2, 3)
            rep = max_cut_partition(g, r)
            assert rep.certified
            assign = [0] * g.n
            for i, part in enumerate(rep.parts):
                for v in part:
                    assign[v] = i
            for v in range(g.n):
                for c in range(r):
                    if c == assign[v]:
                        continue
                    trial = assign.copy()
                    trial[v] = c
                    cross = sum(
                        1 for u, w in g.edges() if trial[u] != trial[w]
                    )
                    assert cross <= rep.cross_edges

    def test_turan_natural_partition_recovered(self):
        for n, r in [(6, 2), (7, 3), (9, 3), (8, 4)]:
            rep = max_cut_partition(turan_graph(n, r), r)
            assert rep.internal_total == 0
            assert rep.missing_cross_edges == 0
            assert all(len(b) == 0 for b in rep.internal_vertices)
            assert rep.balanced

    def test_exhaustive_budget(self):
        # 4**12 assignments are searched exhaustively, 4**13 are not
        assert AUTO_EXHAUSTIVE_BUDGET == 4**12
        assert max_cut_partition(turan_graph(12, 4), 4).certified
        rep = max_cut_partition(turan_graph(13, 4), 4)
        assert not rep.certified and rep.missing_cross_edges == 0
        assert not max_cut_partition(turan_graph(30, 2), 4).certified

    def test_r_validation(self):
        with pytest.raises(ValueError):
            max_cut_partition(cycle_graph(4), 1)


class TestDegreeClasses:
    def test_turan_has_no_heavy_vertices(self):
        g = turan_graph(6, 2)
        rep = max_cut_partition(g, 2)
        classes = degree_class_report(g, rep, 0.1, 0.001)
        assert classes.heavy_internal == ()

    def test_k6_everything_heavy(self):
        g = complete_graph(6)
        rep = max_cut_partition(g, 2)
        classes = degree_class_report(g, rep, 0.01, 0.001)
        assert len(classes.heavy_internal) == 6

    def test_epsilon_near_one_empties_low(self):
        g = complete_graph(6)
        rep = max_cut_partition(g, 2)
        classes = degree_class_report(g, rep, 0.01, 0.999999)
        assert classes.low_degree == ()

    def test_threshold_arithmetic(self):
        g = turan_graph(6, 2)
        rep = max_cut_partition(g, 2)
        # d(v) = 3 for all v; low threshold with eps=0.001: (1 - 1/2 - 6*0.1)*6 < 0
        classes = degree_class_report(g, rep, 0.05, 0.001)
        expected = (1 - 1 / 2 - 3 * 2 * 0.001 ** (1 / 3)) * 6
        got_low = tuple(v for v in range(6) if g.degree(v) <= expected)
        assert classes.low_degree == got_low

    def test_parameter_validation(self):
        g = cycle_graph(4)
        rep = max_cut_partition(g, 2)
        for theta, eps in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)]:
            with pytest.raises(ValueError):
                degree_class_report(g, rep, theta, eps)


class TestStructuralChecks:
    def test_turan_62_all_hold(self):
        g = turan_graph(6, 2)
        checks = structural_checks(g, K3, 0, max_cut_partition(g, K3.r))
        by_id = {c.check_id: c for c in checks}
        assert len(checks) == 7
        assert all(c.holds for c in checks)
        assert by_id["spectral_lower_bound"].slack == pytest.approx(1 / 12, abs=1e-9)

    def test_turan_73_floor_fails_with_value_y1(self):
        g = turan_graph(7, 3)
        checks = structural_checks(g, K4, 0, max_cut_partition(g, K4.r))
        by_id = {c.check_id: c for c in checks}
        zero_slack_ids = [
            "internal_edges_per_part",
            "internal_vertices_per_part",
            "independent_vertices_fully_joined",
            "internal_minus_missing",
        ]
        for cid in zero_slack_ids:
            assert by_id[cid].holds and by_id[cid].slack == 0.0
        assert by_id["part_balance"].holds
        assert by_id["spectral_lower_bound"].holds
        y1, _, _ = turan_perron_closed(7, 3)
        floor = by_id["perron_entry_floor"]
        assert not floor.holds  # the floor is 1 at a=0; T_{7,3} is not regular
        assert floor.lhs == pytest.approx(y1, abs=1e-9)

    def test_bowtie_extremal_margin(self):
        from turantools.extremal import build_report

        F2 = parse_forbidden("F2")
        for s in build_report(6, F2).spectral_extremal:
            g = from_graph6(s)
            checks = structural_checks(g, F2, 1, max_cut_partition(g, F2.r))
            by_id = {c.check_id: c for c in checks}
            assert by_id["internal_minus_missing"].holds  # e_in - e_out <= 1

    def test_negative_excess_is_rejected(self):
        # T(n, r) is F-free, so ex(n, F) >= e(T(n, r)) and the excess is >= 0
        g = turan_graph(6, 2)
        partition = max_cut_partition(g, K3.r)
        with pytest.raises(ValueError, match="cannot be negative"):
            structural_checks(g, K3, -3, partition)
        assert len(structural_checks(g, K3, 0, partition)) == 7

    def test_json_shape(self):
        g = turan_graph(6, 2)
        checks = structural_checks(g, K3, 0, max_cut_partition(g, K3.r))
        d = checks[0].to_dict()
        assert set(d) == {"check_id", "statement", "holds", "lhs", "rhs", "slack"}


class TestInclusionExclusion:
    def test_tight_cases(self):
        assert inclusion_exclusion_bound([{1, 2}, {2, 3}]) == (1, 1)
        assert inclusion_exclusion_bound([{1}, {1}, {1}]) == (1, 1)

    def test_single_set(self):
        assert inclusion_exclusion_bound([{1, 2, 3}]) == (3, 3)

    def test_random_families(self):
        rng = random.Random(4)
        for _ in range(500):
            fam = [
                set(rng.sample(range(12), rng.randint(0, 12)))
                for _ in range(rng.randint(1, 6))
            ]
            lhs, rhs = inclusion_exclusion_bound(fam)
            assert lhs >= rhs

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            inclusion_exclusion_bound([])
