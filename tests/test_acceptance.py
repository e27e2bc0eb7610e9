"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line straight to the terminal
(bypassing capture) so a full run reads as a checklist.  Tolerances are
pinned here, not configurable.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from turantools.enumeration import generate
from turantools.extremal import build_report, verify_containment
from turantools.graphs import (
    canonical_form,
    complete_multipartite,
    from_graph6,
    turan_graph,
    turan_parts,
)
from turantools.patterns import is_free, parse_forbidden
from turantools.spectral import (
    GREATER,
    LESS,
    char_poly_exact,
    compare_exact,
    multipartite_char_poly,
    secular_lambda,
    spectral_radius,
    turan_perron_closed,
)
from turantools.structure import (
    inclusion_exclusion_bound,
    max_cut_partition,
    structural_checks,
)

from oracles import (
    adjacency_matrix,
    eig_max,
    labeled_class_count,
    max_edges_labeled,
    random_connected_graph,
)

K3 = parse_forbidden("K3")
K4 = parse_forbidden("K4")
F2 = parse_forbidden("F2")


@contextmanager
def criterion(announce, num, desc):
    try:
        yield
    except BaseException:
        announce(f"criterion {num:2d}: FAIL  {desc}")
        raise
    announce(f"criterion {num:2d}: PASS  {desc}")


def _compositions(total):
    if total == 0:
        yield []
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield [first] + rest


def test_criterion_01_triangle_free_extremal(announce):
    desc = "K3: Ex_sp = Ex = {T_{n,2}} for n in [3,9], lambda* secular, < 60 s"
    with criterion(announce, 1, desc):
        t0 = time.perf_counter()
        reports = verify_containment(3, 9, K3, jobs=1)
        elapsed = time.perf_counter() - t0
        for rep in reports:
            target = {canonical_form(turan_graph(rep.n, 2))}
            edge_forms = {canonical_form(from_graph6(s)) for s in rep.edge_extremal}
            sp_forms = {canonical_form(from_graph6(s)) for s in rep.spectral_extremal}
            assert edge_forms == target
            assert sp_forms == target
            assert rep.contained
            assert abs(rep.lambda_star - secular_lambda(turan_parts(rep.n, 2))) <= 1e-9
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_k4_free_extremal(announce):
    desc = "K4: Ex_sp = Ex = {T_{n,3}} for n in [4,8], < 5 min"
    with criterion(announce, 2, desc):
        t0 = time.perf_counter()
        reports = verify_containment(4, 8, K4, jobs=1)
        elapsed = time.perf_counter() - t0
        for rep in reports:
            target = {canonical_form(turan_graph(rep.n, 3))}
            assert {canonical_form(from_graph6(s)) for s in rep.edge_extremal} == target
            assert {canonical_form(from_graph6(s)) for s in rep.spectral_extremal} == target
            assert rep.contained
            assert abs(rep.lambda_star - secular_lambda(turan_parts(rep.n, 3))) <= 1e-9
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_03_bowtie_excess(announce):
    desc = "F2: a_n = 1 on [5,8]; containment recorded; ex matches brute force to n=6"
    with criterion(announce, 3, desc):
        reports = verify_containment(5, 8, F2)
        assert [(rep.n, rep.excess) for rep in reports] == [(n, 1) for n in range(5, 9)]
        for rep in reports:
            sp = {canonical_form(from_graph6(s)) for s in rep.spectral_extremal}
            edge = {canonical_form(from_graph6(s)) for s in rep.edge_extremal}
            assert rep.contained == (sp <= edge)  # recorded, never asserted
        for n in (5, 6):
            oracle_ex = max_edges_labeled(n, lambda g: is_free(g, F2))
            assert reports[n - 5].ex == oracle_ex


def test_criterion_04_closed_form_equivalence(announce):
    desc = "multipartite char poly == exact char poly, all compositions of n <= 10"
    with criterion(announce, 4, desc):
        checked = 0
        for total in range(1, 11):
            for parts in _compositions(total):
                closed = multipartite_char_poly(parts)
                direct = char_poly_exact(complete_multipartite(parts))
                assert closed == direct, parts
                checked += 1
        assert checked == 1023


def test_criterion_05_secular_solver(announce):
    desc = "secular roots: [1]*r, two parts, and [2,2,1] = 1+sqrt(5), all to 1e-10"
    with criterion(announce, 5, desc):
        for r in range(2, 13):
            assert abs(secular_lambda([1] * r) - (r - 1)) <= 1e-10
        for a in range(1, 13):
            for b in range(1, 13):
                assert abs(secular_lambda([a, b]) - math.sqrt(a * b)) <= 1e-10
        lam = secular_lambda([2, 2, 1])
        assert abs(lam - (1 + math.sqrt(5))) <= 1e-10
        assert abs(lam - eig_max(complete_multipartite([2, 2, 1]))) <= 1e-9


def test_criterion_06_balancing_monotonicity(announce):
    desc = "200 unbalanced part vectors: the balancing move strictly raises lambda"
    with criterion(announce, 6, desc):
        rng = random.Random(20260810)
        done = 0
        while done < 200:
            parts = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
            if max(parts) - min(parts) < 2:
                parts[parts.index(max(parts))] += rng.randint(2, 3)
            if sum(parts) > 20:
                continue
            i = parts.index(max(parts))
            j = parts.index(min(parts))
            assert parts[i] - parts[j] >= 2
            moved = parts.copy()
            moved[i] -= 1
            moved[j] += 1
            gap = secular_lambda(moved) - secular_lambda(parts)
            if gap < 1e-9:
                assert (
                    compare_exact(
                        complete_multipartite(moved), complete_multipartite(parts)
                    )
                    == GREATER
                )
            else:
                assert gap > 0
            done += 1


def test_criterion_07_subgraph_monotonicity(announce):
    desc = "200 proper subgraphs of connected graphs: exact comparison says less"
    with criterion(announce, 7, desc):
        rng = random.Random(4096)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = random_connected_graph(rng, n, p=rng.choice([0.3, 0.5, 0.8]))
            edges = list(g.edges())
            drop = rng.sample(edges, rng.randint(1, len(edges)))
            h = g
            for u, v in drop:
                h = h.without_edge(u, v)
            assert compare_exact(h, g) == LESS


def test_criterion_08_intersection_bound(announce):
    desc = "500 random set families on a 12-element universe satisfy the bound"
    with criterion(announce, 8, desc):
        rng = random.Random(777)
        for _ in range(500):
            fam = [
                set(rng.sample(range(12), rng.randint(0, 12)))
                for _ in range(rng.randint(1, 6))
            ]
            lhs, rhs = inclusion_exclusion_bound(fam)
            assert lhs >= rhs


def test_criterion_09_spectral_lower_bound(announce):
    desc = "extremal radius >= (1-1/r)n - r/(4n) + 2a/n for K3 (a=0) and F2 (a=1)"
    with criterion(announce, 9, desc):
        for spec, a, lo, hi in [(K3, 0, 4, 9), (F2, 1, 5, 8)]:
            r = spec.r
            for rep in verify_containment(lo, hi, spec):
                n, lam = rep.n, rep.lambda_star
                bound = (1 - 1 / r) * n - r / (4 * n) + 2 * a / n
                assert lam >= bound, (spec.source, n, lam, bound)
                for s in rep.spectral_extremal:
                    assert spectral_radius(from_graph6(s)).lam >= bound - 1e-12
        # the quoted example: n=6, K3 gives 3 >= 2.9167
        assert build_report(6, K3).lambda_star >= 2.9167 - 1e-4


def test_criterion_10_turan_structural_zero_slack(announce):
    desc = "T_{n,r} vs K_{r+1}, a=0: structure checks at zero slack, n<=12, r<=4"
    with criterion(announce, 10, desc):
        for r in (2, 3, 4):
            spec = parse_forbidden(f"K{r + 1}")
            for n in range(r, 13):
                g = turan_graph(n, r)
                partition = max_cut_partition(g, r)
                checks = {
                    c.check_id: c for c in structural_checks(g, spec, 0, partition)
                }
                assert len(checks) == 7
                assert partition.internal_total == 0
                assert partition.missing_cross_edges == 0
                assert all(len(b) == 0 for b in partition.internal_vertices)
                for cid in (
                    "internal_edges_per_part",
                    "internal_vertices_per_part",
                    "independent_vertices_fully_joined",
                    "internal_minus_missing",
                ):
                    assert checks[cid].holds and checks[cid].slack == 0.0
                assert checks["part_balance"].holds
                assert checks["spectral_lower_bound"].holds
                floor = checks["perron_entry_floor"]
                if n % r == 0:
                    # balanced: the Perron vector is constant, zero slack
                    assert floor.holds and abs(floor.slack) <= 1e-9
                else:
                    # unbalanced Turan graphs are not regular: the floor
                    # evaluates to the closed-form y1 < 1 and the a=0
                    # threshold of 1 cannot be met (reported, not an error)
                    y1, _, _ = turan_perron_closed(n, r)
                    assert not floor.holds
                    assert abs(floor.lhs - y1) <= 1e-9


def test_criterion_11_enumeration_counts(announce):
    desc = "class counts: 11 at n=4, 34 at n=5, 14 triangle-free at n=5 (oracle exact)"
    with criterion(announce, 11, desc):
        assert sum(1 for _ in generate(4)) == 11
        assert sum(1 for _ in generate(5)) == 34
        assert sum(1 for _ in generate(5, K3)) == 14
        assert labeled_class_count(4) == 11
        assert labeled_class_count(5) == 34
        assert labeled_class_count(5, lambda g: is_free(g, K3)) == 14


def test_criterion_12_eigen_equation_residual(announce):
    desc = "all Perron results: residual <= tol, entries in [0,1], max exactly 1"
    with criterion(announce, 12, desc):
        corpus = []
        for n in range(1, 7):
            corpus.extend(generate(n))
        corpus.extend(generate(7, prune=K3))
        rng = random.Random(31337)
        for _ in range(40):
            corpus.append(random_connected_graph(rng, 9, p=0.4))
        for tol in (1e-10, 1e-12):
            for g in corpus:
                res = spectral_radius(g, tol)
                x = np.array(res.vector)
                a = adjacency_matrix(g)
                assert float(np.max(np.abs(a @ x - res.lam * x))) <= tol
                assert res.residual <= tol
                assert min(res.vector) >= 0.0
                assert max(res.vector) == 1.0
