import math

import pytest

from turantools import _kernels
from turantools.errors import SizeCapError
from turantools.extremal import (
    build_report,
    ex_number,
    excess_estimate,
    spectral_ex,
    turan_edges,
    turan_radius,
    verify_containment,
)
from turantools.graphs import (
    canonical_form,
    complete_multipartite,
    cycle_graph,
    path_graph,
    turan_graph,
)
from turantools.patterns import contains_subgraph, is_free, parse_forbidden
from turantools.spectral import spectral_radius

from oracles import max_edges_labeled

K3 = parse_forbidden("K3")
K4 = parse_forbidden("K4")
F2 = parse_forbidden("F2")


class TestTuranEdges:
    @pytest.mark.parametrize("n,r,expect", [(7, 3, 16), (4, 2, 4), (6, 6, 15), (5, 2, 6)])
    def test_examples(self, n, r, expect):
        assert turan_edges(n, r) == expect

    def test_matches_construction(self):
        for n in range(1, 15):
            for r in range(1, n + 1):
                assert turan_edges(n, r) == turan_graph(n, r).m

    def test_quadratic_bounds(self):
        for n in range(2, 20):
            for r in range(2, min(n, 6) + 1):
                e = turan_edges(n, r)
                upper = (1 - 1 / r) * n * n / 2
                assert upper - r / 8 <= e <= upper

    def test_rejects(self):
        with pytest.raises(ValueError):
            turan_edges(4, 5)


class TestExNumber:
    def test_triangle_small(self):
        ex, members = ex_number(5, K3)
        assert ex == 6
        assert [canonical_form(g) for g in members] == [
            canonical_form(complete_multipartite([2, 3]))
        ]
        ex, members = ex_number(4, K3)
        assert ex == 4
        assert canonical_form(members[0]) == canonical_form(cycle_graph(4))

    def test_bowtie_n5(self):
        ex, members = ex_number(5, F2)
        assert ex == 7
        assert all(is_free(g, F2) and g.m == 7 for g in members)

    def test_turan_theorem_small(self):
        for spec, r in [(K3, 2), (K4, 3)]:
            for n in range(r + 1, 8):
                ex, members = ex_number(n, spec)
                assert ex == turan_edges(n, r)
                forms = {canonical_form(g) for g in members}
                assert canonical_form(turan_graph(n, r)) in forms

    def test_versus_labeled_bruteforce(self):
        for spec in [K3, F2]:
            for n in range(2, 6):
                want = max_edges_labeled(n, lambda g: is_free(g, spec))
                got, _ = ex_number(n, spec)
                assert got == want

    def test_maximality_witness(self):
        # adding any non-edge to an edge-extremal graph creates the pattern
        for spec in [K3, F2]:
            for n in range(spec.graph.n, 8):
                _, members = ex_number(n, spec)
                for g in members:
                    for u, v in g.non_edges():
                        assert contains_subgraph(g.with_edge(u, v), spec.graph)


class TestSpectralEx:
    def test_triangle_examples(self):
        lam, members, _ = spectral_ex(5, K3)
        assert lam == pytest.approx(math.sqrt(6), abs=1e-9)
        assert [canonical_form(g) for g in members] == [
            canonical_form(complete_multipartite([2, 3]))
        ]
        lam, members, _ = spectral_ex(4, K3)
        assert lam == pytest.approx(2.0, abs=1e-9)
        assert canonical_form(members[0]) == canonical_form(cycle_graph(4))
        lam, members, _ = spectral_ex(3, K3)
        assert lam == pytest.approx(math.sqrt(2), abs=1e-9)
        assert canonical_form(members[0]) == canonical_form(path_graph(3))

    def test_members_attain_lambda(self):
        lam, members, _ = spectral_ex(6, F2)
        for g in members:
            assert spectral_radius(g).lam == pytest.approx(lam, abs=1e-9)
            assert is_free(g, F2)

    def test_spectral_extremal_is_turan(self):
        for n in range(3, 8):
            lam, members, _ = spectral_ex(n, K3)
            assert lam == pytest.approx(turan_radius(n, 2), abs=1e-9)
            assert [canonical_form(g) for g in members] == [
                canonical_form(turan_graph(n, 2))
            ]

    @pytest.mark.parametrize("tol", [1e-4, 1e-2])
    @pytest.mark.parametrize(
        "spec,n,argmax",
        [("g6:Dhc", 8, ("G??F~{", "G?~vf_")), ("g6:Ch", 5, ("D?{", "D@K", "D`K"))],
    )
    def test_loose_tol_keeps_every_tied_member(self, spec, n, argmax, tol):
        # C5-free at n=8 and P4-free at n=5 have exactly tied radii whose
        # float values differ by more than 1e-9 at these tolerances
        rep = build_report(n, parse_forbidden(spec), tol=tol)
        assert rep.spectral_extremal == argmax
        assert rep.lambda_exact


class TestReports:
    def test_report_fields(self):
        rep = build_report(6, K3)
        assert rep.n == 6 and rep.spec == "K3"
        assert rep.ex == 9 and rep.turan_edges == 9 and rep.excess == 0
        assert rep.contained is True
        assert rep.lambda_star == pytest.approx(3.0, abs=1e-9)
        d = rep.to_dict()
        assert set(d) == {
            "n", "spec", "ex", "edge_extremal", "lambda_star",
            "spectral_extremal", "contained", "excess", "turan_edges",
            "lambda_exact", "reference",
        }

    def test_verify_containment_triangle(self):
        reports = verify_containment(3, 6, K3)
        assert [r.n for r in reports] == [3, 4, 5, 6]
        assert all(r.contained for r in reports)
        assert all(r.excess == 0 for r in reports)

    def test_verify_containment_bowtie(self):
        reports = verify_containment(5, 6, F2)
        for rep in reports:
            sp = set(rep.spectral_extremal)
            edge = set(rep.edge_extremal)
            assert rep.contained == (sp <= edge)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            verify_containment(5, 4, K3)


@pytest.fixture
def augment_calls(monkeypatch):
    """Count calls of the augmentation kernel."""
    calls = []
    real = _kernels.augment_children

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(_kernels, "augment_children", counting)
    return calls


class TestOneWalk:
    # a walk to n expands each class on 1..n-1 vertices once
    def test_verify_expands_each_parent_once(self, augment_calls):
        verify_containment(5, 6, F2)
        assert len(augment_calls) == 1 + 2 + 4 + 11 + 28

    def test_excess_expands_each_parent_once(self, augment_calls):
        excess_estimate(K3, 3, 7)
        assert len(augment_calls) == 1 + 2 + 3 + 7 + 14 + 38

    def test_verify_starts_one_pool(self, pool_starts):
        reports = verify_containment(3, 6, K3, jobs=2)
        assert [r.n for r in reports] == [3, 4, 5, 6]
        assert pool_starts == [2]

    def test_size_cap_checked_before_any_augmentation(self, monkeypatch):
        def fail(*args):
            pytest.fail("augmentation ran before the size cap was checked")

        monkeypatch.setattr(_kernels, "augment_children", fail)
        with pytest.raises(SizeCapError):
            verify_containment(3, 11, K3)


class TestEdgelessExtremal:
    def test_k2_spec_runs_the_whole_pipeline(self):
        # forbidding a single edge leaves only the edgeless class (r = 1)
        k2 = parse_forbidden("K2")
        assert k2.r == 1
        rep = build_report(5, k2)
        assert rep.ex == 0 and rep.turan_edges == 0 and rep.excess == 0
        assert rep.lambda_star == 0.0
        assert rep.edge_extremal == rep.spectral_extremal == ("D??",)
        assert rep.contained


class TestExcess:
    def test_triangle_zero(self):
        seq, note = excess_estimate(K3, 3, 7)
        assert seq == [(n, 0) for n in range(3, 8)]
        assert "stable at 0" in note

    def test_bowtie_one(self):
        seq, note = excess_estimate(F2, 5, 7)
        assert seq == [(5, 1), (6, 1), (7, 1)]
        assert "stable at 1" in note

    def test_not_stabilized_note(self):
        seq, note = excess_estimate(F2, 4, 5)
        # a_4 = ex(4,F2) - e(T_{4,2}) = 6 - 4 = 2 (K4 is bowtie-free), a_5 = 1
        assert seq == [(4, 2), (5, 1)]
        assert note == "not stabilized over the sampled range"
