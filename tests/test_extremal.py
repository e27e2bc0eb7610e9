import hashlib
import math
from fractions import Fraction
from itertools import groupby
from operator import attrgetter

import pytest

from turantools import _kernels, cli, enumeration, extremal, graphs, patterns, spectral
from turantools.enumeration import GENERATION_CAP, generate
from turantools.errors import NonConvergenceError, SizeCapError
from turantools.extremal import (
    TIE_WINDOW,
    build_report,
    turan_edges,
    verify_containment,
)
from turantools.graphs import (
    canonical_form,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    from_graph6,
    path_graph,
    turan_graph,
    turan_parts,
)
from turantools.patterns import contains_subgraph, is_free, parse_forbidden
from turantools.spectral import (
    DEFAULT_TOL,
    EQUAL,
    compare_exact,
    secular_lambda,
    spectral_radius,
)

from oracles import canonical_graph6_relabeled, eig_max, max_edges_labeled, scan_reference

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


def _graphs(g6s):
    return [from_graph6(s) for s in g6s]


def _forms(g6s):
    return [canonical_form(g) for g in _graphs(g6s)]


class TestExNumber:
    def test_triangle_small(self):
        rep = build_report(5, K3)
        assert rep.ex == 6
        assert _forms(rep.edge_extremal) == [canonical_form(complete_multipartite([2, 3]))]
        rep = build_report(4, K3)
        assert rep.ex == 4
        assert _forms(rep.edge_extremal)[0] == canonical_form(cycle_graph(4))

    def test_bowtie_n5(self):
        rep = build_report(5, F2)
        assert rep.ex == 7
        assert all(is_free(g, F2) and g.m == 7 for g in _graphs(rep.edge_extremal))

    def test_turan_theorem_small(self):
        for spec, r in [(K3, 2), (K4, 3)]:
            for rep in verify_containment(r + 1, 7, spec):
                assert rep.ex == turan_edges(rep.n, r)
                assert canonical_form(turan_graph(rep.n, r)) in _forms(rep.edge_extremal)

    def test_versus_labeled_bruteforce(self):
        for spec in [K3, F2]:
            for rep in verify_containment(2, 5, spec):
                assert rep.ex == max_edges_labeled(rep.n, lambda g: is_free(g, spec))

    def test_maximality_witness(self):
        # adding any non-edge to an edge-extremal graph creates the pattern
        for spec in [K3, F2]:
            for rep in verify_containment(spec.graph.n, 7, spec):
                for g in _graphs(rep.edge_extremal):
                    for u, v in g.non_edges():
                        assert contains_subgraph(g.with_edge(u, v), spec.graph)


class TestSpectralEx:
    def test_triangle_examples(self):
        rep3, rep4, rep5 = verify_containment(3, 5, K3)
        assert rep5.lambda_star == pytest.approx(math.sqrt(6), abs=1e-9)
        assert _forms(rep5.spectral_extremal) == [canonical_form(complete_multipartite([2, 3]))]
        assert rep4.lambda_star == pytest.approx(2.0, abs=1e-9)
        assert _forms(rep4.spectral_extremal)[0] == canonical_form(cycle_graph(4))
        assert rep3.lambda_star == pytest.approx(math.sqrt(2), abs=1e-9)
        assert _forms(rep3.spectral_extremal)[0] == canonical_form(path_graph(3))

    def test_members_attain_lambda(self):
        rep = build_report(6, F2)
        for g in _graphs(rep.spectral_extremal):
            assert spectral_radius(g).lam == pytest.approx(rep.lambda_star, abs=1e-9)
            assert is_free(g, F2)

    def test_spectral_extremal_is_turan(self):
        for rep in verify_containment(3, 7, K3):
            n = rep.n
            assert rep.lambda_star == pytest.approx(secular_lambda(turan_parts(n, 2)), abs=1e-9)
            assert _forms(rep.spectral_extremal) == [canonical_form(turan_graph(n, 2))]

    @pytest.mark.parametrize("tol", [1e-4, 1e-2])
    @pytest.mark.parametrize(
        "spec,n,argmax",
        [("g6:Dhc", 8, ("G??F~{", "G?~vf_")), ("g6:Ch", 5, ("D?{", "D@K", "D`K"))],
    )
    def test_loose_tol_keeps_every_tied_member(self, spec, n, argmax, tol):
        # C5-free at n=8 and P4-free at n=5 have exactly tied radii whose
        # float values differ by more than the tie window at these
        # tolerances; exact comparison keeps every tied member
        members = [from_graph6(s) for s in argmax]
        loose = [spectral_radius(g, tol).lam for g in members]
        assert max(loose) - min(loose) > TIE_WINDOW
        assert [compare_exact(g, members[0]) for g in members[1:]] == [EQUAL] * (
            len(members) - 1
        )
        rep = build_report(n, parse_forbidden(spec))
        assert rep.spectral_extremal == argmax
        assert rep.lambda_exact

    def test_exact_comparison_replaces_a_beaten_winner(self, monkeypatch):
        # one float radius for every class makes each a finalist, so exact
        # comparison alone picks the argmax; the first class is edgeless,
        # and a later finalist that beats the winners replaces them
        monkeypatch.setattr(
            extremal, "spectral_radius",
            lambda g, tol, below: spectral.SpectralResult(1.0, (1.0,) * g.n, 0.0, 1),
        )
        classes = list(generate(6, K3))
        radii = [eig_max(g) for g in classes]
        top = max(radii)
        argmax = [g for g, lam in zip(classes, radii) if lam > top - 1e-9]
        assert classes[0].m == 0 and radii[0] < top and len(classes) == 38
        rep = build_report(6, K3)
        assert rep.spectral_extremal == tuple(extremal._canonical_sorted(argmax))
        assert rep.lambda_exact

    def test_tie_window_covers_the_scan_tolerance(self):
        # a radius stopped at DEFAULT_TOL is within sqrt(n) * DEFAULT_TOL
        # of an eigenvalue of A, for every n generation allows
        assert 2 * math.sqrt(GENERATION_CAP) * DEFAULT_TOL <= TIE_WINDOW

    def test_scan_radii_lie_at_the_certified_root(self):
        # the residual bound places a scan radius near *some* eigenvalue of
        # A; on this corpus it is the largest one, so any class whose exact
        # radius equals lambda* falls inside the tie window
        graphs = [*generate(7, n_min=1), *generate(8, F2)]
        assert len(graphs) == 3542
        half = Fraction(TIE_WINDOW) / 2
        for g in graphs:
            lo, hi = spectral.certified_radius_interval(g)
            assert lo - half < Fraction(spectral_radius(g, DEFAULT_TOL).lam) <= hi + half, g


class TestWalkBoundInTheScan:
    # the 2-walk bound skips power iteration on classes that cannot reach
    # the tie window; every field must be the every-class scan's.  C5-free
    # at n = 8 is an exact tie (K_{4,4} and the book K2 + 6K1 at 4)
    @pytest.mark.parametrize(
        "spec,n_min,n_max,tied",
        [(F2, 5, 8, []), (K3, 3, 9, []), (parse_forbidden("g6:DUW"), 5, 8, [8]), (None, 1, 7, [])],
        ids=["F2-5-8", "K3-3-9", "C5-5-8", "all-1-7"],
    )
    def test_scan_matches_the_every_class_scan(self, spec, n_min, n_max, tied):
        exact_levels = []
        for n, level in groupby(generate(n_max, spec, n_min=n_min), key=attrgetter("n")):
            level = list(level)
            ex, edge, lam, winners, exact = extremal._scan(level)
            ref = scan_reference(level)
            assert (ex, edge, lam.hex(), winners, exact) == (*ref[:2], ref[2].hex(), *ref[3:])
            if exact:
                exact_levels.append(n)
        assert exact_levels == tied

    def test_few_classes_reach_power_iteration(self, monkeypatch):
        # 2 816 classes, 3 807 components at F2 5..8; the bound leaves 236
        calls = []
        real = spectral._power_iteration

        def counting(sub, tol):
            calls.append(sub.shape[0])
            return real(sub, tol)

        monkeypatch.setattr(spectral, "_power_iteration", counting)
        verify_containment(5, 8, F2)
        assert len(calls) <= 300


class TestReports:
    def test_canonical_graph6_sorts_as_canonical_forms(self):
        # one canonical form per member: sorting the canonical graph6
        # strings must give the order of the packed forms, each string
        # the one the label-and-relabel route gives, decoding to a member
        for n, level in groupby(generate(7, n_min=1), key=attrgetter("n")):
            level = list(level)
            by_form = sorted(level, key=lambda g: canonical_form(g).bytes)
            strings = extremal._canonical_sorted(level)
            assert strings == [canonical_graph6_relabeled(g) for g in by_form], n
            for g, s in zip(by_form, strings):
                assert canonical_form(from_graph6(s)) == canonical_form(g)

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

    def test_reference_is_read_from_the_graph(self):
        # Turan's theorem covers exactly the complete patterns, whatever
        # their spelling or source: F1 is K3 and g6:C~ is K4
        triangle = patterns.ForbiddenSpec("triangle", complete_graph(3))
        for spec in (triangle, parse_forbidden("F1"), parse_forbidden("g6:C~")):
            assert build_report(4, spec).reference == "turan-theorem"
        c5 = patterns.ForbiddenSpec("K-free", cycle_graph(5))
        for spec in (c5, parse_forbidden("g6:BW"), F2):
            assert build_report(5, spec).reference == "no external reference"

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

    def test_stalled_power_iteration_names_the_class(self, monkeypatch):
        monkeypatch.setattr(spectral, "ITERATION_CAP", 1)
        with pytest.raises(NonConvergenceError) as err:
            build_report(5, K3)
        assert "power iteration stalled on D?o" in str(err.value)
        assert err.value.iterations == 1
        assert err.value.best == pytest.approx(4 / 3)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            verify_containment(5, 4, K3)

    def test_below_r_vertices_the_turan_graph_is_complete(self):
        # T(n, r) = K_n for n <= r, so K4-free graphs on n <= 3 vertices
        # have excess 0 over it
        reports = verify_containment(1, 6, K4)
        assert [r.n for r in reports] == [1, 2, 3, 4, 5, 6]
        for rep in reports[:3]:
            assert rep.ex == rep.turan_edges == math.comb(rep.n, 2)
            assert rep.excess == 0
        assert [r.excess for r in reports] == [0] * 6


class TestPinnedReports:
    @pytest.mark.parametrize(
        "backend,argv,digest",
        [
            (twin, argv, digest)
            for argv, digest in [
                (["verify", "--forbid", "F2", "--n-min", "5", "--n-max", "7", "--json"],
                 "6393d2ecb6b9975f19052267177a4b902af75dd3b70964c0ad1b8c97e170577b"),
                (["verify", "--forbid", "K3", "--n-min", "3", "--n-max", "7"],
                 "be2c62e846e8253dbc1e0db23809ed2e8f7ad06d19bf100b21217bdcec8071dd"),
                (["extremal", "--n", "5", "--forbid", "g6:Ch"],
                 "6a1c12778cac078b0cedc8604478ae525950ea4d4794d673d57577da4816233e"),
            ]
            for twin in ("python", "c")
        ] + [
            # compiled only, to keep the suite short
            ("c", ["extremal", "--n", "8", "--forbid", "g6:Dhc", "--json"],
             "5669381ccc7c421ddff993acf0ddbb64865ec2a93980eb69a7a0f33765b2dd05"),
        ],
        ids=["python-F2-5-7", "c-F2-5-7", "python-K3-3-7", "c-K3-3-7",
             "python-Ch-5", "c-Ch-5", "c-Dhc-8"],
        indirect=["backend"],
    )
    def test_report_output_is_pinned(self, backend, monkeypatch, capsys, argv, digest):
        # the walk, the containment tests and the canonical strings all
        # run on the given twin; the digests cover the lambda_star digits,
        # which come from numpy's float products
        for module in (enumeration, graphs, patterns):
            monkeypatch.setattr(module, "_kernels", backend)
        assert cli.main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest


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
    # a walk to n expands the empty graph and each class on 1..n-1 vertices once
    @pytest.mark.parametrize(
        "spec,n_min,n_max,parents",
        [(F2, 5, 6, 1 + 1 + 2 + 4 + 11 + 28), (K3, 3, 7, 1 + 1 + 2 + 3 + 7 + 14 + 38)],
        ids=["F2-5-6", "K3-3-7"],
    )
    def test_verify_expands_each_parent_once(self, augment_calls, spec, n_min, n_max, parents):
        verify_containment(n_min, n_max, spec)
        assert len(augment_calls) == parents

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
        reports = verify_containment(3, 7, K3)
        assert [(r.n, r.excess) for r in reports] == [(n, 0) for n in range(3, 8)]

    def test_bowtie_one(self):
        reports = verify_containment(5, 7, F2)
        assert [(r.n, r.excess) for r in reports] == [(5, 1), (6, 1), (7, 1)]

    def test_bowtie_two_at_n4(self):
        reports = verify_containment(4, 5, F2)
        # a_4 = ex(4,F2) - e(T_{4,2}) = 6 - 4 = 2 (K4 is bowtie-free), a_5 = 1
        assert [(r.n, r.excess) for r in reports] == [(4, 2), (5, 1)]
