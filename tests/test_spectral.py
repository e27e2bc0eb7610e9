import math
import random
import sys
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from turantools import _realroots, spectral
from turantools._realroots import LargestRoot
from turantools.enumeration import generate
from turantools.errors import NonConvergenceError, SizeCapError
from turantools.graphs import (
    Graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    empty_graph,
    LIST_CAP,
    from_graph6,
    path_graph,
    to_graph6,
    turan_graph,
    turan_parts,
)
from turantools.patterns import parse_forbidden
from turantools.spectral import (
    DEFAULT_TOL,
    EQUAL,
    GREATER,
    INTERVAL_WIDTH,
    LESS,
    MIN_TOL,
    certified_radius_interval,
    char_poly_exact,
    compare_exact,
    multipartite_char_poly,
    secular_lambda,
    spectral_radius,
    turan_perron_closed,
)

import oracles
from oracles import (
    FractionLargestRoot,
    charpoly_faddeev_bigint,
    charpoly_leibniz,
    eig_max,
    fraction_compare_largest_roots,
    multipartite_char_poly_products,
    perron_vector,
    random_connected_graph,
    random_graph,
    secular_root_reference,
    spectral_radius_reference,
)


class TestSpectralRadius:
    def test_regular_graph(self):
        res = spectral_radius(complete_graph(3))
        assert res.lam == pytest.approx(2.0, abs=1e-10)
        assert res.vector == (1.0, 1.0, 1.0)

    def test_complete_bipartite(self):
        res = spectral_radius(complete_multipartite([2, 3]))
        assert res.lam == pytest.approx(math.sqrt(6), abs=1e-9)

    def test_disjoint_union_takes_max(self):
        g = disjoint_union(complete_graph(3), complete_graph(2))
        res = spectral_radius(g)
        assert res.lam == pytest.approx(2.0, abs=1e-10)
        # losing component is zero-padded; winner carries max entry 1
        assert res.vector[3] == res.vector[4] == 0.0
        assert max(res.vector) == 1.0

    def test_more_vertices_than_a_machine_word(self):
        # 75 vertices: rows past 64 bits still give the 0/1 matrix
        res = spectral_radius(disjoint_union(complete_graph(5), cycle_graph(70)))
        assert res.lam == 4.0
        assert res.vector == (1.0,) * 5 + (0.0,) * 70

    def test_single_vertex_and_empty_graph(self):
        assert spectral_radius(Graph(1)).lam == 0.0
        assert spectral_radius(empty_graph(4)).lam == 0.0
        with pytest.raises(ValueError):
            spectral_radius(Graph(0))

    def test_tol_validation(self):
        # nan passes a bare ``tol < MIN_TOL`` and runs every sweep; inf
        # stops after one sweep with a wrong radius (P4: 1.5)
        for tol in (1e-15, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                spectral_radius(complete_graph(3), tol=tol)

    def test_tol_below_the_rounding_floor_is_refused_before_any_sweep(self, monkeypatch):
        # the floor is epsilon times the 2-walk bound: K46 (bound 45)
        # converges at MIN_TOL in one sweep, K47 (bound 46) is refused, and
        # so is a seeded G(200, 0.3) (lambda about 60), a shape on which
        # MIN_TOL ran all 10^6 sweeps, then raised NonConvergenceError
        assert spectral_radius(complete_graph(46), MIN_TOL).iterations == 1
        monkeypatch.setattr(spectral, "_adjacency_matrix", None)
        for g in (complete_graph(47), random_graph(random.Random(19), 200, 0.3)):
            with pytest.raises(ValueError, match="epsilon times the bound"):
                spectral_radius(g, MIN_TOL)

    def test_versus_dense_eigensolve(self):
        rng = random.Random(101)
        for _ in range(150):
            g = random_graph(rng, rng.randint(1, 9))
            res = spectral_radius(g)
            assert res.lam == pytest.approx(eig_max(g), abs=1e-8)

    def test_residual_contract(self):
        rng = random.Random(55)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 9))
            res = spectral_radius(g, tol=1e-11)
            a = np.zeros((g.n, g.n))
            for u, v in g.edges():
                a[u, v] = a[v, u] = 1.0
            x = np.array(res.vector)
            assert np.max(np.abs(a @ x - res.lam * x)) <= 1e-11
            assert min(res.vector) >= 0.0 and max(res.vector) == 1.0

    def test_eigen_equation_bipartite(self):
        # the shift must defeat the period-2 oscillation
        res = spectral_radius(complete_multipartite([4, 4]))
        assert res.lam == pytest.approx(4.0, abs=1e-10)

    def test_perron_vector_matches_eigensolver(self):
        rng = random.Random(18)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 8))
            res = spectral_radius(g, tol=1e-12)
            assert np.allclose(np.array(res.vector), perron_vector(g), atol=1e-6)


class TestWalkBound:
    def test_bounds_the_certified_radius(self):
        # sign_at(B) >= 0 is B >= lambda exactly, B read as the rational
        # its double is.  Stars and K_{a,b} attain lambda = sqrt(w), so a
        # bound rounded to nearest would fall below K_{1,3}'s sqrt(3).  The
        # seeded graphs include disconnected ones and isolated vertices.
        graphs = list(generate(7, n_min=1))
        rng = random.Random(36)
        for n in range(1, 25):
            graphs += [random_graph(rng, n, p) for p in (0.1, 0.3, 0.6, 0.9)]
        disconnected = [g for g in graphs if not g.is_connected()]
        assert len(graphs) == 1252 + 96
        assert any(g.n > 7 and 0 in g.degrees() for g in disconnected)
        for g in graphs:
            assert spectral.certified_radius_root(g).sign_at(spectral._walk_bound(g)) >= 0, g

    @pytest.mark.parametrize(
        "g,d",
        [(complete_graph(6), 5), (cycle_graph(9), 2), (from_graph6("IheA@GUAo"), 3),
         (empty_graph(3), 0)],
        ids=["K6", "C9", "Petersen", "edgeless"],
    )
    def test_equals_the_degree_on_regular_graphs(self, g, d):
        assert spectral._walk_bound(g) == d
        assert spectral_radius(g, below=d).lam == pytest.approx(d, abs=1e-9)
        assert spectral_radius(g, below=math.nextafter(d, math.inf)).iterations == 0

    def test_below_the_bound_returns_it_without_a_matrix(self, monkeypatch):
        # P4: every vertex has 2 or 3 two-walks, so B is sqrt(3) rounded up
        g = path_graph(4)
        bound = math.nextafter(math.sqrt(3), math.inf)
        monkeypatch.setattr(spectral, "_adjacency_matrix", None)
        res = spectral_radius(g, below=1.75)
        assert res == spectral.SpectralResult(bound, (), math.inf, 0)
        assert spectral_radius(g, below=math.inf).lam == bound

    def test_at_or_above_the_bound_is_the_plain_solve(self):
        classes, seeded, _ = _reference_corpus()
        for g in classes[:1252] + seeded:
            plain = _bits(spectral_radius(g))
            for below in (0.0, spectral._walk_bound(g)):
                assert _bits(spectral_radius(g, below=below)) == plain

    def test_nan_below_is_refused(self):
        with pytest.raises(ValueError, match="below"):
            spectral_radius(complete_graph(3), below=float("nan"))


def _bits(res):
    """Every field of a SpectralResult, bit for bit (0.0 and -0.0 differ)."""
    floats = (res.lam, res.residual, *res.vector)
    return [type(v) for v in floats], [v.hex() for v in floats], res.iterations


def _reference_corpus():
    """Every class with n <= 7 (the F2-free classes 5..7 among them) and
    the F2-free classes on 8 vertices; then seeded G(n,p) graphs with
    n = 9..24, disconnected ones and ones with isolated vertices among
    them; then long vectors: seeded G(n,p) with n = 40..200, where the
    residual entry a sweep tests first moves and the normaliser runs on
    long lists, and one with isolated vertices."""
    classes = list(generate(7, n_min=1)) + list(generate(8, prune=parse_forbidden("F2")))
    rng = random.Random(19)
    seeded = []
    for n in range(9, 25):
        for p in (0.08, 0.3, 0.6):
            seeded.append(random_graph(rng, n, p))
        seeded.append(disjoint_union(random_graph(rng, n - 3, 0.5), empty_graph(3)))
    long = [random_graph(rng, n, p) for n in (40, 90, 200) for p in (0.05, 0.3)]
    long.append(disjoint_union(random_graph(rng, 120, 0.05), empty_graph(4)))
    return classes, seeded, long


class TestBufferedSweepsMatchReference:
    """The power iteration, which tests one residual entry in Python
    floats before it forms the whole residual, against the
    plain-expression form kept in oracles: the same lambda, Perron
    vector, residual and sweep count, bit for bit, so no digit of any
    report moves."""

    def test_every_field_is_bit_identical(self):
        classes, seeded, long = _reference_corpus()
        shapes = Counter(
            "isolated" if 0 in g.degrees() else "disconnected" if not g.is_connected() else "connected"
            for g in seeded
        )
        assert min(shapes.values()) >= 5, shapes
        runs = [(g, DEFAULT_TOL) for g in classes + seeded]
        runs += [(g, tol) for g in classes[::9] + seeded for tol in (1e-6, MIN_TOL)]
        # MIN_TOL is below the rounding floor of |y - lam x| once lam nears
        # 60 (G(200, 0.3)), so the long vectors run at the two larger ones
        runs += [(g, tol) for g in long for tol in (DEFAULT_TOL, 1e-6)]
        for g, tol in runs:
            assert _bits(spectral_radius(g, tol)) == _bits(spectral_radius_reference(g, tol)), (
                to_graph6(g), tol)

    @pytest.mark.parametrize("cap", [1, 2, 30])
    def test_non_convergence_is_bit_identical(self, monkeypatch, cap):
        # the 197-sweep F2-free class on 8 vertices, and P9 plus K1
        monkeypatch.setattr(spectral, "ITERATION_CAP", cap)
        for g in (from_graph6("G?`cr_"), disjoint_union(path_graph(9), empty_graph(1))):
            errors = []
            for solve in (spectral_radius, spectral_radius_reference):
                with pytest.raises(NonConvergenceError) as exc:
                    solve(g, DEFAULT_TOL)
                errors.append(exc.value)
            ours, ref = errors
            assert (ours.best.hex(), ours.iterations, str(ours)) == (
                ref.best.hex(), ref.iterations, str(ref))
            assert ours.iterations == cap


class TestCharPoly:
    def test_known_polys(self):
        assert char_poly_exact(path_graph(3)) == (0, -2, 0, 1)
        assert char_poly_exact(complete_graph(3)) == (-2, -3, 0, 1)

    def test_monic_trace_edges_structure(self):
        rng = random.Random(4)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            p = char_poly_exact(g)
            assert p[-1] == 1
            assert p[g.n - 1] == 0 if g.n >= 1 else True
            if g.n >= 2:
                assert p[g.n - 2] == -g.m

    def test_versus_leibniz_oracle(self):
        rng = random.Random(6)
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 8))
            assert char_poly_exact(g) == charpoly_leibniz(g)

    def test_versus_bigint_faddeev_oracle(self):
        # the 4x6 rook's graph has entries near 2.9e9, so int32 overflows it
        rook = Graph(24, [(u, v) for u, v in combinations(range(24), 2)
                          if (u // 6 == v // 6) != (u % 6 == v % 6)])
        graphs = [rook, Graph(24, rook.non_edges()), complete_graph(24)]
        for r in range(2, 25):
            t = turan_graph(24, r)
            graphs += [t, Graph(24, t.non_edges())]
        rng = random.Random(15)
        graphs += [random_graph(rng, 24, p / 10) for p in range(1, 10)]
        graphs += [g for n in range(1, 7) for g in generate(n)]
        for g in graphs:
            assert char_poly_exact(g) == charpoly_faddeev_bigint(g)

    def test_cap(self):
        with pytest.raises(SizeCapError):
            char_poly_exact(empty_graph(25))

    @pytest.mark.parametrize("n", range(20, 25))
    def test_turan_graphs_at_the_cap(self, n):
        for r in (2, 3, 5):
            assert char_poly_exact(turan_graph(n, r)) == multipartite_char_poly(turan_parts(n, r))


class TestMultipartitePoly:
    def test_examples(self):
        assert multipartite_char_poly([1, 2]) == (0, -2, 0, 1)
        assert multipartite_char_poly([1, 1, 1]) == (-2, -3, 0, 1)
        assert (
            multipartite_char_poly([2, 2, 1])
            == char_poly_exact(complete_multipartite([2, 2, 1]))
        )

    def test_matches_construction_for_all_compositions(self):
        for total in range(1, 9):
            for parts in _compositions(total):
                assert (
                    multipartite_char_poly(parts)
                    == char_poly_exact(complete_multipartite(parts))
                )

    def test_matches_products_beyond_the_exact_cap(self):
        # secular --parts takes any sizes, far past char_poly_exact's reach
        rng = random.Random(20)
        for _ in range(60):
            r = rng.randint(1, 20)
            parts = [rng.randint(1, rng.choice([3, 15, 30])) for _ in range(r)]
            assert multipartite_char_poly(parts) == multipartite_char_poly_products(parts), parts
        for parts in ([15] * 20, list(range(1, 60))):
            assert multipartite_char_poly(parts) == multipartite_char_poly_products(parts)

    def test_rejects(self):
        with pytest.raises(ValueError):
            multipartite_char_poly([])
        with pytest.raises(ValueError):
            multipartite_char_poly([2, 0])

    def test_coefficient_bound(self):
        # |c| <= (r + 1) prod_i (1 + n_i), the bound DIGIT_CAP is checked with
        rng = random.Random(30)
        for _ in range(300):
            parts = [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
            bound = (len(parts) + 1) * math.prod(1 + p for p in parts)
            assert max(map(abs, multipartite_char_poly(parts))) <= bound, parts

    def test_nonzero_coefficient_digits_are_capped(self, monkeypatch):
        # checked before anything is expanded
        monkeypatch.setattr(spectral, "_quotient_poly", None)
        for parts in ([1] * 65000, [1] * 2700, list(range(1, 2000))):
            with pytest.raises(SizeCapError):
                multipartite_char_poly(parts)
        monkeypatch.undo()
        # 2 000 parts of size 1: 2 001 coefficients of at most 606 digits
        assert len(multipartite_char_poly([1] * 2000)) == 2001

    def test_zero_coefficients_are_capped(self):
        # n - r zeros; the check comes before they are built
        assert len(multipartite_char_poly([LIST_CAP + 1, 1])) == LIST_CAP + 3
        with pytest.raises(SizeCapError):
            multipartite_char_poly([LIST_CAP + 2, 1])
        with pytest.raises(SizeCapError):
            multipartite_char_poly([10**20, 1])


def _compositions(total):
    if total == 0:
        yield []
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield [first] + rest


class TestSecular:
    def test_complete_graph_parts(self):
        for r in range(2, 13):
            assert secular_lambda([1] * r) == pytest.approx(r - 1, abs=1e-10)

    def test_bipartite_closed_form(self):
        for a in range(1, 13):
            for b in range(1, 13):
                assert secular_lambda([a, b]) == pytest.approx(
                    math.sqrt(a * b), abs=1e-10
                )

    def test_221_is_one_plus_sqrt5(self):
        lam = secular_lambda([2, 2, 1])
        assert lam == pytest.approx(1 + math.sqrt(5), abs=1e-10)
        assert lam == pytest.approx(eig_max(complete_multipartite([2, 2, 1])), abs=1e-9)
        # the cleared-denominator quadratic x^2 - 2x - 4
        assert lam * lam - 2 * lam - 4 == pytest.approx(0.0, abs=1e-8)

    def test_single_part_is_zero(self):
        assert secular_lambda([7]) == 0.0

    def test_matches_power_iteration_on_random_parts(self):
        rng = random.Random(8)
        for _ in range(60):
            parts = [rng.randint(1, 6) for _ in range(rng.randint(2, 5))]
            lam = secular_lambda(parts)
            assert lam == pytest.approx(
                spectral_radius(complete_multipartite(parts)).lam, abs=1e-9
            )

    def test_turan_parts_match_power_iteration(self):
        for n in range(2, 11):
            for r in range(2, min(n, 5) + 1):
                lam = secular_lambda(turan_parts(n, r))
                assert lam == pytest.approx(
                    spectral_radius(turan_graph(n, r)).lam, abs=1e-9
                )

    def test_bisection_reaches_double_precision(self):
        # K_{a,b} has radius sqrt(ab); both sides are correctly rounded
        for a in range(1, 13):
            for b in range(1, 13):
                assert secular_lambda([a, b]) == math.sqrt(a * b), (a, b)

    def test_correctly_rounded_against_fraction_bisection(self):
        rng = random.Random(29)
        corpus = [[1, 10, 17, 20], turan_parts(78, 51)]
        for _ in range(200):
            top = rng.choice([3, 12, 40, 10**6])
            corpus.append([rng.randint(1, top) for _ in range(rng.randint(1, 8))])
        for parts in corpus:
            assert secular_lambda(parts) == secular_root_reference(parts), parts
        # a faithful bisection rounds these two the other way
        assert secular_lambda([1, 10, 17, 20]) == 31.997741687650002
        assert secular_lambda(turan_parts(78, 51)) == 76.31043674065006

    def test_million_part_turan_graph(self):
        # sizes a (k parts) and b: x^2 + (a + b - n) x + a b (1 - r) = 0
        n, r = 1_500_000, 1_000_000
        parts = turan_parts(n, r)
        (a, k), (b, _) = sorted(Counter(parts).items(), reverse=True)
        with localcontext() as ctx:
            ctx.prec = 60
            p, q = Decimal(a + b - n), Decimal(a * b * (1 - r))
            root = (-p + (p * p - 4 * q).sqrt()) / 2
        assert secular_lambda(parts) == float(root) == 1499998.3333334816

    def test_many_sizes_with_a_huge_start_bound(self):
        # P's Cauchy bound is above the largest double, and its one positive
        # root is isolated while hi still is that bound
        parts = [4 * 10**14 + i for i in range(22)]
        lam = secular_lambda(parts)
        root = LargestRoot(spectral._quotient_poly(spectral._part_counts(parts)))
        assert root.hi > sys.float_info.max
        below, above = ((Fraction(lam) + Fraction(math.nextafter(lam, t))) / 2 for t in (0, math.inf))
        assert (root.sign_at(below), root.sign_at(above)) == (-1, 1)

    def test_n_is_capped_below_2_to_the_53(self):
        assert secular_lambda([2**52, 2**52 - 1]) == math.sqrt(2**52 * (2**52 - 1))
        with pytest.raises(SizeCapError):
            secular_lambda([2**52, 2**52])

    def test_starts_on_the_proved_interval(self, monkeypatch):
        # (-1/2, n] isolates the root of a square-free P: no gcd, no count;
        # and P is built by multiplication alone, with no division
        def refuse(*args):
            raise AssertionError("secular_lambda ran a remainder sequence, a count or a division")

        monkeypatch.setattr(_realroots, "remainder_sequence", refuse)
        monkeypatch.setattr(_realroots, "_roots_above", refuse)
        monkeypatch.setattr(_realroots, "_pseudo_divmod", refuse)
        assert secular_lambda(range(1, 121)) == 7179.7780090149145
        assert secular_lambda(range(1, 200)) == 19767.111254289222


class TestCompareExact:
    def test_bipartite_values(self):
        assert compare_exact(
            complete_multipartite([3, 3]), complete_multipartite([2, 4])
        ) == GREATER

    def test_isomorphic_graphs_equal(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert compare_exact(g, g.relabel([3, 1, 4, 0, 2])) == EQUAL

    def test_c5_vs_p5(self):
        # dense eigensolve oracle: lambda(C5)=2 vs lambda(P5)=sqrt(3)
        assert eig_max(cycle_graph(5)) > eig_max(path_graph(5))
        assert compare_exact(cycle_graph(5), path_graph(5)) == GREATER
        assert compare_exact(path_graph(5), cycle_graph(5)) == LESS

    def test_equal_radius_nonisomorphic(self):
        # C4 and the 5-vertex star both have radius 2
        star = Graph(5, [(0, i) for i in range(1, 5)])
        assert compare_exact(cycle_graph(4), star) == EQUAL

    def test_equal_irrational_radius(self):
        # isolated vertices leave the radius (an irrational here) unchanged
        p4 = path_graph(4)
        padded = disjoint_union(p4, empty_graph(2))
        assert compare_exact(padded, p4) == EQUAL
        k23 = complete_multipartite([2, 3])
        assert compare_exact(disjoint_union(k23, empty_graph(1)), k23) == EQUAL

    def test_multiplicity_at_the_top(self):
        a = disjoint_union(complete_graph(3), complete_graph(3))
        b = disjoint_union(complete_graph(3), empty_graph(3))
        assert compare_exact(a, b) == EQUAL

    def test_versus_eigensolver_on_random_pairs(self):
        rng = random.Random(12)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 7))
            h = random_graph(rng, rng.randint(1, 7))
            verdict = compare_exact(g, h)
            gap = eig_max(g) - eig_max(h)
            if verdict == EQUAL:
                assert abs(gap) < 1e-8
            else:
                assert verdict == (GREATER if gap > 0 else LESS)

    def test_equality_is_certified_by_two_sign_changes(self, monkeypatch):
        sequences, signs = [], Counter()
        remainder_sequence, scaled_value = _realroots.remainder_sequence, _realroots._scaled_value

        def spy_remainder_sequence(a, b):
            sequences.append(remainder_sequence(a, b))
            return sequences[-1]

        def spy_scaled_value(p, num, den):
            signs[id(p)] += 1
            return scaled_value(p, num, den)

        monkeypatch.setattr(_realroots, "remainder_sequence", spy_remainder_sequence)
        monkeypatch.setattr(_realroots, "_scaled_value", spy_scaled_value)
        t = turan_graph(20, 3)
        k3, k4 = complete_graph(3), complete_graph(4)
        for g, h, verdict in (
            # T(20,3) and T(20,3) + e share many eigenvalues below their radii
            (t, t.with_edge(0, 1), LESS),
            (t.with_edge(0, 1), t, GREATER),
            # lambda(K3) = 2 is a root of the gcd, but below lambda(K3 u K4) = 3
            (k3, disjoint_union(k3, k4), LESS),
            (disjoint_union(k3, k4), k3, GREATER),
            # equal radii, different square-free parts: the gcd decides
            (disjoint_union(k4, k3), k4, EQUAL),
        ):
            sequences.clear()
            signs.clear()
            assert compare_exact(g, h) == verdict
            # one sequence per polynomial and one for the gcd g, which is
            # only signed at the interval ends: no count, no chain
            assert len(sequences) == 3
            assert signs[id(sequences[-1][-1])] <= 4
        # the gcd changes sign across K3's interval only: a certificate
        # that looked at one interval would call these two equal
        monkeypatch.undo()
        ip, iq = (LargestRoot(char_poly_exact(g)) for g in (k3, disjoint_union(k3, k4)))
        g = _realroots.remainder_sequence(ip.poly, iq.poly)[-1]
        assert [_realroots._scaled_value(g, i.a, i.d) * _realroots._scaled_value(g, i.b, i.d) < 0
                for i in (ip, iq)] == [True, False]

    def test_cap(self):
        with pytest.raises(SizeCapError):
            compare_exact(empty_graph(25), empty_graph(3))

    def test_graph_without_vertices_is_refused(self):
        for g, h in ((Graph(0), Graph(1)), (Graph(1), Graph(0))):
            with pytest.raises(ValueError):
                compare_exact(g, h)
        with pytest.raises(ValueError):
            certified_radius_interval(Graph(0))

    def test_versus_eigensolver_at_the_cap(self):
        rng = random.Random(24)
        for _ in range(6):
            g, h = random_graph(rng, 24), random_graph(rng, 24)
            gap = eig_max(g) - eig_max(h)
            if abs(gap) > 1e-6:
                assert compare_exact(g, h) == (GREATER if gap > 0 else LESS)
            perm = list(range(24))
            rng.shuffle(perm)
            assert compare_exact(g, g.relabel(perm)) == EQUAL

    def test_certified_interval(self):
        lo, hi = certified_radius_interval(cycle_graph(5))
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert lo < 2 <= hi and float(hi - lo) <= 1e-12

    @pytest.mark.parametrize(
        "g,lo,hi",
        [
            (cycle_graph(5), Fraction(3298534883327, 1649267441664),
             Fraction(6597069766657, 3298534883328)),
            (turan_graph(20, 3), Fraction(44959576161515443, 3377699720527872),
             Fraction(22479788080758605, 1688849860263936)),
            (random_graph(random.Random(18), 18),
             Fraction(1874945526042427753, 216172782113783808),
             Fraction(7499782104170341273, 864691128455135232)),
        ],
        ids=["C5", "T(20,3)", "G(18,1/2)"],
    )
    def test_certified_interval_endpoints_are_pinned(self, g, lo, hi):
        # any change to the bisection's sample points moves these
        assert certified_radius_interval(g) == (lo, hi)


def _bisection_corpus():
    """Every class with n <= 6, then seeded G(n,p) graphs up to n = 24."""
    graphs = [g for n in range(1, 7) for g in generate(n)]
    rng = random.Random(2024)
    for n, p in ((8, 0.5), (11, 0.3), (14, 0.7), (17, 0.5), (20, 0.4), (24, 0.5)):
        graphs.append(random_graph(rng, n, p))
    return graphs


BISECTION_CORPUS = _bisection_corpus()


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def _real_rooted(draw):
    """A monic integer polynomial with only real roots: a product of
    factors x - a and x^2 - b with b > 0 not a square, sometimes with
    the factor of its largest root once more."""
    factors = [[-a, 1] for a in draw(st.lists(st.integers(-6, 6), max_size=5))]
    factors += [[-b, 0, 1] for b in draw(st.lists(st.sampled_from([2, 3, 5, 6, 7, 8, 10, 12]),
                                                  max_size=2))]
    factors = factors or [[0, 1]]
    if draw(st.booleans()):
        factors.append(max(factors, key=lambda f: -f[0] if len(f) == 2 else math.sqrt(-f[0])))
    p = [1]
    for f in factors:
        p = _times(p, f)
    return p


class TestLargestRoot:
    """The integer bisection against the Fraction reference in oracles:
    the same sample points, so the same intervals at every step."""

    def test_isolating_intervals_match_reference(self, monkeypatch):
        samples = []
        sample_between = oracles._fraction_sample_between

        def spy_sample_between(lo, hi):
            samples.append(sample_between(lo, hi))
            return samples[-1]

        monkeypatch.setattr(oracles, "_fraction_sample_between", spy_sample_between)
        for g in BISECTION_CORPUS:
            cp = char_poly_exact(g)
            samples.clear()
            ours, ref = LargestRoot(cp), FractionLargestRoot(cp)
            assert (ours.lo, ours.hi) == (ref.lo, ref.hi), to_graph6(g)
            # the square-free part, up to a positive factor
            a, b = ours.poly, ref.poly
            assert [x * b[-1] for x in a] == [y * a[-1] for y in b], to_graph6(g)
            assert a[-1] * b[-1] > 0, to_graph6(g)
            ref.refine_to(INTERVAL_WIDTH)
            # at every point the reference bisection samples, the Descartes
            # count is its Sturm count of the roots above that point
            for x in samples:
                sturm = oracles._fraction_variations(ref.chain, x) - ref.vtop
                assert _realroots._roots_above(a, x.numerator, x.denominator) == sturm, (to_graph6(g), x)
            # and at the start, where LargestRoot takes deg(poly) uncounted
            start = -_realroots.root_bound(a) - Fraction(1, 3)
            assert len(a) - 1 == oracles._fraction_variations(ref.chain, start) - ref.vtop

    def test_refine_to_endpoints_match_reference(self):
        widths = (Fraction(1, 3), Fraction(1, 1000), INTERVAL_WIDTH, Fraction(1, 10**30))
        for g in BISECTION_CORPUS:
            cp = char_poly_exact(g)
            ours, ref = LargestRoot(cp), FractionLargestRoot(cp)
            for width in widths:
                assert ours.refine_to(width) == ref.refine_to(width), (to_graph6(g), width)

    def test_compare_verdicts_match_reference(self):
        pairs = []
        for n in range(1, 7):
            # neighbours in float-radius order are the near ties
            classes = sorted(generate(n), key=eig_max)
            pairs += zip(classes, classes[1:])
            pairs += [(g, g.with_edge(*next(g.non_edges()))) for g in classes if g.m < n * (n - 1) // 2]
            pairs += [(g, turan_graph(n, 2)) for g in classes if n >= 2]
        for g in BISECTION_CORPUS[-6:]:
            pairs += [(g.with_edge(*next(g.non_edges())), g), (g, turan_graph(g.n, 3))]
        verdicts = Counter()
        for g, h in pairs:
            p, q = char_poly_exact(g), char_poly_exact(h)
            verdict = _realroots.compare_largest_roots(p, q)
            assert verdict == fraction_compare_largest_roots(p, q), (to_graph6(g), to_graph6(h))
            verdicts[verdict] += 1
        assert set(verdicts) == {LESS, EQUAL, GREATER}

    def test_sign_at_places_rationals_against_the_root(self):
        # C5: lambda = 2 exactly; K_{2,3}: sqrt(6), irrational
        two = LargestRoot(char_poly_exact(cycle_graph(5)))
        lo, hi = two.refine_to(INTERVAL_WIDTH)
        assert [two.sign_at(x) for x in (lo - 1, lo, Fraction(2), hi, hi + 1)] == [-1, -1, 0, 1, 1]
        six = LargestRoot(char_poly_exact(complete_multipartite([2, 3])))
        six.refine_to(INTERVAL_WIDTH)
        below, above = Fraction(2449489742783178, 10**15), Fraction(2449489742783179, 10**15)
        assert (six.sign_at(below), six.sign_at(above)) == (-1, 1)
        assert six.lo < below < above < six.hi

    def test_roots_counted_only_until_isolation(self, monkeypatch):
        counts, values, steps, roots, sequences = Counter(), Counter(), Counter(), [], []
        roots_above, scaled_value = _realroots._roots_above, _realroots._scaled_value
        remainder_sequence = _realroots.remainder_sequence
        step, init = LargestRoot.step, LargestRoot.__init__

        def spy_roots_above(p, s, d):
            counts[id(p)] += 1
            return roots_above(p, s, d)

        def spy_scaled_value(p, num, den):
            values[id(p)] += 1
            return scaled_value(p, num, den)

        def spy_remainder_sequence(a, b):
            sequences.append(a)
            return remainder_sequence(a, b)

        def spy_step(self):
            steps[id(self)] += 1
            assert steps[id(self)] < 1000, "bisection does not isolate the root"
            step(self)

        def spy_init(self, coeffs):
            init(self, coeffs)
            roots.append((self, steps[id(self)], FractionLargestRoot(coeffs).isolation_steps))

        monkeypatch.setattr(_realroots, "_roots_above", spy_roots_above)
        monkeypatch.setattr(_realroots, "_scaled_value", spy_scaled_value)
        monkeypatch.setattr(_realroots, "remainder_sequence", spy_remainder_sequence)
        monkeypatch.setattr(LargestRoot, "step", spy_step)
        monkeypatch.setattr(LargestRoot, "__init__", spy_init)
        t = turan_graph(20, 3)
        for run, polys, gcds in (
            (lambda: certified_radius_interval(t), 1, 0),
            (lambda: compare_exact(t, t.with_edge(0, 1)), 2, 1),
        ):
            for spy in (counts, values, steps, roots, sequences):
                spy.clear()
            run()
            assert len(roots) == polys
            # one remainder sequence per polynomial, one for a comparison's gcd
            assert len(sequences) == polys + gcds
            for root, isolating, reference_isolating in roots:
                later = steps[id(root)] - isolating
                assert isolating == reference_isolating > 0 and later > 0
                # no count at the start, where all deg(poly) roots lie above
                # lo, then one count per isolation step
                assert counts[id(root.poly)] == isolating
                # and one sign test per later step
                assert values[id(root.poly)] == later
        # equal characteristic polynomials are equal before any exact work
        roots.clear()
        assert compare_exact(t, t.relabel(range(19, -1, -1))) == EQUAL
        assert roots == []

    def test_gap_of_two_thirds_samples_a_sixth_above_the_midpoint(self):
        # (lo, hi] = (-1/3, 1/3]: the midpoint 0 is an integer and the gap
        # is not above 2/3, so the step samples 0 + (2/3)/6 = 1/9
        assert oracles._fraction_sample_between(Fraction(-1, 3), Fraction(1, 3)) == Fraction(1, 9)
        root = LargestRoot([0, 1])
        root.a, root.b, root.d = -1, 1, 3
        root.step()
        assert (root.a, root.b, root.d) == (-3, 1, 9)

    @given(_real_rooted(), _real_rooted())
    def test_real_rooted_products_match_reference(self, p, q):
        for width in (Fraction(1, 3), INTERVAL_WIDTH):
            assert LargestRoot(p).refine_to(width) == FractionLargestRoot(p).refine_to(width)
        # p * q has the larger of the two radii: EQUAL or LESS against p
        for r in (q, _times(p, q)):
            assert _realroots.compare_largest_roots(p, r) == fraction_compare_largest_roots(p, r)

    @pytest.mark.parametrize("coeffs", [[5], [1, 0, 1], [-2, 0, 0, 1], [2, 0, 3, 0, 1]],
                             ids=["5", "x^2+1", "x^3-2", "(x^2+1)(x^2+2)"])
    def test_refuses_constants_and_non_real_roots(self, coeffs):
        with pytest.raises(ValueError):
            LargestRoot(coeffs)


class TestTuranPerronClosed:
    def test_divisible_case(self):
        assert turan_perron_closed(6, 3) == (1.0, 1.0, 4.0)

    def test_k23_case(self):
        y1, y2, lam = turan_perron_closed(5, 2)
        assert lam == pytest.approx(math.sqrt(6), abs=1e-10)
        assert y2 == 1.0
        assert y1 == pytest.approx((math.sqrt(6) + 2) / (math.sqrt(6) + 3), abs=1e-10)
        # dense-eigensolve oracle: K_{2,3} Perron entries, floor side = 1
        vec = perron_vector(complete_multipartite([3, 2]))
        assert y1 == pytest.approx(vec[0] / vec[-1], abs=1e-8)

    def test_eigen_system_satisfied(self):
        for n in range(2, 13):
            for r in range(2, min(n, 6) + 1):
                y1, y2, lam = turan_perron_closed(n, r)
                q, k = divmod(n, r)
                if k == 0:
                    assert y1 == y2 == 1.0
                    continue
                ceil = q + 1
                assert lam * y1 == pytest.approx(
                    (r - k) * q * y2 + (k - 1) * ceil * y1, abs=1e-8
                )
                assert lam * y2 == pytest.approx(
                    (r - k - 1) * q * y2 + k * ceil * y1, abs=1e-8
                )

    def test_floor_bound(self):
        for n in range(2, 14):
            for r in range(2, min(n, 6) + 1):
                y1, _, _ = turan_perron_closed(n, r)
                assert y1 >= 1 - 1 / n

    def test_rejects(self):
        # the domain is turan_parts's: 1 <= r <= n; T(n, 1) is edgeless
        for n, r in ((3, 0), (3, 4), (0, 1)):
            with pytest.raises(ValueError):
                turan_perron_closed(n, r)
        for n in (1, 2, 7):
            assert turan_perron_closed(n, 1) == (1.0, 1.0, 0.0)


class TestMonotonicityProperties:
    def test_proper_subgraph_strictly_smaller(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 8))
            edges = list(g.edges())
            drop = rng.sample(edges, rng.randint(1, len(edges)))
            h = g
            for u, v in drop:
                h = h.without_edge(u, v)
            assert compare_exact(h, g) == LESS

    def test_balancing_move_increases_radius(self):
        rng = random.Random(22)
        for _ in range(60):
            parts = [rng.randint(1, 7) for _ in range(rng.randint(2, 5))]
            if max(parts) - min(parts) < 2:
                parts[parts.index(max(parts))] += 2
            i = parts.index(max(parts))
            j = parts.index(min(parts))
            moved = parts.copy()
            moved[i] -= 1
            moved[j] += 1
            assert secular_lambda(moved) > secular_lambda(parts) - 1e-12
            if secular_lambda(moved) - secular_lambda(parts) < 1e-9:
                assert compare_exact(
                    complete_multipartite(moved), complete_multipartite(parts)
                ) == GREATER
