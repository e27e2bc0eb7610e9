import hashlib

import pytest

from turantools import cli, enumeration
from turantools.enumeration import generate
from turantools.errors import SizeCapError
from turantools.graphs import canonical_form, complete_graph, from_graph6, to_graph6
from turantools.patterns import contains_subgraph, is_free, parse_forbidden

from oracles import all_labeled_graphs, labeled_class_count, labeled_class_count_bruteforce


K3 = parse_forbidden("K3")


class TestGenerate:
    @pytest.mark.parametrize(
        "n,expect", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]
    )
    def test_unpruned_counts(self, n, expect):
        assert sum(1 for _ in generate(n)) == expect

    @pytest.mark.parametrize("n,expect", [(3, 3), (4, 7), (5, 14), (6, 38), (7, 107)])
    def test_triangle_free_counts(self, n, expect):
        assert sum(1 for _ in generate(n, K3)) == expect

    def test_matches_labeled_dedupe_oracle(self):
        for n in range(1, 7):
            assert sum(1 for _ in generate(n)) == labeled_class_count(n)

    def test_matches_permutation_bruteforce_oracle(self):
        for n in range(1, 6):
            assert sum(1 for _ in generate(n)) == labeled_class_count_bruteforce(n)

    def test_pruned_equals_filtered(self):
        for n in range(1, 7):
            full = {canonical_form(g) for g in generate(n) if is_free(g, K3)}
            pruned = {canonical_form(g) for g in generate(n, prune=K3)}
            assert pruned == full

    def test_no_duplicate_classes_and_all_free(self):
        seen = set()
        for g in generate(6, prune=K3):
            form = canonical_form(g)
            assert form not in seen
            seen.add(form)
            assert not contains_subgraph(g, complete_graph(3))

    def test_deterministic_order(self):
        first = [to_graph6(g) for g in generate(6)]
        second = [to_graph6(g) for g in generate(6)]
        assert first == second
        assert first == sorted(
            first, key=lambda s: canonical_form(__import__("turantools").from_graph6(s)).bytes
        )

    def test_jobs_do_not_change_output(self):
        serial = [to_graph6(g) for g in generate(6, prune=K3, jobs=1)]
        parallel = [to_graph6(g) for g in generate(6, prune=K3, jobs=2)]
        assert serial == parallel

    def test_worker_count_is_capped_at_cpu_count(self, pool_starts):
        assert sum(1 for _ in generate(5, jobs=10**6)) == 34
        assert pool_starts == [3]

    @pytest.mark.parametrize("affinity, started", [({0, 1}, [2]), ({0}, [])])
    def test_worker_count_is_capped_at_usable_cpus(self, pool_starts, monkeypatch,
                                                   affinity, started):
        # three CPUs on the machine, fewer that this process may run on
        monkeypatch.setattr(enumeration.os, "sched_getaffinity", lambda pid: affinity,
                            raising=False)
        assert sum(1 for _ in generate(5, jobs=10**6)) == 34
        assert pool_starts == started

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_range_is_the_concatenation_of_sizes(self, jobs):
        ranged = [to_graph6(g) for g in generate(7, K3, jobs, n_min=3)]
        single = [to_graph6(g) for n in range(3, 8) for g in generate(n, K3, jobs)]
        assert ranged == single

    def test_bad_range(self):
        with pytest.raises(SizeCapError):
            list(generate(7, n_min=0))
        with pytest.raises(ValueError):
            list(generate(7, n_min=8))

    def test_every_labeled_graph_has_a_representative(self):
        reps = {canonical_form(g) for g in generate(5)}
        for g in all_labeled_graphs(5):
            assert canonical_form(g) in reps

    @pytest.mark.parametrize("n", [0, 11, 65])
    def test_size_cap(self, n):
        with pytest.raises(SizeCapError):
            list(generate(n))

    def test_pattern_larger_than_n_prunes_nothing(self, backend, monkeypatch):
        # no twin takes a 65-row pattern, and none is needed: K65 never fits
        monkeypatch.setattr(enumeration, "_kernels", backend)
        assert sum(1 for _ in generate(5, parse_forbidden("K65"))) == 34

    def test_range_is_checked_before_iteration(self):
        with pytest.raises(SizeCapError):
            generate(11)
        with pytest.raises(ValueError):
            generate(7, n_min=8)

    @pytest.mark.parametrize(
        "backend,argv,digest",
        [
            (twin, argv, digest)
            for argv, digest in [
                (["--n", "8"], "ff71314578f47f187c3491482dc828e0972e248efe0c91750b939ce7243168c2"),
                (["--n", "8", "--forbid", "F2"],
                 "1379823ce3042dc7fce5495ab25a75770232d5f9954d053b52f5f819b31ad0ff"),
                # the kite: four orbit starts in its containment plan
                (["--n", "8", "--forbid", "g6:DTw"],
                 "7e520e91289a0a087f205ec1cbc25f0e392f188feb44b4434f7b8af9476fc25a"),
            ]
            for twin in ("python", "c")
        ] + [
            # compiled only, to keep the suite short
            ("c", ["--n", "10", "--forbid", "K3"],
             "935d57af1fc6a36d8404179782916daddf7519d4ebaa6ae9ff2e656fdf5fa23b"),
        ],
        ids=["python-all-8", "c-all-8", "python-F2-8", "c-F2-8", "python-kite-8", "c-kite-8",
             "c-K3-10"],
        indirect=["backend"],
    )
    def test_walk_output_is_pinned(self, backend, monkeypatch, capsys, argv, digest):
        # digests of gen stdout under the earlier delete-and-relabel acceptance rule
        monkeypatch.setattr(enumeration, "_kernels", backend)
        assert cli.main(["gen", "--jobs", "1", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == digest

    def test_round_trip_with_generate(self, tmp_path):
        # gen --out writes one graph6 line per class, in generate's order
        path = tmp_path / "graphs.g6"
        assert cli.main(["gen", "--n", "5", "--out", str(path)]) == 0
        back = [from_graph6(line) for line in path.read_text(encoding="ascii").splitlines()]
        assert len(back) == 34
        assert [canonical_form(g) for g in back] == [canonical_form(g) for g in generate(5)]
