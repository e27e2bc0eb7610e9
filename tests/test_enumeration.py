import pytest

from turantools.enumeration import count_classes, generate, ingest
from turantools.errors import ParseError, SizeCapError
from turantools.graphs import canonical_form, complete_graph, to_graph6, write_graph6_file
from turantools.patterns import contains_subgraph, is_free, parse_forbidden

from oracles import all_labeled_graphs, labeled_class_count, labeled_class_count_bruteforce


K3 = parse_forbidden("K3")


class TestGenerate:
    @pytest.mark.parametrize(
        "n,expect", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)]
    )
    def test_unpruned_counts(self, n, expect):
        assert count_classes(n) == expect

    @pytest.mark.parametrize("n,expect", [(3, 3), (4, 7), (5, 14), (6, 38), (7, 107)])
    def test_triangle_free_counts(self, n, expect):
        assert count_classes(n, K3) == expect

    def test_matches_labeled_dedupe_oracle(self):
        for n in range(1, 7):
            assert count_classes(n) == labeled_class_count(n)

    def test_matches_permutation_bruteforce_oracle(self):
        for n in range(1, 6):
            assert count_classes(n) == labeled_class_count_bruteforce(n)

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
        assert count_classes(5, jobs=10**6) == 34
        assert pool_starts == [3]

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


class TestIngest:
    def test_prune_filters(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("D~{\n")  # K5 contains K3
        assert list(ingest(path, prune=K3)) == []

    def test_empty_graph_survives(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("D??\n")
        graphs = list(ingest(path, prune=K3))
        assert len(graphs) == 1 and graphs[0].m == 0

    def test_dedupe(self, tmp_path):
        g = complete_graph(4)
        relabeled = g.relabel([2, 0, 3, 1])
        path = tmp_path / "graphs.g6"
        path.write_text(to_graph6(g) + "\n" + to_graph6(relabeled) + "\n\n")
        assert len(list(ingest(path, dedupe=True))) == 1
        assert len(list(ingest(path, dedupe=False))) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("D??\nmalformed!!!\n")
        with pytest.raises(ParseError) as err:
            list(ingest(path))
        assert "line 2" in str(err.value)

    def test_round_trip_with_generate(self, tmp_path):
        path = tmp_path / "graphs.g6"
        graphs = list(generate(5))
        assert write_graph6_file(path, graphs) == 34
        back = list(ingest(path))
        assert [canonical_form(g) for g in back] == [canonical_form(g) for g in graphs]
