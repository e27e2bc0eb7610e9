"""Tests of the benchmark itself: tiny sizes of each workload through the
same gates, and wrong answers that must fail the run.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"] for m in DECLARED[kind]}


def test_declared_workloads_exist():
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads.WORKLOADS)
    assert set(workloads.SMOKE) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_untraced(name):
    meta, result = run.measure(workloads.SMOKE[name], seed=7, seconds=0, trace=0)
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert meta["kernel_backend"] and meta["seed"] == 7 and meta["error_rate"] == 0.0


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_traced(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    meta, result = run.measure(workloads.SMOKE[name], seed=7, seconds=0, trace=1, spans_path=spans)
    assert result["correct"] and result["failed"] == 0, meta["failures"]
    assert set(result["metrics"]) == _declared("per_layer")
    lines = spans.read_text().splitlines()
    assert len(lines) == meta["spans"] > 0
    name0, start, end, parent, run_id = json.loads(lines[0])
    assert end >= start and parent >= -1


def test_traced_counts_match_the_enumeration(tmp_path):
    wl = workloads.SMOKE["verify-bowtie"]  # F2, n = 5..6, one process
    _, result = run.measure(wl, seed=1, seconds=0, trace=1, spans_path=tmp_path / "s.jsonl")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["enumeration.classes"] == wl.items(None) == 28 + 98
    assert m["spectral.radius.calls"] == m["enumeration.classes"]
    assert m["kernel.canonical_labeling.calls"] > 0
    assert m["kernel.contains_anchored.calls"] >= m["kernel.canonical_labeling.calls"]


def test_tracing_is_removed_after_the_traced_run():
    import turantools
    from turantools import _kernels, cli, extremal

    before = (cli.main, extremal.build_report, _kernels.augment_children, turantools.generate)
    uninstall = tracing.install(tracing.Tracer())
    assert cli.main is not before[0]
    uninstall()
    assert (cli.main, extremal.build_report, _kernels.augment_children, turantools.generate) == before


def _wrapped_in_this_process():
    from turantools import _core_py, _kernels, cli

    funcs = [cli.main, _kernels.augment_children]
    if tracing.kernels_traceable():
        funcs.append(_core_py.canonical_labeling)
    return [hasattr(f, "__wrapped__") for f in funcs]


def test_pool_workers_run_the_untraced_program():
    from turantools import enumeration

    uninstall = tracing.install(tracing.Tracer())
    try:
        with enumeration.ProcessPoolExecutor(max_workers=1) as pool:
            in_worker = pool.submit(_wrapped_in_this_process).result(timeout=60)
        in_parent = _wrapped_in_this_process()
    finally:
        uninstall()
    assert all(in_parent)
    assert not any(in_worker)


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("gen-all-8", {"expected_count": 155}),
        ("gen-all-8", {"expected_digest": "0" * 64}),
        ("verify-bowtie", {"expected": {**workloads.BOWTIE, 5: (8, 3, 1, 28)}}),
    ],
)
def test_wrong_expected_answer_fails_the_run(name, wrong):
    wl = dataclasses.replace(workloads.SMOKE[name], **wrong)
    meta, result = run.measure(wl, seed=7, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert meta["error_rate"] > 0


def test_wrong_certify_verdict_fails_the_gate():
    wl = workloads.SMOKE["certify-diagnose"]
    corpus = wl.build(3)
    records = wl.execute(corpus).output
    res, interval, same, bigger, *rest = records[0]
    tampered = [(res, interval, same, -bigger, *rest)] + records[1:]
    verdict = wl.check(corpus, tampered)
    assert verdict.attempted == len(corpus)
    assert len(verdict.failures) == 1 and "not GREATER" in verdict.failures[0]


def test_corpus_depends_only_on_the_seed():
    wl = workloads.SMOKE["certify-diagnose"]
    a, b, c = wl.build(5), wl.build(5), wl.build(6)
    assert [x.graph for x in a] == [x.graph for x in b]
    assert [x.graph for x in a] != [x.graph for x in c]


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-bowtie", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
