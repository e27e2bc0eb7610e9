"""The perfbench workloads: their inputs, the timed call, and the answer gates.

Each workload has three steps.  ``build(seed)`` makes the inputs (this
is set-up).  ``execute(inputs, tracer)`` is the timed call into the
program.  ``check(inputs, output)`` runs the known-answer gates outside
the timed interval and returns a ``Verdict``.  ``REP_S`` is the nominal
time of one execution of each workload on a 2-core x86 machine;
``--seconds // REP_S`` fixes how many executions a run makes, so the
count does not change with noise.  Only the sizes are dataclass fields:
the benchmark's own tests shrink them and plant wrong answers.

Only ``certify-diagnose`` draws random input from the seed.  The two
enumeration workloads take no random input: their answers are fixed
by the problem size, and the seed is only recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar

import turantools as tt
from turantools import cli, spectral

TOL = 1e-9  # float radius vs certified interval / closed form
REP_S = 13.0  # nominal seconds of one execution, the same for every workload
N_MIN = 5  # verify-bowtie: smallest n checked
BOWTIE_EXCESS = 1  # ex(n, F2) - t_2(n) on n = 5..8 (acceptance criterion 3)
JOBS = 2  # gen-all-8: pool workers, one per core of the reference machine
THETA, EPSILON = 0.05, 0.001  # certify-diagnose: degree_class_report thresholds

# Known answers.  The digest is sha256 over the sorted canonical forms
# (each form has the same length for a given n), recorded when the
# benchmark was written; it ignores which representative is emitted
# and in what order.
GEN_DIGESTS = {
    6: "ce6bba85f23028100c48d2cd46cd5d82d4138dee56a07999d7992d375cd34785",
    8: "332634859a75bb0c48e7162f91ae198586a72f0596004bc673cd6fd03672d224",
}
GEN_COUNTS = {6: 156, 8: 12346}  # OEIS A000088
# bowtie (F2): n -> (ex, |Ex|, |Ex_sp|, number of F2-free classes)
BOWTIE = {5: (7, 3, 1, 28), 6: (10, 1, 1, 98), 7: (13, 2, 1, 400), 8: (17, 1, 1, 2290)}


@dataclass
class Verdict:
    """Known-answer gate outcome: operations attempted and failure notes."""

    attempted: int
    failures: list[str]


@dataclass
class Outcome:
    """What one timed execution returned."""

    output: object
    item_seconds: list[float]


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass(frozen=True)
class VerifyBowtie:
    """`verify --forbid F2` over a range of n, single process."""

    n_max: int = 8
    expected: dict = field(default_factory=lambda: dict(BOWTIE))
    name: ClassVar[str] = "verify-bowtie"
    workers: ClassVar[int] = 0
    random_input: ClassVar[bool] = False

    def build(self, seed: int) -> list[str]:
        return ["verify", "--forbid", "F2", "--n-min", str(N_MIN),
                "--n-max", str(self.n_max), "--jobs", "1", "--json"]

    def items(self, argv) -> int:
        return sum(v[3] for n, v in self.expected.items() if N_MIN <= n <= self.n_max)

    def sizes(self, argv) -> dict:
        return {"argv": argv, "classes_per_rep": self.items(argv)}

    def execute(self, argv, tracer=None) -> Outcome:
        return Outcome(_run_cli(argv), [])

    def check(self, argv, output) -> Verdict:
        code, text, err = output
        ns = range(N_MIN, self.n_max + 1)
        if code != 0:
            return Verdict(len(ns), [f"exit {code}: {err.strip()}"] * len(ns))
        by_n = {rep["n"]: rep for rep in json.loads(text)}
        failures = []
        for n in ns:
            errors = self._check_report(n, by_n.get(n), self.expected[n])
            if errors:
                failures.append(f"n={n}: " + "; ".join(errors))
        return Verdict(len(ns), failures)

    def _check_report(self, n, rep, expected) -> list[str]:
        if rep is None:
            return ["no report"]
        ex, n_edge, n_spectral, _ = expected
        errors = []
        if rep["ex"] != ex:
            errors.append(f"ex {rep['ex']} != {ex}")
        if rep["excess"] != BOWTIE_EXCESS:
            errors.append(f"excess {rep['excess']} != {BOWTIE_EXCESS}")
        if len(rep["edge_extremal"]) != n_edge:
            errors.append(f"|Ex| {len(rep['edge_extremal'])} != {n_edge}")
        if len(rep["spectral_extremal"]) != n_spectral:
            errors.append(f"|Ex_sp| {len(rep['spectral_extremal'])} != {n_spectral}")
        edge = [tt.from_graph6(s) for s in rep["edge_extremal"]]
        winners = [tt.from_graph6(s) for s in rep["spectral_extremal"]]
        bowtie = tt.parse_forbidden("F2")
        if any(g.n != n or g.m != rep["ex"] or not tt.is_free(g, bowtie) for g in edge):
            errors.append("an edge-extremal member has the wrong size or contains F2")
        inside = {tt.canonical_form(g) for g in winners} <= {tt.canonical_form(g) for g in edge}
        if rep["contained"] != inside:
            errors.append(f"contained {rep['contained']} but set inclusion says {inside}")
        lam = rep["lambda_star"]
        for g in winners:
            lo, hi = spectral.certified_radius_interval(g)
            if not lo - TOL <= lam <= hi + TOL:
                errors.append(f"lambda* {lam} outside certified [{float(lo)}, {float(hi)}]")
        return errors


@dataclass(frozen=True)
class GenAll:
    """Unpruned `gen --n N --jobs 2`: every class, graph6 to stdout."""

    n: int = 8
    expected_count: int = GEN_COUNTS[8]
    expected_digest: str = GEN_DIGESTS[8]
    name: ClassVar[str] = "gen-all-8"
    workers: ClassVar[int] = JOBS
    random_input: ClassVar[bool] = False

    def build(self, seed: int) -> list[str]:
        return ["gen", "--n", str(self.n), "--jobs", str(JOBS)]

    def items(self, argv) -> int:
        return self.expected_count

    def sizes(self, argv) -> dict:
        return {"argv": argv, "classes_per_rep": self.expected_count}

    def execute(self, argv, tracer=None) -> Outcome:
        return Outcome(_run_cli(argv), [])

    def check(self, argv, output) -> Verdict:
        code, text, err = output
        if code != 0:
            return Verdict(1, [f"exit {code}: {err.strip()}"])
        errors = []
        lines = text.splitlines()
        if len(lines) != self.expected_count:
            errors.append(f"{len(lines)} classes, expected {self.expected_count}")
        graphs = [tt.from_graph6(line) for line in lines]
        if any(g.n != self.n for g in graphs):
            errors.append(f"a graph without {self.n} vertices")
        forms = sorted(tt.canonical_form(g).bytes for g in graphs)
        if len(set(forms)) != len(forms):
            errors.append("two emitted graphs are isomorphic")
        top = self.n * (self.n - 1) // 2
        hist = Counter(g.m for g in graphs)
        if any(hist[m] != hist[top - m] for m in hist):
            errors.append("edge-count histogram is not symmetric under complement")
        digest = hashlib.sha256(b"".join(forms)).hexdigest()
        if digest != self.expected_digest:
            errors.append(f"canonical-form digest {digest[:16]} differs from the known one")
        return Verdict(1, ["; ".join(errors)] if errors else [])


@dataclass(frozen=True)
class CorpusGraph:
    n: int
    r: int
    kind: str  # "turan", "turan+e" or "gnp"
    graph: tt.Graph
    relabelled: tt.Graph
    plus_edge: tt.Graph
    spec: tt.ForbiddenSpec
    excess: int


def _corpus_plan(n_values, r_values) -> list[tuple[int, int, str]]:
    """Per n: T(n,r) and T(n,r) plus a part edge for every r, and two
    G(n,1/2) samples diagnosed against cycling r.  G(n,1/2) costs about
    four times a Turan graph in the exact path, so two per n keep one
    pass near 13 seconds."""
    plan = []
    for n in n_values:
        plan += [(n, r, kind) for r in r_values for kind in ("turan", "turan+e")]
        plan += [(n, r_values[(2 * n + j) % len(r_values)], "gnp") for j in range(2)]
    return plan


def _connected_gnp(rng: random.Random, n: int) -> tt.Graph:
    while True:
        pairs = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
        g = tt.Graph(n, pairs)
        if g.is_connected():
            return g


def _relabel(rng: random.Random, g: tt.Graph) -> tt.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _turan_plus_part_edge(rng: random.Random, n: int, r: int) -> tt.Graph:
    parts = tt.turan_parts(n, r)
    i = rng.randrange(r)
    start = sum(parts[:i])
    u, v = rng.sample(range(start, start + parts[i]), 2)
    return tt.turan_graph(n, r).with_edge(u, v)


@dataclass(frozen=True)
class CertifyDiagnose:
    """Exact certification and structural diagnosis of a seeded corpus.

    Every graph reaches the program under a random labelling.
    """

    n_values: tuple = tuple(range(12, 21))
    r_values: tuple = (2, 3, 4)
    limit: int | None = None  # keep only the first graphs of the plan
    name: ClassVar[str] = "certify-diagnose"
    workers: ClassVar[int] = 0
    random_input: ClassVar[bool] = True

    def build(self, seed: int) -> list[CorpusGraph]:
        rng = random.Random(seed)
        plan = _corpus_plan(self.n_values, self.r_values)[: self.limit]
        rng.shuffle(plan)
        specs = {r: tt.parse_forbidden(f"K{r + 1}") for r in self.r_values}
        corpus = []
        for n, r, kind in plan:
            if kind == "turan":
                g = tt.turan_graph(n, r)
            elif kind == "turan+e":
                g = _turan_plus_part_edge(rng, n, r)
            else:
                g = _connected_gnp(rng, n)
            g = _relabel(rng, g)
            plus = g.with_edge(*rng.choice(list(g.non_edges())))
            corpus.append(CorpusGraph(n, r, kind, g, _relabel(rng, g), plus, specs[r],
                                      max(0, g.m - tt.turan_edges(n, r))))
        return corpus

    def items(self, corpus) -> int:
        return len(corpus)

    def sizes(self, corpus) -> dict:
        return {"graphs": len(corpus),
                "kinds": dict(Counter(c.kind for c in corpus)),
                "n_range": [min(self.n_values), max(self.n_values)],
                "r_values": list(self.r_values),
                "edges_total": sum(c.graph.m for c in corpus)}

    def execute(self, corpus, tracer=None) -> Outcome:
        records, seconds = [], []
        for i, item in enumerate(corpus):
            start = time.perf_counter()
            try:
                if tracer is None:
                    records.append(self._diagnose(item))
                else:
                    tracer.run = i
                    records.append(tracer.call("item", self._diagnose, item))
            except Exception as exc:  # a failed operation, counted by the gate
                records.append(exc)
            seconds.append(time.perf_counter() - start)
        return Outcome(records, seconds)

    def _diagnose(self, item: CorpusGraph):
        g = item.graph
        res = tt.spectral_radius(g)
        interval = spectral.certified_radius_interval(g)
        same = tt.compare_exact(item.relabelled, g)
        bigger = tt.compare_exact(item.plus_edge, g)
        partition = tt.max_cut_partition(g, item.r)
        checks = tt.structural_checks(g, item.spec, item.excess, partition=partition)
        classes = tt.degree_class_report(g, partition, THETA, EPSILON)
        return res, interval, same, bigger, partition, checks, classes

    def check(self, corpus, records) -> Verdict:
        failures = []
        for item, rec in zip(corpus, records):
            errors = [repr(rec)] if isinstance(rec, Exception) else _corpus_errors(item, *rec)
            if errors:
                failures.append(f"{item.kind} n={item.n} r={item.r}: " + "; ".join(errors))
        return Verdict(len(corpus), failures)


def _corpus_errors(item, res, interval, same, bigger, partition, checks, classes) -> list[str]:
    errors = []
    lo, hi = interval
    if not lo - TOL <= res.lam <= hi + TOL:
        errors.append(f"radius {res.lam} outside certified [{float(lo)}, {float(hi)}]")
    if same != tt.EQUAL:
        errors.append(f"relabelled pair compared {same}, not EQUAL")
    if bigger != tt.GREATER:
        errors.append(f"graph plus an edge compared {bigger}, not GREATER")
    if sum(partition.part_sizes) != item.n or len(checks) != 7:
        errors.append("partition or check list malformed")
    if item.kind == "turan":
        errors.extend(_turan_errors(item, res, partition, checks))
    return errors


def _turan_errors(item, res, partition, checks) -> list[str]:
    """Acceptance criterion 10: T(n,r) against K_{r+1} at a = 0."""
    n, r = item.n, item.r
    errors = []
    closed = tt.secular_lambda(tt.turan_parts(n, r))
    if abs(res.lam - closed) > TOL:
        errors.append(f"radius {res.lam} != secular {closed}")
    if partition.internal_total or partition.missing_cross_edges or any(partition.internal_vertices):
        errors.append("max-cut of a Turan graph is not its part structure")
    by_id = {c.check_id: c for c in checks}
    for cid in ("internal_edges_per_part", "internal_vertices_per_part",
                "independent_vertices_fully_joined", "internal_minus_missing"):
        if cid not in by_id or not by_id[cid].holds or by_id[cid].slack != 0.0:
            errors.append(f"{cid} does not hold at zero slack")
    for cid in ("part_balance", "spectral_lower_bound"):
        if cid not in by_id or not by_id[cid].holds:
            errors.append(f"{cid} fails")
    floor = by_id.get("perron_entry_floor")
    if floor is None:
        errors.append("perron_entry_floor missing")
    elif n % r == 0:
        if not floor.holds or abs(floor.slack) > TOL:
            errors.append("balanced Perron floor not at zero slack")
    else:
        y1, _, _ = tt.turan_perron_closed(n, r)
        if floor.holds or abs(floor.lhs - y1) > TOL:
            errors.append("unbalanced Perron floor differs from closed-form y1")
    return errors


WORKLOADS = {w.name: w for w in (VerifyBowtie(), GenAll(), CertifyDiagnose())}

# Tiny sizes of the same workloads, used by the benchmark's own tests.
SMOKE = {
    "verify-bowtie": VerifyBowtie(n_max=6),
    "gen-all-8": GenAll(n=6, expected_count=GEN_COUNTS[6], expected_digest=GEN_DIGESTS[6]),
    "certify-diagnose": CertifyDiagnose(n_values=(12,), r_values=(2, 3), limit=5),
}
