"""Exhaustive edge-extremal and spectral-extremal computations.

For a forbidden graph F on n vertices this module finds the Turan
number ex(n,F) with every attaining class, the maximum spectral radius
with every attaining class (argmax certified exactly when floats come
within the tie window), and the containment verdict between the two
sets.  Everything is exhaustive over the isomorph-free enumeration, so
results are ground truth at desk scale rather than heuristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable

from .enumeration import generate
from .errors import NonConvergenceError
from .graphs import Graph, canonical_form, canonical_graph, to_graph6, turan_parts
from .patterns import ForbiddenSpec, is_free
from .spectral import (
    DEFAULT_TOL,
    GREATER,
    LESS,
    compare_exact,
    secular_lambda,
    spectral_radius,
)

TIE_WINDOW = 1e-9  # floor of the tie window, see _tie_window


def _tie_window(n: int, tol: float) -> float:
    """Float gap below which two radii of n-vertex graphs may be equal.

    Power iteration stops once ||Ax - lam x||_inf <= tol with
    ||x||_inf = 1, so lam lies within sqrt(n) * tol of an eigenvalue of
    A; two radii closer than twice that go to exact comparison.
    """
    return max(TIE_WINDOW, 2 * math.sqrt(n) * tol)


def turan_edges(n: int, r: int) -> int:
    """Edge count of the Turan graph: C(n,2) minus the within-part pairs."""
    parts = turan_parts(n, r)
    return n * (n - 1) // 2 - sum(p * (p - 1) // 2 for p in parts)


@dataclass(frozen=True)
class ExtremalReport:
    """Per-n summary of the edge- and spectral-extremal computations."""

    n: int
    spec: str
    ex: int
    edge_extremal: tuple[str, ...]  # canonical graph6
    lambda_star: float
    spectral_extremal: tuple[str, ...]  # canonical graph6
    contained: bool
    excess: int
    turan_edges: int
    lambda_exact: bool = False
    reference: str | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "spec": self.spec,
            "ex": self.ex,
            "edge_extremal": list(self.edge_extremal),
            "lambda_star": self.lambda_star,
            "spectral_extremal": list(self.spectral_extremal),
            "contained": self.contained,
            "excess": self.excess,
            "turan_edges": self.turan_edges,
            "lambda_exact": self.lambda_exact,
            "reference": self.reference,
        }


def _edge_argmax(graphs: Iterable[Graph]) -> tuple[int, list[Graph]]:
    """The largest edge count and every graph attaining it, in input order."""
    ex, members = -1, []
    for g in graphs:
        if g.m > ex:
            ex, members = g.m, [g]
        elif g.m == ex:
            members.append(g)
    return ex, members


def _scan(n: int, graphs: Iterable[Graph], tol: float) -> tuple:
    """One pass over the n-vertex classes tracking both extremal sets.

    Returns ``(ex, edge_members, lambda_star, spectral_members, exact)``.
    Only radii within the tie window of the running maximum are kept;
    when more than one is left, exact polynomial comparison reduces them
    to the argmax set and ``exact`` is True.
    """
    window = _tie_window(n, tol)
    ex, edge_best = -1, []
    lam, finalists = -math.inf, []
    for g in graphs:
        if g.m > ex:
            ex, edge_best = g.m, [g]
        elif g.m == ex:
            edge_best.append(g)
        try:
            r = spectral_radius(g, tol).lam
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"power iteration stalled on {to_graph6(g)}: {exc}",
                best=exc.best,
                iterations=exc.iterations,
            ) from exc
        if r > lam:
            lam = r
            finalists = [c for c in finalists if c[0] >= lam - window]
        if r >= lam - window:
            finalists.append((r, g))
    winners = finalists[:1]
    for cand in finalists[1:]:
        verdict = compare_exact(cand[1], winners[0][1])
        if verdict == GREATER:
            winners = [cand]
        elif verdict != LESS:
            winners.append(cand)
    lam = max(w[0] for w in winners)
    return ex, edge_best, lam, [w[1] for w in winners], len(finalists) > 1


def ex_number(
    n: int, spec: ForbiddenSpec, jobs: int = 1
) -> tuple[int, list[Graph]]:
    """Turan number ex(n, F) with all attaining classes (canonical labels)."""
    ex, members = _edge_argmax(generate(n, prune=spec, jobs=jobs))
    return ex, _canonical_sorted(members)


def spectral_ex(
    n: int, spec: ForbiddenSpec, tol: float = DEFAULT_TOL, jobs: int = 1
) -> tuple[float, list[Graph], bool]:
    """Maximum spectral radius over F-free classes with the argmax set.

    Returns ``(lambda_star, members, exact)``; members carry canonical
    labels and ``exact`` marks an argmax certified by exact arithmetic.
    """
    _, _, lam, winners, exact = _scan(n, generate(n, prune=spec, jobs=jobs), tol)
    return lam, _canonical_sorted(winners), exact


def _canonical_sorted(graphs: list[Graph]) -> list[Graph]:
    keyed = sorted((canonical_form(g).bytes, g) for g in graphs)
    return [canonical_graph(g) for _, g in keyed]


def _reference_note(spec: ForbiddenSpec) -> str | None:
    if spec.name and spec.name.startswith("K"):
        return "turan-theorem"
    return "no external reference"


def _report(n: int, spec: ForbiddenSpec, graphs: Iterable[Graph], tol: float) -> ExtremalReport:
    """Scan the n-vertex F-free classes once and assemble the full report."""
    ex, edge_best, lam, winners, exact = _scan(n, graphs, tol)
    edge_members = _canonical_sorted(edge_best)
    sp_members = _canonical_sorted(winners)
    for g in edge_members + sp_members:
        if not is_free(g, spec):
            raise RuntimeError(
                f"extremal member {to_graph6(g)} failed the F-freeness re-check"
            )
    # canonical labels: equal graph6 strings iff isomorphic
    edge_g6 = tuple(to_graph6(g) for g in edge_members)
    sp_g6 = tuple(to_graph6(g) for g in sp_members)
    return ExtremalReport(
        n=n,
        spec=spec.source,
        ex=ex,
        edge_extremal=edge_g6,
        lambda_star=lam,
        spectral_extremal=sp_g6,
        contained=set(sp_g6) <= set(edge_g6),
        excess=ex - turan_edges(n, spec.r),
        turan_edges=turan_edges(n, spec.r),
        lambda_exact=exact,
        reference=_reference_note(spec),
    )


def build_report(
    n: int, spec: ForbiddenSpec, tol: float = DEFAULT_TOL, jobs: int = 1
) -> ExtremalReport:
    """Run both extremal searches once and assemble the full report."""
    return _report(n, spec, generate(n, prune=spec, jobs=jobs), tol)


def verify_containment(
    n_min: int,
    n_max: int,
    spec: ForbiddenSpec,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
) -> list[ExtremalReport]:
    """Per-n reports over [n_min, n_max], all from one walk of the tree.

    Containment verdicts are recorded, never asserted: at desk scale
    the spectral argmax can legitimately sit outside the edge argmax.
    """
    levels = groupby(generate(n_max, spec, jobs, n_min=n_min), key=attrgetter("n"))
    return [_report(n, spec, graphs, tol) for n, graphs in levels]


def excess_estimate(
    spec: ForbiddenSpec, n_min: int, n_max: int, jobs: int = 1
) -> tuple[list[tuple[int, int]], str]:
    """The sequence a_n = ex(n,F) - e(T_{n,r}) plus a stabilization note."""
    levels = groupby(generate(n_max, spec, jobs, n_min=n_min), key=attrgetter("n"))
    seq = [(n, _edge_argmax(graphs)[0] - turan_edges(n, spec.r)) for n, graphs in levels]
    tail = [a for _, a in seq]
    k = 1
    while k < len(tail) and tail[-1 - k] == tail[-1]:
        k += 1
    if len(seq) >= 2 and k >= 2:
        note = f"stable at {tail[-1]} over the last {k} values"
    else:
        note = "not stabilized over the sampled range"
    return seq, note


def turan_radius(n: int, r: int, tol: float = 1e-12) -> float:
    """Spectral radius of the Turan graph via the secular equation."""
    return secular_lambda(turan_parts(n, r), tol)
