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
from dataclasses import asdict, dataclass
from itertools import groupby
from operator import attrgetter
from typing import Iterable

from .enumeration import generate
from .errors import NonConvergenceError
from .graphs import Graph, canonical_form, to_graph6, turan_parts
from .patterns import ForbiddenSpec, is_free
from .spectral import DEFAULT_TOL, GREATER, LESS, compare_exact, spectral_radius

# Float gap below which two radii may be equal.  The scan runs power
# iteration to ||Ax - lam x||_inf <= DEFAULT_TOL with ||x||_inf = 1, so
# lam lies within sqrt(n) * DEFAULT_TOL of an eigenvalue of A; for every
# n <= GENERATION_CAP twice that is below this window.
TIE_WINDOW = 1e-9


def turan_edges(n: int, r: int) -> int:
    """Edge count of the Turan graph: C(n,2) minus the within-part pairs.

    Needs 1 <= r <= n; the reports compare against T(n, min(n, r)),
    since an r-partite graph on n <= r vertices can be complete.
    """
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
        return asdict(self)


def _scan(graphs: Iterable[Graph]) -> tuple:
    """One pass over the n-vertex classes tracking both extremal sets.

    Returns ``(ex, edge_members, lambda_star, spectral_members, exact)``.
    Only radii within the tie window of the running maximum are kept;
    when more than one is left, exact polynomial comparison reduces them
    to the argmax set and ``exact`` is True.

    A class whose 2-walk bound (``spectral_radius``'s ``below``) is
    under ``lam - 2 * TIE_WINDOW`` is not power-iterated: its radius is
    the bound, which neither raises ``lam`` nor joins the finalists.
    Nor would its power-iterated radius have: that is a Rayleigh
    quotient, at most about n * eps * lambda above lambda, and
    lambda <= bound < lam - 2 * TIE_WINDOW.  So the running maximum,
    the finalists, the exact comparisons and every returned field are
    those of a scan that power-iterates every class.
    """
    ex, edge_best = -1, []
    lam, finalists = -math.inf, []
    for g in graphs:
        m = g.m
        if m > ex:
            ex, edge_best = m, [g]
        elif m == ex:
            edge_best.append(g)
        try:
            r = spectral_radius(g, DEFAULT_TOL, below=lam - 2 * TIE_WINDOW).lam
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"power iteration stalled on {to_graph6(g)}: {exc}",
                best=exc.best,
                iterations=exc.iterations,
            ) from exc
        if r > lam:
            lam = r
            finalists = [c for c in finalists if c[0] >= lam - TIE_WINDOW]
        if r >= lam - TIE_WINDOW:
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


def _canonical_sorted(graphs: list[Graph]) -> list[str]:
    """Sorted canonical graph6 strings, one canonical form per member.

    Equal strings mean isomorphic graphs.  For one n they sort as the
    packed canonical forms do: both hold the same bit string.
    """
    return sorted(canonical_form(g).graph6() for g in graphs)


def _reference_note(spec: ForbiddenSpec) -> str | None:
    if spec.source.startswith("K"):
        return "turan-theorem"
    return "no external reference"


def _report(n: int, spec: ForbiddenSpec, graphs: Iterable[Graph]) -> ExtremalReport:
    """Scan the n-vertex F-free classes once and assemble the full report."""
    ex, edge_best, lam, winners, exact = _scan(graphs)
    turan = turan_edges(n, min(n, spec.r))
    for g in edge_best + winners:
        if not is_free(g, spec):
            raise RuntimeError(
                f"extremal member {to_graph6(g)} failed the F-freeness re-check"
            )
    edge_g6 = tuple(_canonical_sorted(edge_best))
    sp_g6 = tuple(_canonical_sorted(winners))
    return ExtremalReport(
        n=n,
        spec=spec.source,
        ex=ex,
        edge_extremal=edge_g6,
        lambda_star=lam,
        spectral_extremal=sp_g6,
        contained=set(sp_g6) <= set(edge_g6),
        excess=ex - turan,
        turan_edges=turan,
        lambda_exact=exact,
        reference=_reference_note(spec),
    )


def build_report(n: int, spec: ForbiddenSpec, jobs: int = 1) -> ExtremalReport:
    """Run both extremal searches once and assemble the full report."""
    return _report(n, spec, generate(n, prune=spec, jobs=jobs))


def verify_containment(
    n_min: int, n_max: int, spec: ForbiddenSpec, jobs: int = 1
) -> list[ExtremalReport]:
    """Per-n reports over [n_min, n_max], all from one walk of the tree.

    Containment verdicts are recorded, never asserted: at desk scale
    the spectral argmax can legitimately sit outside the edge argmax.
    """
    levels = groupby(generate(n_max, spec, jobs, n_min=n_min), key=attrgetter("n"))
    return [_report(n, spec, graphs) for n, graphs in levels]
