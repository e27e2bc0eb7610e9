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
from dataclasses import dataclass, field

from .enumeration import generate
from .errors import NonConvergenceError
from .graphs import Graph, canonical_form, canonical_graph, to_graph6, turan_parts
from .patterns import ForbiddenSpec, is_free
from .spectral import (
    DEFAULT_TOL,
    GREATER,
    LESS,
    SpectralResult,
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


@dataclass
class _Scan:
    """Single enumeration pass tracking both extremal sets."""

    window: float
    ex: int = -1
    edge_best: list[Graph] = field(default_factory=list)
    lam: float = -math.inf
    lam_candidates: list[tuple[float, Graph, SpectralResult]] = field(default_factory=list)


def _scan(n: int, spec: ForbiddenSpec, tol: float, jobs: int) -> _Scan:
    scan = _Scan(window=_tie_window(n, tol))
    for g in generate(n, prune=spec, jobs=jobs):
        if g.m > scan.ex:
            scan.ex = g.m
            scan.edge_best = [g]
        elif g.m == scan.ex:
            scan.edge_best.append(g)
        try:
            res = spectral_radius(g, tol)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"power iteration stalled on {to_graph6(g)}: {exc}",
                best=exc.best,
                iterations=exc.iterations,
            ) from exc
        if res.lam > scan.lam:
            scan.lam = res.lam
            scan.lam_candidates = [
                c for c in scan.lam_candidates if c[0] >= scan.lam - scan.window
            ]
        if res.lam >= scan.lam - scan.window:
            scan.lam_candidates.append((res.lam, g, res))
    return scan


def _certify_argmax(candidates: list[tuple[float, Graph, SpectralResult]], window: float):
    """Reduce tie-window finalists to the exact argmax set.

    Returns (winners, exact) where exact is True iff the set was decided
    by exact polynomial comparison rather than a clear float gap.
    """
    finalists = [c for c in candidates if c[0] >= max(x[0] for x in candidates) - window]
    if len(finalists) == 1:
        return finalists, False
    winners = [finalists[0]]
    for cand in finalists[1:]:
        verdict = compare_exact(cand[1], winners[0][1])
        if verdict == GREATER:
            winners = [cand]
        elif verdict != LESS:
            winners.append(cand)
    return winners, True


def ex_number(
    n: int, spec: ForbiddenSpec, jobs: int = 1
) -> tuple[int, list[Graph]]:
    """Turan number ex(n, F) with all attaining classes (canonical labels)."""
    best = -1
    members: list[Graph] = []
    for g in generate(n, prune=spec, jobs=jobs):
        if g.m > best:
            best, members = g.m, [g]
        elif g.m == best:
            members.append(g)
    return best, _canonical_sorted(members)


def spectral_ex(
    n: int, spec: ForbiddenSpec, tol: float = DEFAULT_TOL, jobs: int = 1
) -> tuple[float, list[Graph], bool]:
    """Maximum spectral radius over F-free classes with the argmax set.

    Returns ``(lambda_star, members, exact)``; members carry canonical
    labels and ``exact`` marks an argmax certified by exact arithmetic.
    """
    scan = _scan(n, spec, tol, jobs)
    winners, exact = _certify_argmax(scan.lam_candidates, scan.window)
    lam = max(w[0] for w in winners)
    return lam, _canonical_sorted([w[1] for w in winners]), exact


def _canonical_sorted(graphs: list[Graph]) -> list[Graph]:
    keyed = sorted((canonical_form(g).bytes, g) for g in graphs)
    return [canonical_graph(g) for _, g in keyed]


def _reference_note(spec: ForbiddenSpec) -> str | None:
    if spec.name and spec.name.startswith("K"):
        return "turan-theorem"
    return "no external reference"


def build_report(
    n: int, spec: ForbiddenSpec, tol: float = DEFAULT_TOL, jobs: int = 1
) -> ExtremalReport:
    """Run both extremal searches once and assemble the full report."""
    scan = _scan(n, spec, tol, jobs)
    winners, exact = _certify_argmax(scan.lam_candidates, scan.window)
    lam = max(w[0] for w in winners)
    edge_members = _canonical_sorted(scan.edge_best)
    sp_members = _canonical_sorted([w[1] for w in winners])
    for g in edge_members + sp_members:
        if not is_free(g, spec):
            raise RuntimeError(
                f"extremal member {to_graph6(g)} failed the F-freeness re-check"
            )
    edge_set = {canonical_form(g) for g in edge_members}
    sp_set = {canonical_form(g) for g in sp_members}
    return ExtremalReport(
        n=n,
        spec=spec.source,
        ex=scan.ex,
        edge_extremal=tuple(to_graph6(g) for g in edge_members),
        lambda_star=lam,
        spectral_extremal=tuple(to_graph6(g) for g in sp_members),
        contained=sp_set <= edge_set,
        excess=scan.ex - turan_edges(n, spec.r),
        turan_edges=turan_edges(n, spec.r),
        lambda_exact=exact,
        reference=_reference_note(spec),
    )


def verify_containment(
    n_min: int,
    n_max: int,
    spec: ForbiddenSpec,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
) -> list[ExtremalReport]:
    """Per-n reports over [n_min, n_max].

    Containment verdicts are recorded, never asserted: at desk scale
    the spectral argmax can legitimately sit outside the edge argmax.
    """
    if n_min > n_max:
        raise ValueError(f"empty range [{n_min}, {n_max}]")
    return [build_report(n, spec, tol, jobs) for n in range(n_min, n_max + 1)]


def excess_estimate(
    spec: ForbiddenSpec, n_min: int, n_max: int, jobs: int = 1
) -> tuple[list[tuple[int, int]], str]:
    """The sequence a_n = ex(n,F) - e(T_{n,r}) plus a stabilization note."""
    if n_min > n_max:
        raise ValueError(f"empty range [{n_min}, {n_max}]")
    seq = []
    for n in range(n_min, n_max + 1):
        ex, _ = ex_number(n, spec, jobs=jobs)
        seq.append((n, ex - turan_edges(n, spec.r)))
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
