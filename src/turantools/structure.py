"""Structural diagnostics for candidate spectral-extremal graphs.

Given a graph and a class count r, this module finds a partition
maximizing the cross edges (certified when exhaustive search is
feasible, multi-start local search otherwise) and evaluates the
structural facts that hold asymptotically for extremal graphs: few
internal edges, near-complete joins, eigenvector floors, balance.
Failed checks are findings with their numeric slack, never errors;
at desk scale the asymptotic regime is only approached.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .graphs import Graph
from .patterns import ForbiddenSpec, _partition_below
from .spectral import spectral_radius

AUTO_EXHAUSTIVE_BUDGET = 4**12  # assignments r**n searched exhaustively
LOCAL_SEARCH_STARTS = 32
LOCAL_SEARCH_SEED = 0


@dataclass(frozen=True)
class PartitionReport:
    """An r-partition with its edge accounting.

    ``internal_vertices[i]`` holds the part-i vertices with at least
    one neighbor inside part i; ``independent_vertices`` the rest.
    ``missing_cross_edges`` counts the non-edges between distinct
    parts, i.e. the edits separating G from the complete multipartite
    graph on these parts.
    """

    parts: tuple[tuple[int, ...], ...]
    part_sizes: tuple[int, ...]
    cross_edges: int
    internal_edges: tuple[int, ...]
    internal_total: int
    missing_cross_edges: int
    internal_vertices: tuple[tuple[int, ...], ...]
    independent_vertices: tuple[tuple[int, ...], ...]
    balanced: bool
    certified: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _part_masks(assign: Sequence[int], r: int) -> list[int]:
    masks = [0] * r
    for v, c in enumerate(assign):
        masks[c] |= 1 << v
    return masks


def _internal_count(g: Graph, masks: Iterable[int]) -> int:
    total = 0
    for mask in masks:
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            total += (g.adj[v] & m).bit_count()
    return total


def _report_from_assignment(g: Graph, assign: Sequence[int], r: int, certified: bool) -> PartitionReport:
    masks = _part_masks(assign, r)
    parts = tuple(
        tuple(v for v in range(g.n) if (masks[i] >> v) & 1) for i in range(r)
    )
    sizes = tuple(len(p) for p in parts)
    internal = []
    busy = []
    indep = []
    for i in range(r):
        e_in = 0
        busy_i = []
        indep_i = []
        for v in parts[i]:
            deg_in = (g.adj[v] & masks[i]).bit_count()
            e_in += deg_in
            (busy_i if deg_in else indep_i).append(v)
        internal.append(e_in // 2)
        busy.append(tuple(busy_i))
        indep.append(tuple(indep_i))
    internal_total = sum(internal)
    cross = g.m - internal_total
    pair_capacity = sum(
        sizes[i] * sizes[j] for i in range(r) for j in range(i + 1, r)
    )
    return PartitionReport(
        parts=parts,
        part_sizes=sizes,
        cross_edges=cross,
        internal_edges=tuple(internal),
        internal_total=internal_total,
        missing_cross_edges=pair_capacity - cross,
        internal_vertices=tuple(busy),
        independent_vertices=tuple(indep),
        balanced=(max(sizes) - min(sizes) <= 1) if sizes else True,
        certified=certified,
    )


def _climb(g: Graph, r: int, assign: list[int], masks: list[int]) -> None:
    """Hill climbing in place: move each vertex to the part where it has
    the fewest neighbors until no move improves."""
    improved = True
    while improved:
        improved = False
        for v in range(g.n):
            here = assign[v]
            d_here = (g.adj[v] & masks[here]).bit_count()
            target, d_target = here, d_here
            for c in range(r):
                if c == here:
                    continue
                d = (g.adj[v] & masks[c]).bit_count()
                if d < d_target:
                    target, d_target = c, d
            if target != here:
                masks[here] &= ~(1 << v)
                masks[target] |= 1 << v
                assign[v] = target
                improved = True


def _climbed_greedy_cost(g: Graph, r: int) -> int:
    """Internal edges of a greedy assignment (each vertex joins the part
    holding the fewest of its earlier neighbors) after `_climb`."""
    assign, masks = [], [0] * r
    for v in range(g.n):
        c = min(range(r), key=lambda c: (g.adj[v] & masks[c]).bit_count())
        assign.append(c)
        masks[c] |= 1 << v
    _climb(g, r, assign, masks)
    return _internal_count(g, masks)


def _exhaustive_min_internal(g: Graph, r: int) -> list[int]:
    """Certified assignment minimizing internal edges (= max cross).

    `_partition_below` searches below min(start cost, U + 1), where the
    fixed start assignment puts vertex v in class min(v, r - 1) and U is
    a climbed greedy cost; the start stands when nothing is found.  See
    `max_cut_partition`.
    """
    start = [min(v, r - 1) for v in range(g.n)]
    bound = min(_internal_count(g, _part_masks(start, r)), _climbed_greedy_cost(g, r) + 1)
    found = _partition_below(g, r, bound)
    return start if found is None else found


def _local_search(g: Graph, r: int) -> list[int]:
    """Multi-start `_climb` from seeded random assignments."""
    rng = random.Random(LOCAL_SEARCH_SEED)
    n = g.n
    best_assign: list[int] = []
    best_cost = None
    for _ in range(LOCAL_SEARCH_STARTS):
        assign = [rng.randrange(r) for _ in range(n)]
        masks = _part_masks(assign, r)
        _climb(g, r, assign, masks)
        cost = _internal_count(g, masks)
        if best_cost is None or cost < best_cost:
            best_cost, best_assign = cost, assign[:]
    return best_assign


def max_cut_partition(g: Graph, r: int) -> PartitionReport:
    """Partition into r classes maximizing the cross-edge count.

    When r**n <= AUTO_EXHAUSTIVE_BUDGET an exhaustive branch and bound
    finds a certified optimum; otherwise a seeded multi-start local
    search gives a deterministic, uncertified partition.

    The branch and bound returns the first optimal leaf in its search
    order, or its fixed start assignment when that is already optimal.
    It is seeded with the bound U + 1, where U is the internal-edge
    count of a greedy assignment improved by hill climbing, whenever
    that is below the start's cost.  Since U is at least the optimum,
    every partial assignment on the way to the first optimal leaf costs
    less than the bound and is still searched, and when the start is
    optimal the bound stays at its cost; so the seed only prunes, and
    the result is the one the unseeded search returns.
    """
    if r < 2:
        raise ValueError(f"need at least 2 classes, got r={r}")
    if r**g.n <= AUTO_EXHAUSTIVE_BUDGET:
        return _report_from_assignment(g, _exhaustive_min_internal(g, r), r, certified=True)
    return _report_from_assignment(g, _local_search(g, r), r, certified=False)


# ---------------------------------------------------------------------------
# degree-threshold vertex classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeClassReport:
    """Vertices crossing the two degree thresholds.

    ``heavy_internal``: at least 2*theta*n neighbors inside their own
    part.  ``low_degree``: total degree at most (1 - 1/r - 3r *
    epsilon^(1/3)) n.  Whether the first set sits inside the second is
    reported, not asserted; the guarantee is asymptotic.
    """

    theta: float
    epsilon: float
    heavy_internal: tuple[int, ...]
    low_degree: tuple[int, ...]
    heavy_within_low: bool

    def to_dict(self) -> dict:
        return asdict(self)


def degree_class_report(
    g: Graph, partition: PartitionReport, theta: float, epsilon: float
) -> DegreeClassReport:
    if not 0 < theta < 1:
        raise ValueError(f"theta must be in (0,1), got {theta}")
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    n = g.n
    r = len(partition.parts)
    heavy = []
    for i, part in enumerate(partition.parts):
        mask = 0
        for v in part:
            mask |= 1 << v
        for v in part:
            if (g.adj[v] & mask).bit_count() >= 2 * theta * n:
                heavy.append(v)
    low_threshold = (1.0 - 1.0 / r - 3.0 * r * epsilon ** (1.0 / 3.0)) * n
    low = [v for v in range(n) if g.degree(v) <= low_threshold]
    heavy.sort()
    return DegreeClassReport(
        theta=theta,
        epsilon=epsilon,
        heavy_internal=tuple(heavy),
        low_degree=tuple(low),
        heavy_within_low=set(heavy) <= set(low),
    )


# ---------------------------------------------------------------------------
# structural check list
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    statement: str
    holds: bool
    lhs: float
    rhs: float
    slack: float

    def to_dict(self) -> dict:
        return asdict(self)


def structural_checks(
    g: Graph,
    spec: ForbiddenSpec,
    excess: int,
    partition: PartitionReport,
) -> list[CheckResult]:
    """The seven structural facts evaluated on a max-cross partition.

    ``excess`` is the caller-supplied number of edges the extremal
    graphs add on top of the Turan graph (typically a report's
    ``excess``).  Failures are findings: the facts are guaranteed only
    asymptotically.  A negative ``excess`` is a ValueError: T(n, r) is
    F-free, so ex(n, F) is at least its edge count.
    """
    if excess < 0:
        raise ValueError(f"edge excess over the Turan graph cannot be negative, got {excess}")
    r = spec.r
    n = g.n
    a = excess
    res = spectral_radius(g)
    checks = []

    def ge(check_id, statement, lhs, rhs):
        checks.append(
            CheckResult(check_id, statement, lhs >= rhs, float(lhs), float(rhs), float(lhs - rhs))
        )

    def le(check_id, statement, lhs, rhs):
        checks.append(
            CheckResult(check_id, statement, lhs <= rhs, float(lhs), float(rhs), float(rhs - lhs))
        )

    ge(
        "spectral_lower_bound",
        "spectral radius >= (1 - 1/r) n - r/(4n) + 2a/n",
        res.lam,
        (1.0 - 1.0 / r) * n - r / (4.0 * n) + 2.0 * a / n,
    )
    le(
        "internal_edges_per_part",
        "each part spans at most a internal edges",
        max(partition.internal_edges, default=0),
        a,
    )
    le(
        "internal_vertices_per_part",
        "each part has at most 2a vertices with internal neighbors",
        max((len(b) for b in partition.internal_vertices), default=0),
        2 * a,
    )
    full_join_violations = 0
    for i, part in enumerate(partition.parts):
        own = 0
        for v in part:
            own |= 1 << v
        others = ((1 << n) - 1) & ~own
        for v in partition.independent_vertices[i]:
            if g.adj[v] & others != others:
                full_join_violations += 1
    le(
        "independent_vertices_fully_joined",
        "vertices with no internal neighbor are adjacent to every other part",
        full_join_violations,
        0,
    )
    ge(
        "perron_entry_floor",
        "minimum Perron entry >= 1 - 20 a^2 r^2 / n",
        min(res.vector),
        1.0 - 20.0 * a * a * r * r / n,
    )
    le(
        "internal_minus_missing",
        "internal edges exceed missing cross edges by at most a",
        partition.internal_total - partition.missing_cross_edges,
        a,
    )
    le(
        "part_balance",
        "part sizes differ by at most 1",
        max(partition.part_sizes) - min(partition.part_sizes),
        1,
    )
    return checks


def inclusion_exclusion_bound(sets: Sequence[set]) -> tuple[int, int]:
    """(|intersection|, sum |A_i| - (p-1) |union|); the left side always
    dominates the right."""
    if not sets:
        raise ValueError("need at least one set")
    inter = set(sets[0])
    union = set()
    total = 0
    for s in sets:
        inter &= s
        union |= s
        total += len(s)
    return len(inter), total - (len(sets) - 1) * len(union)
