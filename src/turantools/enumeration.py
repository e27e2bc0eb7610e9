"""Isomorph-free graph generation via canonical augmentation.

Graphs are grown from the empty graph one vertex at a time.  The
kernels' ``augment_children`` returns a parent's candidate children,
each with its verdict under McKay's rule: its new vertex lies in the
automorphism orbit of its canonically-last vertex, that is, deleting
that vertex gives back the parent's class.  ``_emit`` keeps a class iff
one of its candidates passes and emits it as its first candidate, so
each isomorphism class is produced exactly once with no cross-level
bookkeeping; it is the rule's one copy.  Only subsets that give the new
vertex the maximum degree are tried, since the canonically-last vertex
always has the maximum degree and the orbit test fails on every other
child, and only the least subset of each orbit under the parent's
automorphisms, since the rest give isomorphic children with the same
verdicts.  Pattern pruning cuts whole subtrees: containment is monotone
under adding vertices and edges, so a child containing the forbidden
graph can never lead to a free descendant.  Levels are sorted by
canonical form, so classes come out by size and then by canonical form,
and one walk serves every size up to the largest.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
from typing import Iterator

from . import _kernels
from .errors import SizeCapError
from .graphs import Graph
from .patterns import ForbiddenSpec

GENERATION_CAP = 10  # practical; the bitset kernels themselves allow 64


def _emit(candidates):
    """``[(child_adj, form), ...]``: the classes of which some candidate
    passed, each as its first candidate, in the order given."""
    kept = {form for _, form, passed in candidates if passed}
    first = {}
    for child, form, _ in candidates:
        first.setdefault(form, child)
    return [(child, form) for form, child in first.items() if form in kept]


def _expand_parent(args):
    return _emit(_kernels.augment_children(*args))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU.  CPU quotas (cgroups) are not read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _levels(n: int, prune: ForbiddenSpec | None, jobs: int) -> Iterator[list]:
    """Each level 1..n, sorted by canonical form, from one walk and one pool."""
    # a pattern larger than the last level never occurs, so it prunes nothing
    fn, fadj = (prune.graph.n, prune.graph.adj) if prune and prune.graph.n <= n else (0, ())
    level = [((), b"")]  # the empty graph, root of the augmentation tree
    workers = min(jobs, _usable_cpus())
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for size in range(n):
            tasks = [(size, adj, fn, fadj) for adj, _ in level]
            if pool is None:
                batches = map(_expand_parent, tasks)
            else:
                chunk = max(1, len(tasks) // (workers * 8))
                batches = pool.map(_expand_parent, tasks, chunksize=chunk)
            level = sorted(chain.from_iterable(batches), key=lambda item: item[1])
            yield level
    finally:
        if pool is not None:
            pool.shutdown()


def generate(
    n: int, prune: ForbiddenSpec | None = None, jobs: int = 1, *, n_min: int | None = None
) -> Iterator[Graph]:
    """All graphs on n_min..n vertices up to isomorphism, optionally
    pattern-free; ``n_min`` defaults to ``n``.

    Emits exactly one representative per class, ordered by size and
    then by sorted canonical form, independent of ``jobs``.  Every size
    comes from the same walk of the tree, so a range costs what its
    largest size costs.  The range is checked here, before the walk
    starts on the first ``next()``.
    """
    n_min = n if n_min is None else n_min
    if n_min > n:
        raise ValueError(f"empty range [{n_min}, {n}]")
    if n_min < 1 or n > GENERATION_CAP:
        raise SizeCapError(
            f"generation is supported for 1 <= n <= {GENERATION_CAP}, "
            f"got {n_min if n_min < 1 else n}"
        )
    levels = enumerate(_levels(n, prune, jobs), start=1)
    return (Graph.from_adj(adj) for size, level in levels if size >= n_min for adj, _ in level)
