"""Isomorph-free graph generation via canonical augmentation, plus
graph6 corpus ingestion.

Graphs are grown one vertex at a time; a child is kept only when its
canonically-last vertex deletes back to the parent's class, so each
isomorphism class is produced exactly once with no cross-level
bookkeeping.  Pattern pruning cuts whole subtrees: containment is
monotone under adding vertices and edges, so a child containing the
forbidden graph can never lead to a free descendant.  Levels are
sorted by canonical form, so classes come out by size and then by
canonical form, and one walk serves every size up to the largest.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
from typing import Iterator

from . import _kernels
from .errors import ParseError, SizeCapError
from .graphs import Graph, canonical_form, from_graph6
from .patterns import ForbiddenSpec, is_free

GENERATION_CAP = 10  # practical; the bitset kernels themselves allow 64


def _expand_parent(args):
    size, adj, canon, fn, fadj = args
    return _kernels.augment_children(size, adj, canon, fn, fadj)


def _levels(n: int, prune: ForbiddenSpec | None, jobs: int) -> Iterator[list]:
    """Each level 1..n, sorted by canonical form, from one walk and one pool."""
    fn, fadj = (prune.graph.n, prune.graph.adj) if prune else (0, ())
    level = [((0,), _kernels.canonical_bytes(1, (0,)))]
    if prune is not None and not is_free(Graph.from_adj((0,)), prune):
        return
    yield level
    workers = min(jobs, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for size in range(1, n):
            tasks = [(size, adj, canon, fn, fadj) for adj, canon in level]
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
    largest size costs.
    """
    n_min = n if n_min is None else n_min
    if n_min > n:
        raise ValueError(f"empty range [{n_min}, {n}]")
    if n_min < 1 or n > GENERATION_CAP:
        raise SizeCapError(
            f"generation is supported for 1 <= n <= {GENERATION_CAP}, "
            f"got {n_min if n_min < 1 else n}"
        )
    for size, level in enumerate(_levels(n, prune, jobs), start=1):
        if size >= n_min:
            for adj, _ in level:
                yield Graph.from_adj(adj)


def count_classes(n: int, prune: ForbiddenSpec | None = None, jobs: int = 1) -> int:
    return sum(1 for _ in generate(n, prune, jobs))


def ingest(
    path,
    prune: ForbiddenSpec | None = None,
    dedupe: bool = False,
) -> Iterator[Graph]:
    """Stream graphs from a newline-delimited graph6 file.

    Malformed lines raise ParseError carrying the 1-based line number;
    ``dedupe`` keeps one representative per isomorphism class.
    """
    seen: set | None = set() if dedupe else None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                g = from_graph6(line)
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if prune is not None and not is_free(g, prune):
                continue
            if seen is not None:
                form = canonical_form(g)
                if form in seen:
                    continue
                seen.add(form)
            yield g
