"""Isomorph-free graph generation via canonical augmentation, plus
graph6 corpus ingestion.

Graphs are grown one vertex at a time; a child is kept only when its
canonically-last vertex deletes back to the parent's class, so each
isomorphism class is produced exactly once with no cross-level
bookkeeping.  Pattern pruning cuts whole subtrees: containment is
monotone under adding vertices and edges, so a child containing the
forbidden graph can never lead to a free descendant.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from . import _kernels
from .errors import ParseError, SizeCapError
from .graphs import Graph, canonical_form, from_graph6
from .patterns import ForbiddenSpec, is_free

GENERATION_CAP = 10  # practical; the bitset kernels themselves allow 64


def _expand_parent(args):
    size, adj, canon, fn, fadj = args
    return _kernels.augment_children(size, adj, canon, fn, fadj)


def _levels(n: int, prune: ForbiddenSpec | None, jobs: int) -> list[tuple[tuple[int, ...], bytes]]:
    fn, fadj = (prune.graph.n, prune.graph.adj) if prune else (0, ())
    level = [((0,), _kernels.canonical_bytes(1, (0,)))]
    if prune is not None and not is_free(Graph.from_adj((0,)), prune):
        return []
    workers = min(jobs, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for size in range(1, n):
            tasks = [(size, adj, canon, fn, fadj) for adj, canon in level]
            nxt = []
            if pool is None:
                for t in tasks:
                    nxt.extend(_expand_parent(t))
            else:
                chunk = max(1, len(tasks) // (workers * 8))
                for batch in pool.map(_expand_parent, tasks, chunksize=chunk):
                    nxt.extend(batch)
            nxt.sort(key=lambda item: item[1])
            level = nxt
    finally:
        if pool is not None:
            pool.shutdown()
    return level


def generate(n: int, prune: ForbiddenSpec | None = None, jobs: int = 1) -> Iterator[Graph]:
    """All n-vertex graphs up to isomorphism, optionally pattern-free.

    Emits exactly one representative per class, in the deterministic
    order of sorted canonical forms at each tree level, independent of
    ``jobs``.
    """
    if not 1 <= n <= GENERATION_CAP:
        raise SizeCapError(
            f"generation is supported for 1 <= n <= {GENERATION_CAP}, got {n}"
        )
    for adj, _ in _levels(n, prune, jobs):
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
