"""Span tracing of turantools layers, installed from benchmark code only.

``install(tracer)`` rebinds module-level functions of the program to
wrappers that record one span per call: name, start, end, parent span
and run id.  Spans stay in memory; ``write_spans`` writes them out when
the run ends, and ``layer_metrics`` turns them into the per-layer
metrics.  A layer's self time is its span time minus its child spans.

Pool workers run the untraced program: the pool is started with an
initializer that puts the program's own functions back in each forked
worker, so kernel calls made there cost what they cost untraced and
leave no span.  On a pooled run only the parent side (pool wait, task
and class counts) is measured.  Worker-side spans wait for tracing
inside the program.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from turantools import _kernels, _realroots, enumeration

# Kernel-internal metrics exist only for the pure-Python twin, whose
# augmentation calls the kernels through module globals.
KERNEL_METRICS = (
    "kernel.canonical_labeling.calls", "kernel.canonical_labeling.busy_s",
    "kernel.canonical_bytes.calls", "kernel.canonical_bytes.busy_s",
    "kernel.contains_anchored.calls", "kernel.contains_anchored.busy_s",
    "kernel.contains_anchored.reject_ratio",
)


# (module or class, attribute, original value) rebound by install(), in order
_bindings: list = []


def _restore_originals():
    """Undo install(); also the pool initializer, run in each worker."""
    while _bindings:
        mod, key, old = _bindings.pop()
        setattr(mod, key, old)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, run id)
        self.stack: list[int] = []
        self.run = 0
        self.counters: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[idx] = (name, start, time.perf_counter(), parent, self.run)
            stack.pop()


def _wrap(tracer, name, fn, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if on_result is not None:
            on_result(tracer.counters, args, result)
        return result

    return traced


def _wrap_generator(tracer, name, fn):
    """One span per resume, so time spent by the consumer is excluded."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        for item in _traced_iter(tracer, name, fn(*args, **kwargs)):
            tracer.counters["enumeration.classes"] += 1
            yield item

    return traced


def _traced_pool(tracer, base):
    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, initializer=_restore_originals, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            tasks = list(iterables[0])  # (size, adj, canon, fn, fadj) per parent
            tracer.counters["enumeration.parents"] += len(tasks)
            tracer.counters["enumeration.subsets_tried"] += sum(1 << t[0] for t in tasks)
            results = tracer.call("enumeration.pool_wait", super().map, fn, tasks, **kwargs)
            return _traced_iter(tracer, "enumeration.pool_wait", results)

    return TracedPool


def _traced_iter(tracer, name, it):
    while True:
        try:
            item = tracer.call(name, next, it)
        except StopIteration:
            return
        yield item


def _count_augment(counters, args, result):
    counters["enumeration.parents"] += 1
    counters["enumeration.subsets_tried"] += 1 << args[0]


def _count_reject(counters, args, result):
    counters["kernel.contains_anchored.rejects"] += bool(result)


def _count_sweeps(counters, args, result):
    counters["spectral.radius.sweeps"] += result.iterations


def _count_certified(counters, args, result):
    counters["structure.maxcut.certified"] += bool(result.certified)


# (span name, module, attribute, rebind every turantools module alias?, result hook)
_FUNCTIONS = (
    ("cli.main", "turantools.cli", "main", False, None),
    ("cli.to_graph6", "turantools.cli", "to_graph6", False, None),
    ("extremal.report", "turantools.extremal", "build_report", True, None),
    ("extremal.canon_sort", "turantools.extremal", "_canonical_sorted", False, None),
    ("enumeration.augment", "turantools._kernels", "augment_children", False, _count_augment),
    ("spectral.radius", "turantools.spectral", "spectral_radius", True, _count_sweeps),
    ("exact.charpoly", "turantools.spectral", "char_poly_exact", True, None),
    ("exact.compare", "turantools.spectral", "compare_exact", True, None),
    ("exact.certify", "turantools.spectral", "certified_radius_interval", True, None),
    ("exact.sturm", "turantools._realroots", "compare_largest_roots", False, None),
    ("structure.maxcut", "turantools.structure", "max_cut_partition", True, _count_certified),
    ("structure.checks", "turantools.structure", "structural_checks", True, None),
    ("structure.degree_classes", "turantools.structure", "degree_class_report", True, None),
)
_KERNELS = (
    ("kernel.canonical_labeling", "turantools._core_py", "canonical_labeling", False, None),
    ("kernel.canonical_bytes", "turantools._core_py", "canonical_bytes", False, None),
    ("kernel.contains_anchored", "turantools._core_py", "contains_subgraph_anchored", False,
     _count_reject),
)


def kernels_traceable() -> bool:
    return _kernels.BACKEND == "python"


def install(tracer: Tracer):
    """Install every wrapper; returns a function that removes them."""

    def rebind(module, attr, new, everywhere):
        old = getattr(module, attr)
        targets = [module]
        if everywhere:
            targets = [m for k, m in sys.modules.items()
                       if (k == "turantools" or k.startswith("turantools.")) and m is not None]
        for mod in targets:
            for key, value in list(vars(mod).items()):
                if value is old and (everywhere or key == attr):
                    setattr(mod, key, new)
                    _bindings.append((mod, key, old))

    for name, modname, attr, everywhere, hook in _FUNCTIONS + (_KERNELS if kernels_traceable() else ()):
        module = sys.modules[modname]
        rebind(module, attr, _wrap(tracer, name, getattr(module, attr), hook), everywhere)
    rebind(enumeration, "generate",
           _wrap_generator(tracer, "enumeration.generate", enumeration.generate), True)
    rebind(enumeration, "ProcessPoolExecutor",
           _traced_pool(tracer, enumeration.ProcessPoolExecutor), False)
    root = _realroots.LargestRoot
    for attr in ("__init__", "refine_to"):
        rebind(root, attr, _wrap(tracer, "exact.sturm", vars(root)[attr]), False)
    return _restore_originals


def layer_metrics(tracer: Tracer, reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced repetition: name -> (value, unit)."""
    spans = tracer.spans
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]

    def parent_name(i):
        p = spans[i][3]
        return names[p] if p >= 0 else None

    def has_ancestor(i, wanted):
        p = spans[i][3]
        while p >= 0:
            if names[p] == wanted:
                return True
            p = spans[p][3]
        return False

    def pick(name, keep=lambda i: True):
        return [i for i, n in enumerate(names) if n == name and keep(i)]

    def busy(idx):
        return sum(dur[i] for i in idx) / reps

    def own(idx):
        return sum(dur[i] - covered[i] for i in idx) / reps

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counters
    under_augment = lambda i: parent_name(i) == "enumeration.augment"  # noqa: E731
    radius = pick("spectral.radius", lambda i: not has_ancestor(i, "spectral.radius"))
    maxcut = pick("structure.maxcut")
    classes = c["enumeration.classes"]
    m = {
        "enumeration.parents": (c["enumeration.parents"] / reps, "count"),
        "enumeration.subsets_tried": (c["enumeration.subsets_tried"] / reps, "count"),
        "enumeration.classes": (classes / reps, "count"),
        "enumeration.subsets_per_class": (ratio(c["enumeration.subsets_tried"], classes), "count"),
        "enumeration.augment_s": (busy(pick("enumeration.augment")), "s"),
        "enumeration.self_s": (own(pick("enumeration.generate")), "s"),
        "enumeration.pool_wait_s": (busy(pick("enumeration.pool_wait")), "s"),
        "spectral.radius.calls": (len(radius) / reps, "count"),
        "spectral.radius.busy_s": (busy(radius), "s"),
        "spectral.radius.sweeps": (c["spectral.radius.sweeps"] / reps, "count"),
        "spectral.radius.sweeps_per_call": (ratio(c["spectral.radius.sweeps"], len(radius)), "count"),
        "exact.charpoly.busy_s": (busy(pick("exact.charpoly")), "s"),
        "exact.sturm.busy_s": (busy(pick("exact.sturm", lambda i: not has_ancestor(i, "exact.sturm"))), "s"),
        "exact.compare.calls": (len(pick("exact.compare")) / reps, "count"),
        "exact.certify.calls": (len(pick("exact.certify")) / reps, "count"),
        "exact.certify.busy_s": (busy(pick("exact.certify")), "s"),
        "extremal.finalists": (len(pick("exact.compare", lambda i: has_ancestor(i, "extremal.report"))) / reps, "count"),
        "extremal.report.busy_s": (busy(pick("extremal.report")), "s"),
        "extremal.canon_sort_s": (busy(pick("extremal.canon_sort")), "s"),
        "extremal.self_s": (own(pick("extremal.report")), "s"),
        "structure.maxcut.busy_s": (busy(maxcut), "s"),
        "structure.maxcut.certified_frac": (ratio(c["structure.maxcut.certified"], len(maxcut)), "ratio"),
        "structure.checks.busy_s": (busy(pick("structure.checks")), "s"),
        "structure.degree_classes.busy_s": (busy(pick("structure.degree_classes")), "s"),
        "cli.to_graph6.calls": (len(pick("cli.to_graph6")) / reps, "count"),
        "cli.to_graph6.busy_s": (busy(pick("cli.to_graph6")), "s"),
        "cli.self_s": (own(pick("cli.main")), "s"),
    }
    if kernels_traceable():
        labeling = pick("kernel.canonical_labeling", under_augment)
        canon = pick("kernel.canonical_bytes", under_augment)
        contains = pick("kernel.contains_anchored", under_augment)
        m.update({
            "kernel.canonical_labeling.calls": (len(labeling) / reps, "count"),
            "kernel.canonical_labeling.busy_s": (busy(labeling), "s"),
            "kernel.canonical_bytes.calls": (len(canon) / reps, "count"),
            "kernel.canonical_bytes.busy_s": (busy(canon), "s"),
            "kernel.contains_anchored.calls": (len(contains) / reps, "count"),
            "kernel.contains_anchored.busy_s": (busy(contains), "s"),
            "kernel.contains_anchored.reject_ratio": (
                ratio(c["kernel.contains_anchored.rejects"], len(contains)), "ratio"),
        })
    return m


def write_spans(tracer: Tracer, path) -> None:
    """One JSON array per line: name, start, end (s from the first span), parent, run."""
    t0 = min((s[1] for s in tracer.spans), default=0.0)
    with open(path, "w", encoding="ascii") as fh:
        for name, start, end, parent, run in tracer.spans:
            fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, run]))
            fh.write("\n")
