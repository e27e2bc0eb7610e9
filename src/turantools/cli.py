"""Command-line interface.

Subcommands: gen, extremal, spectral, secular, turan, verify, diagnose.
Data goes to stdout (graph6 lines, tables, or JSON with --json);
diagnostics and counts go to stderr.  Exit codes: 0 ok, 2 usage,
3 parse error, 4 size cap, 1 internal failure.  A stdout closed by its
reader ends the run quietly with 0.

Environment override: JOBS (default worker count).  A bad value, from
the environment or the command line, is a usage error (exit 2), and so
is a ``gen --out`` target that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Decimal

from . import __version__
from .enumeration import generate
from .errors import ParseError, SizeCapError, TuranToolsError
from .extremal import build_report, turan_edges, verify_containment
from .graphs import from_graph6, to_graph6, turan_parts
from .patterns import parse_forbidden
from .spectral import (
    DEFAULT_TOL,
    certified_radius_root,
    multipartite_char_poly,
    secular_lambda,
    spectral_radius,
    turan_perron_closed,
)
from .structure import degree_class_report, max_cut_partition, structural_checks

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SIZE = 4


def _jobs(text: str) -> int:
    """--jobs / JOBS: a worker count of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = None
    if jobs is None or jobs < 1:
        raise argparse.ArgumentTypeError(
            f"worker count (--jobs or JOBS) must be an integer >= 1, got {text!r}"
        )
    return jobs


def _fmt(x: float) -> str:
    return f"{x:.10f}"


def _bracket(root, lo, hi, outward):
    """Printed bounds with lo <= lambda <= hi.

    An end that rounding put on the wrong side of lambda, as the exact
    isolator's sign test shows, moves outward one unit, by
    ``outward(v, -1)`` or ``outward(v, 1)``.  Rounding moved it by less
    than a unit, so one move brings it past lambda.
    """
    while root.sign_at(lo) > 0:
        lo = outward(lo, -1)
    while root.sign_at(hi) < 0:
        hi = outward(hi, 1)
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    # string defaults go through type=, so bad env values exit 2 as well
    jobs = os.environ.get("JOBS") or "1"
    parser = argparse.ArgumentParser(
        prog="turantools",
        description="Edge-extremal and spectral-extremal forbidden-subgraph toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="enumerate isomorphism classes as graph6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", help="forbidden-graph spec (K3, F2, F2,4, g6:...)")
    p.add_argument("--out", help="write graph6 lines to this file instead of stdout")
    p.add_argument("--jobs", type=_jobs, default=jobs)

    p = sub.add_parser("extremal", help="ex(n,F), Ex(n,F), and the spectral argmax")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=jobs)

    p = sub.add_parser("verify", help="containment table Ex_sp vs Ex over a range of n")
    p.add_argument("--forbid", required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=jobs)

    p = sub.add_parser("spectral", help="spectral radius and Perron vector of one graph")
    p.add_argument("--g6", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--exact", action="store_true", help="certify via exact polynomial bisection")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("secular", help="largest secular-equation root for part sizes")
    p.add_argument("--parts", required=True, help="comma-separated part sizes, e.g. 2,2,1")

    p = sub.add_parser("turan", help="Turan graph facts: edges, radius, closed-form vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("diagnose", help="structural checks on one graph")
    p.add_argument("--g6", required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--a", type=int, required=True, help="assumed edge excess over the Turan graph")
    p.add_argument("--theta", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=0.001)
    p.add_argument("--json", action="store_true")

    return parser


def _write_graph6(sink, graphs) -> int:
    count = 0
    for g in graphs:
        sink.write(to_graph6(g) + "\n")
        count += 1
    return count


def _write_graph6_file(path, graphs) -> int:
    """Write to a temp file beside ``path``, then rename it over ``path``:
    a walk that fails midway leaves an existing file as it was.  A
    target that cannot be written is a usage error before the walk."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write --out {path}: is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        sink = open(tmp, "x", encoding="ascii")  # same mode as open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from exc
    try:
        with sink:
            count = _write_graph6(sink, graphs)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return count


def _cmd_gen(args) -> int:
    spec = parse_forbidden(args.forbid) if args.forbid else None
    graphs = generate(args.n, prune=spec, jobs=args.jobs)  # a bad n raises before --out opens
    if args.out:
        count = _write_graph6_file(args.out, graphs)
    else:
        count = _write_graph6(sys.stdout, graphs)
    print(f"{count} classes", file=sys.stderr)
    return EXIT_OK


def _report_rows(reports):
    head = ["n", "ex", "turan", "excess", "lambda*", "|Ex|", "|Ex_sp|", "contained", "reference"]
    rows = [head]
    for rep in reports:
        rows.append(
            [
                str(rep.n),
                str(rep.ex),
                str(rep.turan_edges),
                str(rep.excess),
                _fmt(rep.lambda_star),
                str(len(rep.edge_extremal)),
                str(len(rep.spectral_extremal)),
                str(rep.contained).lower(),
                rep.reference or "",
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(head))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)


def _cmd_extremal(args) -> int:
    spec = parse_forbidden(args.forbid)
    rep = build_report(args.n, spec, jobs=args.jobs)
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2, sort_keys=True))
    else:
        print(_report_rows([rep]))
        print("edge extremal:     " + " ".join(rep.edge_extremal))
        print("spectral extremal: " + " ".join(rep.spectral_extremal))
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = parse_forbidden(args.forbid)
    reports = verify_containment(args.n_min, args.n_max, spec, jobs=args.jobs)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        print(_report_rows(reports))
    return EXIT_OK


def _cmd_spectral(args) -> int:
    g = from_graph6(args.g6)
    res = spectral_radius(g, tol=args.tol)
    exact_interval = None
    if args.exact:
        root = certified_radius_root(g)
        exact_interval = _bracket(root, float(root.lo), float(root.hi),
                                  lambda v, s: math.nextafter(v, s * math.inf))
    if args.json:
        payload = {
            "lambda": res.lam,
            "x": list(res.vector),
            "residual": res.residual,
            "iters": res.iterations,
            "exact": args.exact,
        }
        if exact_interval:
            payload["certified_interval"] = list(exact_interval)
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"lambda   {_fmt(res.lam)}")
        print(f"residual {res.residual:.3e}")
        print(f"iters    {res.iterations}")
        print("perron   " + " ".join(_fmt(x) for x in res.vector))
        if exact_interval:
            lo, hi = (Decimal(f"{v:.13f}") for v in exact_interval)
            lo, hi = _bracket(root, lo, hi, lambda v, s: v + s * Decimal("1e-13"))
            print(f"certified [{lo:.13f}, {hi:.13f}]")
    return EXIT_OK


def _parse_parts(text: str) -> list[int]:
    """--parts: comma-separated fields of ASCII digits, blanks around each.

    A bad field's error carries the offset where it starts: the fields
    before it are ASCII, so its character offset is its byte offset.
    """
    parts, pos = [], 0
    for field in text.split(","):
        tok = field.strip(" \t")
        if not (tok.isascii() and tok.isdigit()):
            start = pos + len(field) - len(field.lstrip(" \t"))
            raise ParseError(f"part size {tok!r} is not a decimal integer", offset=start)
        parts.append(int(tok))
        pos += len(field) + 1
    return parts


def _cmd_secular(args) -> int:
    parts = _parse_parts(args.parts)
    poly = multipartite_char_poly(parts)  # first: its size cap precedes any expansion
    lam = secular_lambda(parts)
    print(f"lambda {_fmt(lam)}")
    print("charpoly " + " ".join(str(c) for c in poly))
    return EXIT_OK


def _cmd_turan(args) -> int:
    n, r = args.n, args.r
    edges = turan_edges(n, r)
    parts = turan_parts(n, r)
    y1, y2, lam = turan_perron_closed(n, r)
    print(f"parts  {','.join(str(p) for p in parts)}")
    print(f"edges  {edges}")
    print(f"lambda {_fmt(lam)}")
    print(f"y1     {_fmt(y1)}")
    print(f"y2     {_fmt(y2)}")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    g = from_graph6(args.g6)
    spec = parse_forbidden(args.forbid)
    partition = max_cut_partition(g, spec.r)
    checks = structural_checks(g, spec, args.a, partition=partition)
    classes = degree_class_report(g, partition, args.theta, args.epsilon)
    if args.json:
        payload = {
            "partition": partition.to_dict(),
            "checks": [c.to_dict() for c in checks],
            "degree_classes": classes.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"partition sizes {partition.part_sizes}, cross {partition.cross_edges}, "
              f"internal {partition.internal_total}, missing {partition.missing_cross_edges}")
        for c in checks:
            mark = "holds" if c.holds else "FAILS"
            print(f"[{mark}] {c.check_id}: lhs={c.lhs:g} rhs={c.rhs:g} slack={c.slack:g}")
        print(f"heavy-internal vertices: {list(classes.heavy_internal)}")
        print(f"low-degree vertices:     {list(classes.low_degree)}")
        print(f"heavy within low:        {classes.heavy_within_low}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "extremal": _cmd_extremal,
    "verify": _cmd_verify,
    "spectral": _cmd_spectral,
    "secular": _cmd_secular,
    "turan": _cmd_turan,
    "diagnose": _cmd_diagnose,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader has all it wants (``| head``): not a failure.  The
        # walk's generator is closed as the traceback is dropped, which
        # shuts its pool down, and the unwritten output goes to devnull
        # so the flush at shutdown stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TuranToolsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
