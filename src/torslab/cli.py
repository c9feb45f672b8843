"""Command line front end.

Subcommands: verify (one named suite on one algebra), scan (semibrick
growth across base fields), fan (g-vector fan export), wallchamber
(rank 2 SVG picture).  Reports go to stdout or --out.  The process exit
code mirrors the report: 0 all pass, 1 any failure, 2 window-limited
results only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .algebra import PRIMES, AlgebraError, load_algebra
from . import reports


def _algebra_text(arg):
    path = arg
    if not os.path.exists(path):
        path = os.path.join(os.path.dirname(__file__), "data", arg + ".alg")
        if not os.path.exists(path):
            raise SystemExit("no such algebra file or bundled name: %s" % arg)
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit("cannot read algebra %s: %s" % (arg, exc))


def _load(text):
    try:
        return load_algebra(text)
    except AlgebraError as exc:
        raise SystemExit("bad algebra: %s" % exc)


def _algebra_id(arg):
    base = os.path.basename(arg)
    if base.endswith(".alg"):
        base = base[: -len(".alg")]
    return base


def _parse_bound(text, n):
    try:
        bound = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit("bad bound %r, expected d1,d2,..." % text)
    if len(bound) != n:
        raise SystemExit("bound %r needs %d entries, one per vertex" % (text, n))
    if min(bound) < 0:
        raise SystemExit("bound %r has a negative entry" % text)
    return bound


def _parse_range(text, what):
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise SystemExit("bad %s %r, expected a:b" % (what, text))


def _parse_fields(text):
    try:
        fields = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit("bad field list %r, expected 2,3,5" % text)
    for p in fields:
        if p not in PRIMES:
            raise SystemExit("field size %d is not one of %s" % (p, ", ".join(map(str, PRIMES))))
    return fields


def _depth(text):
    try:
        depth = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid depth %r" % text)
    if depth < 0:
        raise argparse.ArgumentTypeError("depth must be nonnegative, got %d" % depth)
    return depth


def _run_verify(args):
    algebra = _load(_algebra_text(args.algebra))
    if args.bound:
        bound = _parse_bound(args.bound, algebra.n)
    else:
        bound = (2,) * algebra.n
    aid = _algebra_id(args.algebra)
    if args.suite == "smalo":
        return reports.suite_smalo(algebra, bound, aid)
    if args.suite == "semistable":
        grid = _parse_range(args.grid, "grid")
        return reports.suite_semistable(algebra, bound, grid, args.depth, aid)
    if args.suite == "numdis":
        return reports.suite_numdis(algebra, bound, aid)
    return reports.suite_brickfinite(algebra, bound, aid)


def _run_scan(args):
    text = _algebra_text(args.algebra)
    grid = _parse_range(args.grid, "grid")
    fields = _parse_fields(args.fields)
    # a bad file exits here with one line; the suite parses it again
    algebras = [_load(reports.refield(text, p)) for p in fields]
    bound = _parse_bound(args.bound, algebras[0].n) if args.bound else None
    return reports.suite_scan(
        text, grid, fields, args.depth, bound, _algebra_id(args.algebra)
    )


def _run_fan(args):
    algebra = _load(_algebra_text(args.algebra))
    return reports.fan_json(algebra, args.depth, _algebra_id(args.algebra))


def _run_wallchamber(args):
    algebra = _load(_algebra_text(args.algebra))
    bound = _parse_bound(args.bound, algebra.n) if args.bound else None
    window = _parse_range(args.window, "window")
    return reports.wallchamber_svg(algebra, bound, window, args.depth)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torslab",
        description="torsion class and stability verification over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True,
                       help="algebra file path or bundled name")
        p.add_argument("--out", help="write the report here instead of stdout")

    v = sub.add_parser("verify", help="run one verification suite")
    common(v)
    v.add_argument("--suite", required=True,
                   choices=("smalo", "semistable", "numdis", "brickfinite"))
    v.add_argument("--bound", help="dimension bound d1,d2,...")
    v.add_argument("--grid", default="-4:4", help="lattice weight grid a:b")
    v.add_argument("--depth", type=_depth, default=6, help="mutation walk depth")
    v.set_defaults(run=_run_verify)

    s = sub.add_parser("scan", help="semibrick growth scan across fields")
    common(s)
    s.add_argument("--fields", default="2,3,5", help="prime list 2,3,5")
    s.add_argument("--grid", default="-4:4", help="lattice weight grid a:b")
    s.add_argument("--bound", help="dimension bound d1,d2,...")
    s.add_argument("--depth", type=_depth, default=6, help="mutation walk depth")
    s.set_defaults(run=_run_scan)

    f = sub.add_parser("fan", help="export the enumerated g-vector fan")
    common(f)
    f.add_argument("--depth", type=_depth, default=6, help="mutation walk depth")
    f.set_defaults(run=_run_fan)

    w = sub.add_parser("wallchamber", help="rank 2 wall and chamber SVG")
    common(w)
    w.add_argument("--window", default="-5:5", help="drawing window a:b")
    w.add_argument("--bound", help="dimension bound d1,d2,...")
    w.add_argument("--depth", type=_depth, default=6, help="fan overlay depth")
    w.set_defaults(run=_run_wallchamber)

    for p in (v, s, f):
        p.add_argument("--timings", action="store_true",
                       help="attach wall clock timing to the report")
    return parser


def _glue_negative_values(argv):
    """Join option values like -4:4 onto their flag so argparse accepts them."""
    glued = []
    for tok in argv:
        if (
            glued
            and glued[-1] in ("--grid", "--window", "--bound")
            and tok.startswith("-")
            and any(ch.isdigit() for ch in tok)
        ):
            glued[-1] += "=" + tok
        else:
            glued.append(tok)
    return glued


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_glue_negative_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a window-limited report
        raise SystemExit(1 if exc.code else 0)
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise SystemExit("cannot write report: no such directory for %s" % args.out)
    t0 = time.perf_counter()
    try:
        result = args.run(args)
    except reports.ReportError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    text = result
    if isinstance(result, dict):
        # wallchamber's SVG, the one result that is not a dict, takes no --timings
        if args.timings:
            seconds = round(time.perf_counter() - t0, 3)
            result = dict(result, timings={"seconds": seconds})
        text = reports.render_json(result)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit("cannot write report: %s" % exc)
    else:
        sys.stdout.write(text)
    return reports.exit_code(result) if args.command in ("verify", "scan") else 0


if __name__ == "__main__":
    sys.exit(main())
