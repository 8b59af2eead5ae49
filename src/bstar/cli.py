"""Command-line front end.

Exit codes: 0 when everything passes (or a queried property holds), 1 when
a suite or property check fails, 2 for usage and parse errors.  Every
command computes its answer from the complex it parsed: no file is read
or written between invocations, and BSTAR_CACHE_DIR is ignored.  A file
of saved Betti vectors spared a few milliseconds per process, never helped
``check``, and a well-formed but wrong entry changed what ``homology``
printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import homology
from .complexes import ComplexError
from .facevectors import FaceVectors
from .families import (ConstructionError, UnknownFixtureError, cross_polytope,
                       fixture, multi_point_join_colored, named, simplex,
                       simplex_boundary, skeleton_join_sphere,
                       stacked_cross_polytopal_sphere)
from .files import ComplexFile, ComplexFileError, emit, emit_text, parse
from .linalg import QQ, CoefficientField
from .properties import (UNKNOWN, Coloring, ColoringError,
                         find_balanced_coloring, is_buchsbaum,
                         is_buchsbaum_star, is_cohen_macaulay,
                         is_doubly_buchsbaum, is_homology_manifold,
                         is_m_buchsbaum_star, is_m_cm, rank_selected)
from .suites import UnknownSuiteError, explore_question, run_suite, suite_names
from .version import __version__


def parse_field(text: str) -> CoefficientField:
    t = text.strip().lower()
    try:
        if t in ("q", "qq", "rationals", "0"):
            return QQ
        if t.startswith("f") and t[1:].isdigit():
            return CoefficientField.prime(int(t[1:]))
        if t.isdigit():
            return CoefficientField.prime(int(t))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(
        f"unknown field {text!r} (use q, f2, f3, f<p>)")


def _write_complex(cf: ComplexFile, out_path) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(emit_text(cf))
    else:
        emit(cf, out_path)


_FAMILIES = {  # int parameters -> a complex or a (complex, coloring) pair
    "simplex": simplex, "simplex-boundary": simplex_boundary,
    "cross-polytope": cross_polytope, "multi-point-join": multi_point_join_colored,
    "stacked-cross-polytopal-sphere": stacked_cross_polytopal_sphere,
    "scps": stacked_cross_polytopal_sphere,
    "skeleton-join-sphere": skeleton_join_sphere}


def _cmd_construct(args) -> int:
    family = args.family
    params = args.params
    try:
        if family == "named":
            if len(params) != 1:
                raise ConstructionError(f"named takes one fixture name, not {params}")
            cx, coloring = named(params[0]), fixture(params[0]).coloring
        elif family in _FAMILIES:
            try:
                ints = [int(p) for p in params]
            except ValueError:
                raise ConstructionError(
                    f"{family} takes integer parameters, not {params}") from None
            built = _FAMILIES[family](*ints)
            cx, coloring = built if isinstance(built, tuple) else (built, None)
        else:
            print(f"unknown family {family!r}", file=sys.stderr)
            return 2
    except (TypeError, ConstructionError, UnknownFixtureError) as exc:
        print(f"construct: {exc}", file=sys.stderr)
        return 2
    name = params[0] if family == "named" else f"{family}({','.join(params)})"
    _write_complex(ComplexFile(cx, coloring, name=name), args.output)
    return 0


def _cmd_vectors(args) -> int:
    cf = args.complex_file
    fv = FaceVectors.compute(cf.complex, args.field)
    if args.json:
        out = {
            "f": list(fv.f), "h": list(fv.h),
            "h_prime": list(fv.h_prime) if fv.h_prime else None,
            "short_h": list(fv.short_h) if fv.short_h else None,
            "chi_reduced": fv.chi_reduced,
            "pure": fv.is_pure, "field": fv.field.label,
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"f        = {fv.f}")
        print(f"h        = {fv.h}{'' if fv.is_pure else '  (non-pure)'}")
        if fv.h_prime is not None:
            print(f"h' ({fv.field.label:>2}) = {fv.h_prime}")
            print(f"short h  = {fv.short_h}")
        print(f"chi~     = {fv.chi_reduced}")
    return 0


def _cmd_homology(args) -> int:
    cf = args.complex_file
    betti = homology.reduced_betti(cf.complex, args.field)
    if args.json:
        print(json.dumps({"field": args.field.label,
                          "betti": list(betti.values),
                          "degrees": list(range(-1, betti.top_degree + 1))}))
    else:
        degrees = ", ".join(f"b~{i}={betti[i]}"
                            for i in range(-1, betti.top_degree + 1))
        print(f"reduced Betti over {args.field.label}: {degrees}")
    return 0


_CHECKS = {
    "cm": lambda c, f, m: is_cohen_macaulay(c, f),
    "m-cm": lambda c, f, m: is_m_cm(c, m, f),
    "buchsbaum": lambda c, f, m: is_buchsbaum(c, f),
    "doubly-buchsbaum": lambda c, f, m: is_doubly_buchsbaum(c, f),
    "buchsbaum-star": lambda c, f, m: is_buchsbaum_star(c, f),
    "m-buchsbaum-star": lambda c, f, m: is_m_buchsbaum_star(c, m, f),
    "homology-manifold": lambda c, f, m: is_homology_manifold(c, f),
}


def _cmd_check(args) -> int:
    cf = args.complex_file
    cx = cf.complex
    if args.property == "balanced":
        result = find_balanced_coloring(cx)
        if result is UNKNOWN:
            print("UNKNOWN (search budget exhausted)")
            return 1
        if result is None:
            print("not balanced (no proper coloring exists)")
            return 1
        if args.json:
            print(json.dumps({"balanced": True,
                              "coloring": {str(v): c for v, c
                                           in result.as_sorted_dict().items()}}))
        else:
            print(f"balanced with coloring {result.as_sorted_dict()}")
        return 0
    if args.property == "flag":
        verdict = cx.is_flag
        print(json.dumps({"flag": verdict}) if args.json
              else f"flag: {verdict}")
        return 0 if verdict else 1
    checker = _CHECKS.get(args.property)
    if checker is None:
        print(f"unknown property {args.property!r}; choose from "
              f"{sorted(_CHECKS) + ['balanced', 'flag']}", file=sys.stderr)
        return 2
    if args.property.startswith("m-") and args.m is None:
        print("this property needs -m", file=sys.stderr)
        return 2
    report = checker(cx, args.field, args.m)
    if args.json:
        print(json.dumps({"property": report.prop, "field": report.field,
                          "verdict": report.verdict,
                          "witness": None if report.witness is None
                          else {"kind": report.witness.kind,
                                "data": repr(report.witness.data)}}))
    else:
        line = f"{report.prop} over {report.field}: {report.verdict}"
        if report.witness is not None:
            line += f"  (witness: {report.witness})"
        print(line)
    return 0 if report.verdict else 1


def _cmd_rank_select(args) -> int:
    cf = args.complex_file
    coloring = cf.coloring
    if coloring is None:
        coloring = find_balanced_coloring(cf.complex)
        if coloring is None or coloring is UNKNOWN:
            print("rank-select: file has no coloring and none was found",
                  file=sys.stderr)
            return 2
    try:
        colors = {int(x) for x in args.colors.split(",") if x.strip() != ""}
    except ValueError:
        print(f"rank-select: bad color set {args.colors!r}", file=sys.stderr)
        return 2
    try:
        sub = rank_selected(cf.complex, coloring, colors)
    except ColoringError as exc:
        print(f"rank-select: {exc}", file=sys.stderr)
        return 2
    present = set(sub.vertices)
    kept = {v: c for v, c in coloring.assignment.items() if v in present}
    sub_coloring = Coloring(kept, coloring.d) if kept else None
    _write_complex(ComplexFile(sub, sub_coloring,
                               name=f"rank-selected S={sorted(colors)}"),
                   args.output)
    return 0


def _cmd_verify(args) -> int:
    names = suite_names() if args.suite == "all" else [args.suite]
    failed = False
    for name in names:
        try:
            report = run_suite(name, fields=args.field or None,
                               seed=args.seed, max_n=args.max_n)
        except UnknownSuiteError:
            print(f"unknown suite {args.suite!r}; available: "
                  f"{', '.join(suite_names())} or 'all'", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report.to_dict()))
        else:
            print(report.render_text())
        failed = failed or not report.passed
    return 1 if failed else 0


def _cmd_explore(args) -> int:
    report = explore_question(args.m, args.i, args.d, n_max=args.max_n,
                              seed=args.seed, field=args.field)
    print(json.dumps(report.to_dict()) if args.json else report.render_text())
    return 0 if report.passed else 1


def _add_field(p, default=QQ):
    p.add_argument("--field", type=parse_field, default=default,
                   help="coefficient field: q, f2, f3, f<p>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bstar",
        description="Exact simplicial-complex toolkit: invariants, homology, "
                    "Buchsbaum-type classification, verification suites.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family")
    p.add_argument("family",
                   help="simplex | simplex-boundary | cross-polytope | "
                        "multi-point-join | scps | skeleton-join-sphere | named")
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("-o", "--output", default=None, help="output file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("vectors", help="f/h/h'/short-h vectors")
    p.add_argument("file")
    _add_field(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_vectors)

    p = sub.add_parser("homology", help="reduced Betti numbers")
    p.add_argument("file")
    _add_field(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("check", help="run a property predicate")
    p.add_argument("property")
    p.add_argument("file")
    _add_field(p)
    p.add_argument("-m", type=int, default=None, help="m for m-fold properties")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("rank-select", help="rank-selected subcomplex")
    p.add_argument("file")
    p.add_argument("--colors", required=True, help="comma-separated colors")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_rank_select)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help=f"{', '.join(suite_names())}, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--field", type=parse_field, action="append", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("explore", help="probe the h-polynomial lower-bound question")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-n", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    _add_field(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_explore)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "file" in args:
            args.complex_file = parse(args.file)
        return args.func(args)
    except (ComplexFileError, ComplexError, ColoringError, ConstructionError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
