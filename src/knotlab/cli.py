"""Command line front end.

    knotlab jones     --pd "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
    knotlab alexander --seifert "[[0,2],[1,0]]"
    knotlab signature --seifert "[[-1,1],[0,-1]]"
    knotlab sequiv    --seifert "[[0,1],[2,0]]" --ell 3 [--band second]
                      [--oracle-bound 6]
    knotlab lambda    --n 0 --m 0 --p 3 [--emit seifert|pd|jones|alexander]
    knotlab report    --paper

Matrix and diagram arguments accept inline text or @path to read a
UTF-8 file of at most 1 MiB.  Every subcommand takes --json for
machine-readable output with the shape {"command", "input", "result",
"paper_check"}.  Exit status: 0 on success (a negative mathematical
answer is still success), 1 on a domain error (invalid matrix,
inconsistent diagram, input over a size limit, a result holding an
integer too long for Python to write out, ...) or when the reader
closes stdout before the output is written, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# each command imports the modules it uses when it runs, so that a
# one-shot call loads only those
from .errors import KnotError

__all__ = ["main"]


# The PD code of a 4,004-crossing lambda(n, m, p), about the largest the
# bracket sweep's limit admits, is about 90 KB.
MAX_ARG_BYTES = 1 << 20


def _read_arg(value: str) -> str:
    if value.startswith("@"):
        path = value[1:]
        try:
            with open(path, "rb") as fh:
                data = fh.read(MAX_ARG_BYTES + 1)
        except OSError as e:
            raise KnotError(str(e)) from None
        if len(data) > MAX_ARG_BYTES:
            raise KnotError(f"{path}: longer than {MAX_ARG_BYTES} bytes")
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            raise KnotError(f"{path}: not UTF-8 text") from None
    return value


def _seifert_from(value: str):
    from .seifert import SeifertMatrix, parse_matrix

    return SeifertMatrix(tuple(tuple(r) for r in parse_matrix(_read_arg(value))))


def _emit(args, inputs: dict, result: dict, text: str, paper_check=None) -> None:
    if args.json:
        payload = {"command": args.command, "input": inputs, "result": result,
                   "paper_check": paper_check}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _poly_json(p) -> dict:
    return {str(e): c for e, c in p.items()}


def cmd_jones(args) -> int:
    from .diagram import _jones_from_bracket, kauffman_bracket, parse_pd

    d = parse_pd(_read_arg(args.pd))
    w = d.writhe()
    bracket = kauffman_bracket(d)
    v = _jones_from_bracket(bracket, w)
    result = {
        "jones": str(v),
        "coefficients": _poly_json(v),
        "bracket_A": bracket.format("A"),
        "writhe": w,
        "crossings": len(d.crossings),
    }
    text = (
        f"crossings: {len(d.crossings)}\n"
        f"writhe: {w}\n"
        f"bracket (A): {bracket.format('A')}\n"
        f"jones (t): {v}"
    )
    _emit(args, {"pd": str(d)}, result, text)
    return 0


def cmd_alexander(args) -> int:
    from .seifert import alexander, knot_determinant

    m = _seifert_from(args.seifert)
    poly = alexander(m)
    det = knot_determinant(m)
    result = {"alexander": str(poly), "coefficients": _poly_json(poly), "determinant": det}
    text = f"alexander (t): {poly}\ndeterminant: {det}"
    _emit(args, {"seifert": [list(r) for r in m.rows]}, result, text)
    return 0


def cmd_signature(args) -> int:
    from .seifert import signature

    m = _seifert_from(args.seifert)
    sig = signature(m)
    _emit(args, {"seifert": [list(r) for r in m.rows]}, {"signature": sig},
          f"signature: {sig}")
    return 0


def cmd_sequiv(args) -> int:
    from .seifert import format_matrix
    from .sequiv import brute_force_congruence, decide_first_sequiv

    m = _seifert_from(args.seifert)
    report = decide_first_sequiv(m, args.ell, args.band)
    oracle = None
    if args.oracle_bound is not None:
        witness = brute_force_congruence(m, report.twisted, args.oracle_bound)
        agrees = (witness is not None) == report.equivalent
        if witness is None and report.certificate is not None:
            top = max(abs(v) for row in report.certificate.rows for v in row)
            if top > args.oracle_bound:
                # the search box is too small to hold the certificate, so
                # finding nothing there decides nothing
                agrees = None
        oracle = {
            "bound": args.oracle_bound,
            "witness": [list(r) for r in witness.rows] if witness else None,
            "agrees": agrees,
        }
    lines = [
        f"matrix: {m}",
        f"twisted (ell={args.ell}, band={args.band}): {report.twisted}",
        f"first S-equivalent: {'yes' if report.equivalent else 'no'} ({report.reason})",
    ]
    if report.certificate is not None:
        lines.append(f"certificate T with T M T^T = twisted: {report.certificate}")
    lines.append(f"note: {report.note}")
    if oracle is not None:
        w = oracle["witness"]
        if agrees is None:
            verdict = (f", inconclusive: the certificate's largest entry, {top}, "
                       f"is over the bound {args.oracle_bound}")
        else:
            verdict = ", agrees" if agrees else ", DISAGREES"
        lines.append(
            f"oracle (bound {args.oracle_bound}): "
            + (f"witness {format_matrix(w)}" if w else "no witness")
            + verdict
        )
    inputs = {"seifert": [list(r) for r in m.rows], "ell": args.ell, "band": args.band}
    _emit(args, inputs, dict(report.as_dict(), oracle=oracle), "\n".join(lines))
    return 0


def cmd_lambda(args) -> int:
    from .diagram import jones
    from .family import LambdaSpec, lambda_diagram, lambda_seifert
    from .seifert import alexander

    spec = LambdaSpec(args.n, args.m, args.p)
    m = lambda_seifert(spec)
    result: dict = {"seifert": [list(r) for r in m.rows]}
    lines = [f"{spec}", f"seifert: {m}"]
    if args.emit in ("pd", "jones"):
        d = lambda_diagram(spec)
        result["pd"] = str(d)
        lines.append(f"pd ({len(d.crossings)} crossings): {d}")
        if args.emit == "jones":
            v = jones(d)
            result["jones"] = str(v)
            lines.append(f"jones (t): {v}")
    if args.emit == "alexander":
        poly = alexander(m)
        result["alexander"] = str(poly)
        lines.append(f"alexander (t): {poly}")
    inputs = {"n": args.n, "m": args.m, "p": args.p, "emit": args.emit}
    _emit(args, inputs, result, "\n".join(lines))
    return 0


def cmd_report(args) -> int:
    from .family import paper_report, render_report

    if not args.paper:
        raise KnotError("report: nothing to do (use --paper)")
    lines = paper_report()
    ok = all(l["status"] in ("MATCH", "KNOWN-DISCREPANCY") for l in lines)
    _emit(args, {"paper": True}, {"lines": lines, "ok": ok}, render_report(lines), ok)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotlab",
        description="Exact invariants and S-equivalence certificates for band knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jones", help="Jones polynomial of a planar diagram")
    p.add_argument("--pd", required=True, help="X[a,b,c,d] tokens, or @file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jones)

    p = sub.add_parser("alexander", help="Alexander polynomial of a Seifert matrix")
    p.add_argument("--seifert", required=True, help="[[..],[..]] or @file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("signature", help="signature of M + M^T")
    p.add_argument("--seifert", required=True, help="[[..],[..]] or @file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser(
        "sequiv", help="decide first S-equivalence of M and its band-twisted form"
    )
    p.add_argument("--seifert", required=True, help="genus-one matrix, or @file")
    p.add_argument("--ell", required=True, type=int, help="number of full twists")
    p.add_argument("--band", choices=("first", "second"), default="first")
    p.add_argument(
        "--oracle-bound",
        type=int,
        default=None,
        help="also run the exhaustive congruence search with this entry bound",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sequiv)

    p = sub.add_parser("lambda", help="the two-band knot lambda(n,m,p)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--p", required=True, type=int)
    p.add_argument(
        "--emit",
        choices=("seifert", "pd", "jones", "alexander"),
        default="seifert",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("report", help="recompute and check published values")
    p.add_argument("--paper", action="store_true", help="run the full comparison")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except KnotError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        # writing out an int past the interpreter's limit on int-to-text
        # conversion, in whatever command; any other ValueError is a bug
        if "integer string conversion" not in str(e):
            raise
        print(f"error: the result holds an integer of over {sys.get_int_max_str_digits()} "
              "digits, more than Python converts to text", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
