"""Command-line front end.

Subcommands: validate, eval, height, prob, check, dot, fixture.  A FILE
argument of ``-`` reads the poset from stdin.  Exit codes: 0 success,
1 validation/evaluation failure (single-line diagnostic), 2 usage.
All output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Callable

from .builders import FIXTURE_NAMES, builtin_fixture
from .errors import EvalTypeError, OrdboolError, ParseError
from .exprs import ProbValue, eval_expr, format_value, parse_expr
from .measure import MeasureKind, ht_of_set, mu
from .oracle import Query, Variant, differential_check, law_check, run_query
from .poset import Poset
from .textio import format_poset_text, parse_poset_text, render_dot


class _UsageError(Exception):
    def __init__(self, status: int, message: str):
        self.status = status
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message):
        raise _UsageError(2, f"{self.format_usage()}error: {message}")

    def exit(self, status=0, message=None):
        raise _UsageError(status, message or "")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="ordbool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p):
        p.add_argument("file", help="poset file, or - for stdin")
        return p

    with_file(sub.add_parser("validate", help="parse and validate a poset file"))
    evalp = with_file(sub.add_parser("eval", help="evaluate an expression"))
    evalp.add_argument("expr")
    heightp = with_file(sub.add_parser("height", help="print element heights"))
    heightp.add_argument("labels", nargs="*")
    probp = with_file(sub.add_parser("prob", help="probability of a set expression"))
    probp.add_argument("--measure", choices=("max", "sum"), default="max")
    probp.add_argument("expr")
    checkp = with_file(sub.add_parser("check", help="run the law suite and the differential oracle"))
    checkp.add_argument("--seed", type=int, default=0)
    checkp.add_argument("--cases", type=_positive_int, default=200)
    checkp.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    with_file(sub.add_parser("dot", help="DOT export of the transitive reduction"))
    fixturep = sub.add_parser("fixture", help="print a built-in fixture")
    fixturep.add_argument("name", help="one of: " + ", ".join(FIXTURE_NAMES))
    return parser


def _load(file_arg: str, stdin_text: str | None) -> Poset:
    if file_arg == "-" and stdin_text is not None:
        text = stdin_text
    elif file_arg == "-":
        text = _decode(sys.stdin.buffer.read(), "stdin")
    else:
        with open(file_arg, "rb") as handle:
            text = _decode(handle.read(), file_arg)
    return parse_poset_text(text).build()


def _decode(data: bytes, source: str) -> str:
    """UTF-8 text of a poset file; a bad byte is a ParseError at its position."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(f"{source} is not UTF-8 text ({exc.reason})", line, column) from None


def _faulty_run_query(p: Poset, q: Query) -> object:
    """Deliberately broken main path for the harness self-test."""
    args = tuple(Variant.RAW if a is Variant.PRIME else a for a in q.args)
    return run_query(p, Query(q.op, args))


def _cmd_validate(args, stdin_text):
    p = _load(args.file, stdin_text)
    return 0, f"valid: {p.name} ({len(p)} elements, {len(p.cover_pairs)} cover pairs)"


def _cmd_eval(args, stdin_text):
    p = _load(args.file, stdin_text)
    value = eval_expr(p, parse_expr(args.expr))
    return 0, format_value(value)


def _cmd_height(args, stdin_text):
    p = _load(args.file, stdin_text)
    labels = args.labels or list(p.elems)
    lines = []
    for label in labels:
        p.require(label)
        lines.append(f"{label} {p.height_of[label]}")
    return 0, "\n".join(lines)


def _cmd_prob(args, stdin_text):
    p = _load(args.file, stdin_text)
    value = eval_expr(p, parse_expr(args.expr))
    if not isinstance(value, frozenset):
        raise EvalTypeError("prob needs a plain set expression; use eval with P(...) for signed sets")
    if args.measure == "max":
        result = ProbValue(Fraction(ht_of_set(p, value), p.height_of[p.top]),
                           ht_of_set(p, value), p.height_of[p.top])
    else:
        result = ProbValue(Fraction(mu(p, value), mu(p, p.ground)),
                           mu(p, value), mu(p, p.ground))
    return 0, format_value(result)


def _cmd_check(args, stdin_text):
    p = _load(args.file, stdin_text)
    lines = []
    status = 0
    laws = law_check(p, seed=args.seed)
    main: Callable | None = _faulty_run_query if args.inject_fault else None
    diff = differential_check(p, seed=args.seed, cases=args.cases, main=main)
    for title, report in (("laws", laws), ("differential", diff)):
        if report.ok:
            lines.append(f"{title}: ok ({report.cases} checks)")
        else:
            status = 1
            lines.append(f"{title}: FAILED ({len(report.mismatches)} of {report.cases} checks)")
            for miss in report.mismatches[:5]:
                lines.append(f"  mismatch {miss.query.describe()}: "
                             f"main={_show(miss.main)} oracle={_show(miss.oracle)}")
    return status, "\n".join(lines)


def _show(value) -> str:
    try:
        return format_value(value)
    except Exception:
        return repr(value)


def _cmd_dot(args, stdin_text):
    p = _load(args.file, stdin_text)
    return 0, render_dot(p).rstrip("\n")


def _cmd_fixture(args, stdin_text):
    return 0, format_poset_text(builtin_fixture(args.name)).rstrip("\n")


_HANDLERS = {
    "validate": _cmd_validate,
    "eval": _cmd_eval,
    "height": _cmd_height,
    "prob": _cmd_prob,
    "check": _cmd_check,
    "dot": _cmd_dot,
    "fixture": _cmd_fixture,
}


def run_command(argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit status, output text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return exc.status, exc.message.rstrip("\n")
    try:
        return _HANDLERS[args.command](args, stdin_text)
    except OrdboolError as exc:
        return 1, f"error: {exc}"
    except OSError as exc:
        return 1, f"error: {exc}"


def main() -> None:
    status, output = run_command(sys.argv[1:])
    if output:
        print(output)
    sys.exit(status)
