"""Command-line front end.

Subcommands: solve, check-hopf, classify, lambda, prelie-verify, build,
selftest.  Input is a system file, a family file (header 'family ...'), '-'
for stdin, or the same text inline.  Exit status: 0 on success (Hopf,
classified, suites green), 1 on a negative verdict (not Hopf, unclassifiable,
inconsistent table, failed suite), 2 on input errors.

The structured output format is line oriented: a 'cdse-report 1' header, then
one record per line, fields separated by ' | ' where a field may contain
spaces.  Ordering is deterministic, so reports are diff-stable.
"""

import argparse
import os
import sys

from .families import (Case1, Case2, classify_single, is_family_text,
                       parse_family_text)
from .linear import forest_sum_text
from .series import EvaluationError, ParseError
from .solver import (INCONSISTENT, NotHopfCompatible, Solution,
                     SystemFormatError, check_hopf, extract_lambda,
                     parse_system_text, solve, system_text)
from .trees import TreeSyntaxError, forest_text


class InputProblem(ValueError):
    pass


_INPUT_ERRORS = (InputProblem, SystemFormatError, NotHopfCompatible,
                 ParseError, EvaluationError, TreeSyntaxError, OSError)


def _read_input(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    stripped = arg.lstrip()
    if "\n" in arg or stripped.startswith(("family", "vars")):
        return arg
    raise InputProblem(f"no such file: {arg}")


def _load_system(arg: str, strict: bool):
    text = _read_input(arg)
    if is_family_text(text):
        return parse_family_text(text)
    return parse_system_text(text, strict=strict)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------- commands

def _cmd_solve(args):
    S = _load_system(args.input, args.strict)
    sol = solve(S, args.order)
    lines = []
    if args.format == "structured":
        lines += ["cdse-report 1", "command solve",
                  f"order {args.order}", f"vars {S.nvars}"]
        for (i, n), comp in sol.generators():
            lines.append(f"component {i} {n} | {forest_sum_text(comp)}")
        lines.append("status ok")
    else:
        for (i, n), comp in sol.generators():
            lines.append(f"x_{i}({n}) = {forest_sum_text(comp)}")
        quiet = [i for i in range(1, S.nvars + 1)
                 if not any(ii == i for (ii, _), _ in sol.generators())]
        for i in quiet:
            lines.append(f"x_{i} = 0 up to order {args.order}")
    _emit(lines, args.output)
    return 0


def _cmd_check_hopf(args):
    S = _load_system(args.input, args.strict)
    rep = check_hopf(S, args.order)
    lines = []
    if args.format == "structured":
        lines += ["cdse-report 1", "command check-hopf",
                  f"order {rep.order}", f"checks {rep.checks}",
                  f"verdict {'hopf' if rep.is_hopf else 'not-hopf'}"]
        for fail in rep.failures:
            lines.append(f"failure eq {fail.eq} degree {fail.degree} "
                         f"left {fail.left_degree} pairing {fail.pairing}")
            for (a, b), x in fail.witness.items():
                lines.append(f"witness {x} | "
                             f"{forest_text(a)} | {forest_text(b)}")
    else:
        if rep.is_hopf:
            lines.append(f"Hopf to order {rep.order}: all {rep.checks} "
                         f"coproduct slices stayed in the solution span")
        else:
            lines.append(f"not Hopf: {len(rep.failures)} of {rep.checks} "
                         f"slices escaped (order {rep.order})")
            for fail in rep.failures:
                lines.append("  " + fail.describe())
                for (a, b), x in fail.witness.items():
                    lines.append(f"    witness term {x} * "
                                 f"{forest_text(a)} (x) {forest_text(b)}")
    _emit(lines, args.output)
    return 0 if rep.is_hopf else 1


def _cmd_classify(args):
    if args.order < 3:
        raise InputProblem("classify needs -N at least 3")
    S = _load_system(args.input, args.strict)
    if S.nvars != 1:
        raise InputProblem("classify handles single-equation systems")
    J = S.degrees(1, args.order)
    if not J:
        raise InputProblem("equation 1 has no operators")
    series = {q: S.op_series(1, q, args.order) for q in J}
    try:
        verdict = classify_single(J, series)
    except ValueError as exc:  # a series --permissive left unnormalized
        raise InputProblem(str(exc)) from None
    lines = []
    structured = args.format == "structured"
    if structured:
        lines += ["cdse-report 1", "command classify"]
    if isinstance(verdict, Case1):
        if structured:
            lines += ["verdict case1", f"lambda {verdict.lam}",
                      f"mu {verdict.mu}",
                      ("nonconstant "
                       + " ".join(map(str, sorted(verdict.nonconstant)))).rstrip(),
                      ("constant "
                       + " ".join(map(str, sorted(verdict.constant)))).rstrip()]
            if verdict.as_case2:
                m, alpha = verdict.as_case2
                lines.append(f"as-case2 m {m} alpha {alpha}")
        else:
            lines.append(f"first kind: lambda = {verdict.lam}, "
                         f"mu = {verdict.mu}")
            lines.append("  nonconstant degrees: "
                         + (",".join(map(str, sorted(verdict.nonconstant))) or "(none)"))
            lines.append("  constant degrees: "
                         + (",".join(map(str, sorted(verdict.constant))) or "(none)"))
            if verdict.as_case2:
                m, alpha = verdict.as_case2
                lines.append(f"  also second kind with m = {m}, "
                             f"alpha = {alpha}")
        code = 0
    elif isinstance(verdict, Case2):
        if structured:
            lines += ["verdict case2", f"m {verdict.modulus}",
                      f"alpha {verdict.alpha}"]
        else:
            lines.append(f"second kind: m = {verdict.modulus}, "
                         f"alpha = {verdict.alpha}")
        code = 0
    else:
        if structured:
            lines += ["verdict unclassifiable", f"reason {verdict.reason}"]
        else:
            lines.append(f"unclassifiable: {verdict.reason}")
        code = 1
    _emit(lines, args.output)
    return code


def _cmd_lambda(args):
    S = _load_system(args.input, args.strict)
    table = extract_lambda(S, Solution(S, args.order), args.order)
    lines = []
    structured = args.format == "structured"
    if structured:
        lines += ["cdse-report 1", "command lambda", f"order {table.order}"]
    else:
        lines.append(f"lambda table to order {table.order}")
    bad = False
    cuts = sorted({(i, key) for (i, key, _) in table.entries})
    for (i, key, n), val in table.items():
        if val == INCONSISTENT:
            bad = True
        if structured:
            lines.append(f"entry {i} | {key[0]} {key[1]} | {n} | {val}")
        else:
            lines.append(f"  i={i} cut=({key[0]},{key[1]}) n={n} : {val}")
    for i, (j, q) in cuts:
        fit = table.affine_fit(i, j, q)
        if fit is None:
            continue
        A, B = fit
        if structured:
            lines.append(f"fit {i} | {j} {q} | {A} | {B}")
        else:
            lines.append(f"  fit i={i} cut=({j},{q}) : {A} + {B}*(n-1)")
    holds, exceptions = table.q_independence()
    if structured:
        lines.append(f"qindep {'holds' if holds else 'fails'}")
        lines.append(f"status {'fail' if bad else 'ok'}")
    else:
        lines.append("q-independence: " + ("holds" if holds else
                                           f"fails at {exceptions}"))
        if bad:
            lines.append("inconsistent entries present: system is not Hopf")
    _emit(lines, args.output)
    return 1 if bad else 0


def _cmd_build(args):
    S = _load_system(args.input, args.strict)
    _emit([system_text(S).rstrip("\n")], args.output)
    return 0


# ------------------------------------------------------------ verify suites

def _cmd_suite(args):
    """prelie-verify and selftest: one record per named check."""
    # imported here so that the other subcommands do not load the suites
    from .suites import SUITES

    structured = args.format == "structured"
    lines = []
    if structured:
        lines += ["cdse-report 1", f"command {args.command}",
                  f"order {args.order}", f"seed {args.seed}"]
    ok = True
    for name, check, pool in SUITES[args.command](args.order, args.seed):
        checks, failures = check(pool)
        ok = ok and not failures
        if structured:
            lines.append(f"suite {name} | {'fail' if failures else 'pass'} | "
                         f"{checks}")
        else:
            lines.append(f"{'FAIL' if failures else 'PASS'} {name} "
                         f"({checks} checks)")
    if structured:
        lines.append(f"status {'ok' if ok else 'fail'}")
    _emit(lines, args.output)
    return 0 if ok else 1


# -------------------------------------------------------------------- main

def _add_common(p, default_order=None, suite=False):
    """A system command takes an input and --strict/--permissive, a suite
    command --seed instead; -N only where default_order is given."""
    if not suite:
        p.add_argument("input", help="system/family file, '-', or inline text")
    if default_order is not None:
        p.add_argument("-N", dest="order", type=int, default=default_order,
                       metavar="N", help=f"degree bound (default {default_order})")
    if suite:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled checks (default 0)")
    else:
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="strict", action="store_true",
                          default=True, help="reject dubious input (default)")
        mode.add_argument("--permissive", dest="strict", action="store_false",
                          help="keep dubious operators for inspection")
    p.add_argument("--format", choices=("text", "structured"), default="text",
                   help="report style (default text)")
    p.add_argument("-o", dest="output", metavar="PATH", default=None,
                   help="write the report to PATH instead of stdout")


_PARSER = None  # built by the first main() call, not at import


def _parser():
    parser = argparse.ArgumentParser(
        prog="cdse",
        description="exact engine for combinatorial Dyson-Schwinger systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="print solution components x_i(n)")
    _add_common(p, 4)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check-hopf",
                       help="test coproduct closure of the solution span")
    _add_common(p, 4)
    p.set_defaults(fn=_cmd_check_hopf)

    p = sub.add_parser("classify",
                       help="classify a single-equation system")
    _add_common(p, 6)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("lambda",
                       help="extract structure constants and affine fits")
    _add_common(p, 5)
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("prelie-verify",
                       help="run the grafting/duality property suites")
    _add_common(p, 4, suite=True)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("build",
                       help="expand a family description to system text")
    _add_common(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("selftest", help="run the structural invariant suites")
    _add_common(p, 3, suite=True)
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _parser()
    args = _PARSER.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact numbers print at any length
    if "order" in args and args.order < 1:
        print("error: -N must be at least 1", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply (Python recursion limit "
              "exceeded)", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
