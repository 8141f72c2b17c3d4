"""End-to-end command runs, in process, with captured output."""

import argparse
import gc
import io
import os
import subprocess
import sys

import pytest

import cdse.cli
import cdse.trees
from cdse import suites
from cdse.cli import main
from cdse.families import build_case1
from cdse.linear import TensorSum
from cdse.solver import parse_system_text
from cdse.trees import EMPTY_FOREST

SQUARE = "vars 1\neq 1\n  op 1 : (1 + h1)^2\n"
NOT_HOPF = "vars 1\neq 1\n  op 1 : 1 + h1\n  op 2 : 1 + 2*h1\n"
INTRO_FAMILY = """family fundamental
vertex 1 kind damped beta -1/3 degrees 1..
vertex 2 kind reduced degrees 1
vertex 3 kind damped beta 1 degrees 1
rescale 1 3
"""


def run(capsys, *argv):
    code = main(list(argv))
    got = capsys.readouterr()
    return code, got.out, got.err


def test_the_parser_is_built_once(monkeypatch, capsys):
    """main builds its parser, the top one and 7 subcommand parsers, on the
    first call and reuses it; importing cdse.cli builds none."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.setattr(cdse.cli, "_PARSER", None)
    assert run(capsys, "build", SQUARE)[0] == 0
    assert run(capsys, "solve", SQUARE, "-N", "2", "--format", "structured")[0] == 0
    code, out, _ = run(capsys, "solve", SQUARE, "-N", "2")
    assert code == 0 and out.startswith("x_1(1) = ")
    assert len(built) == 8
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    code = ("import argparse, sys; sys.path.insert(0, sys.argv[1]); "
            "built = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
            "import cdse.cli; print(len(built))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


# ----------------------------------------------------------------- solve

def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", SQUARE, "-N", "3")
    assert code == 0
    assert "x_1(1) = 1 * (1.1:)" in out
    assert "x_1(2) = 2 * (1.1: (1.1:))" in out
    assert "x_1(3) = " in out


def test_solve_family_input(capsys):
    code, out, _ = run(capsys, "solve", INTRO_FAMILY, "-N", "2")
    assert code == 0
    assert "x_1(2) = 3 * (1.1: (1.1:))" in out


def test_solve_structured(capsys):
    code, out, _ = run(capsys, "solve", SQUARE, "-N", "2",
                       "--format", "structured")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cdse-report 1"
    assert lines[1] == "command solve"
    assert "component 1 1 | 1 * (1.1:)" in lines
    assert lines[-1] == "status ok"


def test_solve_reports_quiet_variables(capsys):
    code, out, _ = run(capsys, "solve", "vars 2\neq 1\n  op 1 : 1 + h1\neq 2\n",
                       "-N", "3")
    assert code == 0
    assert "x_2 = 0 up to order 3" in out


def test_solve_permissive_keeps_zero_solution(capsys):
    bad = "vars 1\neq 1\n  op 1 : h1\n"
    code, _, err = run(capsys, "solve", bad, "-N", "3")
    assert code == 2 and "error:" in err
    code, out, _ = run(capsys, "solve", bad, "-N", "3", "--permissive")
    assert code == 0
    assert "x_1 = 0 up to order 3" in out


# ------------------------------------------------------------- check-hopf

def test_check_hopf_passes(capsys):
    code, out, _ = run(capsys, "check-hopf", SQUARE, "-N", "4")
    assert code == 0
    assert "Hopf to order 4" in out


def test_check_hopf_fails_with_witness(capsys):
    code, out, _ = run(capsys, "check-hopf", NOT_HOPF, "-N", "3")
    assert code == 1
    assert "not Hopf" in out
    assert "witness term" in out


def test_check_hopf_structured(capsys):
    code, out, _ = run(capsys, "check-hopf", NOT_HOPF, "-N", "3",
                       "--format", "structured")
    assert code == 1
    lines = out.splitlines()
    assert "verdict not-hopf" in lines
    assert any(line.startswith("failure eq 1 degree 3") for line in lines)
    assert any(line.startswith("witness ") for line in lines)


# --------------------------------------------------------------- classify

def test_classify_power_shape(capsys):
    code, out, _ = run(capsys, "classify",
                       "family case1 lambda=1 mu=-1 J=1,2\n")
    assert code == 0
    assert "first kind: lambda = 1, mu = -1" in out


def test_classify_reports_affine_reading(capsys):
    code, out, _ = run(capsys, "classify", "family case1 lambda=0 mu=1 J=1\n")
    assert code == 0
    assert "also second kind with m = 1, alpha = -1" in out


def test_classify_gated_shape_structured(capsys):
    code, out, _ = run(capsys, "classify",
                       "family case2 m=2 alpha=-1 J=1,2,3\n",
                       "--format", "structured")
    assert code == 0
    lines = out.splitlines()
    assert "verdict case2" in lines
    assert "m 2" in lines and "alpha -1" in lines


def test_classify_unclassifiable(capsys):
    code, out, _ = run(capsys, "classify",
                       "vars 1\neq 1\n  op 1 : 1 + h1 + h1^3\n")
    assert code == 1
    assert "unclassifiable:" in out


def test_classify_input_errors(capsys):
    code, _, err = run(capsys, "classify", SQUARE, "-N", "2")
    assert code == 2 and "at least 3" in err
    two = "vars 2\neq 1\n  op 1 : 1 + h1\neq 2\n  op 1 : 1 + h2\n"
    code, _, err = run(capsys, "classify", two)
    assert code == 2 and "single-equation" in err
    code, _, err = run(capsys, "classify", "vars 1\neq 1\n  op 1 : h1 + h1^2\n",
                       "--permissive")
    assert (code, err) == (
        2, "error: degree 1: series not normalized (constant term 0)\n")


# ----------------------------------------------------------------- lambda

def test_lambda_text(capsys):
    code, out, _ = run(capsys, "lambda", SQUARE, "-N", "4")
    assert code == 0
    assert "i=1 cut=(1,1) n=2 : 3" in out
    assert "fit i=1 cut=(1,1) : 2 + 1*(n-1)" in out
    assert "q-independence: holds" in out


def test_lambda_structured(capsys):
    code, out, _ = run(capsys, "lambda", SQUARE, "-N", "4",
                       "--format", "structured")
    assert code == 0
    lines = out.splitlines()
    assert "entry 1 | 1 1 | 2 | 3" in lines
    assert "fit 1 | 1 1 | 2 | 1" in lines
    assert "qindep holds" in lines
    assert lines[-1] == "status ok"


def test_lambda_flags_inconsistency(capsys):
    code, out, _ = run(capsys, "lambda", NOT_HOPF, "-N", "3")
    assert code == 1
    assert "inconsistent" in out


# ------------------------------------------------------------------ build

def test_build_expands_a_family(capsys):
    code, out, _ = run(capsys, "build", "family case1 lambda=1 mu=-1 J=1,2\n")
    assert code == 0
    assert parse_system_text(out) == build_case1({1, 2}, 1, -1)


def test_build_rejects_a_zero_rescaling(capsys):
    text = INTRO_FAMILY.replace("rescale 1 3", "rescale 1 0")
    code, out, err = run(capsys, "build", text)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "variable 1" in err


def test_build_normalizes_system_text(capsys):
    code, out, _ = run(capsys, "build", SQUARE)
    assert code == 0
    assert out.startswith("vars 1")


def test_operator_of_degree_nine_is_not_zero(capsys):
    # h1^9 vanishes to depth 8; its constant term 0 must still be rejected
    code, out, err = run(capsys, "solve", "vars 1\neq 1\n  op 1 : h1^9\n",
                         "-N", "3")
    assert (code, out) == (2, "")
    assert "constant term 0" in err


def test_build_keeps_duplicates_that_differ_in_degree_nine(capsys):
    text = "vars 1\neq 1\n  op 1 : 1 + h1\n  op 1 : 1 + h1 + h1^9\n"
    code, out, err = run(capsys, "build", text)
    assert (code, out) == (2, "")
    assert "different series" in err
    code, out, _ = run(capsys, "build", text, "--permissive")
    assert code == 0 and "h1^9" in out


# ------------------------------------------------------------ verify suites

def test_prelie_verify(capsys):
    code, out, _ = run(capsys, "prelie-verify", "-N", "2")
    assert code == 0
    for name in ("pre-lie-identity", "grafting-closed-vs-recursive",
                 "composition-coproduct-duality", "tree-to-word-morphism",
                 "word-closed-vs-recursive", "weighted-solution-two-routes"):
        assert f"PASS {name}" in out


def test_prelie_verify_structured(capsys):
    code, out, _ = run(capsys, "prelie-verify", "-N", "2",
                       "--format", "structured")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cdse-report 1"
    assert any(line.startswith("suite pre-lie-identity | pass") for line in lines)
    assert lines[-1] == "status ok"


def test_prelie_verify_pool_sizes(capsys):
    names = ("pre-lie-identity", "grafting-closed-vs-recursive",
             "composition-coproduct-duality", "tree-to-word-morphism",
             "word-closed-vs-recursive", "weighted-solution-two-routes")
    for order, counts in ((1, (8, 4, 0, 12, 15, 4)),
                          (2, (56, 32, 28, 96, 45, 6)),
                          (4, (320, 400, 17127, 1200, 240, 10)),
                          (6, (320, 400, 17127, 1200, 240, 10))):
        code, out, _ = run(capsys, "prelie-verify", "-N", str(order),
                           "--seed", "0", "--format", "structured")
        assert code == 0
        assert out.splitlines() == [
            "cdse-report 1",
            "command prelie-verify",
            f"order {order}",
            "seed 0",
            *(f"suite {name} | pass | {n}" for name, n in zip(names, counts)),
            "status ok",
        ]


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest", "-N", "2")
    assert code == 0
    for name in ("coassociativity", "counit", "coproduct-multiplicativity",
                 "cocycle-identity", "coproduct-grading", "solver-two-routes",
                 "hopf-smoke"):
        assert f"PASS {name}" in out


def test_selftest_pool_sizes(capsys):
    names = ("coassociativity", "counit", "coproduct-multiplicativity",
             "cocycle-identity", "coproduct-grading", "solver-two-routes",
             "hopf-smoke")
    for order, counts in ((1, (9, 9, 4, 9, 9, 4, 6)),
                          (2, (21, 21, 32, 21, 21, 4, 6)),
                          (3, (47, 47, 185, 47, 47, 4, 6)),
                          (4, (47, 47, 185, 47, 47, 4, 6))):
        code, out, _ = run(capsys, "selftest", "-N", str(order),
                           "--seed", "0", "--format", "structured")
        assert code == 0
        assert out.splitlines() == [
            "cdse-report 1",
            "command selftest",
            f"order {order}",
            "seed 0",
            *(f"suite {name} | pass | {n}" for name, n in zip(names, counts)),
            "status ok",
        ]


def test_selftest_fails_on_a_broken_coproduct(capsys, monkeypatch):
    real = suites.forest_coproduct

    def drops_a_term(f):
        delta = real(f)
        if f.degree < 2:
            return delta
        return TensorSum({k: c for k, c in delta.terms.items()
                          if k != (f, EMPTY_FOREST)})

    monkeypatch.setattr(suites, "forest_coproduct", drops_a_term)
    code, out, _ = run(capsys, "selftest", "--format", "structured")
    lines = out.splitlines()
    assert code == 1
    assert lines[-1] == "status fail"
    assert any(line.startswith("suite coassociativity | fail |")
               for line in lines)


@pytest.mark.parametrize("command", ["selftest", "prelie-verify"])
def test_selftest_leaves_no_tree_alive(capsys, command):
    # every memo is scoped to the call that fills it, so the trees the
    # suites build die with them even while the cyclic collector is off
    def live():
        return sum(len(table) for table in cdse.trees._TREES.values())

    gc.collect()
    gc.disable()
    try:
        before = live()
        assert run(capsys, command, "-N", "3")[0] == 0
        assert live() == before
    finally:
        gc.enable()


def test_prelie_verify_fails_on_a_broken_recursion(capsys, monkeypatch):
    real = suites.circ_recursive
    monkeypatch.setattr(suites, "circ_recursive",
                        lambda a, b: real(a, b).scale(2))
    code, out, _ = run(capsys, "prelie-verify", "-N", "2")
    assert code == 1
    assert "FAIL grafting-closed-vs-recursive" in out
    assert "PASS pre-lie-identity" in out


# ---------------------------------------------------------- input plumbing

def test_file_input_and_output(tmp_path, capsys):
    src = tmp_path / "square.sdse"
    src.write_text(SQUARE)
    dst = tmp_path / "report.txt"
    code, out, _ = run(capsys, "solve", str(src), "-N", "2", "-o", str(dst))
    assert code == 0
    assert out == ""
    assert "x_1(1) = 1 * (1.1:)" in dst.read_text()


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(SQUARE))
    code, out, _ = run(capsys, "solve", "-", "-N", "2")
    assert code == 0
    assert "x_1(1)" in out


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "solve", "no-such-file.sdse")
    assert code == 2
    assert "no such file" in err


def test_malformed_system_is_an_input_error(capsys):
    code, _, err = run(capsys, "solve", "vars 1\neq 2\n  op 1 : 1 + h1\n")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text, N, message", [
    ("op 1 : log(h1)\n", "3", "operator (1,1): log needs constant term 1"),
    ("op 1 : log(h1)\n  op 1 : log(h1)\n", "3",
     "operator (1,1): log needs constant term 1"),
    ("ops 1.. : q - 9 + h1\n", "9",
     "operator (1,9): negative power needs a nonzero constant term"),
    ("ops 2.. : log(h1)\n", "3",
     "family (eq 1) at q = 2: log needs constant term 1"),
    ("ops 1.. : log(q + h1)\n", "3",
     "family (eq 1) at q = 2: irrational constant log value"),
    ("op 1 : 1/0 + h1\n", "3",
     "line 3: zero denominator in '1/0' in '1/0 + h1'"),
], ids=["op", "duplicate-op", "family-op", "family-sample", "family-constant",
        "zero-denominator"])
def test_evaluation_errors_name_their_operator(capsys, text, N, message):
    code, out, err = run(capsys, "solve", f"vars 1\neq 1\n  {text}", "-N", N)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# degenerate or malformed operators: no command may raise on them, in
# either mode, and a refusal is one error line
BAD_INPUTS = {
    "zero-denominator": "op 1 : 1/0 + h1\n",
    "constant-0-op": "op 1 : h1 + h1^2\n",
    "constant-0-duplicate": "op 1 : h1\n  op 1 : h1\n",
    "constant-0-family": "ops 1.. : h1^q\n",
    "constant-0-at-q-3": "ops 1.. : q - 3 + h1\n",
    "family-constant": "ops 1.. : log(q + h1)\n",
    "out-of-range": "op 1 : 1 + h2\n",
    "irrational": "op 1 : (1 + h1)^(2^(1/2))\n",
}


@pytest.mark.parametrize("text", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_exits_with_a_code_or_one_error_line(capsys, text):
    for command in ("solve", "check-hopf", "classify", "lambda", "build"):
        for mode in ("--strict", "--permissive"):
            code, _, err = run(capsys, command, f"vars 1\neq 1\n  {text}",
                               mode)
            assert code in (0, 1, 2), (command, mode)
            if code == 2:
                assert err.startswith("error:") and err.count("\n") == 1, \
                    (command, mode, err)


def test_deep_nesting_is_an_input_error(capsys):
    deep = "(" * 3000 + "1 + h1" + ")" * 3000
    code, out, err = run(capsys, "solve", f"vars 1\neq 1\n  op 1 : {deep}\n",
                         "-N", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "recursion" in err


# a flat sum is long but not nested: its walks need no recursion
LONG_SUM = " + ".join(["h1"] * 3000 + ["1/2*h1^2"] * 3000)
LONG_SYSTEM = f"vars 1\neq 1\n  op 1 : 1 + {LONG_SUM}\n  op 2 : 1 + {LONG_SUM}\n"


@pytest.mark.parametrize("command, code", [
    ("solve", 0), ("check-hopf", 1), ("lambda", 1), ("classify", 1),
    ("build", 0),
])
def test_long_operators_run_through_every_command(tmp_path, capsys, command,
                                                  code):
    path = tmp_path / "long.sdse"
    path.write_text(LONG_SYSTEM)
    got, out, err = run(capsys, command, str(path))
    assert (got, err) == (code, "")
    assert out


def test_a_330_term_operator_solves(capsys):
    code, out, err = run(capsys, "solve", "vars 1\neq 1\n  op 1 : 1 + "
                         + " + ".join(["h1"] * 330) + "\n", "-N", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "x_1(2) = 330 * (1.1: (1.1:))"


# superscript digits pass str.isdigit but not int(); the ASCII messages pin
# that reading through str.isdecimal kept them
@pytest.mark.parametrize("text, message", [
    ("vars ²\n", "line 1: bad equation count '²'"),
    ("vars 1\neq ²\n", "line 2: bad equation index '²'"),
    ("vars 1\neq 1\n  op ² : 1 + h1\n", "line 3: bad operator degree '²'"),
    ("vars 1\neq 1\n  ops ².. : 1 + h1\n",
     "line 3: bad family range '²..' (want 'q0..')"),
    ("vars 0\n", "line 1: bad equation count '0'"),
    ("vars 1\neq x\n", "line 2: bad equation index 'x'"),
    ("vars 1\neq 1\n  op 0 : 1 + h1\n", "line 3: bad operator degree '0'"),
    ("vars 1\neq 1\n  ops 1 : 1 + h1\n",
     "line 3: bad family range '1' (want 'q0..')"),
    ("vars 1\neq 1\n  ops x.. : 1 + h1\n",
     "line 3: bad family range 'x..' (want 'q0..')"),
])
def test_system_numbers_are_plain_decimals(capsys, text, message):
    code, out, err = run(capsys, "build", text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_5000_digit_literal_is_read_and_printed(capsys):
    digits = "9" * 5000
    code, out, err = run(capsys, "solve", f"vars 1\neq 1\n  op 1 : 1 + {digits}*h1\n",
                         "-N", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"x_1(2) = {digits} * (1.1: (1.1:))"


def test_a_coefficient_of_4395_digits_prints(capsys):
    # x_1(5) = 7^-5200 on the ladder: past Python's default limit of 4,300
    # digits for int/str conversion
    code, out, err = run(capsys, "solve", "vars 1\neq 1\n  op 1 : 1 + 1/7^1300*h1\n",
                         "-N", "5")
    assert (code, err) == (0, "")
    last = out.splitlines()[-1]
    denominator = last.split(" = 1/", 1)[1].split(" ", 1)[0]
    assert len(denominator) == 4395
    assert int(denominator) == 7 ** 5200
    assert last.endswith(" * (1.1: (1.1: (1.1: (1.1: (1.1:)))))")


def test_deep_ladder_solution_prints(capsys):
    N = 1500
    code, out, err = run(capsys, "solve", "vars 1\neq 1\n  op 1 : 1 + h1\n",
                         "-N", str(N))
    assert (code, err) == (0, "")
    last = out.splitlines()[-1]
    assert last.startswith(f"x_1({N}) = 1 * (1.1: (1.1:")
    assert last.endswith(")" * N)


def test_deep_two_equation_solution_prints(capsys):
    # two equal-degree trees per degree that differ only at the bottom: the
    # solver sorts them, so their order must not recurse once per level
    N = 600
    code, out, err = run(capsys, "solve", "vars 2\neq 1\n  op 1 : 1 + h1 + h2\n"
                         "eq 2\n  op 1 : 1\n", "-N", str(N))
    assert (code, err) == (0, "")
    top = out.splitlines()[N - 1]
    assert top.startswith(f"x_1({N}) = 1 * (1.1: (1.1:")
    assert top.count(" + ") == 1 and top.endswith("(2.1:" + ")" * N)


def test_deep_ladder_lambda_table_prints(capsys):
    # a 1000-level ladder: its leaf-cut tables are built without recursion
    N = 1000
    code, out, err = run(capsys, "lambda", "vars 1\neq 1\n  op 1 : 1 + h1\n",
                         "-N", str(N))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[N - 1] == f"  i=1 cut=(1,1) n={N - 1} : 1"
    assert lines[N] == "  fit i=1 cut=(1,1) : 1 + 0*(n-1)"


def test_exhausted_memory_is_an_input_error(capsys, monkeypatch):
    def exhausts(S, N):
        raise MemoryError

    monkeypatch.setattr("cdse.cli.solve", exhausts)
    code, out, err = run(capsys, "solve", SQUARE, "-N", "2")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_order_must_be_positive(capsys):
    code, _, err = run(capsys, "solve", SQUARE, "-N", "0")
    assert code == 2
    assert "at least 1" in err


@pytest.mark.parametrize("argv", [
    ["prelie-verify", "-N", "0"],
    ["selftest", "-N", "0"],
])
def test_suite_order_must_be_positive(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "at least 1" in err


@pytest.mark.parametrize("argv", [
    [cmd, SQUARE, "--seed", "1"]
    for cmd in ("solve", "check-hopf", "classify", "lambda", "build")
] + [
    ["build", SQUARE, "-N", "3"],
    ["prelie-verify", "--strict"],
    ["selftest", "--permissive"],
])
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
