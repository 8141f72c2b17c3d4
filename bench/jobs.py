"""Workload rosters: the named systems and the jobs each workload runs.

This module does not import cdse, so run.py can read the rosters
without paying for the import.  Library jobs receive the imported package.
"""

from fractions import Fraction

INTRO = """family fundamental
vertex 1 kind damped beta -1/3 degrees 1..
vertex 2 kind reduced degrees 1
vertex 3 kind damped beta 1 degrees 1
rescale 1 3
"""

# the five-kind system of tests/test_families.py::test_mixed_kinds_certify
FIVE = """family fundamental
vertex 1 kind damped beta 1 degrees 1
vertex 2 kind reduced degrees 1
vertex 3 kind scaled a 1:1,2:2 degrees 1
vertex 4 kind shifted nu 2 a 1:1 degrees 1,2
vertex 5 kind relay nu 3 a 3:1/2 degrees 1,2
"""

# the system of tests/test_families.py::test_stacked_extensions
STACK = """family fundamental
vertex 1 kind damped beta 1 degrees 1
vertex 2 kind scaled a 1:1 degrees 1
vertex 3 kind extension a 2:1 degrees 1,2
vertex 4 kind extension a 2:1 degrees 1,2
vertex 5 kind extension a 3:2,4:3 degrees 1,2,3
"""

QC3 = """family quasicyclic modulus=3
vertex 1 class 0 weight 1 children 2 degrees 1
vertex 2 class 1 weight 1 children 3 degrees 1
vertex 3 class 2 weight 1 children 1 degrees 1
"""

LADDER = "vars 1\neq 1\n  op 1 : 1 + h1\n"
SQUARE = "vars 1\neq 1\n  op 1 : (1 + h1)^2\n"
NOT_HOPF = "vars 1\neq 1\n  op 1 : 1 + h1\n  op 2 : 1 + 2*h1\n"

CASE1 = "family case1 lambda=1 mu=-1 J=1,2"
CASE2 = "family case2 m=2 alpha=-1 J=1,2,3"
CASE1_LAMBDA = "family case1 lambda=2 mu=3 J=1,2"


def five_data(cdse):
    """FIVE as FundamentalData, for the closed-form certifier."""
    V = cdse.Vertex
    F = Fraction
    return cdse.FundamentalData([
        V(1, "damped", beta=F(1), degrees=(1,)),
        V(2, "reduced", degrees=(1,)),
        V(3, "scaled", a={1: F(1), 2: F(2)}, degrees=(1,)),
        V(4, "shifted", nu=F(2), a={1: F(1)}, degrees=(1, 2)),
        V(5, "relay", nu=F(3), a={3: F(1, 2)}, degrees=(1, 2)),
    ])


def solution_text(cdse, sol):
    return "".join(f"component {i} {n} | {cdse.forest_sum_text(comp)}\n"
                   for (i, n), comp in sol.generators())


def certify_five(cdse):
    data = five_data(cdse)
    rep = cdse.check_closed_forms(cdse.build_fundamental(data), data, 5)
    return (f"ok {rep.ok}\nseries_checks {rep.series_checks}\n"
            f"lambda_checks {rep.lambda_checks}\n"
            f"gap_entries {rep.gap_entries}\n"
            f"q_independent {rep.q_independent}\n"
            f"failures {rep.failures}\n")


def oracle_intro(cdse):
    return solution_text(cdse, cdse.solve_oracle(cdse.parse_family_text(INTRO), 4))


class Job:
    """One unit of work: a CLI call (argv) or a library call (fn)."""

    def __init__(self, name, argv=None, fn=None, sampled=False):
        self.name = name
        self.argv = argv
        self.fn = fn
        self.sampled = sampled  # takes --seed; only its seed line may vary


def _cli(name, *argv, sampled=False):
    return Job(name, argv=list(argv), sampled=sampled)


def roster(workload, seed):
    """The jobs of one workload, in the order one worker runs them."""
    if workload == "hopf":
        return [
            _cli("check-hopf INTRO -N 4", "check-hopf", INTRO, "-N", "4"),
            _cli("check-hopf QC3 -N 5", "check-hopf", QC3, "-N", "5"),
            _cli("check-hopf FIVE -N 3", "check-hopf", FIVE, "-N", "3"),
            _cli("check-hopf STACK -N 3", "check-hopf", STACK, "-N", "3"),
            _cli("check-hopf NOT_HOPF -N 6", "check-hopf", NOT_HOPF, "-N", "6"),
            _cli("check-hopf SQUARE -N 8", "check-hopf", SQUARE, "-N", "8"),
            _cli("lambda INTRO -N 5", "lambda", INTRO, "-N", "5"),
            _cli("lambda FIVE -N 5", "lambda", FIVE, "-N", "5"),
            Job("check_closed_forms FIVE 5", fn=certify_five),
        ]
    if workload == "solve":
        return [
            _cli("solve LADDER -N 14", "solve", LADDER, "-N", "14"),
            _cli("solve FIVE -N 6", "solve", FIVE, "-N", "6"),
            _cli("solve STACK -N 5", "solve", STACK, "-N", "5"),
            _cli("solve INTRO -N 5", "solve", INTRO, "-N", "5"),
            Job("solve_oracle INTRO 4", fn=oracle_intro),
        ]
    if workload == "suites":
        s = str(seed)
        return [
            _cli("prelie-verify -N 4", "prelie-verify", "-N", "4",
                 "--seed", s, sampled=True),
            _cli("selftest -N 3", "selftest", "-N", "3", "--seed", s,
                 sampled=True),
            _cli("classify CASE1 -N 8", "classify", CASE1, "-N", "8"),
            _cli("classify CASE2 -N 8", "classify", CASE2, "-N", "8"),
            _cli("build INTRO", "build", INTRO),
            _cli("lambda CASE1_LAMBDA -N 7", "lambda", CASE1_LAMBDA, "-N", "7"),
        ]
    raise KeyError(workload)


WORKLOADS = ("hopf", "solve", "suites")
