"""Systems: parsing, normalization, solving, Hopf checks, structure constants."""

import gc
import os
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cdse import (
    Decoration,
    ForestSum,
    NotHopfCompatible,
    SDSE,
    Tree,
    SystemFormatError,
    check_hopf,
    coproduct,
    extract_lambda,
    graft_operator,
    ladder,
    leaf,
    normalize,
    parse_expr,
    parse_system_text,
    rescale_variable,
    single,
    slice_coordinates,
    solve,
    solve_oracle,
    substitute,
    system_text,
    tensor,
    tensor_pairing,
    truncate_at_1,
    verify_coefficient_ladder,
)
import cdse.linalg
import cdse.solver
import cdse.trees
from cdse.families import (
    CycleVertex,
    FundamentalData,
    QuasiCyclicData,
    Vertex,
    build_case1,
    build_case2,
    build_fundamental,
    build_quasicyclic,
    is_family_text,
    parse_family_text,
)
from cdse.prelie import graft
from cdse.solver import (INCONSISTENT, VACUOUS, _leaf_cut_table, _slices,
                         _Span)
from cdse.trees import _fill_tables

from helpers import (component_monomials, dense_hopf_failures, dense_rref,
                     dense_slice_coordinates, lambda_by_coproduct,
                     lambda_by_surgery, leaf_removals, trees_up_to)

# the benchmark's named systems and rosters
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "bench"))
import jobs  # noqa: E402

F = Fraction


def sq(text, strict=True):
    return parse_system_text(text, strict)


SQUARE = "vars 1\neq 1\n  op 1 : (1 + h1)^2\n"
NOT_HOPF = "vars 1\neq 1\n  op 1 : 1 + h1\n  op 2 : 1 + 2*h1\n"
TWO_NOT_HOPF = ("vars 2\neq 1\n  op 1 : 1 + h2\n"
                "eq 2\n  op 1 : 1 + h1^2\n  op 2 : 1 + 3*h1\n")

# hand-made systems of one to three equations, none of them Hopf
NOT_HOPF_SYSTEMS = {
    "NOT_HOPF": NOT_HOPF,
    "TWO_NOT_HOPF": TWO_NOT_HOPF,
    "quadratic": "vars 1\neq 1\n  op 1 : 1 + h1 + h1^2\n  op 2 : 1 + h1\n",
    "cubed": "vars 1\neq 1\n  op 1 : (1 + h1)^3\n  op 2 : (1 + h1)^2\n",
    "gap": "vars 1\neq 1\n  op 1 : 1 + 2*h1 - h1^2\n  op 3 : 1 + h1\n",
    "two-kinds": ("vars 2\neq 1\n  op 1 : 1 + h1 + h2\n"
                  "eq 2\n  op 1 : 1 + 2*h1\n  op 3 : 1 + h2\n"),
    "mixed": ("vars 2\neq 1\n  op 1 : 1 + h1*h2\n"
              "eq 2\n  op 1 : (1 + h1)^2\n  op 2 : 1 + h1\n"),
    "three": ("vars 3\neq 1\n  op 1 : 1 + h2\neq 2\n  op 1 : 1 + h3 + h1\n"
              "eq 3\n  op 1 : 1 + h1^2\n  op 2 : 1 + h2\n"),
}


def load(text):
    return parse_family_text(text) if is_family_text(text) else sq(text)


def intro_system():
    data = FundamentalData([
        Vertex(1, "damped", beta=F(-1, 3), degrees=(), all_from=1),
        Vertex(2, "reduced", degrees=(1,)),
        Vertex(3, "damped", beta=F(1), degrees=(1,)),
    ])
    return rescale_variable(build_fundamental(data), 1, 3)


# the five-kind, stacked-extension and three-cycle systems of test_families.py

def five_kinds():
    return build_fundamental(FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "reduced", degrees=(1,)),
        Vertex(3, "scaled", a={1: F(1), 2: F(2)}, degrees=(1,)),
        Vertex(4, "shifted", nu=F(2), a={1: F(1)}, degrees=(1, 2)),
        Vertex(5, "relay", nu=F(3), a={3: F(1, 2)}, degrees=(1, 2)),
    ]))


def stacked_extensions():
    return build_fundamental(FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "scaled", a={1: F(1)}, degrees=(1,)),
        Vertex(3, "extension", a={2: F(1)}, degrees=(1, 2)),
        Vertex(4, "extension", a={2: F(1)}, degrees=(1, 2)),
        Vertex(5, "extension", a={3: F(2), 4: F(3)}, degrees=(1, 2, 3)),
    ]))


def three_cycle():
    return build_quasicyclic(QuasiCyclicData(3, [
        CycleVertex(1, 0, F(1), (2,), (1,)),
        CycleVertex(2, 1, F(1), (3,), (1,)),
        CycleVertex(3, 2, F(1), (1,), (1,)),
    ]))


LADDER = "vars 1\neq 1\n  op 1 : 1 + h1\n"


# ----------------------------------------------------- parsing and normalize

def test_parse_and_round_trip():
    S = sq(SQUARE)
    assert S.nvars == 1 and S.degrees(1, 5) == [1]
    assert parse_system_text(system_text(S)) == S


def test_round_trip_parametric_family():
    text = ("vars 2\neq 1\n  ops 2.. : (1 + h1)^q * (1 - h2)^(-q)\n"
            "eq 2\n  op 1 : 1 + h1\n")
    S = sq(text)
    assert S.degrees(1, 5) == [2, 3, 4, 5]
    assert parse_system_text(system_text(S)) == S


def test_normalize_drops_zero_series():
    S = sq("vars 1\neq 1\n  op 1 : 1 + h1\n  op 2 : 0\n")
    assert S.degrees(1, 5) == [1]


def test_normalize_rescales_nonunit_constant():
    S = sq("vars 1\neq 1\n  op 1 : 2 + 2*h1\n")
    assert S.op_series(1, 1, 3) == parse_system_text(SQUARE.replace("^2", "")
                                                     ).op_series(1, 1, 3)
    assert any("rescaled" in note for note in S.notes)


def test_normalize_zero_constant_term():
    bad = "vars 1\neq 1\n  op 1 : h1\n"
    with pytest.raises(NotHopfCompatible):
        sq(bad)
    S = sq(bad, strict=False)
    assert any("non-normalizable" in note for note in S.notes)
    # the permissive solution collapses: every component is zero
    sol = solve(S, 3)
    assert all(not sol.component(1, n) for n in (1, 2, 3))


def test_polynomial_zeroness_at_its_exact_degree():
    """h1^9 vanishes to INSPECT_DEPTH 8 but is not zero."""
    text = "vars 1\neq 1\n  op 1 : h1^9\n"
    with pytest.raises(NotHopfCompatible, match="constant term 0"):
        sq(text)
    assert any("non-normalizable" in note for note in sq(text, strict=False).notes)


def test_polynomial_duplicates_compared_at_their_exact_degree():
    text = "vars 1\neq 1\n  op 1 : 1 + h1\n  op 1 : 1 + h1 + h1^9\n"
    with pytest.raises(NotHopfCompatible):
        sq(text)
    summed = sq(text, strict=False)
    assert summed.op_series(1, 1, 9).coeff(9) == F(1, 2)
    # equal polynomials of degree above 8 still merge
    same = sq("vars 1\neq 1\n  op 1 : 1 + h1^9\n  op 1 : (1 + h1^9)\n")
    assert any("merged" in note for note in same.notes)


def test_merge_same_degree_operators():
    dup = "vars 1\neq 1\n  op 1 : 1 + h1\n  op 1 : 1 + h1\n"
    S = sq(dup)
    assert S.degrees(1, 3) == [1]
    clash = "vars 1\neq 1\n  op 1 : 1 + h1\n  op 1 : 1 + 2*h1\n"
    with pytest.raises(NotHopfCompatible):
        sq(clash)
    # permissive mode sums the clash, then renormalizes the constant term
    merged = sq(clash, strict=False)
    assert merged.op_series(1, 1, 2).coeff(1) == F(3, 2)
    assert any("summed" in note for note in merged.notes)


@pytest.mark.parametrize("text", [
    "vars 0\n",
    "eq 1\n  op 1 : 1 + h1\n",
    "vars 1\neq 2\n  op 1 : 1\n",
    "vars 1\neq 1\n  op 0 : 1 + h1\n",
    "vars 1\neq 1\n  op 1 = 1 + h1\n",
    "vars 1\n hello\n",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(SystemFormatError):
        parse_system_text(text)


def test_comments_and_blank_lines_are_skipped():
    S = sq("# a comment\nvars 1\n\neq 1\n  # inner\n  op 1 : (1 + h1)^2\n")
    assert S == sq(SQUARE)


# ---------------------------------------------------------------- solving

def test_square_equation_first_components():
    sol = solve(sq(SQUARE), 3)
    a = leaf(1)
    cherry = Tree(Decoration(1, 1), (a, a))
    assert sol.component(1, 1) == ForestSum.of_tree(a)
    assert sol.component(1, 2) == ForestSum.of_tree(ladder((1, 1), (1, 1)), 2)
    assert sol.component(1, 3) == (
        ForestSum.of_tree(ladder((1, 1), (1, 1), (1, 1)), 4)
        + ForestSum.of_tree(cherry))


def test_solve_equals_oracle():
    systems = [
        sq(SQUARE),
        sq(NOT_HOPF, strict=False),
        build_case1({1}, F(2), F(3)),
        build_case2({1, 2, 3}, 2, F(-1)),
        intro_system(),
        five_kinds(),
        stacked_extensions(),
        three_cycle(),
        sq(LADDER),
    ]
    for S in systems:
        a, b = solve(S, 5), solve_oracle(S, 5)
        for i in range(1, S.nvars + 1):
            for n in range(1, 6):
                assert a.component(i, n) == b.component(i, n)


def test_ladder_system_solves_deep():
    sol = solve(sq(LADDER), 200)
    for n in range(1, 201):
        assert sol.component(1, n) == ForestSum.of_tree(ladder(*[(1, 1)] * n))


def test_dropped_results_leave_no_tree_alive():
    # solve and check_hopf keep no reference cycle and no memo outlives the
    # call, so the trees of a result die with it even while the cyclic
    # collector is off and no cache is cleared; operator degrees
    # 11 and 13 keep these trees apart from every other test's
    S = sq("vars 2\neq 1\n  op 11 : (1 + h2)^2\n"
           "eq 2\n  op 13 : 1 + h1 + h2\n")

    def tree_refs(sol):
        refs = [weakref.ref(t) for comp in sol.components.values()
                for f in comp.terms for t in f]
        assert len(refs) > 20
        return refs

    def alive(refs):
        return [r() for r in refs if r() is not None]

    gc.collect()
    gc.disable()
    try:
        sol = solve(S, 60)
        refs = tree_refs(sol)
        del sol
        assert alive(refs) == []
        rep = check_hopf(S, 50)
        refs = tree_refs(rep.solution)
        del rep
        assert alive(refs) == []
    finally:
        gc.enable()


def test_lambda_leaves_no_tree_alive(monkeypatch):
    # extract_lambda's leaf-cut tables are scoped to the call, so every tree
    # that solve and extract_lambda build dies with their results while the
    # cyclic collector is off; the cuts leave eq-2 leaves, which no solution
    # tree has, and degrees 7 and 9 keep these trees apart from other tests'
    S = sq("vars 2\neq 1\n  op 7 : (1 + h2)^2\neq 2\n  op 9 : h1\n",
           strict=False)
    built = []

    def remember(*args):
        t = Tree(*args)
        built.append(weakref.ref(t))
        return t

    monkeypatch.setattr(cdse.solver, "Tree", remember)
    gc.collect()
    gc.disable()
    try:
        sol = solve(S, 60)
        solved = len(built)
        table = extract_lambda(S, sol, 60)
        assert solved > 10 and len(built) > solved
        del sol, table
        assert [r() for r in built if r() is not None] == []
    finally:
        gc.enable()


def test_grafting_leaves_no_tree_alive():
    # the pre-Lie rebuild keeps no reference cycle either, so a grafted tree
    # dies with the product while the cyclic collector is off; degrees 17
    # and 19 keep these trees apart from every other test's
    gc.collect()
    gc.disable()
    try:
        t = Tree(Decoration(1, 17), (leaf(2, 19),))
        ref = weakref.ref(t)
        product = graft(t, ladder((2, 19), (1, 17)))
        assert len(product.terms) == 2
        del product, t
        assert ref() is None
    finally:
        gc.enable()


def test_five_kinds_tree_count():
    sol = solve(five_kinds(), 7)
    assert sum(len(comp.terms) for comp in sol.components.values()) == 5434


def test_solve_does_not_enumerate_trees(monkeypatch):
    def refuse(*args):
        raise AssertionError("solve enumerated trees")

    monkeypatch.setattr(cdse.trees, "_trees_table", refuse)
    solve(intro_system(), 5)
    solve(sq(SQUARE), 6)


def test_fixed_point_property():
    S = intro_system()
    N = 4
    sol = solve(S, N)
    x = {j: sum((sol.component(j, n) for n in range(1, N + 1)),
                ForestSum.zero())
         for j in range(1, S.nvars + 1)}
    for i in range(1, S.nvars + 1):
        rhs = ForestSum.zero()
        for q in S.degrees(i, N):
            arg = substitute(S.op_series(i, q, N - q), x, N - q)
            rhs = rhs + graft_operator((i, q), arg)
        assert rhs.truncate(N) == x[i]


def test_degree_one_components_are_single_roots():
    S = sq("vars 2\neq 1\n  op 1 : 1 + h2\n  op 2 : 1\neq 2\n  op 3 : 1 + h1\n")
    sol = solve(S, 1)
    assert sol.component(1, 1) == ForestSum.of_tree(leaf(1))
    assert sol.component(2, 1) == ForestSum.zero()  # smallest operator is B_3


def test_equation_without_operators_solves_to_zero():
    S = sq("vars 2\neq 1\n  op 1 : 1 + h2\n")
    sol = solve(S, 3)
    assert all(not sol.component(2, n) for n in (1, 2, 3))
    assert sol.component(1, 2) == ForestSum.zero()  # h2 never grows


def test_coefficient_accessor():
    sol = solve(sq(SQUARE), 3)
    assert sol.coefficient(ladder((1, 1), (1, 1))) == 2
    assert sol.coefficient(ladder((1, 1), (1, 1), (1, 1))) == 4


def test_component_monomials_cover_products():
    sol = solve(sq(SQUARE), 3)
    labels = {lab for lab, _ in component_monomials(sol, 2)}
    assert labels == {((1, 2),), ((1, 1), (1, 1))}


# --------------------------------------------------------------- Hopf test

def test_square_equation_is_hopf_to_5():
    rep = check_hopf(sq(SQUARE), 5)
    assert rep.is_hopf and not rep.failures and rep.checks > 0


def test_two_operator_case2_shape_is_hopf():
    S = sq("vars 1\neq 1\n  op 2 : 1 + h1\n  op 3 : 1\n")
    assert check_hopf(S, 4).is_hopf


def assert_certified(rep):
    """Every failure's functional pairs to its pairing with the slice and
    vanishes on every monomial tensor of that bidegree."""
    sol = rep.solution
    for fail in rep.failures:
        k, m = fail.left_degree, fail.degree - fail.left_degree
        slice_ = coproduct(sol.component(fail.eq, fail.degree)).bidegree(k, m)
        applied = sum((w * slice_.terms.get(fg, F(0))
                       for fg, w in fail.witness.items()), F(0))
        assert applied == fail.pairing != 0
        for _, u in component_monomials(sol, k):
            for _, v in component_monomials(sol, m):
                prod = tensor(u, v)
                assert sum((w * prod.terms.get(fg, F(0))
                            for fg, w in fail.witness.items()), F(0)) == 0


def test_counterexample_certificate():
    """The returned functional must separate the slice from the span."""
    rep = check_hopf(sq(NOT_HOPF), 3)
    assert not rep.is_hopf
    fail = rep.failures[0]
    assert (fail.eq, fail.degree, fail.left_degree) == (1, 3, 1)
    assert_certified(rep)


def test_multi_equation_certificates():
    """One echelon form serves every equation's slice of a bidegree; each
    equation's witness must still separate its own slice."""
    rep = check_hopf(sq(TWO_NOT_HOPF), 5)
    assert not rep.is_hopf
    assert {fail.eq for fail in rep.failures} == {1, 2}
    assert [(f.eq, f.degree, f.left_degree) for f in rep.failures] == sorted(
        (f.eq, f.degree, f.left_degree) for f in rep.failures)
    assert_certified(rep)


def test_one_elimination_per_bidegree(monkeypatch):
    import cdse.linalg
    calls = []
    rref = cdse.linalg.rref

    def counted(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(cdse.linalg, "rref", counted)
    N = 3
    rep = check_hopf(five_kinds(), N)
    assert rep.is_hopf and rep.checks > len(calls)
    assert 0 < len(calls) <= sum(n - 1 for n in range(2, N + 1))

    sol = rep.solution
    for n, k in ((2, 1), (3, 1), (3, 2)):
        calls.clear()
        slice_coordinates(sol, 1, n, k)
        assert len(calls) == 1


# every check-hopf job of the benchmark roster, then the hand-made systems
HOPF_CASES = [(job.name, job.argv[1], int(job.argv[3]))
              for job in jobs.roster("hopf", 0)
              if job.argv and job.argv[0] == "check-hopf"]
HOPF_CASES += [(f"{name} -N {N}", text, N)
               for name, text in NOT_HOPF_SYSTEMS.items()
               for N in ((5,) if name == "three" else (5, 6))]


@pytest.mark.parametrize("name, text, N", HOPF_CASES,
                         ids=[name for name, _, _ in HOPF_CASES])
def test_factored_hopf_matches_dense_oracle(name, text, N):
    """Rows in U_(n-k) decide exactly what membership in the whole span of
    monomial tensors decides."""
    S = load(text)
    rep = check_hopf(S, N)
    checks, failing = dense_hopf_failures(S, N)
    assert rep.checks == checks
    assert [(f.eq, f.degree, f.left_degree) for f in rep.failures] == failing
    assert rep.is_hopf == (not failing)
    assert failing or text not in NOT_HOPF_SYSTEMS.values()
    assert_certified(rep)


@pytest.mark.parametrize("name, text, N", HOPF_CASES,
                         ids=[name for name, _, _ in HOPF_CASES])
def test_slice_columns_lie_in_the_left_span(name, text, N):
    """The cocycle property puts Delta x_i(n) in A_X (x) H, so every column
    sum_F c_FG F of a (k, n-k) slice lies in U_k, Hopf or not; this is why
    check_hopf reduces only the rows."""
    sol = solve(load(text), N)
    spans = {k: _Span([u for _, u in component_monomials(sol, k)])
             for k in range(1, N)}
    for i in range(1, sol.system.nvars + 1):
        for n in range(2, N + 1):
            columns = {}
            for (f, g), c in coproduct(sol.component(i, n)).terms.items():
                if f.degree and g.degree:
                    columns.setdefault((f.degree, g), {})[f] = c
            for (k, _), column in columns.items():
                assert spans[k].separate(column) is None


@pytest.mark.parametrize("name, text, N", HOPF_CASES,
                         ids=[name for name, _, _ in HOPF_CASES])
def test_monomial_labels_are_independent(name, text, N):
    """The direct-sum fact: a forest of x^a has tree type a, so monomials
    with different labels have disjoint supports and the nonzero degree-d
    monomials are a basis of U_d, as many as their dense rank."""
    sol = solve(load(text), N)
    for d in range(1, N + 1):
        monomials = [u for _, u in component_monomials(sol, d)]
        coords = list({f for u in monomials for f in u.terms})
        echelon, _ = dense_rref([[u.coeff(f) for f in coords]
                                 for u in monomials])
        assert len(echelon) == len(monomials)


def assert_slices_match_dense(sol):
    """slice_coordinates equals the dense reading over every monomial
    tensor, at every (i, n, k) the solution holds, k = 0 and n included."""
    for i in range(1, sol.system.nvars + 1):
        for n in range(1, sol.order + 1):
            for k in range(n + 1):
                assert (slice_coordinates(sol, i, n, k)
                        == dense_slice_coordinates(sol, i, n, k)), (i, n, k)


@pytest.mark.parametrize("name, text, N", HOPF_CASES,
                         ids=[name for name, _, _ in HOPF_CASES])
def test_slice_coordinates_match_dense_oracle(name, text, N):
    assert_slices_match_dense(solve(load(text), N))


def _tree_types(slice_):
    return {tuple(sorted((t.decoration.eq, t.degree) for t in f.trees))
            for f, _ in slice_.terms}


def test_eliminations_hold_only_what_a_row_can_meet(monkeypatch):
    """A row of a (k, n-k) slice of Delta x_i(n) is a sum of trees rooted
    at i, where the only part of U_(n-k) is Q x_i(n-k).  So check_hopf
    eliminates at most one row per equation (FIVE has 20 monomials of
    degree 2), and slice_coordinates one column per left tree type plus
    the slice; on the ladder every span is one row, where degree 59 has
    831,820 monomials."""
    sizes = []
    rref = cdse.linalg.rref

    def counted(rows):
        sizes.append((len(rows), len({c for row in rows for c in row})))
        return rref(rows)

    monkeypatch.setattr(cdse.linalg, "rref", counted)
    for S, N in ((five_kinds(), 5), (sq(TWO_NOT_HOPF), 6)):
        sizes.clear()
        sol = check_hopf(S, N).solution
        assert sizes and all(rows <= S.nvars for rows, _ in sizes)
        for i in range(1, S.nvars + 1):
            for n in range(2, N + 1):
                for k in range(1, n):
                    sizes.clear()
                    slice_ = coproduct(sol.component(i, n)).bidegree(k, n - k)
                    slice_coordinates(sol, i, n, k)
                    ((_, columns),) = sizes
                    assert columns <= len(_tree_types(slice_)) + 1
    sizes.clear()
    assert check_hopf(sq(LADDER), 60).is_hopf
    assert len(sizes) == 59 and all(rows == 1 for rows, _ in sizes)


@pytest.mark.parametrize("name, text, N", HOPF_CASES,
                         ids=[name for name, _, _ in HOPF_CASES])
def test_the_hopf_path_keeps_the_components_as_counts(name, text, N):
    """check_hopf and extract_lambda read every component as its (den,
    counts) pair: none of them makes its Fractions."""
    S = load(text)
    sol = check_hopf(S, N).solution
    extract_lambda(S, sol, N)
    assert sol.components
    assert all(comp._terms is None for comp in sol.components.values())


# each system of HOPF_CASES once, named without its -N
ORDER_CASES = {name.split(" -N ")[0].removeprefix("check-hopf "): text
               for name, text, _ in HOPF_CASES}


@pytest.mark.parametrize("text", ORDER_CASES.values(), ids=ORDER_CASES)
def test_components_come_in_canonical_order(text):
    """solve lists each component's trees in canonical order, the order the
    reports print, without sorting them."""
    sol = solve(load(text), 6)
    for comp in sol.components.values():
        forests = list(comp.terms)
        assert forests == sorted(forests, key=lambda f: f.key)


def _op_text(nvars, coeffs):
    monomials = ["h1", "h1^2", "h2"][:nvars + 1]
    return " + ".join(["1"] + [f"{c}*{m}" for c, m in zip(coeffs, monomials)
                               if c])


@st.composite
def small_systems(draw, coeffs=(-1, 0, 1, 2)):
    """One- and two-equation systems of operators 1 + a*h1 + b*h1^2 (+ c*h2),
    each equation at degrees 1 and/or 2, coefficients drawn from coeffs."""
    nvars = draw(st.integers(1, 2))
    coeff = st.sampled_from(coeffs)
    lines = [f"vars {nvars}"]
    for i in range(1, nvars + 1):
        lines.append(f"eq {i}")
        for q in draw(st.sets(st.integers(1, 2), min_size=1)):
            coeffs = draw(st.lists(coeff, min_size=nvars + 1, max_size=nvars + 1))
            lines.append(f"  op {q} : {_op_text(nvars, coeffs)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(small_systems())
def test_row_test_matches_dense_oracle_on_random_systems(text):
    S = sq(text)
    rep = check_hopf(S, 4)
    checks, failing = dense_hopf_failures(S, 4)
    assert rep.checks == checks
    assert [(f.eq, f.degree, f.left_degree) for f in rep.failures] == failing
    assert_certified(rep)


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(2, 5))
def test_one_coproduct_splits_into_the_components(text, N):
    """The slices read off one coproduct of the sum of all components are
    those of each component's own coproduct, as int counts over one den."""
    sol = solve(sq(text, strict=False), N)
    want = {}
    for (i, n), comp in sol.components.items():
        for (f, g), c in coproduct(comp).terms.items():
            if f.degree and g.degree:
                want.setdefault((i, n, f.degree), {}).setdefault(f, {})[g] = c
    den, slices = _slices(sol)
    assert {key: {f: {g: F(c, den) for g, c in row.items()}
                  for f, row in rows.items()}
            for key, rows in slices.items()} == want


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(1, 4))
def test_slice_coordinates_match_dense_oracle_on_random_systems(text, N):
    assert_slices_match_dense(solve(sq(text, strict=False), N))


def test_row_side_certificate():
    """Every failure is caught on a row F, so its witness is delta_F (x) psi;
    for NOT_HOPF, psi is spread over two forests."""
    rep = check_hopf(sq(NOT_HOPF), 3)
    (fail,) = rep.failures
    assert len({f for f, _ in fail.witness}) == 1
    assert len({g for _, g in fail.witness}) == 2
    assert_certified(rep)


@pytest.mark.parametrize("name", NOT_HOPF_SYSTEMS)
def test_witness_keys_come_in_key_order(name):
    """check-hopf prints each witness in dict order, so check_hopf must
    build it in ascending (left key, right key) order."""
    failures = [fail for N in (5, 6, 7)
                for fail in check_hopf(sq(NOT_HOPF_SYSTEMS[name]), N).failures]
    assert failures
    for fail in failures:
        keys = [(f.key, g.key) for f, g in fail.witness]
        assert keys == sorted(keys)
    # a row reduced against the span, not only a forest outside its support
    assert max(len(fail.witness) for fail in failures) > 1


def test_span_separation():
    """separate returns None inside the span, else a functional that kills
    it; phi is read off the echelon rows."""
    a, b, c = (single(leaf(j)) for j in (1, 2, 3))
    span = _Span([ForestSum({a: 1, b: 1})])
    # a is not a multiple of a + b: phi = e_b - e_a, phi(a) = -1
    assert span.separate({a: F(1)}) == ({a: F(-1), b: F(1)}, F(-1))
    # a forest outside the span's support is its own phi
    assert span.separate({c: F(2)}) == ({c: F(1)}, F(2))
    assert span.separate({a: F(1), b: F(1)}) is None
    assert span.separate({a: F(3), b: F(3)}) is None


@pytest.mark.parametrize("S, N", [(five_kinds(), 5), (three_cycle(), 7)],
                         ids=["FIVE", "QC3"])
def test_check_hopf_at_scale(S, N):
    assert check_hopf(S, N).is_hopf


def test_sparse_rref_matches_dense():
    """Same echelon rows and pivots as the dense elimination, zeros left
    out, and the input rows untouched."""
    rng = random.Random(5)
    for _ in range(300):
        ncols = rng.randint(1, 7)
        dense = [[F(rng.choice((0, 0, 0, 1, -1, 2, F(1, 3))))
                  for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
        rows = [{c: x for c, x in enumerate(row) if x} for row in dense]
        copies = [dict(row) for row in rows]
        echelon, pivots = cdse.linalg.rref(rows)
        want, want_pivots = dense_rref(dense)
        assert pivots == want_pivots
        assert echelon == [{c: x for c, x in enumerate(row) if x} for row in want]
        assert rows == copies
    assert cdse.linalg.rref([{0: F(1), 1: F(1)}, {1: F(2)}]) == (
        [{0: F(1)}, {1: F(1)}], [0, 1])


def test_one_elimination_per_degree(monkeypatch):
    calls = []
    rref = cdse.linalg.rref

    def counted(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(cdse.linalg, "rref", counted)
    for S, N in ((five_kinds(), 5), (sq(TWO_NOT_HOPF), 6)):
        calls.clear()
        check_hopf(S, N)
        assert 0 < len(calls) <= N - 1


def test_hopf_counterexample_has_describe_text():
    rep = check_hopf(sq(NOT_HOPF), 3)
    text = rep.failures[0].describe()
    assert "1" in text and "bidegree" in text


# --------------------------------------------------------- lambda extraction

def test_lambda_square_equation_is_n_plus_1():
    S = sq(SQUARE)
    tab = extract_lambda(S, solve(S, 5), 5)
    for n in range(1, 5):
        assert tab.value(1, 1, 1, n) == n + 1
    assert tab.affine_fit(1, 1, 1) == (F(2), F(1))
    holds, exceptions = tab.q_independence()
    assert holds and not exceptions


def test_lambda_case2_path_indicator():
    S = sq("vars 1\neq 1\n  op 2 : 1 + h1\n  op 3 : 1\n")
    tab = extract_lambda(S, solve(S, 5), 5)
    assert tab.value(1, 1, 2, 1) == VACUOUS  # x(1) = 0
    assert tab.value(1, 1, 2, 2) == 1
    assert tab.value(1, 1, 2, 3) == 0
    assert tab.value(1, 1, 3, 2) == 1


def test_lambda_inconsistent_for_non_hopf():
    S = sq(NOT_HOPF, strict=False)
    tab = extract_lambda(S, solve(S, 3), 3)
    assert tab.value(1, 1, 1, 2) == INCONSISTENT
    assert any(v == INCONSISTENT for _, v in tab.items())


def test_lambda_against_leaf_surgery():
    """Coproduct extraction must match the graft-and-count route."""
    cases = [
        (sq(SQUARE), 5),
        (build_fundamental(FundamentalData(
            [Vertex(1, "damped", beta=F(1), degrees=(1, 2))])), 5),
        (intro_system(), 4),
    ]
    for S, N in cases:
        sol = solve(S, N)
        tab = extract_lambda(S, sol, N)
        for (i, (ip, q), n), val in tab.items():
            assert val == lambda_by_surgery(sol, i, ip, q, n)


def test_leaf_cut_lambda_matches_coproduct(monkeypatch):
    """The leaf-cut table equals the one read off the full coproduct,
    markers included, and forms no coproduct."""
    calls = []
    monkeypatch.setattr(cdse.solver, "coproduct",
                        lambda x: calls.append(x) or coproduct(x))
    gated = "vars 1\neq 1\n  op 2 : 1 + h1\n  op 3 : 1\n"  # x(1) = 0: vacuous
    markers = set()
    for text in (jobs.INTRO, jobs.FIVE, jobs.STACK, jobs.QC3, NOT_HOPF,
                 jobs.CASE1_LAMBDA, gated):
        S = load(text)
        sol = solve(S, 5)
        entries = extract_lambda(S, sol, 5).entries
        assert not calls
        assert entries == lambda_by_coproduct(S, sol, 5)
        markers.update(v for v in entries.values() if isinstance(v, str))
    assert markers == {INCONSISTENT, VACUOUS}


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.integers(1, 5))
@example(NOT_HOPF, 3)                        # INCONSISTENT at n = 2
@example("vars 1\neq 1\n  op 2 : 1 + h1\n", 5)  # x(1) = 0: VACUOUS
def test_leaf_cut_lambda_matches_coproduct_on_random_systems(text, N):
    S = sq(text, strict=False)
    sol = solve(S, N)
    assert extract_lambda(S, sol, N).entries == lambda_by_coproduct(S, sol, N)


# coefficients with denominators 2 and 3, which solve must scale away
FRACTIONAL = (F(-1, 3), F(1, 2), F(3, 2), -2, 0, 1)


@settings(max_examples=40, deadline=None)
@given(small_systems(FRACTIONAL), st.integers(1, 4))
def test_solve_matches_oracle_on_fractional_systems(text, N):
    S = sq(text, strict=False)
    sol, oracle = solve(S, N), solve_oracle(S, N)
    for i in range(1, S.nvars + 1):
        for n in range(1, N + 1):
            assert sol.component(i, n) == oracle.component(i, n)
    assert all(type(c) is Fraction
               for comp in sol.components.values() for c in comp.terms.values())


@settings(max_examples=40, deadline=None)
@given(small_systems(FRACTIONAL), st.integers(1, 5))
def test_leaf_cut_lambda_matches_coproduct_on_fractional_systems(text, N):
    S = sq(text, strict=False)
    sol = solve(S, N)
    entries = extract_lambda(S, sol, N).entries
    assert entries == lambda_by_coproduct(S, sol, N)
    assert all(type(v) is Fraction
               for v in entries.values() if not isinstance(v, str))


def test_leaf_cut_tables_match_leaf_surgery():
    """Filled in from no tables, a tree's leaf-cut table counts the trees
    left by deleting each of its non-root leaves; the subtrees are filled
    in with a stack, so a 2000-deep ladder needs no recursion."""
    decs = (Decoration(1, 1), Decoration(2, 2))
    for t in trees_up_to(decs, 6):
        want = Counter((d, r) for d in decs for r in leaf_removals(t, d))
        tables = {}
        _fill_tables(tables, (t,), _leaf_cut_table)
        assert tables[t] == dict(want)
    tables = {}
    deep = ladder(*[(1, 1)] * 2000)
    _fill_tables(tables, (deep,), _leaf_cut_table)
    assert tables[deep] == {(Decoration(1, 1), ladder(*[(1, 1)] * 1999)): 1}
    assert len(tables) == 2000


def test_leaf_cut_work_grows_linearly_on_ladders(monkeypatch):
    """Each level of an n-deep ladder takes its one leaf cut from the level
    below, so extract_lambda builds one tree per level above the first, not
    one per level above every leaf, and rebuilds no dropped table."""
    S = sq(LADDER)
    sols = {n: solve(S, n) for n in (200, 400)}
    built = []
    monkeypatch.setattr(cdse.solver, "Tree",
                        lambda *args: built.append(1) or Tree(*args))
    counts = {}
    for n, sol in sols.items():
        del built[:]
        assert extract_lambda(S, sol, n).value(1, 1, 1, n - 1) == 1
        counts[n] = len(built)
    assert counts == {200: 199, 400: 399}


# --------------------------------------------------------- coefficient ladder

def test_ladder_on_two_degree_instance():
    data = FundamentalData([Vertex(1, "damped", beta=F(1), degrees=(1, 2))])
    S = build_fundamental(data)
    sol = solve(S, 4)
    rep = verify_coefficient_ladder(S, sol, 4)
    assert rep.applicable and rep.checks > 0 and not rep.violations


def test_ladder_zero_exponent_row():
    # with no exponents the recursion pins the linear coefficient to lambda_q
    data = FundamentalData([Vertex(1, "damped", beta=F(1), degrees=(1, 2))])
    S = build_fundamental(data)
    tab = extract_lambda(S, solve(S, 4), 4)
    for q in (1, 2):
        assert S.op_series(1, q, 2).coeff(1) == tab.value(1, 1, 1, q)


def test_ladder_not_applicable_without_degree_one():
    S = sq("vars 1\neq 1\n  op 2 : 1 + h1\n")
    rep = verify_coefficient_ladder(S, solve(S, 4), 4)
    assert not rep.applicable and "degree-1" in rep.reason


def test_ladder_flags_the_non_hopf_system():
    S = sq(NOT_HOPF, strict=False)
    rep = verify_coefficient_ladder(S, solve(S, 3), 3)
    assert rep.applicable and rep.violations


# ------------------------------------------------- slices, truncation, scaling

def test_slice_coordinates_single_generators():
    sol = solve(sq(SQUARE), 3)
    assert slice_coordinates(sol, 1, 2, 1) == {(((1, 1),), ((1, 1),)): F(2)}
    c3 = slice_coordinates(sol, 1, 3, 1)
    assert c3[(((1, 1),), ((1, 2),))] == 3


def test_readers_refuse_what_the_solution_does_not_hold():
    """A degree above sol.order or an equation outside 1..nvars has no
    component to read, so the answer would be made up: lambda 0 and
    'vacuous' where SQUARE has 4 and 5, a recursion mismatch on a Hopf
    system, an empty slice with two nonzero coordinates."""
    S = sq(SQUARE)
    table = extract_lambda(S, solve(S, 5), 5)
    assert (table.value(1, 1, 1, 3), table.value(1, 1, 1, 4)) == (4, 5)
    assert slice_coordinates(solve(S, 5), 1, 5, 2) == {
        (((1, 1), (1, 1)), ((1, 3),)): 6, (((1, 2),), ((1, 3),)): 4}
    for call in (lambda: extract_lambda(S, solve(S, 3), 5),
                 lambda: verify_coefficient_ladder(S, solve(S, 2), 5),
                 lambda: slice_coordinates(solve(S, 3), 1, 5, 2)):
        with pytest.raises(ValueError, match="degree 5.* order [23]"):
            call()
    for i in (0, 2):
        with pytest.raises(ValueError, match=f"equation {i} .*1..1"):
            slice_coordinates(solve(S, 3), i, 3, 1)


def test_truncate_at_1():
    S = intro_system()
    T = truncate_at_1(S)
    for i in (1, 2, 3):
        assert T.degrees(i, 6) == [1]
        assert T.op_series(i, 1, 4) == S.op_series(i, 1, 4)
    assert check_hopf(T, 4).is_hopf
    # single-operator systems pass through unchanged
    single_op = sq(SQUARE)
    assert truncate_at_1(single_op) == single_op
    with pytest.raises(SystemFormatError):
        truncate_at_1(sq("vars 1\neq 1\n  op 2 : 1 + h1\n"))


def test_rescale_variable():
    S = sq(SQUARE)
    R = rescale_variable(S, 1, F(1, 2))
    # coefficient of h^n picks up (1/2)^n
    for n in range(3):
        assert R.op_series(1, 1, 3).coeff(n) == S.op_series(1, 1, 3).coeff(n) / 2 ** n
    assert check_hopf(R, 4).is_hopf
    with pytest.raises(SystemFormatError):
        rescale_variable(S, 2, 3)
    # h1 -> 0*h1 erases the variable: no automorphism
    with pytest.raises(SystemFormatError, match="variable 1"):
        rescale_variable(S, 1, 0)


def test_rescale_solution_coefficients():
    # non-root vertices of the rescaled equation each contribute one factor
    S = sq(SQUARE)
    R = rescale_variable(S, 1, 3)
    a, b = solve(S, 3), solve(R, 3)
    t2 = ladder((1, 1), (1, 1))
    t3 = ladder((1, 1), (1, 1), (1, 1))
    assert b.coefficient(t2) == 3 * a.coefficient(t2)
    assert b.coefficient(t3) == 9 * a.coefficient(t3)
