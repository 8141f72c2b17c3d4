"""Top-level acceptance run: one test per guaranteed behavior.

Every comparison here is exact; the golden numbers were computed once
through independent routes (the generic substitution solver, hand counts)
and frozen as literals.
"""

import itertools
import random
from fractions import Fraction as F

from cdse import (
    Decoration,
    WordSum,
    check_hopf,
    coproduct,
    extract_lambda,
    fdb_solution,
    fdb_solution_recursive,
    forest_text,
    forests_of_degree,
    affine_circ,
    parse_system_text,
    rescale_variable,
    single,
    slice_coordinates,
    solve,
    tensor,
)
from cdse.families import (CycleVertex, FundamentalData, QuasiCyclicData,
                           Vertex, build_case1, build_case2,
                           build_fundamental, build_quasicyclic,
                           check_closed_forms, check_ladder_sums,
                           expected_lambda,
                           shared_product_series)
from cdse.series import expr_series, parse_expr
from cdse.suites import (cocycle_identity, coassociativity,
                         composition_coproduct_duality, counit_axiom,
                         coproduct_grading, coproduct_multiplicativity,
                         grafting_closed_vs_recursive, pre_lie_identity,
                         tree_to_word_morphism, word_closed_vs_recursive)

from helpers import (TWO_LABELS, component_monomials, forests_up_to,
                     trees_up_to)

INTRO = FundamentalData([
    Vertex(1, "damped", beta=F(-1, 3), degrees=(), all_from=1),
    Vertex(2, "reduced", degrees=(1,)),
    Vertex(3, "damped", beta=F(1), degrees=(1,)),
])

QC3 = QuasiCyclicData(3, [
    CycleVertex(1, 0, F(1), (2,), (1,)),
    CycleVertex(2, 1, F(1), (3,), (1,)),
    CycleVertex(3, 2, F(1), (1,), (1,)),
])

# frozen from the generic substitution solver on the worked example
GOLDEN = {
    (1, 1): {"(1.1:)": 1},
    (1, 2): {"(1.1: (1.1:))": 3, "(1.1: (2.1:))": 1, "(1.1: (3.1:))": 2,
             "(1.2:)": 1},
    (1, 3): {"(1.1: (1.1:) (1.1:))": 3, "(1.1: (1.1:) (2.1:))": 3,
             "(1.1: (1.1:) (3.1:))": 6, "(1.1: (2.1:) (2.1:))": 1,
             "(1.1: (2.1:) (3.1:))": 2, "(1.1: (3.1:) (3.1:))": 3,
             "(1.1: (1.1: (1.1:)))": 9, "(1.1: (1.1: (2.1:)))": 3,
             "(1.1: (1.1: (3.1:)))": 6, "(1.1: (1.2:))": 3,
             "(1.1: (2.1: (1.1:)))": 2, "(1.1: (2.1: (3.1:)))": 2,
             "(1.1: (3.1: (1.1:)))": 4, "(1.1: (3.1: (2.1:)))": 2,
             "(1.1: (3.1: (3.1:)))": 2, "(1.2: (1.1:))": 5,
             "(1.2: (2.1:))": 2, "(1.2: (3.1:))": 4, "(1.3:)": 1},
    (2, 1): {"(2.1:)": 1},
    (2, 2): {"(2.1: (1.1:))": 2, "(2.1: (3.1:))": 2},
    (2, 3): {"(2.1: (1.1:) (1.1:))": 1, "(2.1: (1.1:) (3.1:))": 4,
             "(2.1: (3.1:) (3.1:))": 3, "(2.1: (1.1: (1.1:)))": 6,
             "(2.1: (1.1: (2.1:)))": 2, "(2.1: (1.1: (3.1:)))": 4,
             "(2.1: (1.2:))": 2, "(2.1: (3.1: (1.1:)))": 4,
             "(2.1: (3.1: (2.1:)))": 2, "(2.1: (3.1: (3.1:)))": 2},
    (3, 1): {"(3.1:)": 1},
    (3, 2): {"(3.1: (1.1:))": 2, "(3.1: (2.1:))": 1, "(3.1: (3.1:))": 1},
    (3, 3): {"(3.1: (1.1:) (1.1:))": 1, "(3.1: (1.1:) (2.1:))": 2,
             "(3.1: (1.1:) (3.1:))": 2, "(3.1: (2.1:) (2.1:))": 1,
             "(3.1: (2.1:) (3.1:))": 1, "(3.1: (3.1:) (3.1:))": 1,
             "(3.1: (1.1: (1.1:)))": 6, "(3.1: (1.1: (2.1:)))": 2,
             "(3.1: (1.1: (3.1:)))": 4, "(3.1: (1.2:))": 2,
             "(3.1: (2.1: (1.1:)))": 2, "(3.1: (2.1: (3.1:)))": 2,
             "(3.1: (3.1: (1.1:)))": 2, "(3.1: (3.1: (2.1:)))": 1,
             "(3.1: (3.1: (3.1:)))": 1},
}

NOT_HOPF = "vars 1\neq 1\n  op 1 : 1 + h1\n  op 2 : 1 + 2*h1\n"


def test_worked_example_matches_frozen_components():
    S = rescale_variable(build_fundamental(INTRO), 1, 3)
    sol = solve(S, 3)
    seen = {}
    for (i, n), comp in sol.generators():
        seen[(i, n)] = {forest_text(f): c for f, c in comp.terms.items()}
    assert seen == {k: {t: F(c) for t, c in v.items()}
                    for k, v in GOLDEN.items()}
    assert seen[(1, 2)]["(1.1: (1.1:))"] == 3
    assert seen[(1, 3)]["(1.1: (1.1: (1.1:)))"] == 9


def test_coproduct_closure_across_the_roster():
    for lam, mu in ((1, -1), (1, 0), (0, 1), (2, 3)):
        assert check_hopf(build_case1({1}, F(lam), F(mu)), 5).is_hopf
    for m, alpha in ((1, 1), (2, -1)):
        assert check_hopf(build_case2({1, 2, 3}, m, F(alpha)), 5).is_hopf
    intro = rescale_variable(build_fundamental(INTRO), 1, 3)
    assert check_hopf(intro, 4).is_hopf
    pure = build_fundamental(FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "reduced", degrees=(1,)),
        Vertex(3, "full", degrees=(1,)),
    ]))
    assert check_hopf(pure, 4).is_hopf
    assert check_hopf(build_quasicyclic(QC3), 4).is_hopf

    # mismatched affine operators escape the span, with a checkable witness
    rep = check_hopf(parse_system_text(NOT_HOPF), 3)
    assert not rep.is_hopf
    fail = rep.failures[0]
    assert (fail.eq, fail.degree, fail.left_degree) == (1, 3, 1)
    sol = rep.solution
    slice_ = coproduct(sol.component(fail.eq, fail.degree)).bidegree(
        fail.left_degree, fail.degree - fail.left_degree)
    applied = sum((w * slice_.terms.get(fg, F(0))
                   for fg, w in fail.witness.items()), F(0))
    assert applied == fail.pairing != 0
    for _, u in component_monomials(sol, fail.left_degree):
        for _, v in component_monomials(sol, fail.degree - fail.left_degree):
            prod = tensor(u, v)
            assert sum((w * prod.terms.get(fg, F(0))
                        for fg, w in fail.witness.items()), F(0)) == 0


def test_structure_constants_follow_the_affine_law():
    S = build_case1({1}, F(1), F(-1))
    tab = extract_lambda(S, solve(S, 5), 5)
    for n in range(1, 5):
        assert tab.value(1, 1, 1, n) == n + 1

    for data in (INTRO,
                 FundamentalData([Vertex(1, "damped", beta=F(1),
                                         degrees=(1, 2))])):
        S = build_fundamental(data)
        tab = extract_lambda(S, solve(S, 5), 5)
        defined = 0
        for (i, (j, q), n), val in tab.items():
            if isinstance(val, F):
                assert val == expected_lambda(data, i, j, n)
                defined += 1
        assert defined > 0


def test_single_generator_coproduct_slices():
    sol = solve(build_case1({1}, F(1), F(-1)), 3)
    two = slice_coordinates(sol, 1, 2, 1)
    assert two == {(((1, 1),), ((1, 1),)): F(2)}
    three = slice_coordinates(sol, 1, 3, 1)
    assert three[(((1, 1),), ((1, 2),))] == F(3)


def test_grafting_products_and_their_word_shadow():
    trees = trees_up_to(TWO_LABELS, 3)
    triples = [(t1, t2, t3) for t1, t2, t3 in itertools.product(trees, repeat=3)
               if t1.degree + t2.degree + t3.degree <= 5]
    assert pre_lie_identity(triples).failures == []

    pool = forests_up_to(TWO_LABELS, 4)
    pairs = [(fa, fb) for fa in pool for fb in pool
             if fb.degree and fa.degree + fb.degree <= 5]
    assert grafting_closed_vs_recursive(pairs).failures == []
    duals = [(fa, fb, fh) for fa, fb in pairs if fa.degree + fb.degree <= 4
             for fh in forests_of_degree(TWO_LABELS, fa.degree + fb.degree)]
    assert composition_coproduct_duality(duals).failures == []

    lam, mu = F(2), F(-3)
    images = [(lam, mu, single(t), single(u)) for t in trees for u in trees
              if t.degree + u.degree <= 5]
    assert tree_to_word_morphism(images).failures == []

    words = []
    for total in range(1, 6):
        for k in range(1, total + 1):
            for w in itertools.combinations_with_replacement(
                    range(1, total + 1), k):
                if sum(w) == total:
                    words.append(w)
    word_pairs = [(lam, mu, wa, wb)
                  for lam, mu in ((F(1), F(-1)), (F(0), F(2)), (F(3), F(3)))
                  for wa in words for wb in words
                  if sum(wa) + sum(wb) <= 6]
    assert word_closed_vs_recursive(word_pairs).failures == []


def test_weighted_tree_series_solves_the_power_equation():
    for lam, mu in ((F(1), F(-1)), (F(2), F(3))):
        sol = solve(build_case1({1}, lam, mu), 5)
        for n in range(1, 6):
            closed = fdb_solution(lam, mu, {1}, n)
            assert closed == fdb_solution_recursive(lam, mu, {1}, n)
            assert closed == sol.component(1, n)


def test_gated_letter_product_and_solved_slices():
    for m in (1, 2, 3):
        alpha = F(-2, 3)
        for i in range(1, 11):
            for j in range(1, 11 - i):
                for k in range(1, 13 - i - j):
                    x, y, z = WordSum.gen(i), WordSum.gen(j), WordSum.gen(k)
                    assert affine_circ(m, alpha, affine_circ(m, alpha, x, y), z) \
                        == affine_circ(m, alpha, x, affine_circ(m, alpha, y, z))

    for m, alpha in ((1, F(1)), (2, F(-1))):
        sol = solve(build_case2({1, 2, 3}, m, alpha), 6)
        for n in range(2, 7):
            for i in range(1, n):
                j = n - i
                coords = slice_coordinates(sol, 1, n, i)
                assert coords is not None
                got = coords.get((((1, i),), ((1, j),)), F(0))
                assert got == (alpha if j % m == 0 else F(0))


def test_instance_certificates_at_depth_five():
    S0 = build_fundamental(INTRO)
    assert check_closed_forms(S0, INTRO, 5).ok

    damped12 = FundamentalData([Vertex(1, "damped", beta=F(1), degrees=(1, 2))])
    S12 = build_fundamental(damped12)
    assert S12.op_series(1, 2, 5) == expr_series(parse_expr("(1 - h1)^-3"), 1, 5)
    assert check_closed_forms(S12, damped12, 5).ok

    fullvertex = FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "full", degrees=(1,)),
    ])
    Sfull = build_fundamental(fullvertex)
    assert Sfull.op_series(2, 1, 5) == expr_series(parse_expr("(1 - h1)^-2"), 2, 5)
    assert check_closed_forms(Sfull, fullvertex, 5).ok

    ext = FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "scaled", a={1: F(1)}, degrees=(1,)),
        Vertex(3, "extension", a={2: F(1)}, degrees=(1, 2, 3)),
    ])
    Sext = build_fundamental(ext)
    assert Sext.op_series(3, 1, 5) == expr_series(parse_expr("1 + h2"), 3, 5)
    assert Sext.op_series(3, 2, 5) == expr_series(parse_expr("(1 - h1)^-1"), 3, 5)
    assert Sext.op_series(3, 3, 5) == expr_series(parse_expr("(1 - h1)^-3"), 3, 5)
    assert check_closed_forms(Sext, ext, 5).ok

    driftless = FundamentalData([
        Vertex(1, "damped", beta=F(1), degrees=(1,)),
        Vertex(2, "full", degrees=(1,)),
        Vertex(3, "extension", a={2: F(2)}, degrees=(1, 2, 3)),
    ])
    Sd = build_fundamental(driftless)
    Q = shared_product_series(driftless, 5)
    assert all(Sd.op_series(3, q, 5) == Q.pow_int(q - 1) for q in (2, 3))
    assert check_closed_forms(Sd, driftless, 5).ok

    assert check_ladder_sums(build_quasicyclic(QC3), QC3, 5).ok


def test_comultiplication_axioms():
    pool = forests_up_to(TWO_LABELS, 4)
    rng = random.Random(5)
    pool5 = rng.sample(list(forests_of_degree(TWO_LABELS, 5)), 15)
    forests = [(f,) for f in pool + pool5]
    assert coassociativity(forests).failures == []
    assert counit_axiom(forests).failures == []
    assert coproduct_grading(forests).failures == []
    lifts = [(Decoration(1, 1), f) for f in pool + pool5]
    assert cocycle_identity(lifts).failures == []

    small = forests_up_to(TWO_LABELS, 2)
    fives = [(f, g) for f in pool for g in pool if f.degree + g.degree == 5]
    pairs = [(f, g) for f in small for g in small
             if 0 < f.degree + g.degree <= 4]
    assert coproduct_multiplicativity(pairs + rng.sample(fives, 15)).failures == []
