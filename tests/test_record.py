"""The record base class behind expression nodes, reports and system
descriptions, and what importing cdse loads."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cdse import Case1, Case2, Unclassifiable, Vertex
from cdse.record import FrozenRecord, Record, fresh
from cdse.series import Add, Mul, Num, Param, Sub, Var, ast_sum

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def test_importing_cdse_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages hooks out of the count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import cdse, cdse.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_nodes_of_different_classes_are_unequal():
    a, b = Num(Fraction(1)), Var(1)
    assert Add(a, b) != Mul(a, b) and Add(a, b) != Sub(a, b)
    assert Add(a, b) == Add(Num(Fraction(1)), Var(1))
    assert Param() == Param() and Param() != Num(Fraction(0))
    assert Case2(2, Fraction(1)) != (2, Fraction(1))


def test_equal_nodes_hash_equal():
    x = Mul(Add(Num(Fraction(1, 2)), Param()), Var(2))
    y = Mul(Add(Num(Fraction(1, 2)), Param()), Var(2))
    assert x is not y and hash(x) == hash(y)
    assert len({x, y, Add(x, y)}) == 2
    verdict = Case1(Fraction(1), Fraction(2), frozenset({1}), frozenset())
    assert hash(verdict) == hash(Case1(1, 2, frozenset({1}), frozenset()))


def test_frozen_records_refuse_assignment():
    node = Add(Var(1), Var(2))
    with pytest.raises(AttributeError):
        node.left = Var(3)
    with pytest.raises(AttributeError):
        del node.right
    with pytest.raises(AttributeError):
        Unclassifiable("no shape").reason = "other"
    assert node == Add(Var(1), Var(2))


def test_mutable_records_compare_by_fields_and_do_not_hash():
    v = Vertex(1, "damped", beta=Fraction(1))
    assert v == Vertex(index=1, kind="damped", beta=Fraction(1))
    v.beta = Fraction(2)
    assert v != Vertex(1, "damped", beta=Fraction(1))
    with pytest.raises(TypeError):
        hash(v)


def test_each_vertex_gets_its_own_coupling_dict():
    v, w = Vertex(1, "scaled"), Vertex(2, "scaled")
    v.a[2] = Fraction(3)
    assert w.a == {} and v.a is not w.a


def test_construction_by_position_keyword_and_default():
    v = Vertex(3, "shifted", None, Fraction(1, 2), {1: Fraction(1)},
               all_from=2)
    assert (v.index, v.kind, v.beta, v.nu, v.a, v.degrees, v.all_from) == (
        3, "shifted", None, Fraction(1, 2), {1: Fraction(1)}, (1,), 2)
    with pytest.raises(TypeError, match="missing argument 'kind'"):
        Vertex(1)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'kind'"):
        Vertex(1, "damped", kind="reduced")
    with pytest.raises(TypeError, match="unexpected or repeated argument 'colour'"):
        Vertex(1, "damped", colour="red")
    with pytest.raises(TypeError, match="takes 2 arguments, got 3"):
        Add(Var(1), Var(2), Var(3))


def test_repr_names_every_field():
    assert repr(Add(Num(Fraction(1)), Var(2))) == (
        "Add(left=Num(value=Fraction(1, 1)), right=Var(index=2))")
    assert repr(Param()) == "Param()"
    assert repr(Vertex(1, "reduced")) == (
        "Vertex(index=1, kind='reduced', beta=None, nu=None, a={}, "
        "degrees=(1,), all_from=None)")


def test_fields_follow_the_annotations_in_order():
    class Point(FrozenRecord):
        x: int
        y: int = 0

    class Bag(Record):
        items: list = fresh(list)

    assert Point._fields == ("x", "y") and Point(1) == Point(x=1, y=0)
    assert Bag().items == [] and Bag().items is not Bag().items
    assert Add._fields == ("left", "right") and Param._fields == ()



def test_long_flat_sums_print_compare_and_hash():
    """A flat sum of n terms is an n-deep chain of Add nodes; repr, == and
    hash walk it without recursing once per level."""
    n = 5000
    x, y = ast_sum([Var(1)] * n), ast_sum([Var(1)] * n)
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != ast_sum([Var(1)] * (n - 1) + [Var(2)])
    assert x != ast_sum([Var(1)] * (n - 1) + [Num(Fraction(1))])
    text = repr(x)
    assert text == "Add(left=" * (n - 1) + "Var(index=1)" + (
        ", right=Var(index=1))" * (n - 1))
    assert len({x, y, ast_sum([Var(1)] * (n + 1))}) == 2


def test_nested_equality_and_repr_reach_fields_that_are_not_records():
    a = Case1(Fraction(1), Fraction(2), frozenset({1}), frozenset())
    assert a == Case1(1, 2, frozenset({1}), frozenset())
    assert a != Case1(1, 2, frozenset({1, 2}), frozenset())
    assert Add(Num(Fraction(1)), Var(2)) != Add(Num(Fraction(2)), Var(2))
    # a field holding a record of another class compares unequal
    assert Add(Var(1), Num(Fraction(1))) != Add(Var(1), Param())
    assert repr(Vertex(2, "scaled", a={1: Fraction(1, 2)})) == (
        "Vertex(index=2, kind='scaled', beta=None, nu=None, "
        "a={1: Fraction(1, 2)}, degrees=(1,), all_from=None)")
