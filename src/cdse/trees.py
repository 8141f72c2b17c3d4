"""Decorated rooted trees and forests.

Every vertex carries a decoration ``(eq, degree)``: the index of the equation
the vertex belongs to and the degree of the grafting operator that created
it.  The degree of a tree is the sum of the decoration degrees over its
vertices, so a single vertex may weigh more than one.

Trees are immutable and canonical by construction: children are stored sorted
under a total order (degree, root decoration, children lexicographically).  A
forest is a sorted tuple of trees; the empty forest is the monomial unit.

Both are interned: constructing a tree or forest that is alive already
returns that object, found in a table of weak references that drops an
entry when its object dies.  Structural equality is therefore identity, and
equality and hashing stay the default object ones, cheap at any depth.
"""

from __future__ import annotations

import math
import weakref
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple


class Decoration(NamedTuple):
    """Vertex label (eq, degree), ordered lexicographically."""

    eq: int
    degree: int

    def __str__(self) -> str:
        return f"{self.eq}.{self.degree}"


class _Entry(weakref.ref):
    """Intern-table entry: a weak reference that knows where it is filed."""

    __slots__ = ("table", "key")


def _drop(entry: _Entry) -> None:
    # a dead entry may already have been replaced by a live one
    if entry.table.get(entry.key) is entry:
        del entry.table[entry.key]


def _file(table: dict, key, obj) -> None:
    entry = _Entry(obj, _drop)
    entry.table = table
    entry.key = key
    table[key] = entry


_key = attrgetter("key")
_TREES: dict = {}    # decoration -> {children tuple -> entry}
_FORESTS: dict = {}  # sorted trees tuple -> entry


class Tree:
    """Canonical decorated rooted tree, interned: structurally equal trees
    are one object, so equality and hashing are identity."""

    __slots__ = ("decoration", "children", "degree", "vertices", "key",
                 "__weakref__")

    def __new__(cls, decoration, children: Iterable["Tree"] = ()):
        if decoration.__class__ is not Decoration:
            decoration = Decoration(*decoration)
        kids = tuple(sorted(children, key=_key))
        table = _TREES.get(decoration)
        if table is None:
            table = _TREES[decoration] = {}
        entry = table.get(kids)
        if entry is not None:
            self = entry()
            if self is not None:
                return self
        degree, vertices = decoration.degree, 1
        for c in kids:
            degree += c.degree
            vertices += c.vertices
        self = object.__new__(cls)
        self.decoration, self.children = decoration, kids
        self.degree, self.vertices = degree, vertices
        # the (degree, decoration) prefix sorts in C; ties reach __lt__
        self.key = (degree, decoration, kids)
        _file(table, kids, self)
        return self

    def __reduce__(self):
        # through the text form, read without recursion, so that copy and
        # pickle handle deep ladders; parsing returns the live object
        return parse_tree, (tree_text(self),)

    def __lt__(self, other: "Tree") -> bool:
        # iterative: equal subtrees are one object, so only the first pair
        # of distinct children can decide a tie
        a, b = self, other
        while a is not b:
            if a.degree != b.degree:
                return a.degree < b.degree
            if a.decoration != b.decoration:
                return a.decoration < b.decoration
            for x, y in zip(a.children, b.children):
                if x is not y:
                    a, b = x, y
                    break
            else:
                return len(a.children) < len(b.children)
        return False

    def __repr__(self) -> str:
        return tree_text(self)


class Forest:
    """Multiset of trees, kept sorted; the unit is the empty forest.
    Interned like trees."""

    __slots__ = ("trees", "degree", "key", "__weakref__")

    def __new__(cls, trees: Iterable[Tree] = ()):
        ts = tuple(sorted(trees, key=_key))
        entry = _FORESTS.get(ts)
        if entry is not None:
            self = entry()
            if self is not None:
                return self
        self = object.__new__(cls)
        self.trees = ts
        self.degree = sum(t.degree for t in ts)
        self.key = (self.degree, ts)
        _file(_FORESTS, ts, self)
        return self

    def __reduce__(self):
        return parse_forest, (forest_text(self),)

    def __lt__(self, other: "Forest") -> bool:
        return self.key < other.key

    def __mul__(self, other: "Forest") -> "Forest":
        return Forest(self.trees + other.trees)

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[Tree]:
        return iter(self.trees)

    def __repr__(self) -> str:
        return forest_text(self)

    def grouped(self):
        """Pairs (tree, multiplicity) for the distinct trees, in order."""
        return tuple((t, len(tuple(g))) for t, g in groupby(self.trees))


EMPTY_FOREST = Forest()


def leaf(eq: int, degree: int = 1) -> Tree:
    return Tree(Decoration(eq, degree))


def single(t: Tree) -> Forest:
    return Forest((t,))


def ladder(*decorations) -> Tree:
    """Linear tree; the first decoration is the root, the last the leaf."""
    decs = [d if isinstance(d, Decoration) else Decoration(*d) for d in decorations]
    node = Tree(decs[-1])
    for d in reversed(decs[:-1]):
        node = Tree(d, (node,))
    return node


def _fill_tables(tables: dict, roots, build) -> dict:
    """Set tables[t] = build(t, tables) for each root t and each of its
    subtrees not yet in tables, children first, and return tables.  The
    walk keeps an explicit stack, so deep ladders need no recursion."""
    todo = list(roots)
    while todo:
        node = todo.pop()
        if node in tables:
            continue
        missing = [c for c in node.children if c not in tables]
        if missing:
            todo.append(node)
            todo.extend(missing)
            continue
        tables[node] = build(node, tables)
    return tables


# ---------------------------------------------------------------- symmetry

def tree_symmetry(t: Tree) -> int:
    """Order of the automorphism group of t fixing the root: the product,
    over every vertex, of mult! for each run of mult equal children."""
    def build(node, table):
        s = 1
        for child, run in groupby(node.children):
            mult = len(tuple(run))
            s *= math.factorial(mult) * table[child] ** mult
        return s

    return _fill_tables({}, (t,), build)[t]


def forest_symmetry(f: Forest) -> int:
    s = 1
    for sub, mult in f.grouped():
        s *= math.factorial(mult) * tree_symmetry(sub) ** mult
    return s


# ------------------------------------------------------------- enumeration

def _as_decorations(decorations) -> tuple:
    return tuple(sorted({d if isinstance(d, Decoration) else Decoration(*d)
                         for d in decorations}))


def _trees_table(decs: tuple, n: int) -> tuple:
    """tuple indexed by degree 0..n; entry m holds all trees of degree m."""
    table = [()] * (n + 1)
    pool: list[Tree] = []  # trees of degree < m, ascending degree
    for m in range(1, n + 1):
        # drawn in order from a canonically ordered pool: no sort needed
        table[m] = tuple(Tree(dec, kids) for dec in decs if dec.degree <= m
                         for kids in _multisets(tuple(pool), m - dec.degree, 0))
        pool.extend(table[m])
    return tuple(table)


def _multisets(pool: tuple, k: int, start: int) -> Iterator[tuple]:
    """Multisets (as nondecreasing index tuples) of pool trees of total degree k."""
    if k == 0:
        yield ()
        return
    for idx in range(start, len(pool)):
        t = pool[idx]
        if t.degree > k:
            break  # pool is sorted by degree
        for rest in _multisets(pool, k - t.degree, idx):
            yield (t,) + rest


def trees_of_degree(decorations, n: int) -> tuple:
    """All canonical trees of degree exactly n over the decoration set."""
    if n < 1:
        return ()
    return _trees_table(_as_decorations(decorations), n)[n]


def forests_of_degree(decorations, n: int) -> tuple:
    """All forests of degree exactly n (degree 0 gives the empty forest)."""
    if n < 0:
        return ()
    if n == 0:
        return (EMPTY_FOREST,)
    table = _trees_table(_as_decorations(decorations), n)
    pool = [t for ts in table for t in ts]  # by degree, then key
    return tuple(Forest(kids) for kids in _multisets(tuple(pool), n, 0))


# ------------------------------------------------------------ serialization

def tree_text(t: Tree) -> str:
    """(eq.degree: child child ...), written with an explicit stack so that
    deep ladders stay clear of the recursion limit."""
    bits = []
    todo = [t]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            bits.append(item)
            continue
        bits.append(f"({item.decoration.eq}.{item.decoration.degree}:")
        todo.append(")")
        for c in reversed(item.children):
            todo.append(c)
            todo.append(" ")
    return "".join(bits)


def forest_text(f: Forest) -> str:
    if not f.trees:
        return "1"
    return " ".join(tree_text(t) for t in f.trees)


class TreeSyntaxError(ValueError):
    pass


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


def _parse_int(s: str, pos: int) -> tuple[int, int]:
    start = pos
    while pos < len(s) and s[pos].isdecimal():
        pos += 1
    if pos == start:
        raise TreeSyntaxError(f"expected integer at position {start}: {s!r}")
    return int(s[start:pos]), pos


def _parse_tree(s: str, pos: int) -> tuple[Tree, int]:
    """The tree written at s[pos:] and the position after it, read with an
    explicit stack of open vertices so that deep ladders stay clear of the
    recursion limit."""
    open_vertices = []  # (decoration, children read so far)
    while True:
        if pos >= len(s) or s[pos] != "(":
            raise TreeSyntaxError(f"expected '(' at position {pos}: {s!r}")
        eq, pos = _parse_int(s, pos + 1)
        if pos >= len(s) or s[pos] != ".":
            raise TreeSyntaxError(f"expected '.' at position {pos}: {s!r}")
        deg, pos = _parse_int(s, pos + 1)
        if pos >= len(s) or s[pos] != ":":
            raise TreeSyntaxError(f"expected ':' at position {pos}: {s!r}")
        pos = _skip_ws(s, pos + 1)
        open_vertices.append((Decoration(eq, deg), []))
        # close vertices until one has a next child to read
        while pos >= len(s) or s[pos] != "(":
            if pos >= len(s) or s[pos] != ")":
                raise TreeSyntaxError(f"expected ')' at position {pos}: {s!r}")
            dec, kids = open_vertices.pop()
            tree = Tree(dec, kids)
            if not open_vertices:
                return tree, pos + 1
            open_vertices[-1][1].append(tree)
            pos = _skip_ws(s, pos + 1)


def parse_tree(s: str) -> Tree:
    t, pos = _parse_tree(s, _skip_ws(s, 0))
    if _skip_ws(s, pos) != len(s):
        raise TreeSyntaxError(f"trailing input after tree: {s!r}")
    return t


def parse_forest(s: str) -> Forest:
    pos = _skip_ws(s, 0)
    if pos < len(s) and s[pos] == "1":
        if _skip_ws(s, pos + 1) != len(s):
            raise TreeSyntaxError(f"trailing input after unit forest: {s!r}")
        return EMPTY_FOREST
    trees = []
    while pos < len(s):
        t, pos = _parse_tree(s, pos)
        trees.append(t)
        pos = _skip_ws(s, pos)
    if not trees:
        raise TreeSyntaxError("empty forest literal (use '1')")
    return Forest(trees)
