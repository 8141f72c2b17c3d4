"""Per-layer spans and work counters, installed from outside the program.

Each layer is a cdse module.  Its listed functions are wrapped where other
cdse modules (and the package namespace) look them up, so a layer's calls
into itself stay unwrapped and its internal recursion is one span.  A layer
marked ``home`` is also wrapped in its own module; ``LinComb`` methods are
wrapped on the class.  A call that enters a layer already on top of the
stack joins the open span, so nested calls inside one layer collapse.

Names that no longer exist are skipped: a function or module removed by a
refactor shows as a zero layer, never as a crash.

Spans are kept in memory as (layer, start, end, parent) columns.  A layer's
self time is the sum of its spans' durations minus the durations of their
child spans.  Counters are read from the arguments and return value of the
call that opens a span, so a layer's calls into itself are not counted
twice.
"""

import importlib
import sys
import time
from array import array


def _matrix_cells(name):
    """linalg.cells: rows x cols of the matrix handed to a linalg call."""
    if name == "in_span":   # (vectors, target)
        return lambda a, kw, out: len(a[0]) * len(a[1])
    if name == "nullspace":  # (rows, ncols)
        return lambda a, kw, out: len(a[0]) * a[1]
    return lambda a, kw, out: len(a[0]) * (len(a[0][0]) if a[0] else 0)


def _kept(a, kw, out):
    sol = getattr(out, "solution", out)
    return sum(len(comp.terms) for _, comp in sol.generators())


# layer -> (module, function names, wrap in home module too, counters, moves)
# counters map a function name to [(counter, fn(args, kwargs, result))].
# "moves" records which end-to-end metric the layer should move, and where.
LAYERS = {
    "linalg": dict(
        module="cdse.linalg", home=True,
        functions=("dot", "rref", "solve", "nullspace", "in_span"),
        counters={f: [("cells", _matrix_cells(f))]
                  for f in ("rref", "solve", "nullspace", "in_span")},
        moves="wall_s on hopf; zero on solve and suites"),
    "hopf": dict(
        module="cdse.hopf",
        functions=("coproduct", "reduced_coproduct", "tree_coproduct",
                   "forest_coproduct", "graft_operator", "counit", "pairing",
                   "tensor_pairing"),
        counters={"coproduct": [("tensor_terms",
                                 lambda a, kw, out: len(out.terms))]},
        moves="wall_s on hopf (next hot layer after the sparse test); "
              "peak_rss_mb on hopf"),
    "trees": dict(
        module="cdse.trees",
        functions=("trees_of_degree", "forests_of_degree", "tree_symmetry",
                   "forest_symmetry", "tree_text", "forest_text",
                   "parse_tree", "parse_forest"),
        counters={"trees_of_degree": [("enumerated",
                                       lambda a, kw, out: len(out))]},
        moves="wall_s and peak_rss_mb on solve"),
    "solver": dict(
        module="cdse.solver",
        functions=("solve", "solve_oracle", "check_hopf", "extract_lambda",
                   "slice_coordinates", "component_monomials", "normalize",
                   "parse_system_text", "system_text",
                   "verify_coefficient_ladder", "truncate_at_1",
                   "rescale_variable"),
        counters={"solve": [("trees_kept", _kept)],
                  "solve_oracle": [("trees_kept", _kept)],
                  "check_hopf": [("trees_kept", _kept),
                                 ("slices", lambda a, kw, out: out.checks)]},
        moves="wall_s on solve (coefficient memo); on hopf (dense matrix "
              "building)"),
    "linear": dict(
        module="cdse.linear",
        functions=("LinComb.__init__", "LinComb.__add__", "LinComb.__mul__",
                   "LinComb.scale", "LinComb.map_keys"),
        counters={},
        moves="wall_s on suites and hopf"),
    "prelie": dict(
        module="cdse.prelie",
        functions=("graft", "circ", "circ_recursive", "star",
                   "falling_product", "fdb_circ", "fdb_circ_recursive",
                   "tree_weight", "fdb_image", "fdb_solution",
                   "fdb_solution_recursive", "fdb_surjective", "affine_circ",
                   "reachable_degrees"),
        counters={},
        moves="wall_s on suites"),
    "cli": dict(
        module="cdse.cli", home=True, functions=("main",), counters={},
        moves="wall_s on suites (suite loops and report formatting)"),
    "series": dict(
        module="cdse.series",
        functions=("expr_series", "substitute", "parse_expr"),
        counters={},
        moves="wall_s on solve (oracle job)"),
    "families": dict(
        module="cdse.families",
        functions=("parse_family_text", "is_family_text", "build_case1",
                   "build_case2", "build_fundamental", "build_quasicyclic",
                   "classify_single", "check_closed_forms",
                   "check_extension_series", "check_ladder_sums"),
        counters={},
        moves="wall_s on suites (classify)"),
}

# work counters per layer, reported as <layer>.<counter>
COUNTERS = {"linalg": ("cells",), "hopf": ("tensor_terms",),
            "trees": ("enumerated",), "solver": ("trees_kept", "slices")}
CACHED = ("hopf", "trees")  # layers that report <layer>.cache_entries


def _resolve(module, path):
    """(owner, attribute name, object) or None when any part is missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *scope, name = path.split(".")
    for part in scope:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        obj = owner.__dict__.get(name)
    else:
        obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    def __init__(self, layers=None):
        self.layers = LAYERS if layers is None else layers
        self.names = list(self.layers)
        self.calls = [0] * len(self.names)
        self.counts = {}
        self.layer = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._top = -1          # index of the open span, -1 at top level
        self._top_layer = -1
        self._patched = []      # (owner, name, original)

    # ---------------------------------------------------------- install

    def install(self):
        for lid, name in enumerate(self.names):
            spec = self.layers[name]
            for path in spec["functions"]:
                found = _resolve(spec["module"], path)
                if found is None:
                    continue
                owner, attr, obj = found
                counters = spec.get("counters", {}).get(path, ())
                wrapper = self._wrap(lid, name, obj, counters)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in self._cdse_modules():
                    if mod is owner and not spec.get("home"):
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is obj:
                            self._patch(mod, key, wrapper)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    @staticmethod
    def _cdse_modules():
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == "cdse" or k.startswith("cdse."))]

    def _wrap(self, lid, layer, fn, counters):
        tracer = self
        calls = self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            calls[lid] += 1
            if tracer._top_layer == lid:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.layer.append(lid)
            tracer.parent.append(tracer._top)
            tracer.end.append(0)
            saved = (tracer._top, tracer._top_layer)
            tracer._top, tracer._top_layer = idx, lid
            tracer.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._top, tracer._top_layer = saved
            for counter, read in counters:
                tracer._count(layer, counter, read, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count(self, layer, counter, read, args, kwargs, out):
        try:
            n = read(args, kwargs, out)
        except Exception:  # a refactored signature reads as no work
            return
        key = f"{layer}.{counter}"
        self.counts[key] = self.counts.get(key, 0) + n

    # ---------------------------------------------------------- results

    def self_ns(self):
        """Self time per layer: span durations minus child span durations."""
        own = [0] * len(self.names)
        for lid, s, e, p in zip(self.layer, self.start, self.end, self.parent):
            d = e - s
            own[lid] += d
            if p >= 0:
                own[self.layer[p]] -= d
        return own

    def cache_entries(self, name):
        """Entries held by the layer module's caches, 0 if it has none."""
        mod = sys.modules.get(self.layers[name]["module"])
        total = 0
        for obj in list(vars(mod).values()) if mod else ():
            info = getattr(obj, "cache_info", None)
            if callable(info):
                total += info().currsize
        return total

    def metrics(self):
        """Every per-layer metric by name, zero for a layer that is gone."""
        out = {}
        for lid, (name, ns) in enumerate(zip(self.names, self.self_ns())):
            out[f"{name}.self_s"] = ns / 1e9
            out[f"{name}.calls"] = self.calls[lid]
            for counter in COUNTERS.get(name, ()):
                out[f"{name}.{counter}"] = self.counts.get(f"{name}.{counter}", 0)
            if name in CACHED:
                out[f"{name}.cache_entries"] = self.cache_entries(name)
        if "solver.trees_kept" in out and "trees.enumerated" in out:
            enumerated = out["trees.enumerated"]
            out["solver.keep_ratio"] = (out["solver.trees_kept"] / enumerated
                                        if enumerated else 0.0)
        out["spans"] = len(self.start)
        return out
