"""Per-layer spans around homcount's public functions, installed from outside.

``Tracer.install`` wraps every public function of the layer modules (and
``CountingOracle.eval``, the in-process oracle) and rebinds the wrapper in
every homcount module namespace that binds the original, so names imported
with ``from .counting import hom_count`` are traced too.  Nothing under
``src/`` changes.

A span is one call of a wrapped function.  Spans are aggregated as they
close rather than kept one by one (verify --n-max 4 makes millions): per
function the number of calls, the inclusive time of its outermost calls
and its self time, which is its duration minus that of the spans opened
inside it.  A layer's self time is the sum over its functions.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time

import reference as ref

LAYERS = ("cli", "graphs", "canonical", "counting", "kernels", "families",
          "inversion", "interpolation", "exactsolve")

# Metrics reported for groups of functions; a group's time counts only its
# outermost calls, so vsurj_polytime calling hom_polytime is not counted twice.
GROUPS = {
    "families.classify": ("families.classify_F", "families.classify_C"),
    "families.polytime": ("families.hom_polytime", "families.vsurj_polytime",
                          "families.vesurj_polytime"),
    "counting.entry": ("counting.hom_count", "counting.vsurj_count", "counting.vesurj_count"),
}

# (metric, unit, better) in the order they are reported.
METRICS = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("counting.prep_s", "s", "lower"),
        ("graphs.induced_subgraph.calls", "count", "lower"),
        ("kernels.count_maps.calls", "count", "lower"),
        ("kernels.count_maps.s", "s", "lower"),
        ("kernels.count_maps.counted", "count", "lower"),
        ("kernels.count_autos.s", "s", "lower"),
        ("inversion.dsub_inverse_column.calls", "count", "lower"),
        ("inversion.dsub_inverse_column.s", "s", "lower"),
        ("inversion.dsub_inverse_column.distinct_ratio", "ratio", "higher"),
        ("inversion.dsub_downset.calls", "count", "lower"),
        ("kernels.min_encoding.calls", "count", "lower"),
        ("kernels.min_encoding.s", "s", "lower"),
        ("canonical.canonical_form.calls", "count", "lower"),
        ("canonical.canonical_form.hit_ratio", "ratio", "higher"),
        ("canonical.enumerate_graphs.s", "s", "lower"),
        ("graphs.quotient.calls", "count", "lower"),
        ("interpolation.oracle.queries", "count", "lower"),
        ("interpolation.oracle.s", "s", "lower"),
        ("interpolation.build_system.calls", "count", "lower"),
        ("interpolation.build_system.s", "s", "lower"),
        ("interpolation.homomorphic_images.calls", "count", "lower"),
        ("interpolation.homomorphic_images.s", "s", "lower"),
        ("exactsolve.determinant.calls", "count", "lower"),
        ("exactsolve.determinant.s", "s", "lower"),
        ("exactsolve.solve_linear_system.calls", "count", "lower"),
        ("exactsolve.solve_linear_system.s", "s", "lower"),
        ("graphs.parse_graph.calls", "count", "lower"),
        ("graphs.parse_graph.s", "s", "lower"),
        ("families.classify.calls", "count", "lower"),
        ("families.classify.s", "s", "lower"),
        ("families.polytime.calls", "count", "lower"),
        ("families.polytime.s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        # stack[-1] accumulates the time of spans closed inside the open span.
        self._stack = [0.0]
        self._stats: dict[str, _Stat] = {}
        self._layer_of: dict[str, str] = {}
        self._restore: list = []
        self._counted = 0
        self._inverse_args: set = set()
        self._canonical = None
        self._cache_before = None

    def install(self) -> None:
        originals = []
        for layer in LAYERS:
            mod = importlib.import_module(f"homcount.{layer}")
            for attr, obj in vars(mod).items():
                fn = getattr(obj, "__wrapped__", obj)  # lru_cache wrappers
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                originals.append((f"{layer}.{attr}", layer, obj))
        wrappers = {}
        for name, layer, obj in originals:
            wrappers[id(obj)] = (obj, self._wrap(name, layer, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "homcount" and not modname.startswith("homcount."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
        interpolation = importlib.import_module("homcount.interpolation")
        oracle = interpolation.CountingOracle
        self._restore.append((oracle, "eval", oracle.eval))
        oracle.eval = self._wrap("interpolation.oracle", "interpolation", oracle.eval)
        self._canonical = next(o for n, _, o in originals if n == "canonical.canonical_form")
        self._cache_before = self._canonical.cache_info()

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def _wrap(self, name, layer, fn):
        stat = self._stats.setdefault(name, _Stat())
        self._layer_of[name] = layer
        groups = [self._stats.setdefault(g, _Stat()) for g, members in GROUPS.items()
                  if name in members]
        stack = self._stack
        clock = time.perf_counter
        on_result = self._add_counted if name == "kernels.count_maps" else None
        on_args = self._inverse_args.add if name == "inversion.dsub_inverse_column" else None

        def span(*args, **kwargs):
            if on_args is not None:
                on_args(args[0])
            stack.append(0.0)
            stat.depth += 1
            for g in groups:
                g.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.self_s += dt - child
                stat.calls += 1
                stat.depth -= 1
                if not stat.depth:
                    stat.incl += dt
                for g in groups:
                    g.calls += 1
                    g.depth -= 1
                    if not g.depth:
                        g.incl += dt
            if on_result is not None:
                on_result(result)
            return result

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def _add_counted(self, result):
        self._counted += result

    def metrics(self) -> dict:
        """Per-layer figures for the traced window (run.py adds the overhead)."""
        stats = self._stats

        def calls(name):
            return stats[name].calls if name in stats else 0

        def secs(name):
            return stats[name].incl if name in stats else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s.self_s for n, s in stats.items()
                                         if self._layer_of.get(n) == layer)
        out["counting.prep_s"] = secs("counting.entry") - secs("kernels.count_maps")
        for name in ("graphs.induced_subgraph", "kernels.count_maps", "inversion.dsub_inverse_column",
                     "inversion.dsub_downset", "kernels.min_encoding", "graphs.quotient",
                     "interpolation.build_system", "interpolation.homomorphic_images",
                     "exactsolve.determinant", "exactsolve.solve_linear_system",
                     "graphs.parse_graph", "families.classify", "families.polytime"):
            out[f"{name}.calls"] = calls(name)
        for name in ("kernels.count_maps", "kernels.count_autos", "inversion.dsub_inverse_column",
                     "kernels.min_encoding", "canonical.enumerate_graphs", "interpolation.oracle",
                     "interpolation.build_system", "interpolation.homomorphic_images",
                     "exactsolve.determinant", "exactsolve.solve_linear_system",
                     "graphs.parse_graph", "families.classify", "families.polytime"):
            out[f"{name}.s"] = secs(name)
        out["kernels.count_maps.counted"] = self._counted
        out["interpolation.oracle.queries"] = calls("interpolation.oracle")
        n_inverse = calls("inversion.dsub_inverse_column")
        classes = {_least_encoding(g) for g in self._inverse_args}
        out["inversion.dsub_inverse_column.distinct_ratio"] = len(classes) / n_inverse if n_inverse else 0.0
        after = self._canonical.cache_info()
        hits = after.hits - self._cache_before.hits
        misses = after.misses - self._cache_before.misses
        out["canonical.canonical_form.calls"] = hits + misses
        out["canonical.canonical_form.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def functions(self) -> dict:
        """Raw per-function figures, written to the run's trace file."""
        return {n: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self_s}
                for n, s in sorted(self._stats.items())}


def _least_encoding(g):
    """Isomorphism class of a homcount Graph, by the reference definition."""
    t = ref.graph(g.n, g.loops, g.edges)
    return g.n, tuple(min(ref.encoding_bits(t, p) for p in itertools.permutations(range(g.n))))
