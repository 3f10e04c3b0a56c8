"""Per-layer spans for the traced benchmark passes.

The wrappers are installed from outside the program: after `fglcalc` is
imported, every public function of a module, and every public method (plus
the arithmetic dunders) of a class defined there, is replaced by a wrapper
that counts calls and records its span on a stack.  A span's self time is
its duration minus the durations of the spans it called; a layer's self time
is the sum over its spans.  Inclusive time is kept per group, counted only
at the outermost active call of the group, so recursion and groups that
nest (two `substitute` methods) are not counted twice.

Ring wrappers cost about as much as the ring work they measure (there are
millions of ring calls), so they are installed only in the ring pass, which
the benchmark runs separately from the pass that times the other layers.
A ring call made from inside another ring call (a parameter polynomial's
base-ring arithmetic) is counted but not timed as a span of its own.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("series", "fgl", "calculus", "vertex", "cli")
DUNDERS = ("__mul__", "__add__", "__sub__", "__neg__")

# span name -> inclusive-time group; names not listed are their own group
GROUPS = {
    "series.PowerSeries.substitute": "series.substitute",
    "series.LaurentElement.substitute": "series.substitute",
    "fgl.standard_law": "fgl.law_build",
    "fgl.fgl_new": "fgl.law_build",
}

# a constructor is a layer boundary only where it does the layer's work
INITS = ("HeisenbergAlgebra",)


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.active = {}
        self.max_terms = 0
        self.window_misses = 0

    def _wrap(self, name, layer, fn, series_types):
        group = GROUPS.get(name, name)
        calls, self_s, incl_s, active = (self.calls, self.self_s,
                                         self.incl_s, self.active)
        calls[name] = 0
        self_s[name] = 0.0
        incl_s.setdefault(group, 0.0)
        active.setdefault(group, 0)
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        nested_is_span = layer != "ring"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if not nested_is_span and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            active[group] += 1
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                active[group] -= 1
                if not active[group]:
                    incl_s[group] += dt
            if series_types and isinstance(result, series_types):
                n = len(result.coeffs)
                if n > tracer.max_terms:
                    tracer.max_terms = n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, ring=False):
        """Wrap the public functions of every traced module (and of `ring`
        when asked), rebinding each one in every fglcalc namespace that
        imported it."""
        series = importlib.import_module("fglcalc.series")
        series_types = (series.PowerSeries, series.LaurentElement,
                        series.BilateralWindow)
        layers = MODULES + (("ring",) if ring else ())
        modules = {n: importlib.import_module(f"fglcalc.{n}")
                   for n in ("ring",) + MODULES}
        modules["__init__"] = importlib.import_module("fglcalc")
        replaced = {}
        for layer in layers:
            mod = modules[layer]
            kinds = series_types if layer == "series" else None
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    replaced[obj] = self._wrap(f"{layer}.{attr}", layer,
                                               obj, kinds)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj, kinds)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
        self._count_window_misses(series.WindowMiss)

    def _wrap_class(self, layer, cls, kinds):
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in DUNDERS or (
                attr == "__init__" and cls.__name__ in INITS)
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(
                    self._wrap(name, layer, raw.__func__, kinds)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(name, layer, raw, kinds))

    def _count_window_misses(self, exc_type):
        """Count WindowMiss raised while a calculus span is open."""
        orig = exc_type.__init__
        tracer = self

        def init(exc, *args):
            if any(frame[1] == "calculus" for frame in tracer.stack):
                tracer.window_misses += 1
            orig(exc, *args)

        exc_type.__init__ = init

    def report(self):
        layer_self = {}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + s
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "layer_self_s": layer_self,
                "max_terms": self.max_terms,
                "window_misses": self.window_misses}
