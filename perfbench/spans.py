"""Span wrappers around gegenkit's public functions and methods, installed from outside.

``Tracer.install`` replaces every public function of each layer module with a
timing wrapper, in every gegenkit namespace that binds it (so
``gegenkit.series.compose_inner_polynomial`` and the copy imported into
``gegenkit.gegenbauer`` are both wrapped), and wraps the public methods and
arithmetic operators of the classes those modules define.  Coefficient-field
classes are left alone: their scalar operations run millions of times, and
their cost lands in the caller's self time.  ``uninstall`` puts every original
back, so untraced passes in the same process run the plain code.

Spans nest on one stack; a span's self time is its duration minus the time of
the spans it caused.  Spans are aggregated in memory per function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "identity", "gegenbauer", "series", "polynomials", "coefficients", "fields")
OPERATORS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"}


class Tracer:
    def __init__(self):
        # "layer:qualname" -> [calls, self seconds, total seconds]
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        record = self.stats.setdefault(f"{layer}:{name}", [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[0] += 1
                record[1] += elapsed - frame[0]
                record[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return span

    def reset(self) -> None:
        for record in self.stats.values():
            record[:] = [0, 0.0, 0.0]

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self seconds), summed over its functions."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, self_s, _) in self.stats.items():
            total = out[key.split(":", 1)[0]]
            total[0] += calls
            total[1] += self_s
        return {layer: (c, s) for layer, (c, s) in out.items()}

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from gegenkit.fields import CoefficientField

        package = importlib.import_module("gegenkit")
        modules = {layer: importlib.import_module(f"gegenkit.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(layer, name, obj)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, CoefficientField):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._patch(cls, attr, self.wrap(layer, name, value))
            elif isinstance(value, (classmethod, staticmethod)):
                self._patch(cls, attr, type(value)(self.wrap(layer, name, value.__func__)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
