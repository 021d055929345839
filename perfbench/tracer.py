"""Span tracer around the calls into each nelsonlab layer.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent), at every place the
function is bound: the module attribute, names other modules imported with
``from .x import f``, and module-level dicts such as ``cli._RUNNERS``.
``uninstall`` puts the originals back.  Spans stay in memory; ``summarize``
derives per-function self time (span minus child spans) and call counts.
The program itself is not edited.  Only single-threaded runs are traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

PACKAGE = "nelsonlab"
LAYERS = ("grid", "fock", "operators", "psido", "nelson", "ibc", "inequalities", "cli")

# Leaf helpers left unwrapped: ``gaussian_profile_hat`` is called ~49 000
# times on the calculus workload for under a microsecond each, so a wrapper
# would cost more than the call it times.  Its time counts towards its caller.
UNWRAPPED = frozenset({"grid.gaussian_profile_hat"})


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []
        self.wrapped: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                    and name != "cli.main"
                ):
                    wrappers[id(obj)] = self.wrap(name, obj)
                    self.wrapped.append(name)
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patch(namespace, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patch(value, key, wrappers[id(item)])

    def _patch(self, table: dict, key, replacement) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = replacement

    def uninstall(self) -> None:
        while self._patches:
            table, key, original = self._patches.pop()
            table[key] = original


def summarize(spans: list[list]) -> dict[str, list]:
    """Function name -> [self seconds, calls]."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for (name, start, end, _), inner in zip(spans, child):
        totals[name][0] += end - start - inner
        totals[name][1] += 1
    return dict(totals)


def layer_totals(functions: dict[str, list]) -> dict[str, list]:
    """Layer name -> [self seconds, calls], every layer present."""
    totals = {layer: [0.0, 0] for layer in LAYERS}
    for name, (self_s, calls) in functions.items():
        entry = totals[name.split(".", 1)[0]]
        entry[0] += self_s
        entry[1] += calls
    return totals
