"""Per-layer tracing from outside the program, by rebinding module attributes.

A `Tracer` wraps every public function defined in each layer module (the
layers are named after foundry's modules) and rebinds each reference to it
that foundry holds: module globals, including names re-exported by the
package `__init__` files and names taken with `from x import y`, and
function values stored in module-level or class-level dicts (such as the HOL
kernel's `RULES` table). The benchmark calls the program through those
module attributes, so its calls are traced too. `restore()` puts every
original object back.

Each wrapper counts the entry (recursive entries included) and keeps a span
stack, so a layer's self time is its wrapped calls' wall time minus the part
spent in nested wrapped calls. Generator functions are left alone: their
call returns before any work is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "surface.lexer", "surface.script", "surface.parsers", "surface.printer",
    "run", "hol.kernel", "hol.derived", "dtt.kernel", "dtt.syntax",
    "stlc.reduce", "stlc.typing", "fol.proof", "fol.congruence",
    "fol.groundsearch", "fol.semantics", "cli",
)

# Functions whose return value feeds a per-layer ratio.
_TOKENIZE = ("surface.lexer", "tokenize")
_SEARCH = ("fol.groundsearch", "ground_countermodel")
# Private functions whose entries are counted under "<layer>.<name>", with no
# span, so the layer's calls and self time are unchanged: the DTT kernel's
# conversion check, which public `defeq` and the type checker both enter.
COUNTED = (("dtt.kernel", "_conv"),)


def layer_functions(layer: str) -> dict:
    """The public, non-generator functions a layer module defines."""
    module = importlib.import_module("foundry." + layer)
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    }


class Tracer:
    """Counts calls and self time per layer while installed.

    Use as a context manager; nothing is wrapped outside the `with` block.
    """

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.calls: Counter = Counter()  # "<layer>" and "<layer>.<function>"
        self.self_s: defaultdict = defaultdict(float)
        self.tokens = 0
        self.searches = 0
        self.found = 0
        self._stack = [0.0]  # nested-call time of each open span
        self._undo: list = []
        self._old_limit = None

    # -- wrapping ---------------------------------------------------------

    def _observer(self, layer: str, name: str):
        if (layer, name) == _TOKENIZE:
            def seen(tokens):
                self.tokens += len(tokens)
            return seen
        if (layer, name) == _SEARCH:
            def seen(model):
                self.searches += 1
                self.found += model is not None
            return seen
        return None

    def _wrap(self, layer: str, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        key = f"{layer}.{name}"
        observe = self._observer(layer, name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[layer] += 1
            calls[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[layer] += dt - stack.pop()
                stack[-1] += dt
            if observe is not None:
                observe(out)
            return out

        return traced

    def _count(self, layer: str, name: str, fn):
        calls, key = self.calls, f"{layer}.{name}"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in self.layers:
            for name, fn in layer_functions(layer).items():
                wrapped[id(fn)] = (fn, self._wrap(layer, name, fn))
        for layer, name in COUNTED:
            if layer in self.layers:
                fn = getattr(importlib.import_module("foundry." + layer), name)
                wrapped[id(fn)] = (fn, self._count(layer, name, fn))

        def swap_dict(d: dict) -> None:
            for k, v in list(d.items()):
                hit = wrapped.get(id(v))
                if hit is not None and hit[0] is v:
                    d[k] = hit[1]
                    self._undo.append((d.__setitem__, k, v))

        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "foundry" or name.startswith("foundry."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((functools.partial(setattr, module), attr, value))
                elif isinstance(value, dict):
                    swap_dict(value)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for cls_value in list(vars(value).values()):
                        if isinstance(cls_value, dict):
                            swap_dict(cls_value)
        # Each traced call adds one Python frame, so allow twice the depth.
        self._old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(2 * self._old_limit)

    def restore(self) -> None:
        while self._undo:
            put, key, value = self._undo.pop()
            put(key, value)
        if self._old_limit is not None:
            sys.setrecursionlimit(self._old_limit)
            self._old_limit = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
