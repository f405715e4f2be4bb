"""In-memory span tracer that wraps engine functions from outside the engine.

Each wrapped call records one span: layer name, start, end and the index of
the enclosing span.  A layer's self time is the sum, over its spans, of the
span's duration minus the time covered by its child spans.  Per-call hooks
(counting matrix cells, say) run after the span closes; their cost is booked
separately and removed from every enclosing span, so hooks inflate no self
time.  The wrapper's own cost is not removed: it is what `trace.overhead_s`
measures.

Internal engine calls resolve through module globals (`ops.operator_block`,
a bare `operator_block` inside `operators`, `Matrix.rref` through the class),
so replacing the module attribute, every `from x import f` alias of it in
the package, or the class attribute intercepts them all.  `uninstall`
restores every replaced attribute.
"""

from __future__ import annotations

import json
import time
from collections import Counter

_now = time.perf_counter


class Tracer:
    def __init__(self):
        # (layer, start, end, parent index or -1, hook seconds inside span)
        self.spans: list = []
        self._stack: list[int] = []
        self._hook_s = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._modules: list = []

    # -- installation --------------------------------------------------------

    def wrap_function(self, modules, home, name: str, layer, hook=None):
        """Wrap `home.name` and every alias of the same function object
        found in `modules`."""
        original = getattr(home, name)
        wrapper = self._wrapper(original, layer, hook)
        self._modules.extend(m for m in modules if m not in self._modules)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def wrap_method(self, cls, name: str, layer, hook=None):
        self._patch(cls, name, self._wrapper(vars(cls)[name], layer, hook))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, and every wrapper that a lazily
        filled module-level dict (a dispatch table) picked up meanwhile."""
        restore = {}  # id(wrapper) -> (wrapper kept alive, original)
        while self._patches:
            owner, attr, original = self._patches.pop()
            wrapper = vars(owner)[attr]
            restore[id(wrapper)] = (wrapper, original)
            setattr(owner, attr, original)
        for module in self._modules:
            for table in list(vars(module).values()):
                if type(table) is dict:
                    for key, value in list(table.items()):
                        if id(value) in restore:
                            table[key] = restore[id(value)][1]
        self._modules.clear()

    def _wrapper(self, fn, layer, hook):
        spans = self.spans
        stack = self._stack
        named = isinstance(layer, str)

        def traced(*args, **kwargs):
            name = layer if named else layer(args)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            hooks_before = self._hook_s
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              self._hook_s - hooks_before)
            if hook is not None:
                began = _now()
                hook(args, result)
                self._hook_s += _now() - began
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per layer: self seconds, calls, and the inclusive seconds of its
        outermost spans (those with no ancestor of the same layer); plus
        `top`, the seconds covered by spans that have no parent."""
        spans = self.spans
        effective = [end - start - hooks
                     for _, start, end, _, hooks in spans]
        covered = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                covered[span[3]] += effective[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        outer: Counter = Counter()
        top = 0.0
        for i, (name, _, _, parent, _) in enumerate(spans):
            self_s[name] += effective[i] - covered[i]
            calls[name] += 1
            if parent < 0:
                top += effective[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                outer[name] += effective[i]
        return {"self": self_s, "calls": calls, "outer": outer, "top": top}


def dump(tracers: list[Tracer], path) -> None:
    """Write the spans of `tracers` as one list, times in microseconds from
    the first span, parents as indices into that list."""
    spans = []
    for tracer in tracers:
        offset = len(spans)
        spans += [(name, start, end, parent + offset if parent >= 0 else -1)
                  for name, start, end, parent, _ in tracer.spans]
    layers = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(layers)}
    origin = spans[0][1] if spans else 0.0
    rows = [[index[name], round((start - origin) * 1e6, 1),
             round((end - origin) * 1e6, 1), parent]
            for name, start, end, parent in spans]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"columns": ["layer", "start_us", "end_us", "parent"],
                   "layers": layers, "spans": rows}, fh,
                  separators=(",", ":"))
