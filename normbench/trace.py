"""Per-layer tracing from outside the program.

Each hook wraps one public (or module-level) function of normrig at
every place it is bound: the defining module, every ``from x import y``
copy in another normrig module, and dict values such as
``experiments.SWEEPS``.  Spans (layer, start, end, parent) are kept in
memory and aggregated when the run ends; a layer's self time is its
duration minus the durations of its direct child spans.

A target that no longer exists is reported as missing; the run goes on.
``Tracer.uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Hook:
    module: str  # module under normrig, e.g. "sparsity"
    attr: str  # attribute path, e.g. "pebble_game" or "LpPlane.support_batch"
    layer: str  # span name; several hooks may share one layer
    on_call: Callable | None = None  # (tracer, args, kwargs)
    on_return: Callable | None = None  # (tracer, args, kwargs, result)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)  # [layer, start, end, parent]
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    active: Counter = field(default_factory=Counter)  # layer -> open depth
    missing: list = field(default_factory=list)
    bindings: list = field(default_factory=list)  # (container, key, original, is_attr)
    _stack: list = field(default_factory=list)

    # -- spans -------------------------------------------------------------

    def _wrap(self, hook: Hook, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[hook.layer] += 1
            if hook.on_call is not None:
                hook.on_call(tracer, args, kwargs)
            if tracer.active[hook.layer]:
                # A layer re-entering itself (one placement helper calling
                # another) is one span: totals must not double count.
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [hook.layer, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            tracer.active[hook.layer] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.active[hook.layer] -= 1
                tracer._stack.pop()
            if hook.on_return is not None:
                hook.on_return(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, hooks: list[Hook]) -> None:
        for hook in hooks:
            try:
                mod = importlib.import_module(f"normrig.{hook.module}")
            except ImportError:
                mod = None
            owner, name = mod, hook.attr
            if "." in hook.attr:
                cls_name, name = hook.attr.split(".", 1)
                owner = getattr(mod, cls_name, None) if mod else None
            original = getattr(owner, name, None) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            wrapper = self._wrap(hook, original)
            if owner is not mod:  # a method: bound once, on its class
                self._rebind(owner, name, original, wrapper, attr=True)
                continue
            for modname, m in sorted(sys.modules.items()):
                if m is None or not (modname == "normrig" or modname.startswith("normrig.")):
                    continue
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._rebind(m, key, original, wrapper, attr=True)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is original:
                                self._rebind(val, k, original, wrapper, attr=False)

    def _rebind(self, container, key, original, wrapper, attr: bool) -> None:
        if attr:
            setattr(container, key, wrapper)
        else:
            container[key] = wrapper
        self.bindings.append((container, key, original, attr))

    def uninstall(self) -> None:
        for container, key, original, attr in reversed(self.bindings):
            if attr:
                setattr(container, key, original)
            else:
                container[key] = original
        self.bindings.clear()

    # -- aggregation -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds, self seconds) per layer."""
        total: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        for layer, t0, t1, parent in self.spans:
            total[layer] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        selfs: Counter = Counter()
        for i, (layer, t0, t1, _) in enumerate(self.spans):
            selfs[layer] += (t1 - t0) - child[i]
        return dict(total), dict(selfs)
