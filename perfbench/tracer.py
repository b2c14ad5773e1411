"""Outside-in tracer for the saradc layers.

The tracer wraps a function wherever a saradc module binds it, so every
caller that resolves the name at call time (``engine.decide``,
``capdac.switch_bit``, ``cli.engine.convert_waveform``...) goes through the
wrapper.  A layer whose function the program no longer defines, or no
longer calls, simply reports zero calls.

Each call is one span (layer, parent span, op id, start, end).  Spans stay
in memory in flat arrays and are written once, by ``write_spans``.  Self
time is a span's duration minus the time its child spans cover.
"""

import functools
import sys
import time
from array import array

import numpy as np

PACKAGE = "saradc"


class Tracer:
    """Per-layer call counts, self time and inclusive time, plus spans."""

    def __init__(self, layers, hooks=None, clock=time.perf_counter):
        self.layers = list(layers)
        self.clock = clock
        self.hooks = dict(hooks or {})   # layer name -> callable(return value)
        n = len(self.layers)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.op = -1                      # id shared by the spans of one op
        self._depth = [0] * n
        self._stack = []                  # open spans: [layer, span, child_s]
        self._patches = []                # (module, attribute, original)
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")

    def install(self) -> None:
        """Replace each layer's function at every saradc module binding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for idx, qualname in enumerate(self.layers):
            module_name, func_name = qualname.rsplit(".", 1)
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(idx, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, idx, fn):
        clock = self.clock
        stack = self._stack
        hook = self.hooks.get(self.layers[idx])
        layer_a, parent_a, op_a = self.span_layer, self.span_parent, self.span_op
        t0_a, t1_a = self.span_t0, self.span_t1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(t0_a)
            layer_a.append(idx)
            parent_a.append(stack[-1][1] if stack else -1)
            op_a.append(self.op)
            t1_a.append(0.0)
            frame = [idx, span, 0.0]
            stack.append(frame)
            self._depth[idx] += 1
            t0 = clock()
            t0_a.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                t1_a[span] = t1
                stack.pop()
                self._depth[idx] -= 1
                duration = t1 - t0
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[2]
                if self._depth[idx] == 0:
                    self.total_s[idx] += duration
                if stack:
                    stack[-1][2] += duration
            if hook is not None:
                hook(result)
            return result

        return traced

    def summary(self) -> dict:
        """layer -> {calls, self_ms, total_ms}."""
        return {name: {"calls": self.calls[i],
                       "self_ms": self.self_s[i] * 1e3,
                       "total_ms": self.total_s[i] * 1e3}
                for i, name in enumerate(self.layers)}

    def write_spans(self, path) -> None:
        """Write every recorded span once, times relative to the first span [s]."""
        t0 = np.frombuffer(self.span_t0, dtype=float)
        t1 = np.frombuffer(self.span_t1, dtype=float)
        origin = float(t0[0]) if t0.size else 0.0
        np.savez_compressed(
            path, layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=t0 - origin, end=t1 - origin)
