"""Layer tracing from outside the program.

`install` replaces every public function of the maclab layers at every
module-level binding of it (`design.mean_collisions`, `cli.cw_min`,
`maclab.run`, ...) with one wrapper per function. The wrapper counts
calls and adds up inclusive and self time; calls at most two levels
below a pass are also kept as spans. Nothing under `src/` changes, and
untraced runs pay nothing.

A function is named by the layer that defines it, so calls through any
binding add to one record. Inclusive times include the wrappers' own
cost for the calls nested inside; the benchmark reports that overhead
as the traced against the untraced pass time.
"""

import functools
import gzip
import importlib
import inspect
import json
import time

from common import LAYERS

SPAN_DEPTH = 2      # a pass's own calls and the calls they make


class Tracer:
    def __init__(self):
        self.stats = {}         # "layer.function" -> [calls, inclusive s, self s]
        self.spans = []         # (pass id, span id, parent id, name, start, end)
        self._ids = [0]         # open spans; index 0 is the current pass
        self._inner = [0.0]     # time spent in wrapped children of each open span
        self._next_id = 0
        self.pass_id = None

    def _new_id(self):
        self._next_id += 1
        return self._next_id

    def wrap(self, fn, name):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        ids, inner, spans, clock = self._ids, self._inner, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ids.append(self._new_id())
            inner.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                span_id = ids.pop()
                nested = inner.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - nested
                inner[-1] += elapsed
                if len(ids) <= SPAN_DEPTH:
                    spans.append((self.pass_id, span_id, ids[-1], name, start, end))
        return traced

    def run_pass(self, pass_id, fn):
        """Call fn() as traced pass `pass_id`; returns (result, seconds)."""
        self.pass_id = pass_id
        self._ids[0] = self._new_id()
        self._inner[0] = 0.0
        start = time.perf_counter()
        try:
            return fn(), time.perf_counter() - start
        finally:
            end = time.perf_counter()
            self.spans.append((pass_id, self._ids[0], None, "pass", start, end))

    def snapshot(self):
        return {name: list(stat) for name, stat in self.stats.items()}

    def write_spans(self, path):
        keys = ("pass", "id", "parent", "name", "start", "end")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer):
    """Wrap every public maclab function at each of its module-level bindings."""
    import maclab
    modules = [maclab] + [importlib.import_module("maclab." + layer) for layer in LAYERS]
    wrappers = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            package, _, layer = obj.__module__.rpartition(".")
            if package != "maclab" or layer not in LAYERS:
                continue
            if obj not in wrappers:
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{obj.__name__}")
            setattr(module, attr, wrappers[obj])
    return len(wrappers)
