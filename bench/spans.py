"""In-memory spans around catnet's public functions, patched from outside.

A :class:`Tracer` replaces each traced function at the module attribute where
callers look it up, records one span (name, start, end, parent) per call and
restores every attribute on exit.  ``catnet.network`` and ``catnet.aggregate``
import ``attend``, ``run_sequence`` and ``time_embed`` by name, so those are
patched in the importing module; patching only the defining module would
record nothing.

A layer whose attribute no longer exists is reported as missing instead of
failing the run, so the benchmark keeps working when a refactor deletes a
per-vector function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter


def _count_tokens(counts, prefix, args, result):
    counts[prefix + ".tokens"] += result.n_tokens


def _count_attend(counts, prefix, args, result):
    weights = result[1].weights
    counts[prefix + ".query_rows"] += weights.shape[0]
    counts[prefix + ".qk_pairs"] += weights.size


def _count_steps(counts, prefix, args, result):
    counts[prefix + ".steps"] += sum(len(states) for states in result.sequences)


def _count_pairs(counts, prefix, args, result):
    counts[prefix + ".pairs"] += result[1].size


# (span name, module the name is looked up in, attribute, counter or None)
LAYERS = (
    ("generate.generate", "catnet.generate", "generate", None),
    ("cohort.save_dataset", "catnet.cohort", "save_dataset", None),
    ("cohort.load_dataset", "catnet.cohort", "load_dataset", None),
    ("network.build_instances", "catnet.network", "build_instances", None),
    ("attention.build_token_set", "catnet.network", "build_token_set", _count_tokens),
    ("attention.attend", "catnet.network", "attend", _count_attend),
    ("backbone.run_sequence", "catnet.network", "run_sequence", _count_steps),
    ("time_kernel.time_embed.interval", "catnet.network", "time_embed", None),
    ("time_kernel.time_embed.gate", "catnet.aggregate", "time_embed", None),
    ("aggregate.visit_self_attention", "catnet.network", "visit_self_attention", _count_pairs),
    ("aggregate.global_time_gate", "catnet.network", "global_time_gate", None),
    ("aggregate.fuse_and_predict", "catnet.network", "fuse_and_predict", None),
    ("autodiff.binary_cross_entropy", "catnet.autodiff", "binary_cross_entropy", None),
    ("autodiff.backward", "catnet.autodiff", "backward", None),
    ("metrics.evaluate_predictions", "catnet.metrics", "evaluate_predictions", None),
)

# Public tape ops; each call is counted (no span: they are too many and too short).
OPS = ("add", "sub", "mul", "scale", "affine", "tanh", "sigmoid", "matmul", "concat",
       "stack", "sum_over", "mean", "take_row", "stable_softmax", "weighted_row_sum")
OPS_MODULE = "catnet.autodiff"


class Tracer:
    """Span and counter recorder; spans stay in memory until :meth:`write`."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.missing = []        # layer names whose function no longer exists
        self.uncounted = set()   # layers whose result no longer fits their counter
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        spans, stack = self.spans, self._open
        index = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(index)
        spans[index][1] = time.perf_counter()
        try:
            yield
        finally:
            spans[index][2] = time.perf_counter()
            stack.pop()

    def _wrap_span(self, name, fn, counter):
        span, counts, uncounted = self.span, self.counts, self.uncounted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if counter is not None and name not in uncounted:
                try:
                    counter(counts, name, args, result)
                except (AttributeError, TypeError, IndexError):
                    uncounted.add(name)
                    for key in [k for k in counts if k.startswith(name + ".")]:
                        del counts[key]   # a partial total would read as a gain
            return result

        return traced

    def _wrap_count(self, kind, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[kind] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def patched(self, layers=LAYERS, ops=OPS):
        """Install the wrappers; every patched attribute is restored on exit."""
        saved = []
        try:
            for name, module_name, attr, counter in layers:
                module, fn = _lookup(module_name, attr)
                if fn is None:
                    self.missing.append(name)
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap_span(name, fn, counter))
            for kind in ops:
                module, fn = _lookup(OPS_MODULE, kind)
                if fn is None:
                    continue
                saved.append((module, kind, fn))
                setattr(module, kind, self._wrap_count("autodiff.ops." + kind, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self):
        """Per span name: (calls, total self seconds); self = duration - children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - inner)
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _lookup(module_name, attr):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    fn = getattr(module, attr, None)
    return module, (fn if callable(fn) else None)
