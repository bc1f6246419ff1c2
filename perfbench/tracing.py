"""Spans around calls into framerep's public names, and per-layer statistics.

The program is not edited.  ``Tracer.install`` replaces each name in
``LAYERS`` with a timing wrapper in every ``framerep`` module namespace that
binds it, so calls across modules (``solve -> pseudoinverse``,
``frames -> hermitian_eigs``) are caught; ``Tracer.uninstall`` puts the
originals back.  A name that does not exist is skipped, so its counts read 0.

A span is ``(name, start, end, parent, op, extra)``: ``parent`` indexes the
enclosing span (-1 for none), ``op`` is the benchmark operation it belongs to
and ``extra`` holds bytes for top-level io calls and computed SVD work for
``numpy.linalg.svd`` calls made from inside framerep.  Spans stay in memory
and are written once, at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

#: layer -> public names wrapped in that layer.  ``Class.attr`` names patch the
#: class, which every module shares; bare names are patched per namespace.
LAYERS = {
    "frames": ("Frame.__init__", "Frame.bounds", "Frame.canonical_dual", "gram"),
    "linalg": ("pseudoinverse", "hermitian_eigs", "svd"),
    "represent": (
        "matrix_of_operator",
        "operator_of_matrix",
        "Representation.compose",
        "roundtrip_reconstruct",
        "frame_multiplier",
        "range_map_check",
        "kernel_of_representation",
    ),
    "solve": ("solve", "discretize", "project_onto_analysis_range", "finite_section"),
    "io": (
        "parse_frame",
        "parse_matrix",
        "parse_vector",
        "frame_payload",
        "matrix_payload",
        "vector_payload",
        "canonical_json",
        "serialize_frame",
        "serialize_matrix",
        "serialize_vector",
    ),
    "cli": ("main",),
}

#: Span names that differ from the wrapped attribute's name.
SPAN_ALIASES = {
    "Frame.__init__": "construct",
    "Frame.bounds": "spectral",
    "Frame.canonical_dual": "canonical_dual",
    "Representation.compose": "compose",
}

#: Cached per instance by framerep, so only the first call on an instance is
#: the work worth timing.
FIRST_CALL_ONLY = {"Frame.bounds", "Frame.canonical_dual"}

IO_PARSE = {"io.parse_frame", "io.parse_matrix", "io.parse_vector"}
IO_WRITE = {"io.canonical_json", "io.serialize_frame", "io.serialize_matrix", "io.serialize_vector"}
NUMPY_SVD = "linalg.numpy_svd"
OP = "op"


def _extra(name, args, result):
    """Computed SVD work m*n*min(m, n), or bytes parsed or written."""
    if name == NUMPY_SVD:
        m, n = np.shape(args[0])[-2:]
        return m * n * min(m, n)
    text = args[0] if name in IO_PARSE else result if name in IO_WRITE else None
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


def _framerep_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "framerep" or name.startswith("framerep."))]


class _FirstRead:
    """Non-data descriptor that times the first read of a property per instance.

    framerep caches properties such as ``Frame.bounds`` in the instance dict,
    which then shadows this descriptor, so later reads cost nothing here.
    """

    def __init__(self, tracer, inner, name):
        self.tracer, self.inner, self.name = tracer, inner, name
        self.seen = tracer.seen[name]

    def __get__(self, obj, cls=None):
        if obj is None or obj in self.seen:
            return self.inner.__get__(obj, cls)
        self.seen.add(obj)
        return self.tracer.timed(self.name, self.inner.__get__, (obj, cls), {})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # instances already timed, per span name, across install/uninstall
        self.seen = defaultdict(weakref.WeakSet)

    # -- recording -------------------------------------------------------

    def timed(self, name, fn, args, kwargs):
        spans = self.spans
        idx = len(spans)
        parent = self._stack[-1] if self._stack else -1
        spans.append((name, None, None, parent, self.op, 0))  # open; closed below
        self._stack.append(idx)
        start = perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            top_level = parent < 0 or not spans[parent][0].startswith("io.")
            extra = _extra(name, args, result) if top_level or name == NUMPY_SVD else 0
            spans[idx] = (name, start, end, parent, self.op, extra)
        return result

    def run_op(self, op_id, fn, arg):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        try:
            return self.timed(OP, fn, (arg,), {})
        finally:
            self.op = None

    # -- patching --------------------------------------------------------

    def _function_wrapper(self, fn, name, first_only):
        timed = self.timed
        if first_only:
            seen = self.seen[name]

            def wrapper(obj, *args, **kwargs):
                if obj in seen:
                    return fn(obj, *args, **kwargs)
                seen.add(obj)
                return timed(name, fn, (obj, *args), kwargs)
        else:
            def wrapper(*args, **kwargs):
                return timed(name, fn, args, kwargs)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _numpy_svd_wrapper(self, fn):
        def svd(a, *args, **kwargs):
            if not self._stack:
                return fn(a, *args, **kwargs)
            return self.timed(NUMPY_SVD, fn, (a, *args), kwargs)
        svd.__wrapped__ = fn
        return svd

    def _patch(self, target, attr, original, wrapper):
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapper)

    def install(self):
        modules = _framerep_modules()
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"framerep.{layer}")
            for qualname in names:
                span = f"{layer}.{SPAN_ALIASES.get(qualname, qualname)}"
                first_only = qualname in FIRST_CALL_ONLY
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name, None)
                    original = getattr(cls, "__dict__", {}).get(attr)
                    if original is None:
                        continue
                    if isinstance(original, types.FunctionType):
                        wrapper = self._function_wrapper(original, span, first_only)
                    else:
                        wrapper = _FirstRead(self, original, span)
                    self._patch(cls, attr, original, wrapper)
                    continue
                original = getattr(home, qualname, None)
                if original is None:
                    continue
                wrapper = self._function_wrapper(original, span, first_only)
                for module in modules:
                    if module.__dict__.get(qualname) is original:
                        self._patch(module, qualname, original, wrapper)
        self._patch(np.linalg, "svd", np.linalg.svd, self._numpy_svd_wrapper(np.linalg.svd))

    def uninstall(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class LayerStats:
    """Per-name call times and per-layer self times over the spans of traced ops."""

    def __init__(self, spans):
        child_time = defaultdict(float)
        for name, start, end, parent, op, extra in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.calls = defaultdict(list)  # span name -> inclusive seconds per call
        self.self_time = defaultdict(list)  # span name -> self seconds per call
        self.extra = defaultdict(float)  # span name -> summed extra
        self.layer_self = defaultdict(float)
        self.op_names = defaultdict(lambda: defaultdict(float))  # op -> span name -> self seconds
        self.op_time = 0.0
        self.ops = 0
        for idx, (name, start, end, parent, op, extra) in enumerate(spans):
            if op is None:
                continue
            duration = end - start
            if name == OP:
                self.op_time += duration
                self.ops += 1
                continue
            own = duration - child_time[idx]
            self.calls[name].append(duration)
            self.self_time[name].append(own)
            self.extra[name] += extra
            layer = name.split(".", 1)[0]
            self.layer_self[layer] += own
            self.op_names[op][name] += own

    def median_ms(self, name):
        values = self.calls.get(name)
        return 1e3 * statistics.median(values) if values else 0.0

    def median_self_ms(self, name):
        values = self.self_time.get(name)
        return 1e3 * statistics.median(values) if values else 0.0

    def per_op_count(self, name):
        return len(self.calls.get(name, ())) / self.ops if self.ops else 0.0

    def share(self, layer):
        return self.layer_self[layer] / self.op_time if self.op_time else 0.0

    def per_op_ms(self, names):
        """Median over traced ops of the self time spent in ``names``, for ops that call them."""
        totals = [sum(by_name.get(n, 0.0) for n in names) for by_name in self.op_names.values()
                  if any(n in by_name for n in names)]
        return 1e3 * statistics.median(totals) if totals else 0.0
