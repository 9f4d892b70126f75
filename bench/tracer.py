"""Span tracing of the rht layers from outside the package.

`install` replaces every public function of the seven rht modules with a
wrapper that records a span (name, start, end, parent, tag) in memory.  The
replacement is made wherever the original function object is bound, so a
name another module imported by name (``rht.analysis.build_rht_matrix``,
``rht.cli.fast_rht``, the package-level re-exports) is traced too.  Nothing
under ``src/rht`` is edited; `uninstall` puts the originals back.

A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

LAYERS = ("core", "fast", "exact", "analysis", "transform2d", "image_io", "cli")


def order_class(n: int) -> str:
    """Order classes of the exact inverse: multiples of 4 have small
    denominators, odd orders large ones."""
    if n % 4 == 0:
        return "smooth"
    return "rough" if n % 2 else "other"


class Tracer:
    """In-memory span store plus the counts taken at layer boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, tag]
        self._stack = []
        self.matrix_bytes = 0
        self.additions_total = 0
        self.additions_by_order = {}
        self.multiplications_by_order = {}
        self.den_bits_by_order = {}
        self.bytes_read = 0
        self.bytes_written = 0

    def _count(self, name, args, result):
        if name == "core.build_rht_matrix":
            self.matrix_bytes += result.entries.nbytes
        elif name == "fast.fast_rht":
            ops = result[1]
            self.additions_total += ops.additions
            self.additions_by_order[args[0].order] = ops.additions
            self.multiplications_by_order[args[0].order] = ops.multiplications
        elif name == "exact.exact_inverse":
            self.den_bits_by_order[args[0]] = result.denominator.bit_length()
        elif name == "image_io.load_gray":
            self.bytes_read += os.path.getsize(args[0])
        elif name == "image_io.save_pgm":
            self.bytes_written += os.path.getsize(args[1])

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            tag = spans[parent][4] if parent >= 0 else None
            if name == "exact.exact_inverse":
                tag = order_class(args[0])
            index = len(spans)
            span = [name, 0.0, 0.0, parent, tag]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def self_times(self):
        """Per span index, its duration minus its direct children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _modules():
    import rht

    return [rht] + [importlib.import_module(f"rht.{layer}") for layer in LAYERS]


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer: Tracer):
    """Wrap every public rht function wherever it is bound; returns the
    list of (module, attribute, original) needed to undo it."""
    modules = _modules()
    wrappers = {}
    for module in modules[1:]:
        layer = module.__name__.split(".", 1)[1]
        for name, fn in _public_functions(module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])
    return undo


def uninstall(undo):
    for module, attr, original in undo:
        setattr(module, attr, original)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics that come from spans and boundary counts."""
    calls = defaultdict(int)
    own = defaultdict(float)
    invert = defaultdict(float)
    for (name, _, _, _, tag), self_s in zip(tracer.spans, tracer.self_times()):
        calls[name] += 1
        own[name] += self_s
        if name.startswith("exact.") and tag is not None:
            invert[tag] += self_s
    den_bits = defaultdict(int)
    for n, bits in tracer.den_bits_by_order.items():
        den_bits[order_class(n)] += bits
    fast_s = own["fast.fast_rht"]
    m = {
        "core.build_rht_matrix.calls": calls["core.build_rht_matrix"],
        "core.build_rht_matrix.self_s": own["core.build_rht_matrix"],
        "core.matrix_bytes": tracer.matrix_bytes,
        "core.apply_direct.self_s": own["core.apply_direct"],
        "core.weak_inverse_apply.self_s": own["core.weak_inverse_apply"],
        "fast.plan.calls": calls["fast.plan"],
        "fast.plan.self_s": own["fast.plan"],
        "fast.count_model.self_s": own["fast.count_model"],
        "fast.fast_rht.calls": calls["fast.fast_rht"],
        "fast.fast_rht.self_s": fast_s,
        "fast.adds_per_s": tracer.additions_total / fast_s if fast_s > 0 else 0.0,
        "fast.additions": sum(tracer.additions_by_order.values()),
        "fast.multiplications": sum(tracer.multiplications_by_order.values()),
        "exact.exact_inverse.calls": calls["exact.exact_inverse"],
        "exact.invert.smooth.self_s": invert["smooth"],
        "exact.invert.rough.self_s": invert["rough"],
        "exact.den_bits.smooth": den_bits["smooth"],
        "exact.den_bits.rough": den_bits["rough"],
        "analysis.residual_square_sum.calls": calls["analysis.residual_square_sum"],
        "analysis.residual_square_sum.self_s": own["analysis.residual_square_sum"],
        "analysis.quasi_period_check.self_s": own["analysis.quasi_period_check"],
        "analysis.freundlich_fit.self_s": own["analysis.freundlich_fit"],
        "image_io.load_gray.self_s": own["image_io.load_gray"],
        "image_io.save_pgm.self_s": own["image_io.save_pgm"],
        "image_io.bytes_read": tracer.bytes_read,
        "image_io.bytes_written": tracer.bytes_written,
        "cli.main.self_s": own["cli.main"],
    }
    for fn in ("forward_2d", "weak_inverse_2d", "exact_inverse_2d", "psnr"):
        m[f"transform2d.{fn}.self_s"] = own[f"transform2d.{fn}"]
    return m


def dump(tracer: Tracer, path) -> None:
    """Write the spans once, at the end of the run."""
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "tag"], "spans": tracer.spans}, fh)
