"""Spans around fracint's layers, installed from the benchmark's own files.

``Tracer.install`` rebinds each layer's public functions, in every fracint
module that holds them by name, to wrappers that record a span (name,
start, end, parent).  Nothing under ``src/`` changes, and ``uninstall``
puts the originals back.  Spans are kept in memory per operation, reduced
to per-layer totals when the operation ends, and the first ones are kept
whole for the trace file written when the run ends.
"""

import dataclasses
import functools
import importlib
import json
import math
import statistics
import time
from collections import Counter

from . import references

# Spans kept whole for the trace file; later spans are only totalled.
KEPT_SPANS = 20_000

PANEL_POINTS = 15  # abscissae of one Kronrod panel


def self_times(spans):
    """Self time of each span: its duration minus the time its child spans cover.

    ``spans`` is a list of (name, start, end, parent) with ``parent`` the
    index of the enclosing span or -1.  Child intervals are clipped to the
    parent and merged where they overlap before they are subtracted.
    """
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


class CountingFn:
    """The benchmark's integrand function: counts calls and abscissae while traced."""

    __slots__ = ("fn", "tracer")

    def __init__(self, fn):
        self.fn = fn
        self.tracer = None

    def __call__(self, x):
        if self.tracer is None:
            return self.fn(x)
        return self.tracer.integrand_call(self.fn, x)


class Tracer:
    """Records spans and counters for one traced pass of a workload."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._counting = []
        self._applies = []
        self.compose_inner = None
        self.counts = Counter()
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.ops = 0
        self.est_over_actual = []
        self.kept = []

    # --- recording -----------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0, 0, parent))  # completed by _leave
        self._stack.append(index)
        return index, parent

    def _leave(self, index, name, start, parent):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent)

    def wrap(self, name, fn, on_result=None):
        """``fn`` recording a span; ``on_result`` sees results of outermost calls of the layer."""
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = self._enter(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(index, name, start, parent)
            if on_result is not None and (parent < 0 or not self.spans[parent][0].startswith(layer)):
                on_result(result, args, kwargs)
            return result

        return traced

    def integrand_call(self, fn, x):
        index, parent = self._enter("integrand")
        start = time.perf_counter_ns()
        try:
            out = fn(x)
        finally:
            self._leave(index, "integrand", start, parent)
        self.counts["integrand.calls"] += 1
        self.counts["integrand.points"] += getattr(x, "size", 1)
        return out

    def _apply(self, original):
        @functools.wraps(original)
        def apply(op, f, t):
            name = "operator.apply.inner" if op is self.compose_inner else "operator.apply"
            index, parent = self._enter(name)
            start = time.perf_counter_ns()
            try:
                result = original(op, f, t)
            finally:
                self._leave(index, name, start, parent)
            if op.route in ("direct", "transformed") and op.alpha > 0.0:
                self._applies.append((f, op.alpha, t, result.value, result.error_estimate))
            return result

        return apply

    def _compose(self, original):
        @functools.wraps(original)
        def compose(op_outer, op_inner, *args, **kwargs):
            self.compose_inner = op_inner
            try:
                return original(op_outer, op_inner, *args, **kwargs)
            finally:
                self.compose_inner = None

        return self.wrap("operator.compose", compose)

    def _build_parser(self, original):
        def build_parser():
            parser = original()
            parser.parse_args = self.wrap("cli.parse", parser.parse_args)
            return parser

        return self.wrap("cli.parse", build_parser)

    def _power_integrand(self, original):
        @functools.wraps(original)
        def power_integrand(*args, **kwargs):
            f = original(*args, **kwargs)
            counting = CountingFn(f.fn)
            counting.tracer = self
            return dataclasses.replace(f, fn=counting)

        return power_integrand

    # --- installing ----------------------------------------------------

    def _rebind(self, modules, original, replacement):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, replacement)

    def _set_method(self, cls, attr, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self, counting_fns=()):
        # import_module, because the package attribute ``fracint.gamma`` is the function
        fracint, gamma, transforms, quadrature, engines, operator, strips, output, cli = modules = [
            importlib.import_module(name) for name in (
                "fracint", "fracint.gamma", "fracint.transforms", "fracint.quadrature",
                "fracint.engines", "fracint.operator", "fracint.strips", "fracint.output",
                "fracint.cli",
            )
        ]

        def count(key, amount):
            self.counts[key] += amount

        def layer(name, fn, on_result=None):
            self._rebind(modules, fn, self.wrap(name, fn, on_result))

        for fn in (gamma.gamma, gamma.recip_gamma):
            layer("gamma", fn)
        layer("transforms", transforms.make_transform)
        for attr in ("forward", "inverse"):
            self._set_method(
                transforms.TransformPair, attr,
                self.wrap("transforms", getattr(transforms.TransformPair, attr)),
            )
        layer(
            "quadrature", quadrature.adaptive_quadrature,
            lambda result, args, kwargs: count("quadrature.panels", result[2] // PANEL_POINTS),
        )
        for route, fn in (
            ("direct", engines.direct_rl),
            ("transformed", engines.transformed_riemann),
            ("stieltjes", engines.stieltjes_sum),
            ("cavalieri", engines.cavalieri_sum),
        ):
            layer(f"engines.{route}", fn)
        self._set_method(
            operator.FractionalOperator, "apply", self._apply(operator.FractionalOperator.apply)
        )
        self._rebind(modules, operator.compose, self._compose(operator.compose))
        layer("operator.power_oracle", operator.power_oracle)

        def strip_points(result, args, kwargs):
            geometries = result if isinstance(result, list) else [result]
            count("strips.points", sum(
                sum(len(b) for b in geom.boundaries) + len(geom.region_outline)
                for geom in geometries
            ))

        layer("strips", strips.build_strips, strip_points)
        layer("strips", strips.region_family, strip_points)
        for fn in (output.format_number, output.join_blocks, output.json_text, output.svg_document):
            layer("output", fn)
        layer("output", output.write_text, lambda result, args, kwargs: count("output.bytes", len(args[1])))
        layer("cli", cli.main)
        self._rebind([cli], cli.build_parser, self._build_parser(cli.build_parser))
        self._rebind([cli], cli.power_integrand, self._power_integrand(cli.power_integrand))

        for counting in counting_fns:
            counting.tracer = self
            self._counting.append(counting)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()
        for counting in self._counting:
            counting.tracer = None
        self._counting.clear()

    # --- per operation -------------------------------------------------

    def begin_op(self):
        self.spans.clear()
        self._applies.clear()

    def end_op(self, label):
        """Reduce the operation's spans to per-layer totals."""
        spans = self.spans
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.total_ns[name] += end - start
            self.self_ns[name] += own
            if name == "operator.compose":
                self.counts["compose.ns"] += end - start
        for name, start, end, parent in spans:
            if name == "operator.apply.inner" and parent >= 0 and spans[parent][0] == "operator.compose":
                self.counts["compose.inner_ns"] += end - start
        for f, alpha, t, value, estimate in self._applies:
            reference = references.integral_of(f, alpha, t)
            if reference:
                floor = references.EPS * abs(reference)
                actual = abs(value - reference)
                self.est_over_actual.append(math.log10(max(estimate, floor) / max(actual, floor)))
        if len(self.kept) < KEPT_SPANS:
            self.kept.extend((self.ops, label, *span) for span in spans)
        self.ops += 1

    # --- results -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, per benchmark operation unless named per call."""
        ops = max(self.ops, 1)

        def per_op_ms(name):
            return self.self_ns[name] / ops / 1e6

        def per_call_ms(name):
            return self.self_ns[name] / self.calls[name] / 1e6 if self.calls[name] else 0.0

        inner_ns = self.counts["compose.inner_ns"]
        output_bytes = self.counts["output.bytes"]
        return {
            "gamma.calls_per_op": (self.calls["gamma"] / ops, "count"),
            "gamma.self_ms_per_op": (per_op_ms("gamma"), "ms"),
            "transforms.calls_per_op": (self.calls["transforms"] / ops, "count"),
            "transforms.self_ms_per_op": (per_op_ms("transforms"), "ms"),
            "integrand.calls_per_op": (self.counts["integrand.calls"] / ops, "count"),
            "integrand.points_per_op": (self.counts["integrand.points"] / ops, "count"),
            "quadrature.calls_per_op": (self.calls["quadrature"] / ops, "count"),
            "quadrature.panels_per_op": (self.counts["quadrature.panels"] / ops, "count"),
            "quadrature.self_ms_per_op": (per_op_ms("quadrature"), "ms"),
            "quadrature.est_over_actual_log10": (
                statistics.median(self.est_over_actual) if self.est_over_actual else 0.0, "digits"
            ),
            "engines.direct.self_ms": (per_call_ms("engines.direct"), "ms"),
            "engines.transformed.self_ms": (per_call_ms("engines.transformed"), "ms"),
            "engines.stieltjes.self_ms": (per_call_ms("engines.stieltjes"), "ms"),
            "engines.cavalieri.self_ms": (per_call_ms("engines.cavalieri"), "ms"),
            "operator.apply_calls_per_op": (
                (self.calls["operator.apply"] + self.calls["operator.apply.inner"]) / ops, "count"
            ),
            "operator.compose.inner_ms_per_op": (inner_ns / ops / 1e6, "ms"),
            "operator.compose.rest_ms_per_op": (
                (self.counts["compose.ns"] - inner_ns) / ops / 1e6, "ms"
            ),
            "strips.calls_per_op": (self.calls["strips"] / ops, "count"),
            "strips.points_per_op": (self.counts["strips.points"] / ops, "count"),
            "strips.self_ms_per_op": (per_op_ms("strips"), "ms"),
            "output.self_ms_per_op": (per_op_ms("output"), "ms"),
            "output.ns_per_byte": (
                self.self_ns["output"] / output_bytes if output_bytes else 0.0, "ns/B"
            ),
            "cli.parse_ms_per_op": (self.total_ns["cli.parse"] / ops / 1e6, "ms"),
            "cli.self_ms_per_op": (per_op_ms("cli"), "ms"),
        }

    def write(self, path):
        """Write the kept spans as JSON lines."""
        with open(path, "w") as handle:
            for op, label, name, start, end, parent in self.kept:
                handle.write(json.dumps({
                    "op": op, "label": label, "name": name,
                    "start_ns": start, "end_ns": end, "parent": parent,
                }) + "\n")
