"""Spans around the program's layers, recorded from outside the program.

The tracer replaces public names in the namespace where the program looks
them up (for example `cullis.determinant.multiply`, which `det_by_pfaffian`
calls) with wrappers that record a span: name, start, end, parent span and
operation id. A layer's self time is its span minus its direct children.
Given a counting domain, the same wrappers also read its `mults`/`adds` at
both ends of the span, so counts land on the same layers; the runs that
count and the runs that time are separate passes.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# span fields
NAME, START, END, PARENT, OP, M0, A0, M1, A1 = range(9)


def _digits(text: str) -> int:
    return sum(map(str.isdigit, text))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.counter = None
        self.extra = defaultdict(int)
        self._saved = []

    def wrap(self, name: str, fn, size=None):
        """`size(args, result)`, when given, adds a layer-specific count
        (entries built, digits formatted) to `extra[name]`."""
        spans, stack, extra = self.spans, self.stack, self.extra

        def traced(*args, **kwargs):
            dom = self.counter
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            if dom is not None:
                rec[M0], rec[A0] = dom.mults, dom.adds
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                if dom is not None:
                    rec[M1], rec[A1] = dom.mults, dom.adds
                stack.pop()
            if size is not None:
                extra[name] += size(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, size=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def install(self, program) -> None:
        det_mod = program.determinant
        for attr, name in (
            ("transpose", "matrix.transpose"),
            ("append_ones_column", "matrix.pad"),
            ("append_ones_column_and_unit_row", "matrix.pad"),
            ("skew_kernel_matrix", "matrix.skew_kernel_matrix"),
            ("multiply", "matrix.multiply"),
            ("SkewMatrix", "pfaffian.SkewMatrix"),
            ("pfaffian", "pfaffian.pfaffian"),
        ):
            self._patch(det_mod, attr, name)
        self._patch(program.Matrix, "__init__", "matrix.Matrix",
                    lambda args, _: args[0].rows * args[0].cols)
        self._patch(program.cullis, "det", "determinant.det")
        self._patch(program.cullis, "det_by_minors", "determinant.det_by_minors")
        self._patch(program.matio, "parse_matrix_text", "matio.parse")
        for cls in program.domain_classes:
            if "format" in cls.__dict__:
                self._patch(cls, "format", "scalars.format", lambda _, out: _digits(out))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> dict:
        """Per-layer totals of the spans recorded since the last take:
        {name: {"calls", "self_s", "mults", "adds", "extra"}} plus the
        self time per (operation, name) under key "by_op"."""
        spans = self.spans
        layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "mults": 0, "adds": 0})
        by_op = defaultdict(float)
        for rec in spans:
            dur = rec[END] - rec[START]
            mults, adds = rec[M1] - rec[M0], rec[A1] - rec[A0]
            layer = layers[rec[NAME]]
            layer["calls"] += 1
            layer["self_s"] += dur
            layer["mults"] += mults
            layer["adds"] += adds
            by_op[rec[OP], rec[NAME]] += dur
            if rec[PARENT] >= 0:
                parent = spans[rec[PARENT]]
                up = layers[parent[NAME]]
                up["self_s"] -= dur
                up["mults"] -= mults
                up["adds"] -= adds
                by_op[parent[OP], parent[NAME]] -= dur
        for name, count in self.extra.items():
            layers[name]["extra"] = count
        spans.clear()
        self.extra.clear()
        return {"layers": dict(layers), "by_op": dict(by_op)}
