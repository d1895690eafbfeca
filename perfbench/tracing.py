"""Spans around calls into dgquot's layers, recorded from outside the program.

`instrument(tracer)` wraps each function in `TARGETS` at the name where its
caller looks it up (for example `dgquot.cli.matricize`, not
`dgquot.repify.matricize`), so a call made from inside another wrapped call
becomes a child span.  Every wrapped name is put back on exit, and nothing
is patched outside that context.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

# (module, attribute path inside it, span name).  The span name is
# "<layer>.<function>"; the layer is the dgquot module that defines it.
TARGETS = (
    ("dgquot.resolution", "AlgebraInput.from_strings", "parser.from_strings"),
    ("dgquot.cli", "build_resolution", "resolution.build_resolution"),
    ("dgquot.cli", "check_d_squared", "resolution.check_d_squared"),
    ("dgquot.cli", "matricize", "repify.matricize"),
    ("dgquot.cli", "check_chart_d_squared", "repify.check_chart_d_squared"),
    ("dgquot.cli", "DeRhamAlgebra", "derham.DeRhamAlgebra"),
    ("dgquot.cli", "build_phi", "derham.build_phi"),
    ("dgquot.derham", "build_phi", "derham.build_phi"),
    ("dgquot.cli", "omega0", "derham.omega0"),
    ("dgquot.derham", "omega0", "derham.omega0"),
    ("dgquot.cli", "close_check", "derham.close_check"),
    ("dgquot.cli", "pairing_at", "derham.pairing_at"),
    ("dgquot.cli", "is_classical_point", "points.is_classical_point"),
    ("dgquot.derham", "is_classical_point", "points.is_classical_point"),
    ("dgquot.tangent", "is_classical_point", "points.is_classical_point"),
    ("dgquot.cli", "is_stable", "points.is_stable"),
    ("dgquot.points", "is_stable", "points.is_stable"),  # quot_tangent_check imports it at call time
    ("dgquot.cli", "chart_cohomology", "tangent.chart_cohomology"),
    ("dgquot.tangent", "chart_cohomology", "tangent.chart_cohomology"),
    ("dgquot.cli", "quot_tangent_check", "tangent.quot_tangent_check"),
    ("dgquot.tangent", "tangent_complex_at", "tangent.tangent_complex_at"),
    ("dgquot.tangent", "TangentComplex.composition_is_zero", "tangent.composition_is_zero"),
    ("dgquot.tangent", "detect_reduced_support", "tangent.detect_reduced_support"),
    ("dgquot.linalg", "rank", "linalg.rank"),
    ("dgquot.linalg", "mat_mul", "linalg.mat_mul"),
    ("dgquot.linalg", "rational_roots", "linalg.rational_roots"),
    ("dgquot.cli", "free_presentation_json", "serialize.free_presentation_json"),
    ("dgquot.cli", "chart_presentation_json", "serialize.chart_presentation_json"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, None at the root
    item: str  # spans of one item share this id
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list = []
        self.item = ""
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.item))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its children."""
    children: dict = {}
    for k, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for k, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(k, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


def _wrap(tracer: Tracer, name: str, fn, hook):
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            tracer.spans[idx].counts.update(hook(args, result))
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def instrument(tracer: Tracer, hooks=None):
    """Wrap every target for the duration of the block.

    `hooks` maps a span name to `fn(args, result) -> dict of counts`; it runs
    after the span closes, so counting is not charged to the layer.
    """
    hooks = hooks or {}
    saved = []
    try:
        for module, path, name in TARGETS:
            owner, attr = _owner(module, path)
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                replacement = staticmethod(_wrap(tracer, name, original.__func__, hooks.get(name)))
            else:
                replacement = _wrap(tracer, name, original, hooks.get(name))
            saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def snapshot() -> list:
    """(label, owner, attribute, object) for every target as it is now."""
    out = []
    for module, path, _ in TARGETS:
        owner, attr = _owner(module, path)
        out.append((f"{module}.{path}", owner, attr, vars(owner)[attr]))
    return out


def unrestored(before) -> list:
    """Labels of targets that no longer hold the object `snapshot` saw."""
    return [label for label, owner, attr, obj in before if vars(owner)[attr] is not obj]
