"""Spans recorded from outside the qperc package.

A span is one call into a layer: its name, start, end, the span that
was open when it began (its parent) and an optional count of the work
it did.  Spans live in memory for the length of a run.  `patched`
wraps the public functions each layer is called through, in the module
namespace where the caller looks them up, and restores them on exit;
nothing inside the package is changed.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from time import perf_counter

from qperc import cli, perceptron

_NULL = contextlib.nullcontext()


class NoTrace:
    """Stands in for a Tracer in untraced runs; records nothing."""

    def span(self, name, count=None):
        return _NULL


NO_TRACE = NoTrace()


class Span:
    __slots__ = ("name", "start", "end", "parent", "count")

    def __init__(self, name, start, parent, count):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.count = count

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, count=None):
        s = Span(name, 0.0, self._open[-1] if self._open else None, count)
        self.spans.append(s)
        self._open.append(s)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()

    def wrap(self, fn, name, count=None):
        """fn, recording a span per call; count(args, result) sizes the work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if count is not None:
                    s.count = count(args, result)
                return result

        return traced

    def select(self, name, root=None, parent=None, spans=None):
        """Spans called `name`, optionally only those under a root span
        called `root` or directly under a span called `parent`."""
        out = []
        for s in self.spans if spans is None else spans:
            if s.name != name:
                continue
            if parent is not None and (s.parent is None or s.parent.name != parent):
                continue
            if root is not None and _root(s).name != root:
                continue
            out.append(s)
        return out

    def median_ms(self, name, **where) -> float:
        return 1000.0 * statistics.median(s.seconds for s in self.select(name, **where))

    def summary(self):
        """(name, calls, total seconds, self seconds) per span name; self
        time is the span's duration minus the time its children cover."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] = child.get(id(s.parent), 0.0) + s.seconds
        rows = {}
        for s in self.spans:
            calls, total, own = rows.get(s.name, (0, 0.0, 0.0))
            rows[s.name] = (calls + 1, total + s.seconds, own + s.seconds - child.get(id(s), 0.0))
        return [(name,) + rows[name] for name in sorted(rows)]


def _root(s: Span) -> Span:
    while s.parent is not None:
        s = s.parent
    return s


def _pairs_compared(args, result):
    m = len(args[0])
    return m * (m - 1) // 2


# (module, attribute, span name, count).  Each attribute is the name the
# caller resolves at call time: TrainingSet and train look classify_set,
# consistency_check, total_weight and svd up in `perceptron`; the CLI
# commands look the serializers and run_fixture up in `cli`.
_PATCHES = (
    (perceptron, "classify_set", "perceptron.classify", None),
    (perceptron, "consistency_check", "perceptron.consistency", _pairs_compared),
    (perceptron, "total_weight", "perceptron.total_weight", None),
    (perceptron, "svd", "svd.svd", None),
    (cli, "parse_training_set", "serialize.parse_set", None),
    (cli, "serialize_model", "serialize.dump_model", None),
    (cli, "parse_model", "serialize.parse_model", None),
    (cli, "run_fixture", "fixtures.run_fixture", None),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _PATCHES]
    try:
        for mod, attr, name, count in _PATCHES:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, count))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
