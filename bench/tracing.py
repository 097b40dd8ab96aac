"""Span tracing of richlab's layers, installed from outside at run time.

Every public function of each richlab module is replaced, in every module
namespace that binds it, by a wrapper that records one span (name, start,
end, parent span) per call.  A few hot constructors are counted instead of
spanned, and ``Eertree.append``/``pop`` are left alone: they run millions of
times per second, so their counts are derived from enumeration output.

Spans live in flat arrays while the run goes and are written out once at
the end.  A span's self time is its duration minus the part of it that its
child spans cover; a layer's self time is the sum over its spans.

Only the traced run imports this module; timed runs install nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

LAYERS = (
    "words",
    "paltree",
    "structures",
    "bounds",
    "enumeration",
    "oracle",
    "crosscheck",
    "cli",
)

# Private functions worth a span of their own: one corpus slice of a sweep.
EXTRA_SPANS = {"bounds": ("_sweep_length",)}


class Tracer:
    """In-memory span store plus the counters the wrappers bump."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def span_function(self, fn, name: str):
        """Wrap fn so that each call records one span."""
        nid = self.name_id(name)
        clock = time.perf_counter
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack
        )

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens on each resume, under whichever
            # span resumed it; one span per resume keeps the tree nested.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = len(start)
                    name_of.append(nid)
                    parent.append(stack[-1] if stack else -1)
                    end.append(0.0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def count_function(self, fn, key: str):
        """Wrap fn so that each call bumps a counter; no span."""
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the four raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {
                "names": self.names,
                "spans": len(self.start),
                "arrays": ["name_of:i", "parent:i", "start:d", "end:d"],
            }
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tracer: Tracer) -> None:
    """Put span and count wrappers on every richlab module namespace."""
    import mpmath

    import richlab

    modules = {layer: importlib.import_module(f"richlab.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        extra = EXTRA_SPANS.get(layer, ())
        for attr, obj in vars(mod).items():
            if attr.startswith("_") and attr not in extra:
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapped[obj] = tracer.span_function(obj, f"{layer}.{attr}")
    for mod in (richlab, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    # Constructors are class attributes, so one patch covers every caller.
    paltree, bounds, words = modules["paltree"], modules["bounds"], modules["words"]
    paltree.PalIndex.__init__ = tracer.span_function(
        paltree.PalIndex.__init__, "paltree.PalIndex"
    )
    words.Word.__init__ = tracer.count_function(words.Word.__init__, "word_init")

    report_init = bounds.BoundReport.__init__
    counts = tracer.counts
    counts.setdefault("reports_built", 0)
    counts.setdefault("log_domain_reports", 0)

    def counted_report_init(self, *args, **kwargs):
        report_init(self, *args, **kwargs)
        counts["reports_built"] += 1
        if self.rhs is None:
            counts["log_domain_reports"] += 1

    bounds.BoundReport.__init__ = counted_report_init
    # bounds reaches high precision only through mpmath.workprec
    mpmath.workprec = tracer.count_function(mpmath.workprec, "workprec")


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Spans must be in start order, as they are recorded; children are clipped
    to their parent's interval, and overlapping children count once.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the merged child coverage so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        s = max(start[i], start[p], reach[p])
        e = min(end[i], end[p])
        if e > s:
            covered[p] += e - s
        reach[p] = max(reach[p], e)
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(tracer: Tracer) -> dict:
    """Per-name call counts, inclusive and self seconds."""
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    calls = [0] * len(tracer.names)
    incl = [0.0] * len(tracer.names)
    excl = [0.0] * len(tracer.names)
    for i, nid in enumerate(tracer.name_of):
        calls[nid] += 1
        incl[nid] += tracer.end[i] - tracer.start[i]
        excl[nid] += selfs[i]
    return {
        name: {"calls": calls[k], "incl_s": incl[k], "self_s": excl[k]}
        for k, name in enumerate(tracer.names)
        if calls[k]
    }
