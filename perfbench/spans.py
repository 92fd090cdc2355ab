"""In-memory spans around calls into the program's layers.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top). Spans are appended when a call starts and
closed when it returns, so one thread's spans nest properly and the direct
children of a span never overlap.
"""

import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recording a span named ``name`` per call; ``on_call(args,
        kwargs)`` runs first, outside the timed interval, to update counts."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced


def rebind(modules, old, new) -> None:
    """Replace every module-level binding of ``old`` with ``new``, so calls
    through ``from x import fn`` bindings reach ``new`` too."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def layer_times(spans) -> dict:
    """Per span name: [calls, total seconds, self seconds]. Self time is a
    span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for n, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[n]
    return out


def time_under(spans, names, parent_name: str) -> float:
    """Total duration of spans named in ``names`` whose parent is a span
    named ``parent_name``."""
    return sum(end - start for name, start, end, parent in spans
               if name in names and parent >= 0 and spans[parent][0] == parent_name)
