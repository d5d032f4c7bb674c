"""In-memory spans recorded around calls into the package's public functions.

The benchmark does not edit the program: it replaces a module attribute
(or a class attribute, for methods) with a wrapper for the duration of
one traced operation and puts the original back afterwards.  Each call
of a wrapper appends one span: name, start, end, parent span and the
operation it belongs to, plus any work counters computed from the call's
arguments and result.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []     # dicts: name, start, end, parent, op, counters
        self._stack = []
        self.op = -1

    def wrap(self, name, fn, counter=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``counter(args, kwargs, result)`` returns a dict of work counts; it
        runs after the span closes, so its cost lands in the parent span.
        """
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "op": self.op, "counters": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if counter is not None:
                span["counters"] = counter(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, span name, counter)``."""
        saved = []
        try:
            for owner, attr, name, counter in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, counter))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Each span's duration minus the durations of its direct children.

        Calls are synchronous, so children never overlap one another and the
        sum of their durations is the part of the parent they cover.
        """
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def dump(self, path):
        """Write one JSON object per span, in start order."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, self_s) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({"id": i, **s, "self": self_s}) + "\n")
