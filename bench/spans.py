"""In-memory spans around calls into the profitmax layers.

The benchmark opens a span around each pipeline stage it calls.  Calls the
library makes internally are reached by wrapping public names at class or
module level for the length of one traced repetition:

* ``ProfitEstimator.build`` becomes an ``rrsets.sample`` span, or a
  ``certify.sample`` span when ``certify`` builds its validation estimator;
* ``profitmax.certify.mu_bound`` becomes a ``certify.mu`` span;
* the evaluator queries of ``ProfitEstimator`` are counted and timed per
  method.  Only outermost calls count: a profit query that recurses into its
  benefit and cost sides is one call.  Queries are far too many to keep one
  span each, so they are folded into one record per (parent span, method).

A layer's self time is its span's duration minus the time of its child spans
and of the queries made directly under it.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

from profitmax.rrsets import ProfitEstimator

QUERY_METHODS = ("value", "marginal", "marginal_many", "marginal_vs_rest",
                 "chain_increments")
QUERY_SPAN = "rrsets.query"


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "child_s")

    def __init__(self, name, start, parent, run):
        self.name, self.start, self.end = name, start, None
        self.parent, self.run, self.child_s = parent, run, 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Records nothing; the untraced repetitions run through this."""

    @contextmanager
    def span(self, name):
        yield

    @contextmanager
    def patched(self):
        yield


class Tracer:
    """Spans of one benchmark run, grouped by repetition (``run``)."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.queries = {}   # (parent span index, method) -> [calls, seconds]
        self.built = []     # (span name, estimator) built during the current run
        self.run = 0
        self._stack = []
        self._in_query = False

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.duration

    # -- wrapping library names ---------------------------------------------

    @contextmanager
    def patched(self):
        """Wrap the library's internal entry points; restore them on exit."""
        certify_module = sys.modules["profitmax.certify"]
        saved = []

        def swap(owner, name, new):
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, new)

        for method in QUERY_METHODS:
            swap(ProfitEstimator, method,
                 self._query(method, ProfitEstimator.__dict__[method]))
        swap(ProfitEstimator, "build",
             classmethod(self._build(ProfitEstimator.__dict__["build"].__func__)))
        swap(certify_module, "mu_bound", self._stage("certify.mu", certify_module.mu_bound))
        try:
            yield
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def _stage(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _build(self, fn):
        @functools.wraps(fn)
        def wrapper(cls, *args, **kwargs):
            inside_certify = bool(self._stack) and self.spans[self._stack[-1]].name == "certify"
            name = "certify.sample" if inside_certify else "rrsets.sample"
            with self.span(name):
                est = fn(cls, *args, **kwargs)
            self.built.append((name, est))
            return est
        return wrapper

    def _query(self, method, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_query or not self._stack:
                return fn(*args, **kwargs)
            self._in_query = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_query = False
                parent = self._stack[-1]
                record = self.queries.setdefault((parent, method), [0, 0.0])
                record[0] += 1
                record[1] += elapsed
                self.spans[parent].child_s += elapsed
        return wrapper

    # -- reading one repetition ---------------------------------------------

    def self_seconds(self, run) -> dict:
        """Self time per span name, with all queries under ``rrsets.query``."""
        out = {}
        for span in self.spans:
            if span.run == run:
                out[span.name] = out.get(span.name, 0.0) + span.duration - span.child_s
        for (parent, _), (_, seconds) in self.queries.items():
            if self.spans[parent].run == run:
                out[QUERY_SPAN] = out.get(QUERY_SPAN, 0.0) + seconds
        return out

    def query_calls(self, run) -> dict:
        out = {method: 0 for method in QUERY_METHODS}
        for (parent, method), (calls, _) in self.queries.items():
            if self.spans[parent].run == run:
                out[method] += calls
        return out

    def top_level_seconds(self, run, exclude=()) -> float:
        return sum(s.duration for s in self.spans
                   if s.run == run and s.parent is None and s.name not in exclude)

    def to_json_dict(self) -> dict:
        return {
            "spans": [[s.name, s.start - self.t0, s.end - self.t0, s.parent, s.run]
                      for s in self.spans],
            "span_fields": ["name", "start_s", "end_s", "parent", "run"],
            "queries": [[parent, method, calls, seconds]
                        for (parent, method), (calls, seconds) in self.queries.items()],
            "query_fields": ["parent", "method", "calls", "seconds"],
        }
