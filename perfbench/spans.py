"""Outside-in layer tracing for the end-to-end benchmark.

Spans are recorded by wrapping the public entry point of each layer
from here, never by editing the library: constructing :class:`Installed`
swaps a timing wrapper onto each listed attribute, and its ``restore()``
puts the originals back.  A wrapper records a span only while its thread
is inside a request (the thread-local span stack is non-empty), so
set-up work and the oracle stay out of the trace.  The one exception is
``ExplanationService.explain`` on a gateway worker thread: it opens the
worker's root span when its labeling is linked to a client request.

Every span is kept in memory as ``(request, span, parent, layer, start_ns,
end_ns)`` and written out as JSON lines when the run ends.  A span's self
time is its duration minus the part of it covered by its child spans; the
request (root) span's self time is reported as ``request.other_s``, so the
per-layer self times plus ``request.other_s`` add up to the request total
by construction.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "request"
WRITE = "write"

Span = Tuple[int, int, Optional[int], str, int, int]


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        # id(labeling) -> (request, span) of the client request that sent
        # it: links a worker thread's service span to a request opened on
        # another thread (the gateway's event loop does not hand its
        # context to the worker pool).
        self.links: Dict[int, Tuple[int, int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        return next(self._ids)

    def record(self, request: int, span: int, parent, layer: str, start: int, end: int) -> None:
        with self._lock:
            self.spans.append((request, span, parent, layer, start, end))

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def active(self) -> bool:
        return bool(self._stack())

    def request(self, request: Optional[int] = None, parent: Optional[int] = None,
                layer: str = ROOT) -> "_Open":
        """Open a root span on this thread (a request, or a worker-side root)."""
        return _Open(self, layer, request, parent)

    def layer(self, layer: str) -> "_Open":
        return _Open(self, layer, None, None)


class _Open:
    """Context manager that pushes one span on the thread's stack."""

    __slots__ = ("tracer", "layer", "request", "parent", "span", "start")

    def __init__(self, tracer: Tracer, layer: str, request, parent):
        self.tracer = tracer
        self.layer = layer
        self.request = request
        self.parent = parent

    def __enter__(self):
        stack = self.tracer._stack()
        if self.request is None:
            if stack:
                self.request, self.parent = stack[-1][0], stack[-1][1]
            else:
                self.request = self.tracer.new_id()
        self.span = self.tracer.new_id()
        stack.append((self.request, self.span))
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.record(self.request, self.span, self.parent, self.layer, self.start, end)
        return False


# -- wrapping -----------------------------------------------------------------

def _wrap(tracer: Tracer, layer: str, function: Callable, on_result=None) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not tracer.active():
            return function(*args, **kwargs)
        with tracer.layer(layer):
            result = function(*args, **kwargs)
        tracer.add(f"{layer}.calls", 1)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return traced


def _wrap_service_explain(tracer: Tracer, function: Callable) -> Callable:
    @functools.wraps(function)
    def traced(service, labeling, *args, **kwargs):
        if tracer.active():
            scope = tracer.layer("service.explain")
        else:
            link = tracer.links.get(id(labeling))
            if link is None:
                return function(service, labeling, *args, **kwargs)
            scope = tracer.request(link[0], link[1], layer="service.explain")
        with scope:
            return function(service, labeling, *args, **kwargs)

    return traced


def _pool_accounting(tracer: Tracer, pool) -> None:
    tracer.add("core.candidates.generated", pool.generated)
    tracer.add("core.candidates.kept", len(pool))
    tracer.add("core.candidates.truncated", pool.truncated)


def _delta_accounting(tracer: Tracer, counts) -> None:
    tracer.add("service.delta.sessions_updated", counts["sessions_updated"])
    tracer.add("service.delta.borders_touched", counts["borders_touched"])


def layer_targets():
    """``(owner, attribute, layer, on_result)`` for every traced entry point."""
    from repro.core import best_describe, border, candidates, explainer
    from repro.engine import verdicts
    from repro.obdm import certain_answers, database, rewriting
    from repro.service import explanation_service

    return [
        (candidates.CandidateGenerator, "generate", "core.candidates", _pool_accounting),
        (rewriting.PerfectRefRewriter, "rewrite", "obdm.rewriting", None),
        (verdicts.VerdictMatrix, "build", "engine.verdicts", None),
        (verdicts.VerdictMatrix, "build_batch", "engine.verdicts", None),
        (verdicts.VerdictMatrix, "apply_drift", "engine.verdicts", None),
        (verdicts.VerdictMatrix, "apply_database_delta", "engine.verdicts", None),
        (best_describe.QueryScorer, "score", "core.best_describe", None),
        (best_describe.BestDescriptionSearch, "rank", "core.best_describe", None),
        (best_describe.BestDescriptionSearch, "top_k", "core.best_describe", None),
        (border.BorderComputer, "layers", "core.border", None),
        (certain_answers.CertainAnswerEngine, "retrieve", "obdm.certain_answers", None),
        (certain_answers.CertainAnswerEngine, "saturate", "obdm.certain_answers", None),
        (explainer, "build_report", "core.report", None),
        (database.SourceDatabase, "facts_with_any_constant", "obdm.backend.lookup", None),
        (explanation_service.ExplanationService, "apply_delta", "service.delta", _delta_accounting),
        (explanation_service.ExplanationService, "explain", "service.explain", None),
    ]


class Installed:
    """Handle of installed wrappers; ``restore()`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        from repro.service import ExplanationService

        self._originals = []
        for owner, attribute, layer, on_result in layer_targets():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if owner is ExplanationService and attribute == "explain":
                wrapped = _wrap_service_explain(tracer, original)
            elif isinstance(original, staticmethod):
                wrapped = staticmethod(_wrap(tracer, layer, original.__func__, on_result))
            else:
                wrapped = _wrap(tracer, layer, original, on_result)
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()


# -- analysis -----------------------------------------------------------------

def _covered(start: int, end: int, intervals: Sequence[Tuple[int, int]]) -> int:
    """Nanoseconds of [start, end) covered by the union of *intervals*."""
    total, cursor = 0, start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def by_root(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    """Spans grouped by the layer name of their request's root span."""
    kinds = {request: layer for request, _, parent, layer, _, _ in spans if parent is None}
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        grouped[kinds.get(span[0], ROOT)].append(span)
    return grouped


def self_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], float]:
    """Per-layer self seconds, and the summed duration of the root spans."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _, span, parent, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    per_layer: Dict[str, float] = defaultdict(float)
    total = 0
    for _, span, parent, layer, start, end in spans:
        own = (end - start) - _covered(start, end, children.get(span, ()))
        per_layer[layer] += own / 1e9
        if parent is None:
            total += end - start
    return dict(per_layer), total / 1e9


def served_durations(spans: Sequence[Span]) -> Dict[int, float]:
    """Root span id -> seconds of the ``service.explain`` span it parents.

    Only a gateway leader's request parents the evaluation that served it;
    coalesced followers have no such child.
    """
    return {
        parent: (end - start) / 1e9
        for _, _, parent, layer, start, end in spans
        if layer == "service.explain" and parent is not None
    }


def write_spans(spans: Sequence[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for request, span, parent, layer, start, end in spans:
            handle.write(json.dumps({
                "request": request, "span": span, "parent": parent,
                "name": layer, "start_ns": start, "end_ns": end,
            }) + "\n")
