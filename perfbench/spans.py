"""In-memory spans recorded around calls into the program, from outside it.

A :class:`Tracer` replaces module attributes at their import sites (for
example ``mcmpart.solver.propagate`` or ``ConstraintSolver.set_domain``)
with wrappers that record one span per call: name, start, end, parent span
and sample id.  The program itself is not changed; :meth:`Tracer.restore`
puts every original attribute back.

Self time is a span's duration minus the part of it covered by its child
spans; :func:`self_times` computes it from the recorded list.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


class MeasurementError(Exception):
    """The benchmark cannot measure what it promises (for example a missing site)."""


@dataclass(frozen=True)
class Site:
    """One import site to wrap: ``module`` + dotted ``attr`` -> span ``name``.

    ``sample`` marks the call that defines one sample (a scored partition
    or a rollout); spans inside it carry its sample id.  ``on_result``
    receives the tracer, the call's result and its arguments, ``on_error``
    the tracer and the exception, so counters are kept where the work
    happens.
    """

    module: str
    attr: str
    name: str
    sample: bool = False
    on_result: Optional[Callable] = None
    on_error: Optional[Callable] = None


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: Optional[float]
    parent: int
    sample: int
    ok: bool = False  # the call returned (no exception, no timeout)


@dataclass
class Tracer:
    """Spans (index = span id), named counters and kept outputs of one round."""

    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    clock: Callable[[], float] = time.perf_counter
    _stack: list = field(default_factory=list)
    _sample: int = -1
    _samples: int = 0
    _patched: list = field(default_factory=list)

    def count(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def keep(self, key: str, value) -> None:
        """Keep a call's output for the correctness checks after a round."""
        self.results.setdefault(key, []).append(value)

    def install(self, sites) -> None:
        """Wrap every site; raises if a module or attribute is missing."""
        try:
            for site in sites:
                owner, leaf = _resolve(site.module, site.attr)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self._wrap(site, original))
                self._patched.append((owner, leaf, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def unwind(self, depth: int) -> None:
        """Close spans left open above ``depth`` by an interrupted call.

        An interrupt that lands inside a wrapper's own bookkeeping can skip
        its ``finally``; this puts the stack back where the caller began.
        """
        now = self.clock()
        while len(self._stack) > depth:
            span = self.spans[self._stack.pop()]
            if span.end is None:
                span.end = now
        if not self._stack:
            self._sample = -1

    @property
    def depth(self) -> int:
        return len(self._stack)

    def _wrap(self, site: Site, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            owns_sample = site.sample and tracer._sample < 0
            if owns_sample:
                tracer._sample = tracer._samples
                tracer._samples += 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            span = Span(site.name, 0.0, None, parent, tracer._sample)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if site.on_error is not None:
                    site.on_error(tracer, exc)
                raise
            finally:
                span.end = tracer.clock()
                stack.pop()
                if owns_sample:
                    tracer._sample = -1
            span.ok = True
            if site.on_result is not None:
                site.on_result(tracer, out, args)
            return out

        return wrapper


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    parts = attr.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
    if parts[-1] not in getattr(obj, "__dict__", {}):
        raise MeasurementError(f"cannot trace {module}.{attr}: attribute is missing")
    return obj, parts[-1]


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals.

    Children are clipped to their parent, so overlapping or overhanging
    child spans are not double counted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo = max(lo, span.start)
            hi = min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out
