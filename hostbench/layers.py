"""Host-time layer tracing from outside the program.

The benchmark never edits ``src/``.  Instead :class:`LayerTracer`
replaces a layer's public function or method with a wrapper at import
time (:meth:`LayerTracer.wrap`).  A timed wrapper opens a span on entry
and closes it on exit; a span's *self time* is its duration minus the
durations of the spans opened inside it.  Spans are folded into
per-span accumulators as they close, so a run of millions of events
keeps constant memory.  The outermost span of an operation is the root:
its self time is the time no named layer covers, reported as ``other``.

Hot functions (the PIC pending check) are wrapped with a counter only,
because a timer per call would cost more than the call itself.

Wrappers do nothing but call through while the tracer is inactive, so
the benchmark's own checks, which run between operations, are never
attributed to a layer.

A fleet worker traces its own jobs with a tracer of its own (root span
:data:`JOB`) and hands its totals over through a file
(:meth:`LayerTracer.dump`, :meth:`LayerTracer.merge`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Root span name for one timed operation.
ROOT = "op"
#: Root span name for one job inside a fleet worker.
JOB = "job"
#: Set in a fleet worker's environment to the directory its totals go
#: to; the worker then traces its own jobs (``run.py``).
WORKER_TRACE_ENV = "HOSTBENCH_WORKER_TRACE"


class Acc:
    """Totals for one span name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class LayerTracer:
    """Span stack plus per-name accumulators and counters."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns
                 ) -> None:
        self.clock = clock
        self.active = False
        self._stack: List[list] = []
        self.acc: Dict[str, Acc] = defaultdict(Acc)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Timestamps keyed by the probe that set them (job dispatch).
        self.marks: Dict[str, float] = {}
        self._installed: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        name, start, child_ns = self._stack.pop()
        duration = self.clock() - start
        acc = self.acc[name]
        acc.calls += 1
        acc.total_ns += duration
        acc.self_ns += duration - child_ns
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def self_ms(self, name: str) -> float:
        return self.acc[name].self_ns / 1e6 if name in self.acc else 0.0

    def total_ms(self, name: str) -> float:
        return self.acc[name].total_ns / 1e6 if name in self.acc else 0.0

    def calls(self, name: str) -> int:
        return self.acc[name].calls if name in self.acc else 0

    # -- across processes ----------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the accumulators and counts to ``path`` atomically."""
        data = {"acc": {name: [acc.calls, acc.total_ns, acc.self_ns]
                        for name, acc in self.acc.items()},
                "counts": dict(self.counts)}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)

    def merge(self, path: Path) -> None:
        """Add the totals another process dumped to ``path``."""
        data = json.loads(path.read_text())
        for name, (calls, total_ns, self_ns) in data["acc"].items():
            acc = self.acc[name]
            acc.calls += calls
            acc.total_ns += total_ns
            acc.self_ns += self_ns
        for key, value in data["counts"].items():
            self.counts[key] += value

    # -- wrapping ------------------------------------------------------------

    def wrap(self, module: str, attr: str, span: Optional[str] = None,
             probe: Optional[Callable] = None) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``).

        ``span`` names a timed span; ``None`` makes a count-only
        wrapper that bumps ``counts[attr]``.  ``probe(tracer, args,
        kwargs)`` may return a callable that receives the result after
        the call returns, for counts that need the arguments or result
        (bytes appended, instructions retired, frames applied).

        A module-level function is also rebound in every loaded
        ``repro`` module that imported it by name, so callers that did
        ``from x import f`` see the wrapper too.
        """
        owner = importlib.import_module(module)
        parts = attr.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        name = parts[-1]
        original = getattr(owner, name)
        tracer = self
        count_key = attr

        if span is None:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.counts[count_key] += 1
                return original(*args, **kwargs)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return original(*args, **kwargs)
                after = probe(tracer, args, kwargs) if probe else None
                tracer.enter(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.exit()
                if after is not None:
                    after(result)
                return result

        setattr(owner, name, wrapper)
        self._installed.append((owner, name, original))
        if len(parts) == 1:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and mod is not owner \
                        and getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    self._installed.append((mod, name, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()


def waterfall(tracer: LayerTracer, layers: Dict[str, List[str]],
              root: str = ROOT) -> Dict[str, float]:
    """Self milliseconds per layer plus ``other`` (the root's self time).

    ``layers`` maps a layer name to the span names it owns.  The values
    sum to the root span's total duration.
    """
    out = {layer: sum(tracer.self_ms(name) for name in names)
           for layer, names in layers.items()}
    out["other"] = tracer.self_ms(root)
    return out
