"""The instrumentation spine: one nestable span primitive, two sinks,
and event counters.

Every future PR changes something on the compiler's hot path; this
module makes those changes visible instead of anecdotal. Both sinks are
**off by default** and a span opened with both off is one shared null
object, so production compiles pay one call per span site::

    from repro.perf import PERF, count, span

    PERF.enable()
    with span("slp.grouping"):
        ...                      # nested span() calls stack
    count("grouping.scores_recomputed")
    print(PERF.report())

Spans nest dynamically on one stack; a span's *path* is the ``;``-joined
names of the spans open around it and itself
(``compile;block;slp.grouping;round;slp.vp_graph``). One span feeds two
sinks:

* with ``PERF`` enabled, its exit adds ``(seconds, calls)`` to the
  registry's ``sections`` under its path, and only there;
* with ``repro.trace.TRACE`` enabled, its entry and exit emit
  ``span.begin``/``span.end`` events (``span.end`` carries
  ``wall_ms``), and every event emitted while it is open carries its
  path; ``TRACE.current`` reads the fields of the spans on this stack.

Span names are the layers of the repository benchmark: a ``compile``
root, the layers ``transform``, ``analysis.deps``, ``slp.grouping``,
``slp.vp_graph``, ``slp.schedule``, ``slp.baseline``, ``layout``,
``codegen.vector`` and ``codegen.scalar``, and the
:data:`CONTEXT_SPANS`. The simulator's span is ``simulate``. A path's
*self time* is its total minus its direct children's; summed over every
path under a root it telescopes to the root's total, so per-layer self
times add up to the compile time.

Counters are plain named integers. The registry supports
snapshot/merge so worker processes (the parallel bench runner, the
service's workers) can ship their measurements back to the parent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List


#: Spans that give events their context but are not layers: ``block``
#: (one basic block in one compile phase), ``round`` (one iterative
#: grouping round) and ``runtime`` (folded simulator costs). The report
#: counts their self time toward the nearest enclosing layer.
CONTEXT_SPANS = frozenset({"block", "round", "runtime"})


@dataclass
class SectionStat:
    """Accumulated wall time and entry count of one span path."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, seconds: float, calls: int = 1) -> None:
        self.seconds += seconds
        self.calls += calls


class _NullSpan:
    """What ``span`` returns while both sinks are off: a shared,
    stateless no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One open span: a frame on its registry's stack."""

    __slots__ = (
        "registry", "name", "fields", "path", "started", "traced",
        "_generation",
    )

    def __init__(
        self, registry: "PerfRegistry", name: str, fields: Dict[str, Any]
    ):
        self.registry = registry
        self.name = name
        self.fields = fields

    def __enter__(self) -> "_Span":
        registry = self.registry
        trace = _trace.TRACE
        # ``span.begin`` carries the enclosing path, so it is emitted
        # before this frame is pushed (and ``span.end`` after the pop).
        self.traced = trace.enabled
        if self.traced:
            trace._emit("span.begin", {"name": self.name, **self.fields})
        stack = registry.stack
        self.path = f"{stack[-1].path};{self.name}" if stack else self.name
        stack.append(self)
        self._generation = registry._generation
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self.started
        registry = self.registry
        stack = registry.stack
        # A reset while this span was open emptied the stack and bumped
        # the generation; unwinding must not pop frames of the new
        # epoch, record a stale path or end a span the trace never began.
        if (
            registry._generation != self._generation
            or not stack
            or stack[-1] is not self
        ):
            return
        stack.pop()
        if registry.enabled:  # disabled mid-span: drop the partial timing
            stat = registry.sections.get(self.path)
            if stat is None:
                stat = registry.sections[self.path] = SectionStat()
            stat.add(elapsed)
        trace = _trace.TRACE
        if self.traced and trace.enabled:
            trace._emit(
                "span.end",
                {"name": self.name, "wall_ms": round(elapsed * 1e3, 3)},
            )


class PerfRegistry:
    """Process-global span stack, span timings and counters."""

    def __init__(self) -> None:
        self.enabled = False
        #: ``;``-joined span path -> accumulated time and calls.
        self.sections: Dict[str, SectionStat] = {}
        self.counters: Dict[str, int] = {}
        #: The open spans, innermost last.
        self.stack: List[_Span] = []
        self._generation = 0

    # -- control ---------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Clear all measurements. Safe while spans are open (see
        :meth:`drop_open_spans`)."""
        self.sections.clear()
        self.counters.clear()
        self.drop_open_spans()

    def drop_open_spans(self) -> None:
        """Forget every open span: the generation bump makes their
        pending exits record and emit nothing. Both sinks' resets call
        this, so neither can leave the other a half-open span."""
        self.stack.clear()
        self._generation += 1

    # -- recording -------------------------------------------------------------

    def span(self, name: str, **fields: Any):
        """A context manager timing and tracing one region; ``fields``
        land on its ``span.begin`` event and in ``TRACE.current``."""
        if self.enabled or _trace.TRACE.enabled:
            return _Span(self, name, fields)
        return _NULL_SPAN

    def count(self, name: str, delta: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + delta

    # -- aggregation -----------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A picklable copy of everything recorded so far."""
        return {
            "sections": {
                name: (stat.seconds, stat.calls)
                for name, stat in self.sections.items()
            },
            "counters": dict(self.counters),
        }

    def merge(self, snapshot: Dict[str, object]) -> None:
        """Fold a worker's :meth:`snapshot` into this registry."""
        for name, (seconds, calls) in snapshot.get("sections", {}).items():
            stat = self.sections.get(name)
            if stat is None:
                stat = self.sections[name] = SectionStat()
            stat.add(seconds, calls)
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value

    def self_times(self) -> Dict[str, float]:
        """Span path -> self seconds: the path's total minus its direct
        children's totals."""
        own = {path: stat.seconds for path, stat in self.sections.items()}
        for path, stat in self.sections.items():
            parent = path.rpartition(";")[0]
            if parent in own:
                own[parent] -= stat.seconds
        return own

    def collapsed(self) -> str:
        """The collapsed-stack (flamegraph) form: one ``path count``
        line per path, sorted, counting self time in microseconds. A
        path whose self time rounds to 0 µs is left out."""
        lines = []
        for path, seconds in sorted(self.self_times().items()):
            micros = round(seconds * 1e6)
            if micros > 0:
                lines.append(f"{path} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def report(self) -> str:
        """Human-readable per-layer split: each layer's self time summed
        over its paths (a context span's goes to the nearest enclosing
        layer), each root span's total, then the counters."""
        by_layer: Dict[str, SectionStat] = {}
        for path, seconds in self.self_times().items():
            names = path.split(";")
            layer = next(
                (n for n in reversed(names) if n not in CONTEXT_SPANS),
                names[-1],
            )
            stat = by_layer.setdefault(layer, SectionStat())
            stat.add(
                seconds,
                self.sections[path].calls if layer == names[-1] else 0,
            )
        roots = {
            path: stat for path, stat in self.sections.items()
            if ";" not in path
        }
        lines = ["-- self time --"]
        lines += _stat_lines(by_layer)
        lines.append("-- total --")
        lines += _stat_lines(roots)
        if self.counters:
            lines.append("-- counters --")
            cwidth = max(len(n) for n in self.counters)
            for name in sorted(self.counters):
                lines.append(
                    f"  {name:<{cwidth}}  {self.counters[name]}"
                )
        return "\n".join(lines)


def _stat_lines(stats: Dict[str, SectionStat]) -> List[str]:
    width = max((len(n) for n in stats), default=0)
    return [
        f"  {name:<{width}}  {stats[name].seconds * 1e3:10.2f} ms"
        f"  x{stats[name].calls}"
        for name in sorted(stats, key=lambda n: -stats[n].seconds)
    ]


#: The process-global registry every call site shares.
PERF = PerfRegistry()

#: ``span(name, **fields)``: the one instrumentation span, on ``PERF``.
span = PERF.span


def count(name: str, delta: int = 1) -> None:
    """Module-level shorthand for ``PERF.count(name, delta)``."""
    PERF.count(name, delta)


# ``repro.trace`` imports ``PERF`` from here, so this module binds the
# trace module last and reads ``TRACE`` from it at call time.
from . import trace as _trace  # noqa: E402
