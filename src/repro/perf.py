"""Compile-time observability: a process-global registry of nestable
section timers and event counters.

Every future PR changes something on the compiler's hot path; this
module makes those changes visible instead of anecdotal. The registry is
**off by default** and costs one attribute load per call site when
disabled, so production compiles pay nothing. Enable it around a region
of interest::

    from repro.perf import PERF, section, count

    PERF.enable()
    with section("grouping.decide"):
        ...                      # nested section() calls stack
    count("grouping.scores_recomputed")
    print(PERF.report())

Sections are identified by dotted names. Nesting is tracked dynamically:
a section entered while another is open records under
``outer;inner`` as well as its own flat name: the report shows the flat
totals, and the stage profile (``repro.telemetry.profile``) shows where
the time actually sat. Counters are plain named integers.

The registry also supports snapshot/merge so worker processes (the
parallel bench runner) can ship their measurements back to the parent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class SectionStat:
    """Accumulated wall time and entry count of one section name."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, seconds: float, calls: int = 1) -> None:
        self.seconds += seconds
        self.calls += calls


class _NullSection:
    """The disabled-path context manager: a shared, stateless no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SECTION = _NullSection()


class _Section:
    """One live timer; records on exit under both the flat name and the
    ``;``-joined nesting path."""

    __slots__ = ("registry", "name", "path", "started", "_generation")

    def __init__(self, registry: "PerfRegistry", name: str):
        self.registry = registry
        self.name = name
        self.path = ""
        self.started = 0.0
        self._generation = -1

    def __enter__(self) -> "_Section":
        registry = self.registry
        stack = registry._stack
        self.path = (
            f"{stack[-1]};{self.name}" if stack else self.name
        )
        stack.append(self.path)
        self._generation = registry._generation
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self.started
        registry = self.registry
        stack = registry._stack
        # A reset() while this section was open cleared the stack (and
        # bumped the generation); unwinding must not pop frames that
        # belong to the new epoch or record against the stale path.
        if (
            registry._generation != self._generation
            or not stack
            or stack[-1] != self.path
        ):
            return
        stack.pop()
        if not registry.enabled:
            return  # disabled mid-section: drop the partial timing
        registry._record(self.name, elapsed)
        if self.path != self.name:
            registry._record(self.path, elapsed)


class PerfRegistry:
    """Process-global store of section timings and counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.sections: Dict[str, SectionStat] = {}
        self.counters: Dict[str, int] = {}
        self._stack: List[str] = []
        self._generation = 0

    # -- control ---------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Clear all measurements. Safe while sections are open: the
        generation bump invalidates their pending ``__exit__``."""
        self.sections.clear()
        self.counters.clear()
        self._stack.clear()
        self._generation += 1

    # -- recording -------------------------------------------------------------

    def section(self, name: str):
        """A context manager timing one region; no-op when disabled."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, name)

    def count(self, name: str, delta: int = 1) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + delta

    def _record(self, name: str, seconds: float) -> None:
        stat = self.sections.get(name)
        if stat is None:
            stat = self.sections[name] = SectionStat()
        stat.add(seconds)

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

    def report(self) -> str:
        """Human-readable timings table of the flat section names."""
        lines = ["-- timings --"]
        names = [name for name in self.sections if ";" not in name]
        width = max((len(n) for n in names), default=0)
        for name in sorted(
            names, key=lambda n: -self.sections[n].seconds
        ):
            stat = self.sections[name]
            lines.append(
                f"  {name:<{width}}  {stat.seconds * 1e3:10.2f} ms"
                f"  x{stat.calls}"
            )
        if self.counters:
            lines.append("-- counters --")
            cwidth = max(len(n) for n in self.counters)
            for name in sorted(self.counters):
                lines.append(
                    f"  {name:<{cwidth}}  {self.counters[name]}"
                )
        return "\n".join(lines)


#: The process-global registry every call site shares.
PERF = PerfRegistry()


def section(name: str):
    """Module-level shorthand for ``PERF.section(name)``."""
    return PERF.section(name)


def count(name: str, delta: int = 1) -> None:
    """Module-level shorthand for ``PERF.count(name, delta)``."""
    PERF.count(name, delta)
