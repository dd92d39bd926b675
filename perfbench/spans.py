"""Span recorders patched around the public calls of each layer.

The traced run installs one wrapper per (owner, attribute) pair listed in
:data:`COMPILE_PATCHES`. Each wrapper sits where the *caller* looks the
name up (``repro.compiler.unroll_program``, not
``repro.transform.unroll.unroll_program``), so the program's own code is
never edited. A span records its name, start, end, parent span and the
op it belongs to; spans stay in memory until :meth:`Recorder.dump`.

A layer's time is its spans' *self* time: duration minus the time its
child spans cover. Wrappers cost a few microseconds per call, which is
why traced numbers are never mixed with untraced ones.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Dict, List, Optional, Tuple

#: (module, owner attribute path, span name). The owner is a module
#: namespace for functions and classes called by name, or a class for
#: methods. ``find_candidates`` is counted, not timed: its time stays
#: in the grouping loop's self time (see ``COUNTED``).
COMPILE_PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.compiler", "if_convert_program", "transform"),
    ("repro.compiler", "unroll_program", "transform"),
    ("repro.compiler", "DependenceGraph", "analysis.deps"),
    ("repro.compiler", "greedy_slp_schedule", "slp.baseline"),
    ("repro.compiler", "native_schedule", "slp.baseline"),
    ("repro.slp", "iterative_grouping", "slp.grouping"),
    ("repro.slp.grouping", "VariablePackGraph", "slp.vp_graph"),
    ("repro.slp.scheduling", "Scheduler.run", "slp.schedule"),
    ("repro.compiler", "optimized_scalar_layout", "layout"),
    ("repro.compiler", "plan_array_layout", "layout"),
    ("repro.compiler", "apply_array_layout", "layout"),
    ("repro.vm.codegen", "VectorCodegen.compile", "codegen.vector"),
    ("repro.compiler", "compile_scalar_block", "codegen.scalar"),
    ("repro.vm.simulator", "Simulator.run", "vm.simulate"),
)

#: Calls whose returned collection size is summed into a counter.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.slp.grouping", "find_candidates", "slp.candidates"),
)


class Recorder:
    """In-memory span store with a parent stack and a current op id."""

    def __init__(self) -> None:
        # (name, start, end, parent index, op id); a slot is reserved at
        # entry so a parent always has a smaller index than its children.
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[str, int] = {}
        self.op_id: Optional[int] = None
        self._stack: List[int] = []

    # -- recording -------------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def timed(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(recorder, name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.op_id is not None:
                counts[name] = counts.get(name, 0) + len(result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Replace every listed name with its recorder, for the rest of
        the process (a traced workload process never runs untraced)."""
        import importlib

        for table, make in ((COMPILE_PATCHES, self.timed), (COUNTED, self.counted)):
            for module_name, path, name in table:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                setattr(owner, attr, make(name, getattr(owner, attr)))

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> List[Tuple[str, float, Optional[int], float]]:
        """``(name, self seconds, op id, duration)`` for every span."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children[parent] += end - start
        return [
            (name, (end - start) - children[index], op, end - start)
            for index, (name, start, end, _parent, op) in enumerate(self.spans)
        ]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("recorder", "name", "index", "parent", "start")

    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        recorder = self.recorder
        stack = recorder._stack
        self.parent = stack[-1] if stack else -1
        self.index = len(recorder.spans)
        recorder.spans.append(None)
        stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        recorder = self.recorder
        recorder._stack.pop()
        recorder.spans[self.index] = (
            self.name, self.start, end, self.parent, recorder.op_id
        )
        return False
