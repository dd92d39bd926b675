"""A collapsed-stack (flamegraph-compatible) profile of the compile stages.

The output is the classic ``frame;frame;frame count`` collapsed-stack
format that ``flamegraph.pl``, speedscope, and every flame viewer
ingest. :func:`stage_collapsed` derives it from a ``repro.perf``
snapshot: ``PerfRegistry`` already records every section under its
``;``-joined dynamic nesting path (``compile;grouping;grouping.decide``)
— exactly a collapsed stack, with wall seconds instead of sample
counts. This module rebuilds the tree, computes per-node *self* time,
and emits counts in microseconds.

Only the set of stacks is stable: which sections ran inside which
depends on the compile alone, so two profiles of one compile list the
same stacks in the same order (a stack whose self time rounds to 0 µs
is left out). The counts are wall-clock microseconds and differ on
every run.

The ``repro profile`` CLI fronts it.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple


def stage_tree(
    perf_snapshot: Dict[str, Any]
) -> Dict[Tuple[str, ...], float]:
    """Rebuild the section nesting tree from a ``PerfRegistry``
    snapshot: node path -> *total* seconds attributed to that path.

    ``PerfRegistry`` records a nested section under both its flat name
    and its full ``;`` path; top-level sections only under the flat
    name. A flat name's root-level share is therefore its flat total
    minus every nested occurrence (paths ending in ``;name``).
    """
    sections = {
        name: float(seconds)
        for name, (seconds, _calls) in perf_snapshot.get(
            "sections", {}
        ).items()
    }
    tree: Dict[Tuple[str, ...], float] = {}
    for name, seconds in sections.items():
        if ";" in name:
            tree[tuple(name.split(";"))] = seconds
    for name, seconds in sections.items():
        if ";" in name:
            continue
        nested = sum(
            secs
            for path, secs in sections.items()
            if ";" in path and path.split(";")[-1] == name
        )
        root_share = seconds - nested
        if root_share > 1e-12 or not nested:
            tree[(name,)] = root_share
    return tree


def stage_collapsed(perf_snapshot: Dict[str, Any]) -> str:
    """Collapsed-stack lines from a perf snapshot; counts are the
    node's **self** microseconds (total minus direct children), so a
    flame viewer reconstructs totals by summation exactly."""
    tree = stage_tree(perf_snapshot)
    lines = []
    for path in sorted(tree):
        total = tree[path]
        children = sum(
            seconds
            for child, seconds in tree.items()
            if len(child) == len(path) + 1 and child[: len(path)] == path
        )
        self_us = int(round(max(0.0, total - children) * 1e6))
        if self_us > 0:
            lines.append(";".join(path) + f" {self_us}")
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = ["stage_collapsed", "stage_tree"]
