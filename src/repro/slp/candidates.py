"""Candidate group identification — step 1 of the basic grouping
algorithm (Section 4.2.1, Figure 10 line 1).

A candidate group is an unordered pair of units (statements, or groups
from an earlier iterative round) that are isomorphic, mutually
dependence free, and fit the SIMD datapath —
:meth:`~repro.slp.model.GroupNode.can_merge_with`, which stays the
per-pair definition the tests check this search against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..analysis import DependenceGraph
from ..perf import count
from ..trace import TRACE
from .model import CandidateGroup, GroupNode


def find_candidates(
    units: Sequence[GroupNode],
    deps: DependenceGraph,
    datapath_bits: int,
) -> List[CandidateGroup]:
    """All valid candidate pairs among ``units``, ordered by
    :meth:`CandidateGroup.key`; each pair's ``left`` is the unit that
    comes first in ``units``.

    Units are bucketed by isomorphism signature and size, so pairing is
    quadratic only within a bucket, and a bucket too wide for the
    datapath is skipped whole: the signature fixes the target's type,
    so all units of one bucket are equally wide. Each unit's dependence
    partners are one OR of ``deps.successor_bits`` and
    ``predecessor_bits`` over its statements, so a pair is one AND with
    the other unit's statement bits. A round's units are
    statement-disjoint, so two keys order like the first statements of
    their units, smaller first: the pairs sort once on that int.
    """
    by_signature: Dict[Tuple, List[int]] = {}
    for position, unit in enumerate(units):
        by_signature.setdefault(unit.signature, []).append(position)

    successors = deps.successor_bits
    predecessors = deps.predecessor_bits
    shift = max((unit.sids[0] for unit in units), default=0).bit_length()
    found: List[Tuple[int, int, int]] = []
    pairs_examined = 0
    for bucket in by_signature.values():
        if len(bucket) < 2:
            continue
        pairs_examined += len(bucket) * (len(bucket) - 1) // 2
        by_size: Dict[int, List[Tuple[int, int]]] = {}
        for position in bucket:
            unit = units[position]
            by_size.setdefault(unit.size, []).append(
                (unit.sids[0], position)
            )
        for same in by_size.values():
            if len(same) < 2:
                continue
            if 2 * units[same[0][1]].width_bits > datapath_bits:
                continue
            # By first statement, so the later unit of each pair is the
            # low half of its key.
            same.sort()
            bits = []
            dependents = []
            for _first, position in same:
                sid_bits = linked = 0
                for sid in units[position].sids:
                    sid_bits |= 1 << sid
                    linked |= successors(sid) | predecessors(sid)
                bits.append(sid_bits)
                dependents.append(linked)
            for i in range(len(same) - 1):
                first, position = same[i]
                linked = dependents[i]
                high = first << shift
                for j in range(i + 1, len(same)):
                    if not linked & bits[j]:
                        other_first, other = same[j]
                        found.append(
                            (high | other_first, position, other)
                            if position < other
                            else (high | other_first, other, position)
                        )
    count("candidates.pairs_examined", pairs_examined)
    found.sort()
    candidates = [
        CandidateGroup(units[left], units[right])
        for _key, left, right in found
    ]
    if TRACE.enabled:
        TRACE.event(
            "candidates.search",
            units=len(units),
            pairs_examined=pairs_examined,
            found=len(candidates),
        )
    return candidates
