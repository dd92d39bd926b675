"""Candidate group identification — step 1 of the basic grouping
algorithm (Section 4.2.1, Figure 10 line 1).

A candidate group is an unordered pair of units (statements, or groups
from an earlier iterative round) that are isomorphic, mutually
dependence free, and fit the SIMD datapath.
"""

from __future__ import annotations

import itertools
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
    """All valid candidate pairs among ``units``, deterministically
    ordered by their canonical key.

    Units are bucketed by isomorphism signature first, so the pass is
    quadratic only within each isomorphism class. Degenerate single-unit
    buckets — the common case on blocks with little isomorphism — are
    skipped before any pairing work, and the final sort only runs when
    something was actually found.
    """
    by_signature: Dict[Tuple, List[GroupNode]] = {}
    for unit in units:
        by_signature.setdefault(unit.signature, []).append(unit)

    candidates: List[CandidateGroup] = []
    pairs_examined = 0
    for bucket in by_signature.values():
        if len(bucket) < 2:
            continue
        for a, b in itertools.combinations(bucket, 2):
            pairs_examined += 1
            if a.can_merge_with(b, deps, datapath_bits):
                candidates.append(CandidateGroup(a, b))
    count("candidates.pairs_examined", pairs_examined)
    if candidates:
        candidates.sort(key=lambda c: c.key())
    if TRACE.enabled:
        TRACE.event(
            "candidates.search",
            units=len(units),
            pairs_examined=pairs_examined,
            found=len(candidates),
        )
    return candidates
