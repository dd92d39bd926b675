"""A set-associative LRU data cache.

The machine models (Tables 1 and 2) give each platform its L1
parameters; the simulator routes every array-element access through this
cache so effects like the extra footprint of replicated arrays (Section
7.2: "data replication ... has a negative impact on the cache
behavior") show up in the measured cycle counts.

Each set is a dict used as an ordered set (insertion order == LRU
order, oldest first): a hit deletes and re-inserts the line to move it
to the MRU end, a fill past capacity evicts the first key. This is
O(1) per access where the previous list representation paid an
O(ways) scan plus an O(ways) ``list.remove`` shuffle. Every run builds
a fresh cache, so a set's dict is made only when the set is first
touched: a suite-paper run on the AMD model touches 186 of its 512
sets on average.

``replay_lines``, the whole-stream replay of the batched and compiled
engines, gives the same results as one ``touch_line`` per access: it
partitions the stream by set, drops every access that repeats its
set's previous line — a hit on the MRU line, which changes nothing —
and runs the dict machine over the rest. ``touch_line`` is plain
Python; the replay imports NumPy when a run first needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..errors import SimulationError
from ..perf import count

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int
    line_bytes: int
    ways: int
    miss_penalty: float  # extra cycles per miss (next-level latency)

    @property
    def sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.ways)
        if sets <= 0:
            raise SimulationError("cache too small for its associativity")
        return sets


class Cache:
    """LRU set-associative cache over byte addresses."""

    def __init__(self, config: CacheConfig):
        self.config = config
        #: Per set, its lines in LRU order, or None until first touched.
        self._sets: List[Optional[dict]] = [None] * config.sets
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters; cache contents are untouched."""
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Drop every cached line; hit/miss counters are untouched."""
        self._sets = [None] * self.config.sets

    def lines(self) -> List[List[int]]:
        """Per-set resident lines in LRU order (oldest first)."""
        return [list(ways or ()) for ways in self._sets]

    def touch_line(self, line: int) -> bool:
        """Access one line; returns True on hit."""
        index = line % self.config.sets
        ways = self._sets[index]
        if ways is None:
            ways = self._sets[index] = {}
        if line in ways:
            del ways[line]
            ways[line] = None
            self.hits += 1
            return True
        self.misses += 1
        ways[line] = None
        if len(ways) > self.config.ways:
            del ways[next(iter(ways))]
        return False

    def access(self, address: int, size_bytes: int) -> int:
        """Access a byte range; returns the number of line misses."""
        return self.access_stats(address, size_bytes)[1]

    def access_stats(self, address: int, size_bytes: int) -> Tuple[int, int]:
        """Access a byte range; returns ``(lines_touched, misses)``.

        Counting accesses in line units keeps per-array hit/miss
        accounting consistent: a wide access spanning two lines is two
        line accesses, so hits = accesses - misses never goes negative.
        """
        first = address // self.config.line_bytes
        last = (address + size_bytes - 1) // self.config.line_bytes
        misses = 0
        for line in range(first, last + 1):
            if not self.touch_line(line):
                misses += 1
        return last - first + 1, misses

    def replay_lines(
        self, lines: Union[Sequence[int], np.ndarray]
    ) -> np.ndarray:
        """Replay a chronological line-ID stream through the LRU state
        machine; returns a boolean hit mask, one entry per element.

        Equivalent to ``[self.touch_line(l) for l in lines]`` — same
        final cache state, same hit/miss totals — but the per-access
        Python loop visits only the accesses that can change state.
        Sets are independent state machines, so the stream is stably
        partitioned by set (reordering accesses *across* sets commutes;
        within a set order is preserved). An access equal to the
        previous access of its own set finds that line already MRU: a
        hit that changes nothing, dropped before the loop. The dict
        machine runs over what is left, set by set, and only its misses
        are scattered back to chronological positions.
        """
        import numpy as np

        arr = _check_stream(lines)
        n = arr.shape[0]
        result = np.ones(n, dtype=bool)
        if n == 0:
            return result
        nsets = self.config.sets
        capacity = self.config.ways
        # Set IDs in the narrowest dtype that holds them: NumPy's stable
        # sort is a radix sort for 8- and 16-bit keys.
        set_ids = (arr % nsets).astype(np.min_scalar_type(nsets - 1))
        order = np.argsort(set_ids, kind="stable")
        grouped = arr[order]
        # Lines of different sets never compare equal, so comparing
        # neighbours across the whole partition finds exactly the
        # repeats of a set's previous line.
        visit = np.empty(n, dtype=bool)
        visit[0] = True
        np.not_equal(grouped[1:], grouped[:-1], out=visit[1:])
        visited = grouped[visit].tolist()
        sets = self._sets
        missed: List[int] = []
        append = missed.append
        for k, line in enumerate(visited):
            ways = sets[line % nsets]
            if ways is None:
                ways = sets[line % nsets] = {}
            # pop() answers "resident?" and unlinks the line in one
            # lookup (residents map to None); re-inserting makes it MRU.
            if ways.pop(line, True):
                ways[line] = None
                if len(ways) > capacity:
                    del ways[next(iter(ways))]
                append(k)
            else:
                ways[line] = None
        result[order[visit][missed]] = False
        self.hits += n - len(missed)
        self.misses += len(missed)
        count("simulate.replay_lines", n)
        count("simulate.replay_visits", len(visited))
        return result


def _check_stream(lines: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """Validate a replay stream: one-dimensional, integral line IDs.

    The replay reorders accesses across sets, which is only sound for
    a flat chronological stream of whole-line IDs; anything else
    (a 2-D firsts/counts matrix passed unexpanded, float addresses not
    divided down to lines) indicates a caller bug and dies loudly with
    a structured error instead of corrupting LRU state.
    """
    import numpy as np

    arr = np.asarray(lines)
    if arr.ndim != 1:
        raise SimulationError(
            f"cache replay stream must be one-dimensional, got shape "
            f"{arr.shape}",
            rule="cache.replay-stream",
        )
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise SimulationError(
            f"cache replay stream must hold integer line IDs, got dtype "
            f"{arr.dtype}",
            rule="cache.replay-stream",
        )
    arr = arr.astype(np.int64, copy=False)
    if arr.size and int(arr.min()) < 0:
        raise SimulationError(
            f"cache replay stream holds negative line ID "
            f"{int(arr.min())} (underflowed base address?)",
            rule="cache.replay-stream",
        )
    return arr
