"""The set-associative LRU cache model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perf import PERF
from repro.vm import Cache, CacheConfig


def small_cache(ways=2, sets=4, line=64):
    return Cache(
        CacheConfig(
            size_bytes=ways * sets * line,
            line_bytes=line,
            ways=ways,
            miss_penalty=10.0,
        )
    )


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0, 8) == 1
        assert cache.access(0, 8) == 0
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_different_offset_hits(self):
        cache = small_cache()
        cache.access(0, 8)
        assert cache.access(32, 8) == 0

    def test_straddling_access_touches_two_lines(self):
        cache = small_cache()
        assert cache.access(60, 8) == 2

    def test_wide_access_counts_all_lines(self):
        cache = small_cache()
        assert cache.access(0, 256) == 4


class TestReplacement:
    def test_lru_eviction_within_set(self):
        cache = small_cache(ways=2, sets=1, line=64)
        cache.access(0, 1)      # line 0
        cache.access(64, 1)     # line 1
        cache.access(128, 1)    # line 2 evicts line 0
        assert cache.access(64, 1) == 0   # line 1 still resident
        assert cache.access(0, 1) == 1    # line 0 was evicted

    def test_touch_refreshes_lru_position(self):
        cache = small_cache(ways=2, sets=1, line=64)
        cache.access(0, 1)
        cache.access(64, 1)
        cache.access(0, 1)      # refresh line 0
        cache.access(128, 1)    # evicts line 1, not line 0
        assert cache.access(0, 1) == 0
        assert cache.access(64, 1) == 1

    def test_sets_are_independent(self):
        cache = small_cache(ways=1, sets=2, line=64)
        cache.access(0, 1)      # set 0
        cache.access(64, 1)     # set 1
        assert cache.access(0, 1) == 0
        assert cache.access(64, 1) == 0


class TestConfig:
    def test_sets_computed_from_geometry(self):
        config = CacheConfig(32 * 1024, 64, 8, 12.0)
        assert config.sets == 64

    def test_invalid_geometry_rejected(self):
        config = CacheConfig(64, 64, 8, 12.0)
        with pytest.raises(ValueError):
            _ = config.sets

    def test_flush_and_reset(self):
        cache = small_cache()
        cache.access(0, 8)
        cache.flush()
        cache.reset_stats()
        assert cache.access(0, 8) == 1
        assert cache.misses == 1


class TestEvictionOrder:
    """The ordered-dict LRU keeps the precise eviction sequence under
    associativity conflicts — pinned via the ``lines()`` inspection
    hook."""

    def test_lines_reports_lru_order(self):
        cache = small_cache(ways=4, sets=1, line=64)
        for line in (3, 1, 4, 1, 5):
            cache.touch_line(line)
        # Oldest-first: 3, 4, 1, 5 (line 1 refreshed by its second touch).
        assert cache.lines() == [[3, 4, 1, 5]]

    def test_conflict_evicts_in_recency_order(self):
        cache = small_cache(ways=2, sets=2, line=64)
        # Set 0 holds even lines, set 1 odd lines.
        for line in (0, 2, 1, 3, 4):   # 4 conflicts in set 0, evicts 0
            cache.touch_line(line)
        assert cache.lines() == [[2, 4], [1, 3]]
        assert not cache.touch_line(0)   # line 0 gone
        assert cache.lines()[0] == [4, 0]  # ...and 2 was evicted for it

    def test_repeated_conflict_cycles_through_ways(self):
        cache = small_cache(ways=2, sets=1, line=64)
        order = []
        for line in (0, 1, 2, 0, 1, 2):
            cache.touch_line(line)
            order.append(cache.lines()[0])
        # Classic thrash: every access past the first two misses and
        # evicts the oldest of the two residents.
        assert cache.hits == 0
        assert cache.misses == 6
        assert order[-1] == [1, 2]


class TestFlushVsResetStats:
    def test_flush_keeps_counters_drops_contents(self):
        cache = small_cache()
        cache.access(0, 8)
        cache.access(0, 8)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.flush()
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.lines() == [[] for _ in range(cache.config.sets)]
        assert cache.access(0, 8) == 1   # cold again

    def test_reset_stats_keeps_contents_drops_counters(self):
        cache = small_cache()
        cache.access(0, 8)
        cache.reset_stats()
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.lines()[0] == [0]
        assert cache.access(0, 8) == 0   # still resident
        assert (cache.hits, cache.misses) == (1, 0)


#: (sets, ways): direct-mapped caches (one of them 64 sets), the paper
#: machines' 64-set L1 shapes (Intel 8-way, AMD 2-way), and a fully
#: associative one.
REPLAY_SHAPES = [(4, 1), (64, 1), (64, 8), (64, 2), (1, 4), (8, 4)]


@st.composite
def replay_cases(draw):
    """A cache shape, a prefill stream and how to feed it, and the
    stream to replay after it."""
    sets, ways = draw(st.sampled_from(REPLAY_SHAPES))
    # Most lines land in a few hot sets under several tags, so one set
    # sees different lines interleaved (as when arrays whose size is a
    # multiple of the set span stream side by side); the rest are
    # spread anywhere. Runs repeat a line back to back.
    hot = draw(st.lists(st.integers(0, sets - 1), min_size=1, max_size=3))
    line = st.builds(
        lambda s, tag: s + tag * sets,
        st.sampled_from(hot),
        st.integers(0, 2 * ways + 1),
    ) | st.integers(0, 4 * sets * ways)
    runs = st.lists(st.tuples(line, st.integers(1, 3)), max_size=80)

    def expand(pairs):
        return [line for line, k in pairs for _ in range(k)]

    prefill = expand(draw(runs))
    stream = expand(draw(runs))
    prefill_by = draw(st.sampled_from(["replay", "touch"]))
    return sets, ways, prefill, prefill_by, stream


class TestReplayLines:
    """``replay_lines`` is the batched engine's bulk entry point; it must
    be observationally identical to calling ``touch_line`` per element."""

    def _random_stream(self, seed, length=400, lines=24):
        import random

        rng = random.Random(seed)
        stream = []
        while len(stream) < length:
            line = rng.randrange(lines)
            # Inject streaks so the consecutive-duplicate fast path runs.
            stream.extend([line] * rng.randint(1, 4))
        return stream[:length]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_touch_line_call_by_call(self, seed):
        stream = self._random_stream(seed)
        bulk = small_cache(ways=2, sets=4)
        unit = small_cache(ways=2, sets=4)
        mask = bulk.replay_lines(stream)
        expected = [unit.touch_line(line) for line in stream]
        assert mask.tolist() == expected
        assert (bulk.hits, bulk.misses) == (unit.hits, unit.misses)
        assert bulk.lines() == unit.lines()

    def test_accepts_numpy_arrays(self):
        import numpy as np

        cache = small_cache(ways=2, sets=1)
        mask = cache.replay_lines(np.array([0, 0, 1, 2, 0], dtype=np.int64))
        assert mask.tolist() == [False, True, False, False, False]
        assert (cache.hits, cache.misses) == (1, 4)

    def test_empty_stream(self):
        cache = small_cache()
        assert cache.replay_lines([]).tolist() == []
        assert (cache.hits, cache.misses) == (0, 0)

    @staticmethod
    def _assert_replay_matches(sets, ways, prefill, prefill_by, stream):
        """Replay ``stream`` on a cache filled with ``prefill`` (through
        ``replay_lines`` or ``touch_line``) and on a twin fed only
        through ``touch_line``: same mask access by access, same totals,
        same per-set LRU order."""
        bulk = small_cache(ways=ways, sets=sets)
        unit = small_cache(ways=ways, sets=sets)
        if prefill_by == "replay":
            bulk.replay_lines(np.asarray(prefill, dtype=np.int64))
        else:
            for line in prefill:
                bulk.touch_line(line)
        for line in prefill:
            unit.touch_line(line)
        mask = bulk.replay_lines(np.asarray(stream, dtype=np.int64))
        expected = [unit.touch_line(line) for line in stream]
        assert mask.tolist() == expected
        assert (bulk.hits, bulk.misses) == (unit.hits, unit.misses)
        assert bulk.lines() == unit.lines()

    @settings(max_examples=200, deadline=None)
    @given(replay_cases())
    def test_drawn_streams_match_touch_line(self, case):
        self._assert_replay_matches(*case)

    @pytest.mark.parametrize("ways", [1, 2, 8])
    def test_arrays_sharing_sets_stream_side_by_side(self, ways):
        """The n=1024 Intel pattern: three 8 KB arrays of doubles, each
        a multiple of the 64-set span, read element by element in one
        loop, so every iteration touches three lines of one set; a
        second pass finds what the first left."""
        stream = [
            base + i // 8 for i in range(1024) for base in (0, 128, 256)
        ]
        self._assert_replay_matches(64, ways, stream, "replay", stream)

    def test_counts_lines_and_visits(self):
        """``simulate.replay_lines`` counts every access replayed and
        ``simulate.replay_visits`` those the LRU loop visits: a repeat
        of its set's previous line is a hit the loop skips."""
        cache = small_cache(ways=2, sets=4)
        PERF.reset()
        PERF.enable()
        try:
            # Sets 0 and 1 alternate; 0 and 4 share set 0.
            cache.replay_lines([0, 1, 0, 0, 1, 4, 0])
        finally:
            PERF.disable()
        counters = dict(PERF.counters)
        PERF.reset()
        assert counters["simulate.replay_lines"] == 7
        # Set 0 sees 0, 0, 0, 4, 0 (visits 0, 4, 0) and set 1 sees
        # 1, 1 (visits 1).
        assert counters["simulate.replay_visits"] == 4
