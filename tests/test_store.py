"""The content-addressed artifact store (``repro.store``).

Covers round trips and keying, the robustness fix for corrupt on-disk
entries, LRU pruning, and — the part that matters for the service —
many processes hammering one store directory without torn reads or
lost results.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import ArtifactStore, CompilerOptions, Variant, compile_program
from repro.bench import KERNELS
from repro.vm import MACHINES


@pytest.fixture()
def machine():
    return MACHINES["intel"]()


@pytest.fixture()
def compiled(machine):
    program = KERNELS["milc"].build(8)
    result = compile_program(program, Variant.GLOBAL, machine)
    key = ArtifactStore.key(program, Variant.GLOBAL, machine, None)
    return program, result, key


class TestPromotion:
    def test_round_trip_equality(self, tmp_path, compiled):
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        assert store.get(key) is None
        store.put(key, result)
        assert store.get(key) == result
        assert (store.hits, store.misses, store.puts) == (1, 1, 1)

    def test_bytes_and_objects_share_entries(self, tmp_path, compiled):
        # read/write move the entry's pickle itself; get/put read and
        # write the very same entries.
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        store.write(key, pickle.dumps(result))
        assert store.get(key) == result
        store.put(key + "b", result)
        blob, value = store.read(key + "b")
        assert blob == store._path(key + "b").read_bytes()
        assert value == result

    def test_key_covers_the_whole_compile_input(self, machine, compiled):
        program, _result, key = compiled
        other = KERNELS["lbm"].build(8)
        assert key != ArtifactStore.key(
            other, Variant.GLOBAL, machine, None
        )
        assert key != ArtifactStore.key(
            program, Variant.SLP, machine, None
        )
        assert key != ArtifactStore.key(
            program, Variant.GLOBAL, machine.with_datapath(256), None
        )

    def test_key_holds_the_width_the_compile_uses(self, machine, compiled):
        # A machine width and the ``datapath_bits`` option set the same
        # compile, so both spellings share one key; the option wins
        # over the machine, as in ``compile_program``.
        program, _result, key = compiled
        wide = ArtifactStore.key(
            program, Variant.GLOBAL, machine.with_datapath(512), None
        )
        assert wide == ArtifactStore.key(
            program, Variant.GLOBAL, machine,
            CompilerOptions(datapath_bits=512),
        )
        assert wide == ArtifactStore.key(
            program, Variant.GLOBAL, machine.with_datapath(256),
            CompilerOptions(datapath_bits=512),
        )
        assert key == ArtifactStore.key(
            program, Variant.GLOBAL, machine,
            CompilerOptions(datapath_bits=machine.datapath_bits),
        )


class TestCorruptEntries:
    def test_truncated_pickle_is_a_miss_and_evicted(
        self, tmp_path, compiled
    ):
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        store.put(key, result)
        path = store._path(key)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])

        assert store.get(key) is None
        assert store.corrupt_evictions == 1
        assert not path.exists(), "the poisoned entry must be deleted"
        # The store recovers: a rewrite makes the key readable again.
        store.put(key, result)
        assert store.get(key) == result

    def test_garbage_bytes_are_a_miss_and_evicted(self, tmp_path, compiled):
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        store._path(key).write_bytes(b"not a pickle at all")
        assert store.get(key) is None
        assert store.corrupt_evictions == 1
        assert store.stats().corrupt_evictions == 1
        assert store.stats().entries == 0

    def test_wrong_pickle_payload_still_loads(self, tmp_path, compiled):
        # A *valid* pickle of the wrong thing is not corruption — the
        # store is content-addressed, so this can only happen to code
        # that bypasses key(); it must not crash either way.
        _program, _result, key = compiled
        store = ArtifactStore(tmp_path)
        store._path(key).write_bytes(pickle.dumps({"not": "a result"}))
        assert store.get(key) == {"not": "a result"}


class TestStatsAndPrune:
    def test_stats_counts_entries_and_bytes(self, tmp_path, compiled):
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        store.put(key, result)
        store.put(key + "b", result)
        stats = store.stats()
        assert stats.entries == 2
        assert stats.bytes == sum(
            p.stat().st_size for p in store.root.glob("*.pkl")
        )
        assert stats.bytes > 0

    def test_prune_evicts_lru_first(self, tmp_path, compiled):
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        keys = [f"{key}{i}" for i in range(4)]
        for index, k in enumerate(keys):
            store.put(k, result)
            # Distinct, strictly increasing mtimes without sleeping.
            os.utime(store._path(k), (1000 + index, 1000 + index))
        # A hit refreshes recency: keys[0] becomes the newest.
        assert store.get(keys[0]) is not None
        entry_bytes = store._path(keys[0]).stat().st_size
        removed = store.prune(2 * entry_bytes)
        assert removed == 2
        assert store.pruned == 2
        # The oldest untouched entries (keys[1], keys[2]) went first.
        assert store.get(keys[0]) is not None
        assert store.get(keys[3]) is not None
        assert not store._path(keys[1]).exists()
        assert not store._path(keys[2]).exists()

    def test_prune_noop_under_budget(self, tmp_path, compiled):
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        store.put(key, result)
        assert store.prune(1 << 30) == 0
        assert store.stats().entries == 1


# -- concurrent access ---------------------------------------------------------


def _hammer(payload):
    """One worker process: compile-through-the-store over a shared key
    space, occasionally poisoning an entry to simulate a torn write.
    Returns (cycles-per-key, corrupt_evictions) for cross-checking."""
    root, worker_index, rounds = payload
    from repro import ArtifactStore, CompilerOptions, Variant, compile_program
    from repro.bench import KERNELS
    from repro.vm import MACHINES, Simulator

    machine = MACHINES["intel"]()
    store = ArtifactStore(root)
    names = ("milc", "lbm", "cg")
    observed = {}
    for round_index in range(rounds):
        name = names[(worker_index + round_index) % len(names)]
        program = KERNELS[name].build(6)
        key = ArtifactStore.key(program, Variant.GLOBAL, machine, None)
        result = store.get(key)
        if result is None:
            result = compile_program(program, Variant.GLOBAL, machine)
            store.put(key, result)
        report, _memory = Simulator(result.machine).run(
            result.plan, seed=0
        )
        observed.setdefault(name, set()).add(report.cycles)
        if round_index == rounds // 2 and worker_index == 0:
            # Poison one entry mid-run; every process must shrug it off.
            store._path(key).write_bytes(b"\x80torn")
    return (
        {name: sorted(values) for name, values in observed.items()},
        store.corrupt_evictions,
    )


def _concurrent_pruner(payload):
    """One worker process: prune the shared directory toward a tiny
    budget, racing the other pruners. Returns entries removed; the
    regression under test is that losing a scan→unlink race
    (FileNotFoundError) is survivable, not an exception."""
    root, max_bytes = payload
    from repro import ArtifactStore

    store = ArtifactStore(root)
    total = 0
    for _ in range(3):
        total += store.prune(max_bytes)
    return total


class TestConcurrentAccess:
    def test_concurrent_pruners_tolerate_vanished_entries(
        self, tmp_path, compiled
    ):
        """Several processes prune the same directory at once: entries
        scanned by everyone are unlinked by exactly one — the rest must
        skip the FileNotFoundError, never crash, and the directory must
        land at (or under) the byte budget."""
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        for index in range(24):
            k = f"{key[:-2]}{index:02x}"
            store.put(k, result)
            os.utime(store._path(k), (1000 + index, 1000 + index))
        entry_bytes = store._path(f"{key[:-2]}00").stat().st_size
        budget = 2 * entry_bytes
        workers = 4
        with ProcessPoolExecutor(max_workers=workers) as pool:
            removals = list(
                pool.map(
                    _concurrent_pruner,
                    [(str(tmp_path), budget)] * workers,
                )
            )
        # Every pruner returned (no exceptions), at most 24 removals
        # were claimed in total, and the store fits the budget.
        assert sum(removals) <= 24
        assert store.stats().bytes <= budget

    def test_prune_skips_entry_deleted_between_scan_and_unlink(
        self, tmp_path, compiled, monkeypatch
    ):
        """Deterministic single-process version of the race: an entry
        vanishes after the scan — prune must skip it, still count its
        bytes as reclaimed, and not report it as removed."""
        _program, result, key = compiled
        store = ArtifactStore(tmp_path)
        keys = [f"{key[:-1]}{i}" for i in range(3)]
        for index, k in enumerate(keys):
            store.put(k, result)
            os.utime(store._path(k), (1000 + index, 1000 + index))
        victim = store._path(keys[0])

        entries = store._entries()
        original_unlink = os.unlink

        def racing_unlink(path, *args, **kwargs):
            if os.fspath(path) == os.fspath(victim):
                # The "other pruner" wins the race first.
                original_unlink(path)
            return original_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", racing_unlink)
        removed = store.prune(0)
        monkeypatch.undo()
        assert removed == len(entries) - 1  # victim didn't count
        assert store.stats().entries == 0

    def test_many_processes_one_directory(self, tmp_path):
        """No torn reads, no exceptions, and every process observes the
        same cycle count per kernel no matter who compiled it."""
        workers = 4
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(
                pool.map(
                    _hammer,
                    [(str(tmp_path), i, 8) for i in range(workers)],
                )
            )
        merged = {}
        for observed, _evictions in outcomes:
            for name, values in observed.items():
                merged.setdefault(name, set()).update(values)
        for name, values in merged.items():
            assert len(values) == 1, (
                f"{name}: processes observed different results {values}"
            )
        # The store ends healthy and fully readable.
        store = ArtifactStore(tmp_path)
        stats = store.stats()
        assert 1 <= stats.entries <= 3
