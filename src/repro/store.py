"""The content-addressed artifact store.

``ArtifactStore`` is the on-disk memo of :func:`repro.compiler.
compile_program` results, shared by the bench runner (``run_suite``'s
``cache_dir``), the compile-and-simulate service (``repro serve``), and
the ``repro cache`` CLI. It grew out of the bench runner's private
compile cache when the service needed the same store outside the bench
harness.

Design points:

* **Content addressing.** The key covers the *entire* compile input —
  printed program text, variant, machine parameters, and compiler
  options — so a hit is guaranteed to reproduce the exact compile it
  replaces (the printer is a faithful round-trippable rendering of the
  IR, and both ``MachineModel`` and ``CompilerOptions`` are plain
  dataclasses whose reprs enumerate every field).
* **Torn-write safety.** Each entry is one plain pickle of a
  ``CompileResult``; writes go through a temp file + rename so
  concurrent workers sharing one store directory never observe a torn
  entry.
* **Bytes in, bytes out.** :meth:`read`/:meth:`write` move the pickle
  itself, so the service's workers store and forward the bytes they
  already hold; :meth:`get`/:meth:`put` are the object view built on
  them.
* **Corruption tolerance.** Every read decodes the entry before handing
  it out. A truncated or otherwise undecodable entry is treated as a
  miss, *deleted* so it cannot poison later readers, and counted in
  ``corrupt_evictions``.
* **Bounded size.** :meth:`prune` evicts least-recently-used entries
  (hits refresh an entry's mtime) until the store fits a byte budget.
* **Two artifact kinds.** Compile results (``.pkl``) are keyed by
  :meth:`key`, which normalizes the simulation engine *out* — the
  engine plays no part in compilation, so reference/batched/compiled
  runs share compile entries — and keys on the SIMD width the compile
  uses, however it was set (machine or ``datapath_bits`` option).
  Compiled-engine kernels (``.kern.pkl``,
  :meth:`get_kernel`/:meth:`put_kernel`) are keyed separately by the
  kernel fingerprint from :func:`repro.vm.compiled.kernel_fingerprint`,
  which covers the plan content, machine, and codegen version — so warm
  service workers reuse emitted kernels across processes without ever
  re-running codegen.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

from .perf import count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .compiler import CompilerOptions, CompileResult, Variant
    from .vm import MachineModel


@dataclass(frozen=True)
class StoreStats:
    """A point-in-time summary of one store directory plus the counters
    this handle accumulated (counters are per-handle, not global: two
    processes sharing a directory each count their own traffic)."""

    root: str
    entries: int
    bytes: int
    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt_evictions: int = 0
    pruned: int = 0


class ArtifactStore:
    """On-disk, content-addressed memo of pickled compile artifacts."""

    #: Filename suffix of committed compile entries.
    SUFFIX = ".pkl"
    #: Filename suffix of compiled-engine kernel entries. Distinct from
    #: ``SUFFIX`` so a kernel fingerprint can never collide with a
    #: compile key; both kinds participate in :meth:`stats`/:meth:`prune`.
    KERNEL_SUFFIX = ".kern.pkl"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt_evictions = 0
        self.pruned = 0

    # -- keying ----------------------------------------------------------------

    @staticmethod
    def key(
        program,
        variant: "Variant",
        machine: "MachineModel",
        options: Optional["CompilerOptions"],
    ) -> str:
        from .ir.printer import format_program

        return ArtifactStore.text_key(
            format_program(program), variant, machine, options
        )

    @staticmethod
    def text_key(
        printed: str,
        variant: "Variant",
        machine: "MachineModel",
        options: Optional["CompilerOptions"],
    ) -> str:
        """:meth:`key` from the program's printed text, for a caller
        that already holds it (the service memoizes it per source)."""
        from .compiler import CompilerOptions

        # The simulation engine plays no part in compilation, so it is
        # normalized out of the key: reference and batched runs share
        # store entries. ``datapath_bits`` only overrides the machine's
        # SIMD width, so it moves onto the machine — the width the
        # compile uses (``compile_program``'s rule) — and a width set
        # either way hashes to one key.
        options = options or CompilerOptions()
        if options.datapath_bits:
            machine = machine.with_datapath(options.datapath_bits)
        normalized = replace(options, engine=None, datapath_bits=None)
        blob = "\x00".join(
            (
                printed,
                variant.value,
                repr(machine),
                repr(normalized),
            )
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.SUFFIX}"

    # -- read/write ------------------------------------------------------------

    def _read(self, path: Path, counter: str) -> Optional[Tuple[bytes, Any]]:
        """``(blob, value)`` of the entry at ``path``, or ``None``. The
        blob is decoded before it is returned, so an undecodable entry
        never leaves the store."""
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
            value = pickle.loads(blob)
        except FileNotFoundError:
            self.misses += 1
            count(f"{counter}.misses")
            return None
        except Exception:
            # A torn, truncated, or otherwise corrupt entry must never
            # kill the run — unpickling garbage raises whatever opcode
            # it trips on (ValueError, KeyError, EOFError, ...). Treat
            # it as a miss, and delete the bad file so it cannot keep
            # poisoning readers (the recompile will rewrite it).
            self.misses += 1
            self.corrupt_evictions += 1
            count(f"{counter}.misses")
            count("store.corrupt_evictions")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        count(f"{counter}.hits")
        try:
            # Refresh recency so prune() evicts genuinely cold entries.
            os.utime(path)
        except OSError:
            pass
        return blob, value

    def _write(self, path: Path, blob: bytes) -> bool:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:  # pragma: no cover - store is best-effort
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.puts += 1
        return True

    def read(self, key: str) -> Optional[Tuple[bytes, "CompileResult"]]:
        """The entry's pickle and the ``CompileResult`` it decodes to,
        or ``None`` on a miss. A caller that forwards the pickle never
        pickles the result again."""
        return self._read(self._path(key), "compile_cache")

    def write(self, key: str, blob: bytes) -> None:
        """Store an already-pickled ``CompileResult`` under ``key``."""
        self._write(self._path(key), blob)

    def get(self, key: str) -> Optional["CompileResult"]:
        entry = self.read(key)
        return None if entry is None else entry[1]

    def put(self, key: str, result: "CompileResult") -> None:
        self.write(key, pickle.dumps(result))

    # -- compiled-engine kernels -----------------------------------------------

    def _kernel_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}{self.KERNEL_SUFFIX}"

    def get_kernel(self, fingerprint: str):
        """Load a pickled :class:`repro.vm.compiled.PlanKernelsArtifact`
        by kernel fingerprint, or ``None``. Same corruption policy as
        :meth:`get`: unreadable entries are evicted and count as misses."""
        entry = self._read(self._kernel_path(fingerprint), "kernel_store")
        return None if entry is None else entry[1]

    def put_kernel(self, fingerprint: str, artifact) -> None:
        if self._write(
            self._kernel_path(fingerprint), pickle.dumps(artifact)
        ):
            count("kernel_store.puts")

    # -- maintenance -----------------------------------------------------------

    def _entries(self):
        """(path, mtime, size) of every committed entry; unreadable
        files (concurrently deleted) are skipped."""
        out = []
        for path in self.root.glob(f"*{self.SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_mtime, stat.st_size))
        return out

    def stats(self) -> StoreStats:
        entries = self._entries()
        return StoreStats(
            root=str(self.root),
            entries=len(entries),
            bytes=sum(size for _, _, size in entries),
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            corrupt_evictions=self.corrupt_evictions,
            pruned=self.pruned,
        )

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until the store holds at
        most ``max_bytes``; returns the number of entries removed.

        Safe under concurrency: another pruner (or a corrupt-entry
        eviction in a reader) may delete an entry between our scan and
        our unlink. A vanished file no longer occupies space, so it
        still counts toward the byte budget we are reclaiming — but not
        toward *our* removed count."""
        entries = sorted(self._entries(), key=lambda e: e[1])
        total = sum(size for _, _, size in entries)
        removed = 0
        for path, _, size in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except FileNotFoundError:
                # Lost the race to a concurrent pruner/evictor: the
                # bytes are gone either way.
                total -= size
                continue
            except OSError:
                continue
            total -= size
            removed += 1
        self.pruned += removed
        return removed


__all__ = [
    "ArtifactStore",
    "StoreStats",
]
