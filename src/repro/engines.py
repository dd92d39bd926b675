"""Pluggable engine registry — the single source of truth for engine
names across the compiler, simulator, fuzzer, CLI, and service wire.

Two kinds of engine are registered here:

* ``"grouping"`` — statement-packing decision loops for
  :class:`repro.slp.grouping.BasicGrouping`.  A grouping factory takes
  the (fully constructed) ``BasicGrouping`` instance and returns its
  :class:`~repro.slp.grouping.GroupingTrace`; it must drive decisions
  through ``BasicGrouping._commit`` so the instance's ``decided`` state
  and the trace stay consistent.
* ``"sim"`` — execution engines for :class:`repro.vm.Simulator`.  A sim
  factory takes ``(simulator, plan, state)`` and returns the engine
  object to install on ``state.batched`` (or ``None`` for the plain
  interpreter loop).

Built-ins are pre-registered, so literal engine-name strings work
everywhere without further setup.  Unknown names raise one
structured :class:`~repro.errors.OptionsError` listing what is
registered; duplicate registrations are rejected loudly.

``equivalence`` tags engines whose *emitted plans* must be bit-identical:
the differential fuzzer compares disassembled plans within each
equivalence class (both greedy grouping engines share ``"greedy"``; the
optimal engine may legitimately pick different groups, so it gets its
own class).  Engines registered without a class are only checked
semantically (memory state and reports).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from .errors import OptionsError

KINDS = ("grouping", "sim")


@dataclass(frozen=True)
class Engine:
    """One registered engine: identity, a one-line description for the
    ``repro engines`` listing, and the factory that builds it."""

    kind: str
    name: str
    description: str
    factory: Callable
    #: Plan-equivalence class: engines sharing a non-None tag must emit
    #: bit-identical plans (enforced by the differential fuzzer).
    equivalence: Optional[str] = None
    #: True when a completed run certifies its result optimal.
    proves_optimal: bool = False
    #: How the engine handles if-converted ``select``/``vselect`` forms:
    #: sim engines declare their execution strategy, grouping engines
    #: how predicated statements participate in packing. Engines
    #: registered before the predication subsystem default to "unknown".
    select_support: str = "unknown"


_REGISTRY: Dict[str, Dict[str, Engine]] = {kind: {} for kind in KINDS}


def register(
    kind: str,
    name: str,
    factory: Callable,
    *,
    description: str = "",
    equivalence: Optional[str] = None,
    proves_optimal: bool = False,
    select_support: str = "unknown",
) -> Engine:
    """Register an engine; raises :class:`OptionsError` on an unknown
    kind or a duplicate name (re-registration must be explicit via
    :func:`temporary_engine` or :func:`unregister`)."""
    if kind not in _REGISTRY:
        raise OptionsError(
            f"unknown engine kind {kind!r}; expected one of {KINDS}"
        )
    table = _REGISTRY[kind]
    if name in table:
        raise OptionsError(f"duplicate {kind} engine {name!r}")
    engine = Engine(
        kind=kind,
        name=name,
        description=description,
        factory=factory,
        equivalence=equivalence,
        proves_optimal=proves_optimal,
        select_support=select_support,
    )
    table[name] = engine
    return engine


def register_grouping_engine(name: str, factory: Callable, **kwargs) -> Engine:
    return register("grouping", name, factory, **kwargs)


def register_sim_engine(name: str, factory: Callable, **kwargs) -> Engine:
    return register("sim", name, factory, **kwargs)


def resolve(kind: str, name: str) -> Engine:
    """The single name-resolution path for every layer (compiler
    options, simulator, fuzzer, CLI, service wire).  Unknown names raise
    one structured error listing the registered engines."""
    if kind not in _REGISTRY:
        raise OptionsError(
            f"unknown engine kind {kind!r}; expected one of {KINDS}"
        )
    engine = _REGISTRY[kind].get(name)
    if engine is None:
        names = ", ".join(_REGISTRY[kind]) or "<none>"
        raise OptionsError(
            f"unknown {kind} engine {name!r}; registered engines: {names}"
        )
    return engine


def engine_names(kind: str) -> Tuple[str, ...]:
    """Registered names for one kind, in registration order."""
    if kind not in _REGISTRY:
        raise OptionsError(
            f"unknown engine kind {kind!r}; expected one of {KINDS}"
        )
    return tuple(_REGISTRY[kind])


def engines(kind: str) -> Tuple[Engine, ...]:
    """Registered :class:`Engine` records for one kind, in order."""
    if kind not in _REGISTRY:
        raise OptionsError(
            f"unknown engine kind {kind!r}; expected one of {KINDS}"
        )
    return tuple(_REGISTRY[kind].values())


def unregister(kind: str, name: str) -> None:
    """Remove an engine (tests and :func:`temporary_engine` only)."""
    _REGISTRY[kind].pop(name, None)


@contextmanager
def temporary_engine(
    kind: str, name: str, factory: Callable, **kwargs
) -> Iterator[Engine]:
    """Register an engine for the duration of a ``with`` block — the
    supported way for tests to exercise custom engines without leaking
    registrations across the process."""
    engine = register(kind, name, factory, **kwargs)
    try:
        yield engine
    finally:
        unregister(kind, name)


def markdown_table(kind: Optional[str] = None) -> str:
    """GitHub-markdown table of the registry — README's engine table is
    regenerated from this (``repro engines --markdown``)."""
    rows = []
    for k in KINDS if kind is None else (kind,):
        rows.extend(engines(k))
    lines = [
        "| kind | engine | description | select support |",
        "| --- | --- | --- | --- |",
    ]
    for engine in rows:
        lines.append(
            f"| {engine.kind} | `{engine.name}` | {engine.description} "
            f"| {engine.select_support} |"
        )
    return "\n".join(lines)


# -- built-in engines, in their legacy tuple order --------------------------


def _grouping_incremental(grouping):
    return grouping._run_incremental()


def _grouping_reference(grouping):
    return grouping._run_reference()


def _grouping_optimal(grouping):
    from .slp.optimal import run_optimal

    return run_optimal(grouping)


def _sim_reference(simulator, plan, state):
    return None


def _sim_batched(simulator, plan, state):
    from .vm.batched import BatchedEngine

    return BatchedEngine(state)


def _sim_compiled(simulator, plan, state):
    from .vm.compiled import CompiledEngine, load_plan_kernels

    kernels = load_plan_kernels(
        plan, simulator.machine, simulator.kernel_store
    )
    return CompiledEngine(state, plan, kernels)


register_grouping_engine(
    "incremental",
    _grouping_incremental,
    description="memoized greedy decision loop (lazy max-heap, dirty sets)",
    equivalence="greedy",
    select_support="predicate-aware packing",
)
register_grouping_engine(
    "reference",
    _grouping_reference,
    description="from-scratch greedy loop; the differential oracle",
    equivalence="greedy",
    select_support="predicate-aware packing",
)
register_grouping_engine(
    "optimal",
    _grouping_optimal,
    description="exact branch-and-bound packing; proves optimality or "
    "falls back to incremental on budget",
    equivalence="optimal",
    proves_optimal=True,
    select_support="predicate-aware packing",
)

register_sim_engine(
    "reference",
    _sim_reference,
    description="instruction-at-a-time interpreter; the semantic oracle",
    select_support="native (scalar select)",
)
register_sim_engine(
    "batched",
    _sim_batched,
    description="NumPy address/value streams with bulk cache replay",
    select_support="native (np.where blend)",
)
register_sim_engine(
    "compiled",
    _sim_compiled,
    description="per-loop NumPy codegen with peephole pass and kernel cache",
    select_support="native (emitted np.where)",
)
