"""Structured decision tracing with runtime cost attribution.

``repro.perf`` answers *how long* each layer took; this module answers
*what the compiler decided and what each decision cost at runtime*. A
global :data:`TRACE` registry collects a flat, ordered list of events.
Their hierarchical context comes from ``repro.perf.span``, the one span
primitive (``compile`` > ``block`` > ``slp.grouping`` > ``round`` ...):
while tracing is on, each span emits ``span.begin``/``span.end`` and
every event carries the ``;``-joined path of the spans open around it.
Every pass emits its decisions: candidate search, VP graph
construction, SG edge commits (winning weight plus the runner-up edges
that lost), iterative fusion rounds, scheduler reuse hits against the
live superword set, permutation orderings tried, layout replication
choices, and codegen pack/shuffle-reuse events.

Each committed group gets a stable **provenance ID** —
``b<block>:S<sid>+S<sid>+...`` — that codegen stamps onto the emitted
instructions, so the simulator can attribute runtime costs (cycles,
shuffles, cache misses) back to the compile-time decision that produced
them. :func:`fold_report` turns a finished :class:`ExecutionReport` into
``runtime.*`` events appended to the same trace.

Like ``PERF``, tracing is off by default and every emission site is
guarded by a single ``TRACE.enabled`` attribute check, so the disabled
cost is one attribute load + branch per hook. Events are deterministic:
the only volatile field is ``wall_ms`` on ``span.end`` records, which
:func:`canonical_jsonl` strips so two traces of the same compile are
byte-identical.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .errors import ParseError
from .perf import PERF, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .compiler import CompileResult, CompilerOptions, Variant
    from .ir import Program
    from .store import ArtifactStore
    from .vm import ExecutionReport, MachineModel, Memory

#: Versioned schema tag written into every trace header. Bump on any
#: backwards-incompatible change to event kinds or required fields.
SCHEMA = "repro.trace/1"

#: Fields stripped by :func:`canonical_jsonl` before byte comparison.
VOLATILE_FIELDS = ("wall_ms",)

#: Event kind -> fields that must be present (beyond seq/ev/span).
#: ``validate_records`` enforces this table; it is the machine-readable
#: half of the schema documented in DESIGN.md section 9.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "span.begin": ("name",),
    "span.end": ("name",),
    # -- if-conversion (runs before unroll/SLP)
    "if_convert": (
        "block",
        "decision",
        "statements_in",
        "statements_out",
        "has_else",
    ),
    # -- candidate generation / VP construction
    "candidates.search": ("units", "pairs_examined", "found"),
    "vp.build": ("candidates", "nodes", "edges"),
    # -- grouping decision loop
    "grouping.commit": (
        "prov",
        "sids",
        "weight",
        "score",
        "picked_by",
        "engine",
        "proven_optimal",
        "runners_up",
        "removed",
    ),
    "grouping.round": ("round", "units", "decided", "leftovers"),
    # -- greedy SLP baseline
    "baseline.pack": ("prov", "sids", "reason"),
    # -- scheduling
    "schedule.pick": ("prov", "reuse_hits", "reuse_misses"),
    "schedule.order": ("prov", "orderings_tried", "permutations", "order"),
    # -- layout
    "layout.replicate": ("array", "source", "lanes", "elements"),
    "layout.skip": ("source", "reason"),
    "layout.scalars": ("names", "base"),
    # -- codegen
    "codegen.reuse": ("prov", "kind"),
    "codegen.pack": ("prov", "mode"),
    "codegen.gate": ("block", "vector_cycles", "scalar_cycles", "vectorized"),
    # -- runtime attribution (folded in from the simulator's report)
    "runtime.provenance": (
        "prov",
        "cycles",
        "instructions",
        "shuffles",
        "cache_misses",
    ),
    "runtime.array_cache": ("array", "accesses", "hits", "misses"),
    "runtime.totals": ("cycles", "instructions", "pack_unpack", "shuffles"),
}

#: Event kinds that represent a compile-time packing decision; the diff
#: view keys on these.
DECISION_EVENTS = ("grouping.commit", "baseline.pack")


def provenance_id(sids: Iterable[int], block: Optional[str] = None) -> str:
    """Stable ID for a committed group: ``b0:S2+S3``.

    Statement IDs restart at zero in every block, so IDs are qualified
    by the block label whenever one is known.
    """
    core = "+".join(f"S{sid}" for sid in sorted(sids))
    return f"{block}:{core}" if block else core


def json_safe(value: Any) -> Any:
    """Coerce a value into something ``json.dumps`` handles, keeping the
    result deterministic (sets are sorted, Fractions become ``"2/3"``)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, enum.Enum):
        return json_safe(value.value)
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json_safe(item) for item in value)
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    return str(value)


class TraceRegistry:
    """Process-global trace collector (see module docstring)."""

    def __init__(self) -> None:
        self.enabled = False
        self.meta: Dict[str, Any] = {}
        self.events: List[Dict[str, Any]] = []
        self._seq = 0

    # -- lifecycle ---------------------------------------------------------

    def enable(self, **meta: Any) -> None:
        """Turn tracing on; ``meta`` keys land in the trace header."""
        self.enabled = True
        self.meta.update(meta)

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Discard all state. Safe with spans still open: they are
        dropped from the spine, so their exits emit nothing."""
        self.meta.clear()
        self.events.clear()
        self._seq = 0
        PERF.drop_open_spans()

    # -- emission ----------------------------------------------------------

    def event(self, kind: str, /, **fields: Any) -> None:
        """Record one event. Call sites on hot paths should guard with
        ``if TRACE.enabled:`` to avoid building the kwargs dict.
        ``kind`` is positional-only so events may carry a ``kind``
        field of their own (e.g. ``codegen.reuse``)."""
        if not self.enabled:
            return
        self._emit(kind, fields)

    def _emit(self, kind: str, fields: Dict[str, Any]) -> None:
        self._seq += 1
        stack = PERF.stack
        record: Dict[str, Any] = {
            "seq": self._seq,
            "ev": kind,
            "span": stack[-1].path if stack else "",
        }
        for key, value in fields.items():
            record[key] = json_safe(value)
        self.events.append(record)

    def current(self, key: str) -> Any:
        """Field value from the innermost open span that set it (e.g.
        ``TRACE.current("block")`` inside a per-block span)."""
        for frame in reversed(PERF.stack):
            if key in frame.fields:
                return frame.fields[key]
        return None

    # -- export ------------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Header + events, ready for :func:`to_jsonl`."""
        header = {
            "schema": SCHEMA,
            "meta": {key: json_safe(self.meta[key]) for key in sorted(self.meta)},
        }
        return [header] + list(self.events)

    def to_jsonl(self) -> str:
        return to_jsonl(self.records())


#: The process-global registry every pass emits through.
TRACE = TraceRegistry()


# -- serialization -------------------------------------------------------------


def to_jsonl(records: Sequence[Dict[str, Any]]) -> str:
    lines = [json.dumps(record, sort_keys=True) for record in records]
    return "\n".join(lines) + "\n"


def canonical_jsonl(records: Sequence[Dict[str, Any]]) -> str:
    """JSONL with volatile (timing) fields stripped — two traces of the
    same compile compare byte-equal on this form."""
    lines = []
    for record in records:
        stripped = {
            key: value
            for key, value in record.items()
            if key not in VOLATILE_FIELDS
        }
        lines.append(json.dumps(stripped, sort_keys=True))
    return "\n".join(lines) + "\n"


def load_jsonl(text: str) -> List[Dict[str, Any]]:
    """Parse a trace back into records; raises :class:`ParseError` (a
    ``ValueError``) on a line that is not a JSON object or a
    missing/incompatible schema header."""
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: not JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ParseError(f"line {lineno}: expected an object")
        records.append(record)
    if not records:
        raise ParseError("empty trace")
    header = records[0]
    if header.get("schema") != SCHEMA:
        raise ParseError(
            f"unsupported trace schema {header.get('schema')!r}"
            f" (expected {SCHEMA!r})"
        )
    return records


def validate_records(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Check a trace against the schema; returns human-readable errors
    (empty list = valid)."""
    errors: List[str] = []
    if not records:
        return ["trace is empty"]
    header = records[0]
    if header.get("schema") != SCHEMA:
        errors.append(f"header schema is {header.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(header.get("meta", {}), dict):
        errors.append("header meta is not an object")
    last_seq = 0
    span_stack: List[str] = []
    for index, record in enumerate(records[1:], start=2):
        where = f"record {index}"
        kind = record.get("ev")
        if kind not in EVENT_FIELDS:
            errors.append(f"{where}: unknown event kind {kind!r}")
            continue
        seq = record.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            errors.append(f"{where}: seq {seq!r} not strictly increasing")
        else:
            last_seq = seq
        if not isinstance(record.get("span"), str):
            errors.append(f"{where}: missing span path")
        for field_name in EVENT_FIELDS[kind]:
            if field_name not in record:
                errors.append(f"{where}: {kind} missing field {field_name!r}")
        if kind == "span.begin":
            span_stack.append(record.get("name", ""))
        elif kind == "span.end":
            if not span_stack:
                errors.append(f"{where}: span.end with no open span")
            elif span_stack[-1] != record.get("name"):
                errors.append(
                    f"{where}: span.end {record.get('name')!r} does not"
                    f" match open span {span_stack[-1]!r}"
                )
            else:
                span_stack.pop()
    for name in span_stack:
        errors.append(f"span {name!r} never closed")
    return errors


# -- runtime attribution -------------------------------------------------------


def fold_report(report: Any) -> None:
    """Append ``runtime.*`` events for a finished execution report so
    runtime costs sit in the same trace as the decisions that caused
    them. No-op when tracing is disabled."""
    if not TRACE.enabled:
        return
    with span("runtime"):
        for prov in sorted(report.provenance):
            cost = report.provenance[prov]
            TRACE.event(
                "runtime.provenance",
                prov=prov,
                cycles=round(cost.cycles, 3),
                instructions=cost.instructions,
                shuffles=cost.shuffles,
                cache_misses=cost.cache_misses,
            )
        for array in sorted(report.array_accesses):
            accesses = report.array_accesses[array]
            misses = report.array_misses.get(array, 0)
            TRACE.event(
                "runtime.array_cache",
                array=array,
                accesses=accesses,
                hits=accesses - misses,
                misses=misses,
            )
        TRACE.event(
            "runtime.totals",
            cycles=round(report.cycles, 3),
            instructions=report.total_instructions,
            pack_unpack=report.pack_unpack_ops,
            shuffles=report.counts.get("shuffle", 0),
            cache_hits=report.cache_hits,
            cache_misses=report.cache_misses,
        )


# -- one traced run ------------------------------------------------------------


@dataclass
class TracedRun:
    """One traced compile: its result, the simulator's report and final
    memory (``None`` unless simulated) and the trace records."""

    result: "CompileResult"
    report: Optional["ExecutionReport"]
    memory: Optional["Memory"]
    records: List[Dict[str, Any]]


def traced_run(
    program: "Program",
    variant: "Variant",
    machine: "MachineModel",
    options: Optional["CompilerOptions"] = None,
    *,
    simulate: bool = True,
    seed: int = 0,
    kernel_store: Optional["ArtifactStore"] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> TracedRun:
    """Compile ``program`` with tracing on and, unless ``simulate`` is
    off, run the plan and fold the report in; ``meta`` lands in the
    trace header. The one place the tracer is switched on (``repro
    trace`` and its ``--explain`` view, ``bench --trace-dir``, traced
    service jobs), and it is off and empty again when this returns or
    raises. It reads no compile cache: a hit would replay a plan
    without the compiler's decisions to attribute costs to."""
    from .compiler import CompilerOptions, compile_program
    from .vm import Simulator

    options = options or CompilerOptions()
    TRACE.reset()
    TRACE.enable(**(meta or {}))
    try:
        result = compile_program(program, variant, machine, options)
        report = memory = None
        if simulate:
            report, memory = Simulator(
                result.machine, engine=options.engine,
                kernel_store=kernel_store,
            ).run(result.plan, seed=seed)
            fold_report(report)
        return TracedRun(result, report, memory, TRACE.records())
    finally:
        TRACE.disable()
        TRACE.reset()


# -- human views ---------------------------------------------------------------


def _format_fields(record: Dict[str, Any], skip: Tuple[str, ...]) -> str:
    parts = []
    for key, value in record.items():
        if key in skip:
            continue
        if isinstance(value, (list, dict)):
            parts.append(f"{key}={json.dumps(value)}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_tree(records: Sequence[Dict[str, Any]]) -> str:
    """Indented tree view of a trace: spans nest, events sit under the
    span that emitted them."""
    header = records[0]
    meta = header.get("meta", {})
    title = f"trace {header.get('schema', '?')}"
    if meta:
        title += "  [" + " ".join(f"{k}={meta[k]}" for k in sorted(meta)) + "]"
    lines = [title]
    depth = 0
    for record in records[1:]:
        kind = record.get("ev")
        if kind == "span.end":
            depth = max(depth - 1, 0)
            wall = record.get("wall_ms")
            if wall is not None and depth <= 1:
                lines.append(
                    "  " * (depth + 1) + f"({record.get('name')}: {wall} ms)"
                )
            continue
        pad = "  " * depth
        if kind == "span.begin":
            label = record.get("name", "?")
            extra = _format_fields(record, ("seq", "ev", "span", "name"))
            lines.append(f"{pad}{label}" + (f" [{extra}]" if extra else ""))
            depth += 1
        else:
            extra = _format_fields(record, ("seq", "ev", "span"))
            lines.append(f"{pad}{kind}: {extra}")
    return "\n".join(lines)


def summarize(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Compact per-trace statistics (plain dict: must survive pickling
    across the bench suite's worker-process boundary)."""
    decisions = 0
    reuse_hits = 0
    reuse_misses = 0
    orderings = 0
    replications = 0
    totals: Dict[str, Any] = {}
    kinds: Dict[str, int] = {}
    for record in records[1:]:
        kind = record.get("ev", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind in DECISION_EVENTS:
            decisions += 1
        elif kind == "schedule.pick":
            reuse_hits += record.get("reuse_hits", 0)
            reuse_misses += record.get("reuse_misses", 0)
        elif kind == "schedule.order":
            orderings += record.get("orderings_tried", 0)
        elif kind == "layout.replicate":
            replications += 1
        elif kind == "runtime.totals":
            totals = {
                "cycles": record.get("cycles"),
                "instructions": record.get("instructions"),
                "pack_unpack": record.get("pack_unpack"),
                "shuffles": record.get("shuffles"),
            }
    return {
        "events": len(records) - 1,
        "decisions": decisions,
        "reuse_hits": reuse_hits,
        "reuse_misses": reuse_misses,
        "orderings_tried": orderings,
        "replications": replications,
        "runtime": totals,
        "event_counts": dict(sorted(kinds.items())),
    }


# -- diffing -------------------------------------------------------------------


def _decision_index(
    records: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """prov -> the decision event that committed it (last write wins, so
    the baseline's combine steps supersede the seeds they merged)."""
    out: Dict[str, Dict[str, Any]] = {}
    for record in records[1:]:
        if record.get("ev") in DECISION_EVENTS and record.get("prov"):
            out[record["prov"]] = record
    return out


def _runtime_index(
    records: Sequence[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    return {
        record["prov"]: record
        for record in records[1:]
        if record.get("ev") == "runtime.provenance" and record.get("prov")
    }


def _array_index(records: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return {
        record["array"]: record
        for record in records[1:]
        if record.get("ev") == "runtime.array_cache" and record.get("array")
    }


def _totals(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    for record in records[1:]:
        if record.get("ev") == "runtime.totals":
            return record
    return {}


def _describe_decision(record: Dict[str, Any]) -> str:
    if record.get("ev") == "grouping.commit":
        return (
            f"weight={record.get('weight')} score={record.get('score')}"
            f" picked_by={record.get('picked_by')}"
        )
    return f"reason={record.get('reason')}"


def _runtime_note(runtime: Optional[Dict[str, Any]]) -> str:
    if not runtime:
        return "no runtime cost attributed"
    return (
        f"cycles={runtime.get('cycles')}"
        f" shuffles={runtime.get('shuffles')}"
        f" cache_misses={runtime.get('cache_misses')}"
    )


def diff_records(
    a: Sequence[Dict[str, Any]],
    b: Sequence[Dict[str, Any]],
    label_a: str = "a",
    label_b: str = "b",
) -> str:
    """Human-readable decision + runtime-cost delta between two traces."""
    dec_a, dec_b = _decision_index(a), _decision_index(b)
    run_a, run_b = _runtime_index(a), _runtime_index(b)
    arr_a, arr_b = _array_index(a), _array_index(b)
    tot_a, tot_b = _totals(a), _totals(b)

    lines = [f"--- {label_a}", f"+++ {label_b}", ""]

    only_a = sorted(set(dec_a) - set(dec_b))
    only_b = sorted(set(dec_b) - set(dec_a))
    shared = sorted(set(dec_a) & set(dec_b))

    lines.append(f"decisions only in {label_a} ({len(only_a)}):")
    for prov in only_a:
        lines.append(
            f"  - {prov}  {_describe_decision(dec_a[prov])}"
            f"  [{_runtime_note(run_a.get(prov))}]"
        )
    if not only_a:
        lines.append("  (none)")
    lines.append(f"decisions only in {label_b} ({len(only_b)}):")
    for prov in only_b:
        lines.append(
            f"  + {prov}  {_describe_decision(dec_b[prov])}"
            f"  [{_runtime_note(run_b.get(prov))}]"
        )
    if not only_b:
        lines.append("  (none)")

    lines.append(f"shared decisions ({len(shared)}), runtime deltas:")
    for prov in shared:
        ra, rb = run_a.get(prov), run_b.get(prov)
        d_cycles = (rb or {}).get("cycles", 0) - (ra or {}).get("cycles", 0)
        d_shuffles = (rb or {}).get("shuffles", 0) - (ra or {}).get(
            "shuffles", 0
        )
        d_misses = (rb or {}).get("cache_misses", 0) - (ra or {}).get(
            "cache_misses", 0
        )
        lines.append(
            f"  = {prov}  dcycles={d_cycles:+.1f} dshuffles={d_shuffles:+d}"
            f" dcache_misses={d_misses:+d}"
        )
    if not shared:
        lines.append("  (none)")

    arrays = sorted(set(arr_a) | set(arr_b))
    if arrays:
        lines.append("per-array cache deltas:")
        for array in arrays:
            ma = arr_a.get(array, {})
            mb = arr_b.get(array, {})
            lines.append(
                f"  {array}: accesses {ma.get('accesses', 0)} -> "
                f"{mb.get('accesses', 0)}, misses {ma.get('misses', 0)} -> "
                f"{mb.get('misses', 0)}"
            )

    if tot_a or tot_b:
        ca, cb = tot_a.get("cycles", 0), tot_b.get("cycles", 0)
        delta = cb - ca
        pct = (delta / ca * 100.0) if ca else 0.0
        lines.append(
            f"totals: cycles {ca} -> {cb} ({delta:+.1f}, {pct:+.1f}%),"
            f" shuffles {tot_a.get('shuffles', 0)} -> {tot_b.get('shuffles', 0)},"
            f" pack_unpack {tot_a.get('pack_unpack', 0)} -> "
            f"{tot_b.get('pack_unpack', 0)}"
        )
    return "\n".join(lines)


# -- the explain view ----------------------------------------------------------


def render_explain(run: TracedRun) -> str:
    """Per-block view of one traced run — what ``repro trace
    --explain`` prints: the block's statements from the compiled plan's
    own program (so the S-numbers are the ones the decisions name),
    every grouping commit or baseline pack with its runner-ups and
    attributed runtime cost, the grouping rounds, and the cost gate's
    verdict with the superword statements the block kept."""
    from .ir import BasicBlock

    runtime = _runtime_index(run.records)
    # block label -> (grouping round, event) for the events inside it.
    events: Dict[str, List[Tuple[Any, Dict[str, Any]]]] = {}
    block = round_index = None
    for record in run.records[1:]:
        kind, name = record["ev"], record.get("name")
        if kind == "span.begin" and name in ("block", "round"):
            block = record.get("block", block)
            round_index = record.get("round")
        elif kind == "span.end" and name == "block":
            block = None
        elif block is not None and not kind.startswith("span."):
            events.setdefault(block, []).append((round_index, record))

    # One kept schedule per block the gate vectorized, in block order.
    kept = iter(run.result.schedules)
    lines: List[str] = []
    for position, item in enumerate(run.result.plan.program.body):
        label, title = f"b{position}", "straight-line block"
        if not isinstance(item, BasicBlock):
            while item.inner is not None:
                item = item.inner
            title, item = f"loop {item.index} body", item.body
        decisions: List[str] = []
        rounds: List[str] = []
        gate = None
        for round_index, record in events.get(label, ()):
            kind = record["ev"]
            if kind in DECISION_EVENTS:
                where = f"round {round_index}"
                if kind == "baseline.pack":
                    where = "pack"
                decisions.append(
                    f"  {where}: {record['prov']}"
                    f"  {_describe_decision(record)}"
                    f"  [{_runtime_note(runtime.get(record['prov']))}]"
                )
                runners = "; ".join(
                    f"{r['prov']} weight={r['weight']} score={r['score']}"
                    for r in record.get("runners_up") or ()
                )
                if runners:
                    decisions.append(f"    runners-up: {runners}")
            elif kind == "grouping.round":
                rounds.append(
                    f"  round {record['round']}: {record['units']} units,"
                    f" {record['decided']} decided,"
                    f" {record['leftovers']} leftovers"
                )
            elif kind == "codegen.gate":
                gate = record
        lines += [f"=== {label}: {title} ===", str(item), "decisions:"]
        lines += decisions or ["  (none)"]
        if rounds:
            lines += ["rounds:", *rounds]
        superwords, scalars = 0, len(item)
        if gate is None:
            lines.append("gate: no verdict (compiled scalar)")
        else:
            vector, scalar = gate["vector_cycles"], gate["scalar_cycles"]
            lines.append(
                f"gate: vector {vector} cycles < scalar {scalar} cycles:"
                " vectorized"
                if gate["vectorized"]
                else f"gate: vector {vector} cycles >= scalar {scalar}"
                " cycles: kept scalar"
            )
            if gate["vectorized"] and label not in run.result.fallback_blocks:
                schedule = next(kept)
                superwords = sum(1 for _ in schedule.superwords())
                scalars = sum(1 for _ in schedule.singles())
        lines += [
            f"result: {superwords} superword statements,"
            f" {scalars} scalar statements",
            "",
        ]
    return "\n".join(lines)
