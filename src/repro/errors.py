"""The structured error and diagnostics API for the whole framework.

Every failure the compiler, verifier, or simulator can produce is a
:class:`ReproError` carrying *where* it happened: the pipeline ``stage``
(``parse``, ``ir``, ``group``, ``schedule``, ``layout``, ``codegen``,
``plan``, ``simulate``), the basic-``block`` label (``b0``, ``b1``, ...
— the same labels the tracer uses), and optionally the ``provenance``
ID of the compile-time decision involved. Subclasses keep the builtin
exception types they historically were (``ParseError`` is still a
``ValueError``, the scheduler's cycle error is still a
``RuntimeError``), so existing ``except`` clauses and tests keep
working while new code can catch the whole family with one
``except ReproError``.

Failures that should not abort a run travel as :class:`Diagnostic`
values instead of exceptions: ``CompilerOptions(on_error="fallback")``
converts any per-block error into a diagnostic plus a scalar fallback
for that block, and ``CompileResult.diagnostics`` /
``run_suite``'s aggregation carry them to the caller.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Collection, Dict, Optional


def _rebuild(cls, message, stage, block, provenance, rule):
    err = cls(message)
    err.stage = stage
    err.block = block
    err.provenance = provenance
    err.rule = rule
    return err


class ReproError(Exception):
    """Base of every framework error.

    Attributes:
        stage: pipeline stage the failure belongs to, if known.
        block: basic-block label (``b<position>``), if per-block.
        provenance: decision provenance ID (``b0:S1+S2``), if any.
        rule: machine-readable identifier of the violated invariant
            (set by the verifier, e.g. ``"schedule.dependence"``).
    """

    #: Default stage stamped on instances that don't set one.
    default_stage: Optional[str] = None

    def __init__(
        self,
        message: str,
        *,
        stage: Optional[str] = None,
        block: Optional[str] = None,
        provenance: Optional[str] = None,
        rule: Optional[str] = None,
    ):
        super().__init__(message)
        self.message = message
        self.stage = stage if stage is not None else self.default_stage
        self.block = block
        self.provenance = provenance
        self.rule = rule

    def with_context(
        self,
        stage: Optional[str] = None,
        block: Optional[str] = None,
        provenance: Optional[str] = None,
    ) -> "ReproError":
        """Fill in missing location context (never overwrites); returns
        self so raise sites can re-raise in one expression."""
        if self.stage is None:
            self.stage = stage
        if self.block is None:
            self.block = block
        if self.provenance is None:
            self.provenance = provenance
        return self

    def __str__(self) -> str:
        context = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("stage", self.stage),
                ("block", self.block),
                ("provenance", self.provenance),
                ("rule", self.rule),
            )
            if value is not None
        )
        return f"{self.message} [{context}]" if context else self.message

    def __reduce__(self):
        # Exception's default pickling replays __init__(*args); keep the
        # context attributes alive across the worker-pool boundary.
        return (
            _rebuild,
            (
                type(self),
                self.message,
                self.stage,
                self.block,
                self.provenance,
                self.rule,
            ),
        )


def _rebuild_parse_error(message, stage, block, provenance, rule, line, column):
    err = ParseError(message, line=line, column=column)
    err.stage = stage
    err.block = block
    err.provenance = provenance
    err.rule = rule
    return err


class ParseError(ReproError, ValueError):
    """Malformed DSL input, with source line/column context.

    ``line`` and ``column`` are 1-based positions of the offending
    token when the tokenizer could locate it (``None`` for errors
    raised before tokenization or at end of input).
    """

    default_stage = "parse"

    def __init__(
        self,
        message: str,
        *,
        line: Optional[int] = None,
        column: Optional[int] = None,
        **kwargs,
    ):
        super().__init__(message, **kwargs)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        rendered = super().__str__()
        if self.line is not None:
            return f"line {self.line}:{self.column}: {rendered}"
        return rendered

    def __reduce__(self):
        return (
            _rebuild_parse_error,
            (
                self.message,
                self.stage,
                self.block,
                self.provenance,
                self.rule,
                self.line,
                self.column,
            ),
        )


class IRError(ReproError, ValueError):
    """Structurally invalid IR construction (bad declaration, duplicate
    sid, malformed loop, ...)."""

    default_stage = "ir"


class IRTypeError(IRError, TypeError):
    """An IR construction mixing incompatible operand types."""


class StatementLookupError(IRError, KeyError):
    """A sid that does not name a statement of the block."""

    def __str__(self) -> str:  # KeyError.__str__ repr()s args; don't
        return ReproError.__str__(self)


class BuilderError(IRError, RuntimeError):
    """ProgramBuilder misuse (e.g. build() inside an open loop scope)."""


class OptionsError(ReproError, ValueError):
    """A knob value that means nothing: an unknown engine or decision
    mode, a bad checks spec, a wrong type, a value out of range..."""

    default_stage = "options"


def choose(what: str, choices: Collection[str], name: str) -> str:
    """``name`` when it is one of ``choices`` (a closed set, or a table
    keyed by name), else an :class:`OptionsError` listing them. Engine
    names and every other closed-set knob are looked up through here."""
    if name not in choices:
        raise OptionsError(
            f"unknown {what} {name!r}; expected one of: "
            f"{', '.join(choices)}"
        )
    return name


class VerifyError(ReproError, ValueError):
    """A pipeline invariant violated, caught by :mod:`repro.verify`.

    ``stage`` names the verified stage (``ir``, ``schedule``, ``plan``)
    and ``rule`` the specific invariant (``schedule.complete``,
    ``plan.register-live``, ...).
    """


class ScheduleError(ReproError, ValueError):
    """An invalid grouping or scheduling result."""

    default_stage = "schedule"


class ScheduleCycleError(ScheduleError, RuntimeError):
    """A dependence cycle that scheduling could not break."""


class LayoutError(ReproError, ValueError):
    """The data-layout stage rejected or mishandled a transformation."""

    default_stage = "layout"


class CodegenError(ReproError, ValueError):
    """Code generation produced or detected an inconsistent state."""

    default_stage = "codegen"


class SimulationError(ReproError, ValueError):
    """The virtual machine was asked to do something it cannot."""

    default_stage = "simulate"


class ServiceError(ReproError):
    """A compile-service failure (transport, protocol, or a worker the
    service could not recover). Raised client-side with the structured
    context the server shipped over the wire."""

    default_stage = "service"


class ServiceBusyError(ServiceError):
    """The server shed this request under backpressure (HTTP 429).

    ``retry_after`` is the server's suggested back-off in seconds."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after

    def __reduce__(self):
        return (ServiceBusyError, (self.message, self.retry_after))


class WorkerCrashError(ServiceError, RuntimeError):
    """A pool worker died mid-job and the single transparent retry died
    too; the job is reported failed with this structured diagnostic
    instead of a hung client or a raw traceback."""


class SuiteError(ReproError):
    """One or more kernels of a suite run failed.

    Raised by ``run_suite`` *after* every job has finished, so a single
    bad kernel no longer destroys the results (and tracebacks) of the
    rest. ``failures`` maps kernel name to its formatted traceback.
    """

    def __init__(self, failures: Dict[str, str]):
        names = ", ".join(sorted(failures))
        super().__init__(
            f"{len(failures)} kernel(s) failed: {names}", stage="suite"
        )
        self.failures = dict(failures)

    def __reduce__(self):
        return (SuiteError, (self.failures,))


@dataclass(frozen=True)
class Diagnostic:
    """One recoverable failure, recorded instead of raised.

    ``action`` says what the compiler did about it: ``"fallback"`` (the
    block was compiled scalar), ``"skipped"`` (an optional stage was
    skipped for the block), or ``"note"``.
    """

    stage: str
    block: Optional[str]
    error: str              # exception class name
    message: str
    action: str = "fallback"
    provenance: Optional[str] = None
    rule: Optional[str] = None

    @staticmethod
    def from_error(
        exc: BaseException,
        stage: Optional[str] = None,
        block: Optional[str] = None,
        action: str = "fallback",
    ) -> "Diagnostic":
        return Diagnostic(
            stage=stage
            or getattr(exc, "stage", None)
            or "compile",
            block=getattr(exc, "block", None) or block,
            error=type(exc).__name__,
            message=getattr(exc, "message", None) or str(exc),
            action=action,
            provenance=getattr(exc, "provenance", None),
            rule=getattr(exc, "rule", None),
        )

    def __str__(self) -> str:
        where = f" in {self.block}" if self.block else ""
        return (
            f"[{self.stage}{where}] {self.error}: {self.message}"
            f" -> {self.action}"
        )


def format_failure(exc: BaseException) -> str:
    """A worker-safe formatted traceback for aggregation."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


__all__ = [
    "BuilderError",
    "CodegenError",
    "Diagnostic",
    "IRError",
    "IRTypeError",
    "LayoutError",
    "OptionsError",
    "ParseError",
    "ReproError",
    "ScheduleCycleError",
    "ScheduleError",
    "ServiceBusyError",
    "ServiceError",
    "SimulationError",
    "StatementLookupError",
    "SuiteError",
    "VerifyError",
    "WorkerCrashError",
    "choose",
    "format_failure",
]
