"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE`` — run a DSL source file through a chosen variant and
  print the schedule, the disassembled plan, and/or the execution
  report. ``--variant all`` compiles and simulates every variant and
  prints one row each against scalar; the status is nonzero unless all
  of them compile cleanly and leave scalar's memory (with ``--checks
  all``, every verifier stage runs too). ``--perf`` prints the per-layer
  self times; ``--perf collapsed=PATH`` writes them as collapsed stacks
  (flamegraph-compatible).
* ``trace FILE`` — compile (and simulate) with the structured tracer
  enabled and show the decision/cost tree; ``--explain`` shows the same
  run per optimizable block (the grouping decisions with their weights,
  scores and runner-ups, their attributed runtime cost, and the cost
  gate's verdict); diff two variants or two saved traces with
  ``--diff``.
* ``bench`` — run the Table 3 suite on a machine model and print the
  Figure 16/19-style table; ``--check`` gates the run against a
  committed baseline (``--inject-slowdown`` is the CI mutation hook).
* ``kernels`` — list the benchmark kernels (Table 3).
* ``fuzz`` — differential fuzzing: random programs through every
  variant/engine combination against the scalar baseline.
* ``serve`` — run the compile-and-simulate server (warm sharded worker
  pool, request coalescing, shared artifact store, ``/healthz`` and
  ``/metrics``).
* ``submit FILE`` — send a compile(+simulate) job to a running server,
  falling back to local compilation when none is reachable.
* ``cache`` — inspect (``stats``) or size-bound (``prune``) an on-disk
  artifact store directory.

Every source FILE is parsed and checked by the ``ir`` verifier before
anything compiles: a source that does not parse, or that indexes an
array out of its bounds, is a usage error.

Examples::

    python -m repro compile saxpy.slp --variant global --emit-plan
    python -m repro compile saxpy.slp --variant all --machine amd
    python -m repro compile saxpy.slp --variant all --checks all
    python -m repro compile saxpy.slp --perf collapsed=saxpy.collapsed
    python -m repro trace saxpy.slp --diff global:slp
    python -m repro trace saxpy.slp --explain --variant global+layout
    python -m repro bench --n 64
    python -m repro bench --check --baseline benchmarks/results/BENCH_suite.json
    python -m repro fuzz --seed 0 --count 500
    python -m repro serve --workers 4 --cache-dir /var/cache/repro
    python -m repro submit saxpy.slp --variant global
    python -m repro cache stats --cache-dir /var/cache/repro
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from .compiler import CompilerOptions, Variant, compile_program
from .errors import (
    OptionsError,
    ParseError,
    ReproError,
    SuiteError,
    VerifyError,
)
from .ir import Program, parse_program
from .slp.grouping import GROUPING_ENGINES
from .verify import verify_program
from .vm import MACHINES, Simulator, reduction
from .vm.pretty import disassemble_plan
from .vm.simulator import SIM_ENGINES

VARIANTS = {v.value: v for v in Variant}

#: ``compile --variant``'s value that compiles every variant.
ALL_VARIANTS = "all"


def _machine(name: str, datapath: Optional[int]):
    machine = MACHINES[name]()
    if datapath:
        machine = machine.with_datapath(datapath)
    return machine


def _options(args: argparse.Namespace) -> CompilerOptions:
    """The CompilerOptions a command's flags describe.

    The CLI expresses every knob *by building options* — see the
    precedence rule on :class:`CompilerOptions`: only the flags that
    were set are passed, so an unset one keeps the field's default
    (for ``checks``, the environment variable). No command consults
    ``os.environ``.
    """
    flags = (
        "engine", "grouping_engine", "optimal_node_budget", "checks",
        "on_error",
    )
    return CompilerOptions(**{
        name: getattr(args, name)
        for name in flags
        if getattr(args, name, None) is not None
    })


def _read_source(path: str) -> Tuple[str, Program]:
    """A DSL source FILE's text and its program, checked by the ``ir``
    verifier: a subscript outside its array is a :class:`VerifyError`
    before anything compiles or simulates, not a wrapped NumPy index or
    an ``IndexError`` deep in a simulation engine."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    program = parse_program(source)
    verify_program(program)
    return source, program


def _perf_path(value: str) -> str:
    """``compile --perf``'s value: ``collapsed=PATH``, returned as PATH."""
    kind, _, path = value.partition("=")
    if kind != "collapsed" or not path:
        raise argparse.ArgumentTypeError(
            f"expected collapsed=PATH, got {value!r}"
        )
    return path


def cmd_compile(args: argparse.Namespace) -> int:
    from .perf import PERF

    every = args.variant == ALL_VARIANTS
    if every and (args.emit_schedule or args.emit_plan):
        raise OptionsError(
            "--variant all compiles every variant; --emit-plan and"
            " --emit-schedule print one variant's plan or schedule"
        )
    _source, program = _read_source(args.file)
    machine = _machine(args.machine, args.datapath)
    options = _options(args)
    if args.perf:
        PERF.reset()
        PERF.enable()
    try:
        if every:
            return _compile_every_variant(program, machine, options)
        variant = VARIANTS[args.variant]
        result = compile_program(program, variant, machine, options)
        for diagnostic in result.diagnostics:
            print(f"note: {diagnostic}", file=sys.stderr)
        if args.emit_schedule:
            for schedule in result.schedules:
                print(schedule)
                print()
        if args.emit_plan:
            print(disassemble_plan(result.plan), end="")
        if args.run or not (args.emit_schedule or args.emit_plan):
            report, _memory = Simulator(
                result.machine, engine=options.engine
            ).run(result.plan)
            print(report.summary())
    finally:
        if args.perf:
            PERF.disable()
            if args.perf is True:
                print(PERF.report(), file=sys.stderr)
            else:
                with open(args.perf, "w", encoding="utf-8") as handle:
                    handle.write(PERF.collapsed())
                print(
                    f"collapsed stacks written to {args.perf}",
                    file=sys.stderr,
                )
    if not args.quiet:
        stats = result.stats
        print(
            f"[{variant.value}] {stats.superword_statements} superword "
            f"statements, {stats.grouped_fraction:.0%} of statements "
            f"grouped, {stats.replications} replications, compiled in "
            f"{stats.compile_seconds * 1e3:.1f} ms",
            file=sys.stderr,
        )
    return 0


def _compile_every_variant(
    program: Program, machine, options: CompilerOptions
) -> int:
    """``compile --variant all``: compile and simulate every variant and
    print one row each against scalar. The status is 0 only when every
    variant compiles without an error or a diagnostic and ends with
    scalar's memory."""
    from .bench import ascii_table, percent

    rows = []
    status = 0
    baseline = base_memory = None
    for variant in Variant:
        try:
            result = compile_program(program, variant, machine, options)
            report, memory = Simulator(
                result.machine, engine=options.engine
            ).run(result.plan)
        except ReproError as exc:
            print(f"error: [{variant.value}] {exc}", file=sys.stderr)
            rows.append((variant.value, "-", "-", "-", "FAIL"))
            status = 1
            continue
        for diagnostic in result.diagnostics:
            print(f"note: [{variant.value}] {diagnostic}", file=sys.stderr)
            status = 1
        if variant is Variant.SCALAR:
            baseline, base_memory = report, memory
        if base_memory is None:
            versus, semantics = "-", "-"
        else:
            versus = percent(reduction(baseline.cycles, report.cycles))
            semantics = (
                "ok" if memory.state_equal(base_memory) else "MISMATCH"
            )
        if semantics != "ok":
            status = 1
        rows.append(
            (
                variant.value,
                f"{report.cycles:.0f}",
                versus,
                str(report.pack_unpack_ops),
                semantics,
            )
        )
    print(
        ascii_table(
            ("variant", "cycles", "vs scalar", "pack/unpack", "semantics"),
            rows,
        )
    )
    return status


def _trace_file(
    path: str, variant: Variant, machine, options: CompilerOptions
):
    """One traced compile+simulate of a source file (see
    :func:`repro.trace.traced_run`)."""
    from .trace import traced_run

    return traced_run(
        _read_source(path)[1], variant, machine, options,
        meta={"file": os.path.basename(path), "variant": variant.value},
    )


def _load_trace_file(path: str) -> list:
    from .trace import load_jsonl

    with open(path, "r", encoding="utf-8") as handle:
        return load_jsonl(handle.read())


def cmd_trace(args: argparse.Namespace) -> int:
    from .trace import (
        diff_records,
        render_explain,
        render_tree,
        to_jsonl,
        validate_records,
    )

    machine = _machine(args.machine, args.datapath)
    options = _options(args)
    is_trace_file = args.file.endswith(".jsonl")
    if args.explain and (args.json or args.diff or is_trace_file):
        raise OptionsError(
            "--explain renders one traced compile of a DSL source file;"
            " it takes no --json or --diff, nor a saved .jsonl trace"
        )

    def traced(variant_name: str):
        return _trace_file(
            args.file, VARIANTS[variant_name], machine, options
        )

    if args.diff:
        spec = args.diff
        if ":" in spec and not os.path.exists(spec):
            if is_trace_file:
                raise SystemExit(
                    "repro trace: --diff A:B needs a DSL source file"
                    " to compile, not a saved .jsonl trace"
                )
            names = spec.split(":", 1)
            for name in names:
                if name not in VARIANTS:
                    raise SystemExit(
                        f"repro trace: unknown variant {name!r}"
                        f" (choose from {', '.join(sorted(VARIANTS))})"
                    )
            records_a, records_b = (traced(name).records for name in names)
            label_a, label_b = names
        else:
            if is_trace_file:
                records_a = _load_trace_file(args.file)
                label_a = os.path.basename(args.file)
            else:
                records_a = traced(args.variant).records
                label_a = args.variant
            records_b = _load_trace_file(spec)
            label_b = os.path.basename(spec)
        print(diff_records(records_a, records_b, label_a, label_b))
        return 0

    if is_trace_file:
        run, records = None, _load_trace_file(args.file)
    else:
        run = traced(args.variant)
        records = run.records

    status = 0
    if args.validate:
        errors = validate_records(records)
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        if errors:
            status = 1
        else:
            print(f"valid: {len(records) - 1} events", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(to_jsonl(records))
    if args.json:
        sys.stdout.write(to_jsonl(records))
    elif args.explain:
        for diagnostic in run.result.diagnostics:
            print(f"note: {diagnostic}", file=sys.stderr)
        print(render_explain(run))
    elif not (args.validate or args.out):
        print(render_tree(records))
    return status


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import ascii_table, percent, run_suite
    from .perf import PERF

    machine = _machine(args.machine, args.datapath)
    if args.timings:
        PERF.reset()
        PERF.enable()
    options = _options(args)
    status = 0
    try:
        results = run_suite(
            machine, options=options, n=args.n, cache_dir=args.cache_dir,
            trace_dir=args.trace_dir,
        )
    except SuiteError as exc:
        # Every kernel ran before this surfaced: report each failure
        # with its traceback, then the table of whatever finished.
        for name in sorted(exc.failures):
            print(f"=== {name} failed ===", file=sys.stderr)
            print(exc.failures[name], file=sys.stderr)
        print(str(exc), file=sys.stderr)
        results = getattr(exc, "results", {})
        status = 1
    for name in sorted(results):
        for variant, diags in sorted(
            results[name].diagnostics.items(), key=lambda kv: kv[0].value
        ):
            for diagnostic in diags:
                print(
                    f"note: {name} [{variant.value}] {diagnostic}",
                    file=sys.stderr,
                )
    rows = []
    for result in sorted(
        results.values(),
        key=lambda r: r.time_reduction(Variant.GLOBAL),
    ):
        rows.append(
            (
                result.kernel.name,
                percent(result.time_reduction(Variant.NATIVE)),
                percent(result.time_reduction(Variant.SLP)),
                percent(result.time_reduction(Variant.GLOBAL)),
                percent(result.time_reduction(Variant.GLOBAL_LAYOUT)),
            )
        )
    print(
        ascii_table(
            ("benchmark", "Native", "SLP", "Global", "Global+Layout"),
            rows,
        )
    )
    if args.trace_dir:
        print(f"\ntraces written to {args.trace_dir}:")
        for name in sorted(results):
            result = results[name]
            for variant in sorted(
                result.trace_summaries, key=lambda v: v.value
            ):
                summary = result.trace_summaries[variant]
                runtime = summary.get("runtime") or {}
                print(
                    f"  {name} [{variant.value}]: "
                    f"{summary['events']} events, "
                    f"{summary['decisions']} decisions, "
                    f"{summary['reuse_hits']} reuse hits / "
                    f"{summary['reuse_misses']} misses, "
                    f"{summary['replications']} replications, "
                    f"{runtime.get('cycles', '?')} cycles"
                )
    if args.timings:
        print(PERF.report(), file=sys.stderr)

    # -- the perf-regression gate (same suite run, no extra sweep) ------
    if args.write_baseline or args.check:
        from pathlib import Path

        from .bench.regress import (
            check_planes,
            check_suite,
            render_verdict,
            write_suite_baseline,
        )

        if args.write_baseline:
            write_suite_baseline(
                Path(args.write_baseline), results,
                machine=args.machine, n=args.n,
            )
            print(
                f"baseline written to {args.write_baseline}",
                file=sys.stderr,
            )
        if args.check:
            try:
                verdict = check_suite(
                    Path(args.baseline),
                    results,
                    inject_slowdown=args.inject_slowdown,
                    config={"machine": args.machine, "n": args.n},
                )
            except (OSError, ValueError) as exc:
                print(f"repro bench --check: {exc}", file=sys.stderr)
                return 2
            if args.check_json:
                import json

                Path(args.check_json).write_text(
                    json.dumps(verdict, indent=2, sort_keys=True) + "\n"
                )
            print(render_verdict(verdict))
            if verdict["status"] != "ok":
                status = 1
            # The deterministic side planes ride along: each one whose
            # committed artifact sits next to the suite baseline is
            # recomputed and gated too (see ``regress.check_planes``).
            try:
                for label, side in check_planes(Path(args.baseline).parent):
                    print(f"{label} plane:")
                    print(render_verdict(side))
                    if side["status"] != "ok":
                        status = 1
            except (OSError, ValueError) as exc:
                print(f"repro bench --check: {exc}", file=sys.stderr)
                return 2
    return status


def cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .fuzz import differential_check, fuzz

    machine = _machine(args.machine, args.datapath)
    options = _options(args)
    status = 0

    corpus = Path(args.corpus) if args.corpus else None
    if corpus is not None and corpus.is_dir():
        # Replay the saved regression corpus before generating anything.
        for path in sorted(corpus.glob("*.slp")):
            result = differential_check(
                parse_program(path.read_text(encoding="utf-8")), machine,
                options,
            )
            if result.status == "diverged":
                print(f"corpus {path.name}: {result.divergence.summary()}")
                status = 1
            elif not args.quiet:
                print(f"corpus {path.name}: {result.status}")

    report = fuzz(
        seed=args.seed,
        count=args.count,
        machine=machine,
        options=options,
        reduce_failures=args.reduce,
        max_divergences=args.max_divergences,
        conditional=args.conditional,
    )
    print(report.summary())
    if report.divergences:
        status = 1
        for divergence in report.divergences:
            print(f"\n=== seed {divergence.seed} ===")
            print(divergence.detail.rstrip())
            source = divergence.reduced_source or divergence.source
            print("--- reproduction ---")
            print(source.rstrip())
            if corpus is not None:
                corpus.mkdir(parents=True, exist_ok=True)
                stem = f"divergence-{divergence.seed}"
                (corpus / f"{stem}.slp").write_text(
                    divergence.source, encoding="utf-8"
                )
                if divergence.reduced_source:
                    (corpus / f"{stem}.reduced.slp").write_text(
                        divergence.reduced_source, encoding="utf-8"
                    )
                print(f"(saved to {corpus / stem}.slp)")
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import ReproService
    from .service.log import LOG

    if args.log_json is not None:
        if args.log_json == "-":
            LOG.configure(service="repro-serve")
        else:
            LOG.configure(path=args.log_json, service="repro-serve")

    service = ReproService(
        host=args.host,
        port=args.port,
        shards=args.workers,
        queue_limit=args.queue_limit,
        cache_dir=args.cache_dir,
        job_timeout=args.job_timeout,
        test_hooks=os.environ.get("REPRO_SERVICE_TEST_HOOKS") == "1",
    )

    async def main() -> None:
        await service.start()
        await service.serve_forever()

    asyncio.run(main())
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient

    url = args.url or os.environ.get(
        "REPRO_SERVICE_URL", "http://127.0.0.1:8642"
    )
    options = _options(args)
    source = program = None
    if args.file:
        source, program = _read_source(args.file)
    elif not args.kernel:
        raise SystemExit("repro submit: need a FILE or --kernel NAME")

    client = ServiceClient(url)
    if client.is_up():
        outcome = (
            client.compile if args.compile_only else client.simulate
        )(
            source=source,
            kernel=args.kernel,
            n=args.n,
            variant=args.variant,
            machine=args.machine,
            datapath=args.datapath,
            options=options,
            # --wait: honor the server's Retry-After (with jitter)
            # instead of failing on the first 429.
            retries=args.retries if args.wait else 0,
        )
        result, report = outcome.result, outcome.report
        origin = (
            f"served by {url}"
            f" (cached={str(outcome.cached).lower()},"
            f" coalesced={str(outcome.coalesced).lower()})"
        )
    else:
        # Transparent degradation: no server, same answer — compile
        # (and simulate) in-process exactly like ``repro compile``.
        if program is None:
            from .bench import KERNELS

            if args.kernel not in KERNELS:
                raise SystemExit(
                    f"repro submit: unknown kernel {args.kernel!r}"
                )
            program = KERNELS[args.kernel].build(args.n)
        machine = _machine(args.machine, args.datapath)
        result = compile_program(
            program, VARIANTS[args.variant], machine, options
        )
        report = None
        if not args.compile_only:
            report, _memory = Simulator(
                result.machine, engine=options.engine
            ).run(result.plan)
        origin = f"no server at {url}; compiled locally"
    for diagnostic in result.diagnostics:
        print(f"note: {diagnostic}", file=sys.stderr)
    if report is not None:
        print(report.summary())
    if not args.quiet:
        stats = result.stats
        print(
            f"[{args.variant}] {origin}; {stats.superword_statements} "
            f"superword statements, {stats.grouped_fraction:.0%} of "
            f"statements grouped",
            file=sys.stderr,
        )
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from .bench import ascii_table
    from .store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    if args.cache_command == "stats":
        stats = store.stats()
        rows = [
            ("entries", str(stats.entries)),
            ("bytes", str(stats.bytes)),
            ("megabytes", f"{stats.bytes / (1 << 20):.2f}"),
        ]
        print(f"store: {stats.root}")
        print(ascii_table(("field", "value"), rows))
        return 0
    # prune
    max_bytes = int(args.max_mb * (1 << 20))
    before = store.stats()
    removed = store.prune(max_bytes)
    after = store.stats()
    print(
        f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
        f"({before.bytes - after.bytes} bytes): {before.entries} -> "
        f"{after.entries} entries, {after.bytes} bytes"
    )
    return 0


def cmd_kernels(_args: argparse.Namespace) -> int:
    from .bench import ALL_KERNELS, ascii_table

    rows = [(k.suite, k.name, k.description) for k in ALL_KERNELS]
    print(ascii_table(("suite", "benchmark", "description"), rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Holistic SLP: the PLDI 2012 framework, end to end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def machine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--machine", choices=sorted(MACHINES), default="intel"
        )
        p.add_argument(
            "--datapath", type=int, default=None,
            help="SIMD width in bits (default: the machine's)",
        )

    def common(p: argparse.ArgumentParser) -> None:
        machine_flags(p)
        p.add_argument(
            "--engine", choices=SIM_ENGINES, default=None,
            help="simulation engine (default: batched; reference is"
            " the interpreter); all produce identical reports",
        )
        p.add_argument(
            "--grouping-engine", choices=GROUPING_ENGINES,
            default=None, dest="grouping_engine",
            help="grouping decision loop (default: incremental;"
            " reference is its oracle, optimal the exact search)",
        )
        p.add_argument(
            "--optimal-node-budget", type=int, default=None,
            dest="optimal_node_budget", metavar="N",
            help="search-node budget for --grouping-engine=optimal"
            " before falling back to the incremental result",
        )
        p.add_argument(
            "--checks", default=None, metavar="STAGES",
            help="pipeline verifier stages: 'all', 'none', or a comma"
            " list of ir,schedule,plan (default: $REPRO_CHECKS, then"
            " none)",
        )
        p.add_argument(
            "--on-error", choices=("raise", "fallback"), default=None,
            dest="on_error",
            help="per-block failure policy: raise (default) or fall"
            " back to scalar code with a diagnostic",
        )

    p_compile = sub.add_parser("compile", help="compile one DSL file")
    p_compile.add_argument("file")
    p_compile.add_argument(
        "--variant", choices=[*sorted(VARIANTS), ALL_VARIANTS],
        default="global",
        help="the variant to compile, or 'all': every variant compiled"
        " and simulated, one row each against scalar; nonzero exit"
        " unless all compile cleanly and leave scalar's memory",
    )
    p_compile.add_argument("--emit-schedule", action="store_true")
    p_compile.add_argument("--emit-plan", action="store_true")
    p_compile.add_argument(
        "--run", action="store_true", help="simulate and print the report"
    )
    p_compile.add_argument(
        "--quiet", action="store_true",
        help="suppress the one-line compile stats on stderr",
    )
    p_compile.add_argument(
        "--perf", nargs="?", const=True, default=None, type=_perf_path,
        metavar="collapsed=PATH",
        help="print per-layer self times, span totals and counters"
        " to stderr; with collapsed=PATH, write every span path's self"
        " time to PATH as collapsed stacks (for flamegraph.pl or"
        " speedscope) instead",
    )
    common(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_trace = sub.add_parser(
        "trace",
        help="trace the compile pipeline's decisions and runtime costs",
    )
    p_trace.add_argument(
        "file",
        help="a DSL source file to compile, or a saved .jsonl trace",
    )
    p_trace.add_argument(
        "--variant", choices=sorted(VARIANTS), default="global"
    )
    p_trace.add_argument(
        "--json", action="store_true",
        help="emit the raw JSONL trace instead of the tree view",
    )
    p_trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSONL trace to a file",
    )
    p_trace.add_argument(
        "--validate", action="store_true",
        help="check the trace against the schema; nonzero exit on errors",
    )
    p_trace.add_argument(
        "--explain", action="store_true",
        help="show the run per block instead of the tree: the grouping"
        " decisions, their runtime cost and the cost gate's verdict",
    )
    p_trace.add_argument(
        "--diff", default=None, metavar="SPEC",
        help="diff decisions+costs: 'A:B' compiles two variants of FILE;"
        " a path diffs FILE's trace against a saved .jsonl trace",
    )
    common(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser("bench", help="run the Table 3 suite")
    p_bench.add_argument("--n", type=int, default=64)
    p_bench.add_argument(
        "--timings", action="store_true",
        help="collect compile/simulate per-layer self times and counters,"
        " printed to stderr after the table",
    )
    p_bench.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk compile cache: repeated bench invocations "
        "skip recompilation",
    )
    p_bench.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write a JSONL decision/cost trace per kernel+variant and "
        "fold per-kernel trace summaries into the report "
        "(bypasses the compile cache)",
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="gate this run against a committed baseline: deterministic"
        " cycle/instruction metrics compare everywhere, wall-clock only"
        " on the recording machine; nonzero exit on regression",
    )
    p_bench.add_argument(
        "--baseline", default="benchmarks/results/BENCH_suite.json",
        metavar="PATH",
        help="baseline artifact for --check (default:"
        " benchmarks/results/BENCH_suite.json)",
    )
    p_bench.add_argument(
        "--write-baseline", default=None, metavar="PATH",
        dest="write_baseline",
        help="record this run as a new baseline artifact",
    )
    p_bench.add_argument(
        "--inject-slowdown", type=float, default=1.0,
        dest="inject_slowdown", metavar="FACTOR",
        help="multiply measured cycles before --check comparison"
        " (mutation hook: CI proves FACTOR=2.0 fails the gate)",
    )
    p_bench.add_argument(
        "--check-json", default=None, metavar="PATH", dest="check_json",
        help="also write the --check verdict document to PATH",
    )
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing against the scalar baseline",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0,
        help="base seed; case k uses seed+k (default: 0)",
    )
    p_fuzz.add_argument(
        "--count", type=int, default=100,
        help="number of generated programs (default: 100)",
    )
    p_fuzz.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="replay every *.slp in DIR through the oracle first, and"
        " save new divergences (full + reduced source) there",
    )
    p_fuzz.add_argument(
        "--reduce", action=argparse.BooleanOptionalAction, default=True,
        help="shrink each divergence to a minimal reproduction"
        " (default: on)",
    )
    p_fuzz.add_argument(
        "--max-divergences", type=int, default=10,
        help="stop after this many failures (default: 10)",
    )
    p_fuzz.add_argument(
        "--conditional", action="store_true",
        help="also generate if/else regions and select() expressions"
        " (the if-conversion grammar); adds a branch-semantics"
        " interpreter oracle per case",
    )
    p_fuzz.add_argument(
        "--quiet", action="store_true",
        help="don't print per-file corpus replay results",
    )
    common(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="run the compile-and-simulate server",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 picks an ephemeral port, printed on stderr)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=max(2, (os.cpu_count() or 2) // 2),
        help="worker shards — warm compile processes jobs are routed"
        " to by content key (default: half the cores, at least 2)",
    )
    p_serve.add_argument(
        "--queue-limit", type=int, default=32, dest="queue_limit",
        help="max in-flight jobs before requests are shed with 429 +"
        " Retry-After (coalesced followers don't count; default: 32)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed artifact store shared by all workers"
        " (default: no on-disk store; workers keep in-memory memos)",
    )
    p_serve.add_argument(
        "--job-timeout", type=float, default=300.0, dest="job_timeout",
        help="seconds before a silent worker is declared dead and the"
        " job retried on a fresh one (default: 300)",
    )
    p_serve.add_argument(
        "--log-json", nargs="?", const="-", default=None,
        dest="log_json", metavar="PATH",
        help="structured JSON-lines request logging, one record per"
        " event with correlation IDs, to PATH (append) or stderr"
        " when PATH is omitted",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a job to a running server (local fallback)",
    )
    p_submit.add_argument(
        "file", nargs="?", default=None,
        help="a DSL source file (or use --kernel)",
    )
    p_submit.add_argument(
        "--kernel", default=None, metavar="NAME",
        help="submit a benchmark kernel by name instead of a file",
    )
    p_submit.add_argument(
        "--n", type=int, default=0,
        help="kernel size for --kernel (default: the kernel's)",
    )
    p_submit.add_argument(
        "--variant", choices=sorted(VARIANTS), default="global"
    )
    p_submit.add_argument(
        "--url", default=None,
        help="server URL (default: $REPRO_SERVICE_URL, then"
        " http://127.0.0.1:8642)",
    )
    p_submit.add_argument(
        "--compile-only", action="store_true", dest="compile_only",
        help="compile without simulating",
    )
    p_submit.add_argument(
        "--quiet", action="store_true",
        help="suppress the one-line stats on stderr",
    )
    p_submit.add_argument(
        "--wait", action="store_true",
        help="when the server sheds the request (429), sleep its"
        " Retry-After (with jitter) and resubmit instead of failing",
    )
    p_submit.add_argument(
        "--retries", type=int, default=5,
        help="max resubmits under --wait (default: 5)",
    )
    common(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or prune an artifact-store directory",
    )
    cache_sub = p_cache.add_subparsers(
        dest="cache_command", required=True
    )
    p_cache_stats = cache_sub.add_parser(
        "stats", help="entry/byte totals for a store directory"
    )
    p_cache_stats.add_argument(
        "--cache-dir", required=True, metavar="DIR"
    )
    p_cache_stats.set_defaults(func=cmd_cache)
    p_cache_prune = cache_sub.add_parser(
        "prune", help="evict least-recently-used entries to a budget"
    )
    p_cache_prune.add_argument(
        "--cache-dir", required=True, metavar="DIR"
    )
    p_cache_prune.add_argument(
        "--max-mb", type=float, required=True, dest="max_mb",
        help="target store size in megabytes",
    )
    p_cache_prune.set_defaults(func=cmd_cache)

    p_kernels = sub.add_parser("kernels", help="list the benchmarks")
    p_kernels.set_defaults(func=cmd_kernels)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command. A meaningless option value or combination, an
    input file that is missing or is a directory, a source or saved
    trace that does not parse, and a source the ``ir`` verifier rejects
    are usage errors: one ``repro: error:`` line and status 2, like
    argparse's own, not a traceback. A reader that closes the
    output pipe early (``repro trace FILE | head -1``) ends the command
    quietly with status 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Whatever is still buffered goes to devnull, so the flush at
        # interpreter exit cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OptionsError as exc:
        print(f"repro: error: {exc.message}", file=sys.stderr)
    except (ParseError, VerifyError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(
            f"repro: error: {exc.filename}: {exc.strerror}", file=sys.stderr
        )
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
