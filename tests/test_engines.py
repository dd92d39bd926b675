"""The pluggable engine registry (``repro.engines``).

Every layer that names an engine — ``CompilerOptions``, the simulator,
the CLI, the fuzzer, the service wire — resolves through the one
registry; these tests pin the registration contract (duplicates are
loud, unknown names raise one structured ``OptionsError`` listing what
is registered), the legacy string literals and tuple constants, the
custom-engine extension path end to end through ``compile_program``,
and that README's engine table stays generated from the registry.
"""

from __future__ import annotations

import gc
import pathlib
import weakref

import pytest

from repro import CompilerOptions, Variant, compile_program
from repro.bench import KERNELS, intel_dunnington
from repro.engines import (
    engine_names,
    engines,
    markdown_table,
    register,
    register_grouping_engine,
    register_sim_engine,
    resolve,
    temporary_engine,
    unregister,
)
from repro.errors import OptionsError, ReproError
from repro.service import ServiceError, options_from_dict, options_to_dict
from repro.vm import Simulator

README = pathlib.Path(__file__).parent.parent / "README.md"


class TestRegistry:
    def test_builtins_in_legacy_order(self):
        # Pinned: the docs and the fuzz engine matrix enumerate these
        # in exactly this order.
        assert engine_names("grouping") == (
            "incremental", "reference", "optimal",
        )
        assert engine_names("sim") == ("reference", "batched", "compiled")

    def test_duplicate_registration_is_an_error(self):
        with pytest.raises(OptionsError, match="duplicate"):
            register_grouping_engine("incremental", lambda g: None)
        with pytest.raises(OptionsError, match="duplicate"):
            register_sim_engine("batched", lambda sim, plan, state: None)

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(OptionsError, match="unknown engine kind"):
            register("scheduler", "x", lambda: None)
        with pytest.raises(OptionsError, match="unknown engine kind"):
            resolve("scheduler", "x")
        with pytest.raises(OptionsError, match="unknown engine kind"):
            engine_names("scheduler")

    def test_unknown_name_lists_registered_engines(self):
        with pytest.raises(OptionsError) as err:
            resolve("grouping", "astar")
        message = str(err.value)
        assert "astar" in message
        for name in engine_names("grouping"):
            assert name in message

    def test_equivalence_and_optimality_flags(self):
        by_name = {e.name: e for e in engines("grouping")}
        assert by_name["incremental"].equivalence == "greedy"
        assert by_name["reference"].equivalence == "greedy"
        assert by_name["optimal"].equivalence != "greedy"
        assert by_name["optimal"].proves_optimal
        assert not by_name["incremental"].proves_optimal

    def test_temporary_engine_scopes_the_registration(self):
        with temporary_engine("grouping", "toy", lambda g: None):
            assert "toy" in engine_names("grouping")
            with pytest.raises(OptionsError, match="duplicate"):
                register_grouping_engine("toy", lambda g: None)
        assert "toy" not in engine_names("grouping")
        unregister("grouping", "toy")  # idempotent on absent names


class TestResolutionPaths:
    def test_compiler_options_reject_unknown_grouping_engine(self):
        with pytest.raises(OptionsError, match="unknown grouping engine"):
            CompilerOptions(grouping_engine="astar")

    def test_compiler_options_reject_unknown_sim_engine(self):
        with pytest.raises(OptionsError, match="unknown sim engine"):
            CompilerOptions(engine="turbo")

    def test_simulator_rejects_unknown_engine(self):
        with pytest.raises(OptionsError, match="unknown sim engine"):
            Simulator(intel_dunnington(), engine="turbo")

    def test_cli_rejects_unknown_engine_names(self, capsys):
        from repro.cli import main

        # argparse choices come from the registry: both flags fail fast
        # with a usage error, not deep in the pipeline.
        with pytest.raises(SystemExit) as err:
            main(["bench", "--grouping-engine", "astar"])
        assert err.value.code == 2
        assert "astar" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main(["bench", "--engine", "turbo"])
        assert err.value.code == 2

    def test_cli_engines_lists_the_registry(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for kind in ("grouping", "sim"):
            for name in engine_names(kind):
                assert name in out
        assert "proves-optimal" in out

    def test_cli_engines_markdown_matches_registry(self, capsys):
        from repro.cli import main

        assert main(["engines", "--markdown"]) == 0
        assert capsys.readouterr().out.strip() == markdown_table().strip()

    def test_service_wire_rejects_unknown_engine(self):
        # The wire schema accepts the field; the value is validated by
        # CompilerOptions itself, so a bad engine name is a structured
        # client error (HTTP 400 via the ReproError path), not a 500.
        with pytest.raises(ReproError, match="unknown grouping engine"):
            options_from_dict({"grouping_engine": "astar"})
        with pytest.raises(ServiceError, match="unknown compiler option"):
            options_from_dict({"grouping_enigne": "optimal"})

    def test_service_wire_round_trips_engine_options(self):
        options = CompilerOptions(
            grouping_engine="optimal", optimal_node_budget=123
        )
        payload = options_to_dict(options)
        assert payload["grouping_engine"] == "optimal"
        assert payload["optimal_node_budget"] == 123
        assert options_from_dict(payload) == options


class TestCustomEngine:
    def test_custom_grouping_engine_compiles_end_to_end(self):
        # A degenerate engine that refuses every candidate: valid (all
        # statements stay scalar), observably different from greedy, and
        # reachable purely through the public registry + options path.
        from repro.slp.grouping import GroupingTrace

        def no_packing(grouping):
            return GroupingTrace([])

        program = KERNELS["milc"].build(16)
        machine = intel_dunnington()
        with temporary_engine(
            "grouping", "nopack", no_packing, description="test stub"
        ):
            result = compile_program(
                program, Variant.GLOBAL, machine,
                CompilerOptions(grouping_engine="nopack"),
            )
            baseline = compile_program(
                program, Variant.SCALAR, machine
            )
            report, memory = Simulator(machine).run(result.plan)
            ref_report, ref_memory = Simulator(machine).run(baseline.plan)
            assert memory.state_equal(ref_memory)
            # No packing happened: the plan spends at least as many
            # dynamic instructions as the greedy compile.
            greedy = compile_program(program, Variant.GLOBAL, machine)
            greedy_report, _ = Simulator(machine).run(greedy.plan)
            assert report.cycles >= greedy_report.cycles
        with pytest.raises(OptionsError, match="unknown grouping engine"):
            CompilerOptions(grouping_engine="nopack")

    def test_custom_sim_engine_resolves_through_simulator(self):
        sentinel = object()
        seen = {}

        def factory(simulator, plan, state):
            seen["called"] = True
            return None  # fall through to the reference interpreter

        program = KERNELS["cg"].build(8)
        machine = intel_dunnington()
        plan = compile_program(program, Variant.SCALAR, machine).plan
        with temporary_engine("sim", "spy", factory):
            report, _ = Simulator(machine, engine="spy").run(plan)
        assert seen["called"]
        assert report.cycles > 0
        assert sentinel  # keep flake quiet about the unused sentinel


class TestRunLifetime:
    @pytest.mark.parametrize("engine", engine_names("sim"))
    def test_run_state_freed_without_cyclic_gc(self, engine):
        """A run keeps nothing alive once its caller drops the report
        and the memory: no reference cycle through the engine holds
        the ``Memory`` (or the cache and decoded loops beside it) until
        the next cyclic collection."""
        machine = intel_dunnington()
        plan = compile_program(
            KERNELS["lbm"].build(64), Variant.GLOBAL, machine
        ).plan
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            report, memory = Simulator(machine, engine=engine).run(plan)
            alive = weakref.ref(memory)
            del report, memory
            assert alive() is None
        finally:
            if was_enabled:
                gc.enable()


class TestReadmeTable:
    def test_readme_engine_table_is_generated_from_the_registry(self):
        text = README.read_text()
        begin = text.index("<!-- engines:begin")
        begin = text.index("\n", begin) + 1
        end = text.index("<!-- engines:end -->")
        assert text[begin:end].strip() == markdown_table().strip(), (
            "README engine table is stale; regenerate with "
            "`python -m repro engines --markdown`"
        )
