"""The engine tables: ``GROUPING_ENGINES`` (``repro.slp.grouping``) and
``SIM_ENGINES`` (``repro.vm.simulator``).

Every layer that names an engine — ``CompilerOptions``, the simulator,
``BasicGrouping``, the CLI, the fuzzer, the service wire — looks it up
in one of these two dicts; these tests pin that unknown names raise one
structured ``OptionsError`` listing the table's keys on every path, that
an engine put into a table (``monkeypatch.setitem``) is reachable end to
end through ``compile_program`` and ``Simulator``, and that README's
engine table names exactly the keys.
"""

from __future__ import annotations

import gc
import pathlib
import re
import weakref

import pytest

from repro import CompilerOptions, Variant, compile_program
from repro.bench import KERNELS, intel_dunnington
from repro.errors import OptionsError, ReproError, choose
from repro.service import ServiceError, options_from_dict, options_to_dict
from repro.slp.grouping import GROUPING_ENGINES, GroupingTrace
from repro.vm import Simulator
from repro.vm.simulator import SIM_ENGINES

README = pathlib.Path(__file__).parent.parent / "README.md"


class TestRegistry:
    def test_builtins_in_legacy_order(self):
        # Pinned: the docs and the fuzz engine matrix enumerate these
        # in exactly this order.
        assert tuple(GROUPING_ENGINES) == (
            "incremental", "reference", "optimal",
        )
        assert tuple(SIM_ENGINES) == ("reference", "batched", "compiled")

    def test_unknown_name_lists_registered_engines(self):
        with pytest.raises(OptionsError) as err:
            choose("grouping engine", GROUPING_ENGINES, "astar")
        message = str(err.value)
        assert "unknown grouping engine 'astar'" in message
        for name in GROUPING_ENGINES:
            assert name in message


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

    def test_cli_rejects_unknown_engines(self, capsys):
        from repro.cli import main

        # argparse choices are the tables: both flags fail fast with a
        # usage error, not deep in the pipeline.
        with pytest.raises(SystemExit) as err:
            main(["bench", "--grouping-engine", "astar"])
        assert err.value.code == 2
        assert "astar" in capsys.readouterr().err
        with pytest.raises(SystemExit) as err:
            main(["bench", "--engine", "turbo"])
        assert err.value.code == 2

    def test_cli_has_no_engines_subcommand(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as err:
            main(["engines"])
        assert err.value.code == 2
        assert "invalid choice: 'engines'" in capsys.readouterr().err

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
    def test_custom_grouping_engine_compiles_end_to_end(self, monkeypatch):
        # A degenerate engine that refuses every candidate: valid (all
        # statements stay scalar), observably different from greedy, and
        # reachable purely through the table + options path.
        def no_packing(grouping):
            return GroupingTrace([])

        program = KERNELS["milc"].build(16)
        machine = intel_dunnington()
        with monkeypatch.context() as patch:
            patch.setitem(GROUPING_ENGINES, "nopack", no_packing)
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

    def test_custom_sim_engine_resolves_through_simulator(
        self, monkeypatch
    ):
        seen = {}

        def factory(simulator, plan, state):
            seen["called"] = True
            return None  # fall through to the reference interpreter

        program = KERNELS["cg"].build(8)
        machine = intel_dunnington()
        plan = compile_program(program, Variant.SCALAR, machine).plan
        monkeypatch.setitem(SIM_ENGINES, "spy", factory)
        report, _ = Simulator(machine, engine="spy").run(plan)
        assert seen["called"]
        assert report.cycles > 0


class TestRunLifetime:
    @pytest.mark.parametrize("engine", SIM_ENGINES)
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
    def test_readme_engine_table_names_the_table_keys(self):
        text = README.read_text()
        section = text[text.index("\n## Engines\n"):]
        section = section[:section.index("\n## ", 1)]
        rows = re.findall(r"^\| (grouping|sim) \| `([^`]+)` \|", section, re.M)
        assert [name for kind, name in rows if kind == "grouping"] == list(
            GROUPING_ENGINES
        )
        assert [name for kind, name in rows if kind == "sim"] == list(
            SIM_ENGINES
        )
