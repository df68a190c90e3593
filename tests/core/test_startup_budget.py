"""Each CLI command imports what it runs and nothing else (fresh interpreters).

The budgets — a deny-list and ceilings on ``repro`` modules and on their
source lines, which is what a ``.pyc``-free start compiles — live in one
table, ``tools/startup_budget.py::BUDGETS``; CI's lint job runs the same
tool with ``--check``.  Timing (the wall and the exit) is the tool's
business, not this test's; only the exit ceiling's check is unit-tested.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "startup_budget", Path(__file__).resolve().parents[2] / "tools" / "startup_budget.py"
)
startup_budget = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(startup_budget)


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    work = tmp_path_factory.mktemp("startup")
    return startup_budget.commands(startup_budget.make_inputs(work), work), work


@pytest.fixture(scope="module")
def loaded(commands):
    """``{command: {module: file}}``, one fresh interpreter per command."""
    cmds, work = commands
    return {
        name: startup_budget.imported(args, name == "serve", work)
        for name, args in cmds.items()
    }


@pytest.mark.parametrize("name", sorted(startup_budget.BUDGETS))
def test_command_stays_within_its_import_budget(loaded, name):
    assert startup_budget.violations(name, loaded[name], wall=None) == []


def test_help_loads_no_numpy_and_only_the_cli(loaded):
    own = sorted(m for m in loaded["help"] if startup_budget.is_repro(m))
    assert "numpy" not in loaded["help"]
    assert own == ["repro", "repro._lazy", "repro._version", "repro.cli", "repro.errors"]


@pytest.mark.parametrize("name", ["lint-hybrid", "plan-blast", "plan-hybrid", "explain-blast"])
def test_the_front_end_loads_no_numpy(loaded, name):
    # parse, the lint gate, the planner and the physical plan touch no
    # record, so neither numpy nor the modules that hold records load
    assert "numpy" not in loaded[name]
    assert not any(m in loaded[name] for m in startup_budget._RECORDS)
    assert "repro.core.planner" in loaded[name]


@pytest.mark.parametrize("name", ["lint-hybrid", "plan-blast", "plan-hybrid", "explain-blast"])
def test_the_front_end_builds_no_class_from_generated_source(loaded, name):
    # its records are NamedTuples and plain classes, not @dataclass: no
    # dataclasses, and no inspect that only dataclasses imported
    assert "dataclasses" not in loaded[name]
    assert "inspect" not in loaded[name]


@pytest.mark.parametrize("name", ["run-blast", "run-budget", "run-hybrid"])
def test_a_one_rank_run_builds_no_dataclass(loaded, name):
    assert "dataclasses" not in loaded[name]


@pytest.mark.parametrize("name", ["plan-blast", "run-blast", "run-budget", "run-process"])
def test_a_blast_command_loads_no_operator_it_does_not_name(loaded, name):
    # sort and distribute only: the other built-ins load when a workflow names them
    assert not any(m in loaded[name] for m in startup_budget._UNNAMED_OPS)
    assert not any(m in loaded[name] for m in startup_budget._ADVISORY_RULES)


@pytest.mark.parametrize("name", sorted(set(startup_budget.BUDGETS) - {"help"}))
def test_a_command_loads_its_own_module_and_no_other(loaded, name):
    command = name.split("-")[0]
    assert f"repro.commands.{command}" in loaded[name]
    assert [m for m in loaded[name] if m.startswith("repro.commands.")] == [
        f"repro.commands.{command}"
    ]
    assert set(startup_budget._others(command)) <= set(startup_budget.BUDGETS[name].deny)


@pytest.mark.parametrize("name", ["plan-blast", "plan-hybrid"])
def test_plan_compiles_neither_the_physical_plan_nor_a_record_kernel(loaded, name):
    assert "repro.core.physical" not in loaded[name]
    assert "repro.order" not in loaded[name]  # the dealer and the sort keys
    assert "repro.core.physical" in startup_budget.BUDGETS[name].deny


def test_the_gate_compiles_only_the_rule_modules_that_can_block(loaded):
    # the checkers that only warn (PAP013, PAP023, PAP025, PAP042-PAP044)
    # live beside the advisories, which the gate never loads
    assert "repro.analysis.rules.advisory" not in loaded["plan-hybrid"]
    assert "repro.analysis.rules.advisory" in loaded["lint-hybrid"]


def test_a_process_run_loads_neither_secrets_nor_the_cost_model(loaded):
    assert "secrets" not in loaded["run-process"]
    assert not any(m.startswith("repro.cluster") for m in loaded["run-process"])
    assert {"secrets", "repro.cluster"} <= set(startup_budget.BUDGETS["run-process"].deny)


def test_lint_reads_no_input_file(loaded):
    # every rule runs; records come from --assume-records or a stat, never a scan
    assert "repro.analysis.rules.advisory" in loaded["lint-hybrid"]
    assert not any(m.startswith("repro.ooc") for m in loaded["lint-hybrid"])


@pytest.mark.parametrize("name", ["plan-blast", "plan-hybrid", "run-blast", "run-hybrid"])
def test_the_gate_loads_no_cost_model(loaded, name):
    # the wire price is rendered by explain and reported by info rules only
    assert "repro.analysis.explain" not in loaded[name]
    assert not any(m.startswith("repro.ooc") for m in loaded[name])


def test_budgeted_and_process_runs_load_what_they_use(loaded):
    assert "repro.ooc.budget" in loaded["run-budget"]
    assert "repro.ooc.chunked" in loaded["run-budget"]
    assert "repro.mpi.process_backend" in loaded["run-process"]
    assert not any(m.startswith("repro.fault") for m in loaded["run-process"])


@pytest.mark.parametrize("name", ["run-blast", "run-budget", "run-process"])
def test_a_blast_run_loads_no_kernel_it_does_not_run(loaded, name):
    # its sort exchanges nothing, it groups nothing and reads no text; the
    # run counters live in repro.core.perf, not beside the shuffle kernels
    assert "repro.core.perf" in loaded[name]
    for module in startup_budget._UNRUN:
        assert module not in loaded[name]


def test_a_run_that_does_not_spill_loads_no_run_file(loaded):
    assert "repro.ooc.spill" in loaded["run-budget"]
    assert "repro.ooc.runfile" not in loaded["run-budget"]
    assert "repro.ooc.extsort" not in loaded["run-budget"]


def test_the_daemon_loads_neither_the_client_nor_the_fault_layer(loaded):
    assert "repro.serve.server" in loaded["serve"]
    assert "repro.serve.client" not in loaded["serve"]
    assert not any(m.startswith("repro.fault") for m in loaded["serve"])


def test_the_budget_check_catches_a_denied_module():
    mods = {"repro": "", "repro.mpi": "", "numpy": ""}
    assert startup_budget.violations("run-blast", mods, wall=None) == [
        "imports repro.mpi"
    ]
    assert startup_budget.violations("plan-blast", mods, wall=None) == [
        "imports repro.mpi", "imports numpy"
    ]
    assert "imports numpy" in startup_budget.violations("help", mods, wall=None)
    assert startup_budget.violations("plan-blast", {"repro": "", "numpy": ""},
                                     wall=None) == ["imports numpy"]


def test_the_budget_check_catches_a_slow_exit():
    mods = {"repro": ""}
    ceiling = startup_budget.BUDGETS["run-blast"].exit
    assert startup_budget.violations("run-blast", mods, wall=None, exit_s=ceiling) == []
    assert startup_budget.violations("run-blast", mods, wall=None, exit_s=0.03) == [
        f"exit 0.0300 s > {ceiling} s"
    ]
    # serve is stopped, not finished: it has no exit ceiling
    assert startup_budget.BUDGETS["serve"].exit is None

