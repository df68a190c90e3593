"""One front end: ``plan``/``codegen``/``run``/``serve`` read each config
file once, parse it once, plan once, and execute the plan the gate checked;
``lint``/``explain`` read, parse and plan once too.
"""

import sys
from pathlib import Path

import pytest

import repro.analysis.locate as locate
import repro.analysis.explain  # noqa: F401  (loads the analysis verbs before ``calls`` patches)
from repro.cli import main
from repro.core.planner import Planner
from repro.formats import BLAST_INDEX_SCHEMA, write_binary

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
try:
    from apps.blast import generate_index
finally:
    sys.path.pop(0)

REPO = Path(__file__).resolve().parents[2]
WORKFLOW = str(REPO / "configs" / "blast_partition.xml")
INPUT = str(REPO / "configs" / "blast_db.xml")


@pytest.fixture
def blast(tmp_path):
    """The shipped BLAST pair's argument list over a small index."""
    index = tmp_path / "db.index"
    write_binary(index, generate_index("env_nr", num_sequences=300, seed=3),
                 BLAST_INDEX_SCHEMA, header=b"\x00" * 32)
    return ["--workflow", WORKFLOW, "--input-config", INPUT,
            "--arg", f"input_path={index}", "--arg", f"output_path={tmp_path / 'out'}",
            "--arg", "num_partitions=4"]


@pytest.fixture
def calls(monkeypatch):
    """Count ``read_config``, ``parse_located`` and ``Planner.plan`` calls,
    wherever a module imported them from."""
    counts = {"read_config": 0, "parse_located": 0, "plan": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in ("read_config", "parse_located"):
        real = getattr(locate, name)
        wrapper = counted(name, real)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(Planner, "plan", counted("plan", Planner.plan))
    return counts


ONCE = {"read_config": 2, "parse_located": 2, "plan": 1}


@pytest.mark.parametrize("backend", ["serial", "mpi", "mapreduce", "process"])
def test_run_reads_parses_and_plans_once(blast, calls, backend, capsys):
    ranks = "1" if backend == "serial" else "2"
    assert main(["run", *blast, "--backend", backend, "--ranks", ranks]) == 0
    assert "wrote 4 partition(s)" in capsys.readouterr().out
    assert calls == ONCE


@pytest.mark.parametrize("command", [["run", "--no-lint"], ["plan"], ["codegen"]])
def test_other_commands_read_parse_and_plan_once(blast, calls, command, capsys):
    assert main([command[0], *blast, *command[1:]]) == 0
    assert calls == ONCE


def test_serve_start_up_plans_once(blast, calls, monkeypatch, capsys):
    """Front end, daemon and warm start share the gate's plan."""
    import repro.serve
    from repro.serve import PartitionServer

    async def start_only(papar, workflow, args, config=None, ready=None):
        server = PartitionServer(papar, workflow, args, config=config)
        server._load_initial_state()
        return server

    monkeypatch.setattr(repro.serve, "run_server", start_only)
    assert main(["serve", *blast, "--port", "0"]) == 0
    assert "drained at generation 0 (300 records)" in capsys.readouterr().out
    assert calls == ONCE


@pytest.mark.parametrize("verb", ["lint", "explain"])
def test_analysis_verbs_read_parse_and_plan_once(calls, verb, capsys):
    assert main([verb, WORKFLOW, "--input", INPUT]) == 0
    assert calls == ONCE


def _typo(tmp_path):
    path = tmp_path / "typo.xml"
    text = Path(WORKFLOW).read_text().replace('value="seq_size"', 'value="seq_sizze"')
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ["codegen", "plan", "run"])
def test_gate_rejects_a_key_typo_with_the_located_rule(blast, tmp_path, command, capsys):
    workflow = _typo(tmp_path)
    argv = [command, *blast, "--workflow", workflow]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{workflow}:12: error PAP020 operator 'sort' keys on 'seq_sizze'" in err
    assert "fix: did you mean 'seq_size'?" in err


@pytest.mark.parametrize("command", ["codegen", "plan", "run"])
def test_no_lint_still_rejects_a_key_typo(blast, tmp_path, command, capsys):
    workflow = _typo(tmp_path)
    assert main([command, *blast, "--workflow", workflow, "--no-lint"]) == 2
    err = capsys.readouterr().err
    assert "keys on 'seq_sizze', which is not a field available at this stage" in err
    assert f"did you mean 'seq_size'? [{workflow}:12]" in err


def test_a_missing_argument_is_named(blast, capsys):
    assert blast[-2:] == ["--arg", "num_partitions=4"]
    assert main(["plan", *blast[:-2]]) == 2
    assert "workflow argument 'num_partitions' has no value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "plan"])
def test_an_elided_plan_is_planned_once(blast, calls, command, tmp_path, capsys):
    """Dropping the fused workflow's first sort is part of the one plan."""
    from tests.integration._shapes import FUSED_SORTS

    fused = tmp_path / "fused.xml"
    fused.write_text(FUSED_SORTS)
    assert main([command, *blast, "--workflow", str(fused)]) == 0
    assert calls == ONCE
